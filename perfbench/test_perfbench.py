"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def fs():
    return workloads.import_package()


def _attribute(module_name, path):
    owner, attr = spans._owner(module_name, path)
    return owner.__dict__[attr]


def test_inputs_are_byte_identical_for_a_seed(fs, tmp_path):
    for name, workload in workloads.WORKLOADS.items():
        first = workload.input_digest(workload.build_inputs(fs, 5, tmp_path / "a"))
        again = workload.input_digest(workload.build_inputs(fs, 5, tmp_path / "b"))
        assert first == again, name
    sample = workloads.WORKLOADS["sample"]
    other = sample.input_digest(sample.build_inputs(fs, 6, tmp_path / "c"))
    assert other != sample.input_digest(sample.build_inputs(fs, 5, tmp_path / "a"))


def test_tracer_restores_every_patched_attribute(fs):
    originals = {(m, p): _attribute(m, p) for m, p, _ in spans.PATCHES}
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            for (m, p), original in originals.items():
                assert _attribute(m, p) is not original, p
            raise RuntimeError("leave the block early")
    for (m, p), original in originals.items():
        assert _attribute(m, p) is original, p


@pytest.mark.parametrize("name", ["enum", "sample"])
def test_traced_pass_matches_untraced_pass(fs, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build_inputs(fs, 3, tmp_path)
    inputs.logs = inputs.logs[:1]  # one n=10 log keeps the test short
    logs = workload.simulate(fs, inputs)
    plain = workload.result(fs, inputs, logs, workload.estimate(fs, inputs, logs))
    with spans.Tracer() as tracer:
        logs = workload.simulate(fs, inputs)
        reports = workload.estimate(fs, inputs, logs)
    traced = workload.result(fs, inputs, logs, reports)
    assert traced.fingerprint == plain.fingerprint
    assert traced.evals == plain.evals
    assert not any(traced.ops.values())
    assert spans.summarize(tracer)["models.evaluate"]["calls"] == traced.evals


def test_self_time_on_a_hand_built_tree():
    #   0 [0, 10]
    #   +-- 1 [1, 4]      +-- 2 [2, 3]
    #   +-- 3 [3.5, 6]    overlaps 1 by 0.5
    #   +-- 4 [9, 12]     runs past its parent, clipped at 10
    parents = [spans.NO_PARENT, 0, 1, 0, 0]
    starts = [0.0, 1.0, 2.0, 3.5, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    assert spans.self_times(parents, starts, ends) == [4.0, 2.0, 1.0, 2.5, 3.0]


def test_wrapped_calls_record_parents_and_exclusions(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    ticks = iter(range(100))
    tracer = spans.Tracer(patches=(("perfbench_fake", "outer", "fake.outer"),
                                   ("perfbench_fake", "inner", "fake.inner")),
                          clock=lambda: float(next(ticks)))
    with tracer:
        assert mod.outer() == 2
        with tracer.excluded():
            mod.outer()
    assert mod.outer is outer and mod.inner is inner
    summary = spans.summarize(tracer)
    # outer runs 0..5 with children 1..2 and 3..4
    assert summary["fake.outer"] == {"calls": 1, "self_s": 3.0, "durations": [5.0]}
    assert summary["fake.inner"]["calls"] == 2
    assert spans.child_calls(tracer, "fake.outer", "fake.inner") == 2
