"""Distance metrics and report serialization."""
from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fedshapley import (
    ComparisonRow,
    ContributionVector,
    build_report,
    cosine_distance,
    euclidean_distance,
    max_difference,
    read_report,
    report_to_csv,
    write_report,
)
from fedshapley.metrics import CSV_HEADER, REPORT_SCHEMA


def test_cosine_distance_hand_values():
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert cosine_distance([3.0, 4.0], [6.0, 8.0]) == 0.0  # scale invariant
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0
    assert cosine_distance([1.0, 2.0], [0.0, 0.0]) == 1.0  # zero estimate
    with pytest.raises(ValueError, match="nonzero"):
        cosine_distance([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="mismatch"):
        cosine_distance([1.0, 2.0], [1.0, 2.0, 3.0])


def test_cosine_distance_never_negative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=5)
        scale = float(rng.uniform(0.1, 10.0))
        assert cosine_distance(v, scale * v) >= 0.0
        assert cosine_distance(v, scale * v) == pytest.approx(0.0, abs=1e-12)


def test_euclidean_and_max_difference():
    assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0
    assert max_difference([0.0, 0.0], [3.0, 4.0]) == 4.0
    assert euclidean_distance([1.0, 1.0], [1.0, 1.0]) == 0.0
    with pytest.raises(ValueError, match="mismatch"):
        euclidean_distance([1.0], [1.0, 2.0])


@pytest.mark.parametrize("metric", [cosine_distance, euclidean_distance,
                                    max_difference])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metrics_refuse_values_that_are_not_finite(metric, bad):
    # cosine_distance used to read a NaN or infinite estimate as 0.0
    for truth, est, which in (([1.0, 2.0], [bad, 1.0], "estimate"),
                              ([bad, 1.0], [1.0, 2.0], "reference")):
        with pytest.raises(ValueError, match=f"^{which} vector") as err:
            metric(truth, est)
        assert "\n" not in str(err.value)


def test_metrics_accept_contribution_vectors():
    truth = ContributionVector(np.array([1.0, 2.0, 3.0]))
    est = ContributionVector(np.array([1.0, 2.0, 4.0]))
    assert euclidean_distance(truth, est) == 1.0
    assert max_difference(truth, est) == 1.0
    assert cosine_distance(truth, truth) == 0.0


def test_norm_inequalities_hold():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        t, e = rng.normal(size=n), rng.normal(size=n)
        linf = max_difference(t, e)
        l2 = euclidean_distance(t, e)
        assert linf <= l2 + 1e-15
        assert l2 <= math.sqrt(n) * linf + 1e-15


def test_comparison_row_validation_and_types():
    row = ComparisonRow("mr", 0, 0.5, 0.25, eval_count=np.int64(80),
                        wall_time_s=0.125, log10_time=math.log10(0.125))
    assert row.eval_count == 80 and row.cosine_distance == 0
    # a float count or a bool time is refused, not coerced
    for bad in ({"eval_count": 80.0}, {"eval_count": 2.9}, {"wall_time_s": True},
                {"log10_time": "0"}, {"cosine_distance": None}):
        with pytest.raises(ValueError, match="must be"):
            ComparisonRow(**{**dataclasses.asdict(row), **bad})
    with pytest.raises(ValueError, match=">= 0"):
        ComparisonRow("x", -0.1, 0.0, 0.0, 1, 1.0, 0.0)
    with pytest.raises(ValueError, match="exceed 2"):
        ComparisonRow("x", 2.5, 0.0, 0.0, 1, 1.0, 0.0)


def test_compare_scores_a_report_against_truth():
    truth = np.array([0.2, 0.3, 0.5])
    report = SimpleNamespace(name="gtg", total=truth.copy(), eval_count=42,
                             wall_time=0.0)
    row = ComparisonRow.compare(truth, report)
    assert row.estimator_name == "gtg"
    assert row.cosine_distance == 0.0
    assert row.euclidean_distance == 0.0
    assert row.max_difference == 0.0
    assert row.eval_count == 42
    assert row.log10_time == -9.0  # zero wall time hits the log floor


def test_csv_layout_and_float_round_trip():
    rows = [ComparisonRow("mr", 0.0, 0.1, 0.05, 80, 0.015625, math.log10(0.015625)),
            ComparisonRow("gtg", 1e-3, 0.2, 0.1, 33, 0.25, math.log10(0.25))]
    text = report_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3 and text.endswith("\n")
    fields = lines[2].split(",")
    assert fields[0] == "gtg"
    # repr round-trips every float exactly
    assert float(fields[1]) == 1e-3
    assert float(fields[5]) == 0.25
    assert int(fields[4]) == 33
    with pytest.raises(ValueError):
        report_to_csv([])


def test_report_round_trip_and_byte_stability(tmp_path):
    rows = [ComparisonRow("mr", 0.0, 0.0, 0.0, 80, 0.5, math.log10(0.5))]
    doc = build_report(rows, metadata={"rounds": 3, "scenario": "equal_balanced"})
    assert doc["schema"] == REPORT_SCHEMA
    csv_path, json_path = write_report(doc, tmp_path, "run")
    assert csv_path.name == "run.csv" and json_path.name == "run.json"
    loaded = read_report(json_path)
    assert loaded == doc
    assert csv_path.read_text().splitlines()[0] == CSV_HEADER

    first = json_path.read_bytes(), csv_path.read_bytes()
    write_report(doc, tmp_path, "run")
    assert (json_path.read_bytes(), csv_path.read_bytes()) == first

    with pytest.raises(ValueError):
        build_report([])


def test_report_reader_rejects_other_schemas(tmp_path):
    rows = [ComparisonRow("mr", 0.0, 0.0, 0.0, 80, 0.5, math.log10(0.5))]
    doc = build_report(rows)
    doc["schema"] = "fedshapley-report-v0"
    path = tmp_path / "old.json"
    import json
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema"):
        read_report(path)
    path.write_text("{}")
    with pytest.raises(ValueError, match="schema"):
        read_report(path)
