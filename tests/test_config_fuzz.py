"""Config and sidecar fuzzing: each field deleted, or set to each value of
``VALUES``, must end ``fedshapley`` in exit 0, 1 or 2 with at most one line
on stderr and no traceback.

Configs go through ``simulate --print-config``, so nothing trains.  The
sidecar of one n = 2, one-round log, written as earlier runs wrote it (with
the retired keys and an ``output_dir``), goes through ``evaluate --estimator
gtg``.  Every field
meets every mutation, so the run is the same each time.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
from pathlib import Path

import pytest

from fedshapley.cli import CONFIG_SCHEMA, EXIT_OK, EXIT_USAGE, main

DELETE = object()
VALUES = [None, -1, 0, 1.5, "x", [], {}, True, 1e308, math.nan, 2 ** 70]
ALIAS_KIND = "NoisyLabels"

CONFIG = {
    "schema": CONFIG_SCHEMA, "seed": 3, "rounds": 1,
    "source": {"input_dim": 4, "class_count": 3, "spread": 1.0},
    "scenario": {"kind": "noisy_labels", "n": 2,
                 "params": {"flip_rates": [0.0, 0.25]}},
    "model": {"hidden_dim": 2},
    "train": {"local_epochs": 1, "batch_size": 4, "learning_rate": 0.1},
    "data": {"train_per_class": 4, "test_per_class": 2},
    "estimators": [{"name": "gtg", "params": {"eps_within": 0.001}}],
}
# keys no config sets now; the first four earlier sidecars hold
RETIRED = {("scenario", "per_class_pool"): 100, ("model", "activation"): "relu",
           ("model", "input_dim"): 4, ("model", "class_count"): 3,
           ("source", "class_means"): [[0.0] * 4] * 3}
# a top-level key no config holds
UNKNOWN = ("roundz",)


def paths(doc: dict, prefix=()) -> list[tuple]:
    """Every key path of ``doc``'s tables, tables before their keys."""
    found = []
    for key, value in doc.items():
        found.append((*prefix, key))
        if isinstance(value, dict):
            found += paths(value, (*prefix, key))
    return found


def mutated(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    table = doc
    for key in path[:-1]:
        table = table.setdefault(key, {})
    if value is DELETE:
        table.pop(path[-1], None)
    else:
        table[path[-1]] = value
    return doc


def mutations(doc: dict, extra: list[tuple]):
    """(path, value) for each path of ``doc`` and of ``extra``, and each
    value: deleted, each of ``VALUES``, and an alias for a kind."""
    for path in dict.fromkeys(paths(doc) + extra):
        for value in [DELETE, *VALUES] + [ALIAS_KIND] * (path[-1] == "kind"):
            yield path, value


def ended(argv, capsys) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, err
    assert bool(err) == (code != EXIT_OK), err
    return code


def expected(path: tuple, value, code: int) -> None:
    """A config's ``path`` set to ``value`` ended in ``code``: any
    class_means, an alias kind, an unknown top-level key and a retired key
    holding another value than its one are usage errors, and deleting a
    retired key changes nothing.  A sidecar's output_dir is dropped, whatever
    it holds."""
    if path == UNKNOWN:
        assert code == (EXIT_OK if value is DELETE else EXIT_USAGE), (path, value)
    elif path == ("output_dir",):
        assert code == EXIT_OK, value
    elif path in RETIRED and path[-1] != "per_class_pool":
        assert code == (EXIT_OK if value is DELETE else EXIT_USAGE), (path, value)
    elif path == ("scenario", "kind") and value == ALIAS_KIND:
        assert code == EXIT_USAGE


def test_every_config_mutation_ends_in_one_line(tmp_path, capsys):
    config = tmp_path / "exp.json"
    extra = [*RETIRED, UNKNOWN]
    codes = []
    for path, value in mutations(CONFIG, extra):
        config.write_text(json.dumps(mutated(CONFIG, path, value)))
        code = ended(["simulate", "--config", str(config), "--print-config"], capsys)
        expected(path, value, code)
        codes.append(code)
    assert len(codes) > 300 and {0, 1} <= set(codes)


@pytest.fixture(scope="module")
def old_log(tmp_path_factory):
    """An n = 2, one-round log whose sidecar holds the retired keys and an
    output directory, as sidecars earlier runs wrote do."""
    out = tmp_path_factory.mktemp("old")
    config = out / "exp.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    (log,) = out.glob("*.gtgl")
    sidecar = Path(f"{log}.json")
    doc = json.loads(sidecar.read_text())
    for (section, key), value in RETIRED.items():
        if key != "class_means":
            doc["metadata"]["config"][section][key] = value
    doc["metadata"]["config"]["output_dir"] = str(out / "runs")
    sidecar.write_text(json.dumps(doc))
    return log, doc


def test_every_sidecar_mutation_ends_in_one_line(old_log, tmp_path, capsys):
    log, doc = old_log
    argv = ["evaluate", "--log", str(tmp_path / log.name), "--estimator", "gtg",
            "--out", str(tmp_path / "out"), "--quiet"]
    shutil.copy(log, tmp_path / log.name)
    sidecar = tmp_path / f"{log.name}.json"
    sidecar.write_text(json.dumps(doc))
    assert ended(argv, capsys) == EXIT_OK
    codes = []
    for path, value in mutations(doc, [("metadata", "config", "source", "class_means")]):
        sidecar.write_text(json.dumps(mutated(doc, path, value)))
        code = ended(argv, capsys)
        expected(path[2:], value, code)
        codes.append(code)
    assert len(codes) > 300 and {0, 1, 2} <= set(codes)
    assert not Path(doc["metadata"]["config"]["output_dir"]).exists()
