"""Command-line driver, exercised in-process through main(argv).

Exit-code contract: 0 success, 1 usage/config error, 2 runtime/data error.
"""
from __future__ import annotations

import json

import pytest

from fedshapley.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    ESTIMATE_SCHEMA,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    OUT_DIR_ENV,
    config_to_dict,
    main,
    parse_config,
)
from fedshapley.metrics import CSV_HEADER, REPORT_SCHEMA

STEM = "same_dist_same_size_seed3"


def write_config(path, **overrides):
    doc = {
        "schema": CONFIG_SCHEMA,
        "seed": 3,
        "rounds": 2,
        "source": {"input_dim": 6, "class_count": 3, "spread": 1.2},
        "scenario": {"kind": "same_dist_same_size", "n": 3},
        "train": {"local_epochs": 1, "batch_size": 8, "learning_rate": 0.1},
        "data": {"train_per_class": 20, "test_per_class": 6},
        "estimators": ["mr", {"name": "gtg",
                              "params": {"max_perms_per_round": 30}}],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "exp.json")


def simulate(config_path, out_dir) -> str:
    code = main(["simulate", "--config", str(config_path),
                 "--out", str(out_dir), "--quiet"])
    assert code == EXIT_OK
    return str(out_dir / f"{STEM}.gtgl")


# --- simulate --------------------------------------------------------------------


def test_simulate_writes_log_and_sidecar(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_OK
    log_path = out / f"{STEM}.gtgl"
    assert log_path.exists() and (out / f"{STEM}.gtgl.json").exists()
    stdout = capsys.readouterr().out
    assert "log:" in stdout and "accuracy:" in stdout and "2 rounds" in stdout


def test_simulate_reruns_are_byte_identical(config_path, tmp_path):
    a = simulate(config_path, tmp_path / "a")
    b = simulate(config_path, tmp_path / "b")
    from pathlib import Path
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert Path(a + ".json").read_bytes() == Path(b + ".json").read_bytes()


def test_simulate_quiet_prints_nothing(config_path, tmp_path, capsys):
    simulate(config_path, tmp_path)
    assert capsys.readouterr().out == ""


def test_seed_override_changes_stem_and_streams(config_path, tmp_path):
    code = main(["simulate", "--config", str(config_path), "--seed", "9",
                 "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_OK
    other = tmp_path / "same_dist_same_size_seed9.gtgl"
    assert other.exists()
    base = simulate(config_path, tmp_path / "b")
    from pathlib import Path
    assert Path(base).read_bytes() != other.read_bytes()


def test_out_dir_env_fallback(config_path, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(OUT_DIR_ENV, str(target))
    code = main(["simulate", "--config", str(config_path), "--quiet"])
    assert code == EXIT_OK
    assert (target / f"{STEM}.gtgl").exists()


def test_print_config_round_trips(config_path, tmp_path, capsys):
    code = main(["simulate", "--config", str(config_path), "--print-config"])
    assert code == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["schema"] == CONFIG_SCHEMA
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(printed))
    assert config_to_dict(parse_config(echo)) == printed


# --- config validation -----------------------------------------------------------


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--quiet"])
    assert code == EXIT_USAGE
    assert "cannot read config" in capsys.readouterr().err


def test_zero_rounds_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", rounds=0)
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    assert "rounds must be >= 1" in capsys.readouterr().err


def test_wrong_config_schema_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", schema="fedshapley-config-v0")
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    assert "schema" in capsys.readouterr().err


def test_unknown_estimator_in_config_lists_names(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", estimators=["mre"])
    assert main(["compare", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown estimator 'mre'" in err and "mr" in err and "tmc" in err


@pytest.mark.parametrize("entry", [
    {"name": "gtg", "params": {"eps_withn": 0.01}},
    {"name": "tmr", "params": {"eps_within": 0.01}},
    {"name": "mr", "params": {"lam": 0.5}},
    {"name": "gtg", "params": [1, 2]},
    7,
])
def test_bad_estimator_entries_fail_before_any_training(tmp_path, capsys, entry):
    cfg = write_config(tmp_path / "exp.json", estimators=["mr", entry])
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert main(["compare", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("compare_*"))


def test_argparse_usage_error_is_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --config is required
    assert exc.value.code == EXIT_USAGE


def test_compare_guards_large_player_counts(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json",
                       scenario={"kind": "same_dist_same_size", "n": 12},
                       estimators=["mr"])
    assert main(["compare", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    assert "n=12" in capsys.readouterr().err


# --- evaluate --------------------------------------------------------------------


def test_evaluate_writes_estimate_document(config_path, tmp_path, capsys):
    log = simulate(config_path, tmp_path)
    code = main(["evaluate", "--log", log, "--estimator", "mr",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert f"evaluations: {2 * 2 ** 3}" in stdout
    doc = json.loads((tmp_path / f"estimate_mr_{STEM}.json").read_text())
    assert doc["schema"] == ESTIMATE_SCHEMA
    assert doc["estimator"] == "mr"
    assert doc["eval_count"] == 16
    assert len(doc["per_round"]) == 2 and len(doc["total"]) == 3
    summed = [sum(r["values"][i] for r in doc["per_round"]) for i in range(3)]
    assert summed == pytest.approx(doc["total"], abs=1e-12)


def test_evaluate_is_deterministic_for_sampling_estimators(config_path, tmp_path):
    log = simulate(config_path, tmp_path)
    results = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        assert main(["evaluate", "--log", log, "--estimator", "gtg",
                     "--out", str(out), "--quiet"]) == EXIT_OK
        doc = json.loads((out / f"estimate_gtg_{STEM}.json").read_text())
        results.append((doc["total"], doc["per_round"], doc["eval_count"]))
    assert results[0] == results[1]


def test_evaluate_accepts_params_file(config_path, tmp_path):
    log = simulate(config_path, tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"eps_within": 0.5, "seed": 1}))
    assert main(["evaluate", "--log", log, "--estimator", "gtg_ti",
                 "--params", str(params), "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    assert (tmp_path / f"estimate_gtg_ti_{STEM}.json").exists()


def test_evaluate_bad_params_values_are_runtime_errors(config_path, tmp_path, capsys):
    log = simulate(config_path, tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"eps_within": -1.0}))
    assert main(["evaluate", "--log", log, "--estimator", "gtg",
                 "--params", str(params), "--out", str(tmp_path),
                 "--quiet"]) == EXIT_RUNTIME


@pytest.mark.parametrize("params", [{"eps_withn": 0.01}, [1, 2], "gtg"])
def test_evaluate_bad_params_tables_are_usage_errors(tmp_path, capsys, params):
    # checked before the log is read: the log here does not even exist
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["evaluate", "--log", str(tmp_path / "absent.gtgl"),
                 "--estimator", "gtg", "--params", str(path),
                 "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "params.json" in err


@pytest.mark.parametrize("estimator", ["mr", "tmr"])
def test_enumeration_past_its_guard_stops_at_once(tmp_path, capsys, estimator):
    cfg = write_config(tmp_path / "wide.json", rounds=1,
                       scenario={"kind": "same_dist_same_size", "n": 21},
                       data={"train_per_class": 21, "test_per_class": 2})
    log = simulate(cfg, tmp_path)
    assert main(["evaluate", "--log", log, "--estimator", estimator,
                 "--quiet"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "2^21" in err


def test_evaluate_missing_params_file_is_usage_error(config_path, tmp_path, capsys):
    log = simulate(config_path, tmp_path)
    assert main(["evaluate", "--log", log, "--estimator", "gtg",
                 "--params", str(tmp_path / "nope.json"),
                 "--quiet"]) == EXIT_USAGE
    assert "cannot read params" in capsys.readouterr().err


def test_evaluate_unknown_estimator(config_path, tmp_path, capsys):
    log = simulate(config_path, tmp_path)
    assert main(["evaluate", "--log", log, "--estimator", "shapley",
                 "--quiet"]) == EXIT_USAGE
    assert "registered:" in capsys.readouterr().err


def test_evaluate_corrupt_log_is_a_runtime_error(config_path, tmp_path, capsys):
    log = simulate(config_path, tmp_path)
    from pathlib import Path
    raw = bytearray(Path(log).read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    Path(log).write_bytes(bytes(raw))
    assert main(["evaluate", "--log", log, "--estimator", "mr",
                 "--out", str(tmp_path), "--quiet"]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_evaluate_needs_embedded_config(config_path, tmp_path, capsys):
    log = simulate(config_path, tmp_path)
    from pathlib import Path
    sidecar = Path(log + ".json")
    doc = json.loads(sidecar.read_text())
    doc["metadata"] = {}
    sidecar.write_text(json.dumps(doc))
    assert main(["evaluate", "--log", log, "--estimator", "mr",
                 "--out", str(tmp_path), "--quiet"]) == EXIT_RUNTIME
    assert "no embedded config" in capsys.readouterr().err


# --- compare and report ------------------------------------------------------------


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    cfg = write_config(out / "exp.json", rounds=1,
                       estimators=["mr", "gtg", "tmr"])
    code = main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    return out


def test_compare_emits_csv_and_json(compare_run):
    csv_path = compare_run / f"compare_{STEM}.csv"
    json_path = compare_run / f"compare_{STEM}.json"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + one row per estimator
    doc = json.loads(json_path.read_text())
    assert doc["schema"] == REPORT_SCHEMA
    assert {r["estimator_name"] for r in doc["rows"]} == {"mr", "gtg", "tmr"}
    for row in doc["rows"]:
        assert row["cosine_distance"] >= 0.0
        assert row["eval_count"] > 0


def test_compare_metadata_carries_ground_truth(compare_run):
    doc = json.loads((compare_run / f"compare_{STEM}.json").read_text())
    meta = doc["metadata"]
    assert len(meta["ground_truth"]) == 3
    assert meta["ground_truth_evals"] == 2 ** 3
    assert meta["scenario"] == "same_dist_same_size"
    assert set(meta["trajectories"]) == {"mr", "gtg", "tmr"}
    assert meta["config"]["schema"] == CONFIG_SCHEMA


def test_report_merges_and_prints_table(compare_run, capsys):
    path = str(compare_run / f"compare_{STEM}.json")
    assert main(["report", path, path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "scenario" in out.splitlines()[0]
    assert out.count(" mr ") >= 2  # merged twice
    assert "same_dist_same_size" in out


def test_report_rejects_foreign_documents(compare_run, tmp_path, capsys):
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"schema": ESTIMATE_SCHEMA, "rows": []}))
    good = str(compare_run / f"compare_{STEM}.json")
    assert main(["report", str(alien)]) == EXIT_RUNTIME
    assert main(["report", good, str(alien)]) == EXIT_RUNTIME
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"schema": REPORT_SCHEMA},
    {"schema": REPORT_SCHEMA, "rows": {"estimator_name": "mr"}},
    {"schema": REPORT_SCHEMA, "rows": [{"estimator_name": "mr"}]},
    {"schema": REPORT_SCHEMA, "rows": [], "metadata": []},
    [REPORT_SCHEMA],
])
def test_report_rejects_malformed_documents(tmp_path, capsys, doc):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "broken.json" in err
