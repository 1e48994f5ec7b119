"""Command-line driver, exercised in-process through main(argv).

Exit-code contract: 0 success, 1 usage/config error, 2 runtime/data error.
"""
from __future__ import annotations

import collections
import json
import math
import shutil
from pathlib import Path

import pytest

from fedshapley import cli, estimators, federation
from fedshapley import (
    GtgConfig,
    derive_seed,
    estimator_names,
    gtg_eval,
    gtg_oti,
    gtg_ti,
    gtg_tib,
    load_log,
    load_log_metadata,
    mr_eval,
    original_shapley_eval,
    tmc_shapley_eval,
    tmr_eval,
)
from fedshapley.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    ESTIMATE_SCHEMA,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    OUT_DIR_ENV,
    build_participants,
    config_from_dict,
    config_to_dict,
    main,
    parse_config,
)
from fedshapley.metrics import (CSV_HEADER, REPORT_SCHEMA, ComparisonRow,
                                build_report, write_report)

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


@pytest.fixture()
def work_calls(monkeypatch):
    """Counts the calls that start work: reading a log, training a model."""
    calls = collections.Counter()
    for module, name in ((cli, "load_log"), (federation, "train_local"),
                         (estimators, "train_local")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


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
    # values and types, checked before the ground truth retrains anything
    {"name": "gtg", "params": {"threshold": 0}},
    {"name": "gtg", "params": {"lookback": 0}},
    {"name": "gtg", "params": {"eps_within": "abc"}},
    {"name": "gtg_oti", "params": {"eps_within": math.nan}},
    {"name": "gtg_ti", "params": {"min_samples": "11"}},
    {"name": "gtg_tib", "params": {"seed": 1.5}},
    {"name": "tmc", "params": {"max_perms_per_round": 0}},
    {"name": "tmr", "params": {"lam": 2}},
    {"name": "tmr", "params": {"round_threshold": "x"}},
    {"name": "tmr", "params": {"lam": True}},
    {"name": "gtg", "params": {"guided_prefix": 1}},  # no prefix length to set
])
def test_bad_estimator_entries_fail_before_any_training(tmp_path, capsys,
                                                        work_calls, entry):
    cfg = write_config(tmp_path / "exp.json", estimators=["mr", entry])
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert main(["compare", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("compare_*"))
    assert not work_calls


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


@pytest.mark.parametrize("params", [
    {"eps_withn": 0.01}, [1, 2], "gtg",
    # values and types are checked as early as the names
    {"eps_within": -1.0}, {"lookback": 0}, {"threshold": 0.0},
    {"eps_within": "abc"}, {"max_perms_per_round": 2.5}, {"sampling": None},
])
def test_evaluate_bad_params_tables_are_usage_errors(tmp_path, capsys,
                                                     work_calls, params):
    # checked before the log is read: the log here does not even exist
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["evaluate", "--log", str(tmp_path / "absent.gtgl"),
                 "--estimator", "gtg", "--params", str(path),
                 "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "params.json" in err
    assert not work_calls


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


def test_evaluate_leaves_the_log_directory_as_it_was(config_path, tmp_path):
    log_dir = tmp_path / "runs"
    log = simulate(config_path, log_dir)
    before = sorted(p.name for p in log_dir.iterdir())
    assert main(["evaluate", "--log", log, "--estimator", "gtg",
                 "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    assert sorted(p.name for p in log_dir.iterdir()) == before


def test_bad_embedded_config_names_the_sidecar(config_path, tmp_path, capsys):
    log = simulate(config_path, tmp_path)
    from pathlib import Path
    sidecar = Path(log + ".json")
    doc = json.loads(sidecar.read_text())
    doc["metadata"]["config"]["rounds"] = 0
    sidecar.write_text(json.dumps(doc))
    assert main(["evaluate", "--log", log, "--estimator", "gtg",
                 "--out", str(tmp_path), "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {sidecar}: rounds must be >= 1, got 0"]


@pytest.fixture(scope="module")
def eval_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval")
    return simulate(write_config(out / "exp.json"), out)


def evaluate_doc(log, name, out, *extra) -> dict:
    assert main(["evaluate", "--log", log, "--estimator", name,
                 "--out", str(out), "--quiet", *extra]) == EXIT_OK
    return json.loads((out / f"estimate_{name}_{STEM}.json").read_text())


def direct_estimate(name, log_path, seed=None):
    """``name`` called by hand on the sidecar's experiment.  The sampled
    estimators get the seed the cli derives: from the config's master seed,
    or from ``seed`` when given."""
    cfg = config_from_dict(load_log_metadata(log_path)["metadata"]["config"],
                           log_path)
    participants, _, test = build_participants(cfg)
    log = load_log(log_path)
    master = cfg.seed if seed is None else seed
    seeded = GtgConfig(seed=derive_seed(master, "estimator", name))
    on_log = {"gtg": gtg_eval, "gtg_ti": gtg_ti, "gtg_tib": gtg_tib,
              "gtg_oti": gtg_oti}
    if name in on_log:
        return on_log[name](log, test, seeded)
    if name == "mr":
        return mr_eval(log, test)
    if name == "tmr":
        return tmr_eval(log, test)
    retrain = (participants, cfg.model, cfg.train, cfg.rounds, test)
    if name == "tmc":
        return tmc_shapley_eval(*retrain, init_seed=cfg.federation_seed,
                                cfg=seeded)
    assert name == "original"
    return original_shapley_eval(*retrain, init_seed=cfg.federation_seed)


@pytest.mark.parametrize("name", estimator_names())
def test_evaluate_dispatch_matches_direct_calls(eval_log, tmp_path, name):
    doc = evaluate_doc(eval_log, name, tmp_path)
    want = direct_estimate(name, eval_log)
    assert doc["estimator"] == want.name == name
    assert doc["total"] == want.total.values.tolist()
    assert ([r["values"] for r in doc["per_round"]]
            == [v.values.tolist() for v in want.per_round])
    assert doc["eval_count"] == want.eval_count


def test_evaluate_seed_drives_only_the_estimator_streams(eval_log, tmp_path):
    plain = evaluate_doc(eval_log, "mr", tmp_path / "plain")
    seeded = evaluate_doc(eval_log, "mr", tmp_path / "seeded", "--seed", "9")
    assert seeded["total"] == plain["total"]
    assert seeded["per_round"] == plain["per_round"]
    gtg = evaluate_doc(eval_log, "gtg", tmp_path / "gtg", "--seed", "9")
    assert gtg["total"] == direct_estimate("gtg", eval_log, seed=9).total.values.tolist()


@pytest.mark.parametrize("section, key, value", [
    ("scenario", "n", 4),
    (None, "rounds", 3),
    ("model", "hidden_dim", 2),
    ("data", "train_per_class", 21),  # same shape, other participant weights
])
def test_evaluate_rejects_a_sidecar_config_of_another_run(
        config_path, tmp_path, capsys, section, key, value):
    log = simulate(config_path, tmp_path)
    sidecar = Path(log + ".json")
    doc = json.loads(sidecar.read_text())
    config = doc["metadata"]["config"]
    (config if section is None else config[section])[key] = value
    sidecar.write_text(json.dumps(doc))
    assert main(["evaluate", "--log", log, "--estimator", "mr",
                 "--out", str(tmp_path), "--quiet"]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {sidecar}: ")
    assert not list(tmp_path.glob("estimate_*"))


def test_class_means_reach_the_sidecar_and_evaluate(tmp_path, capsys):
    # class c sits at 3.0 on the dimensions j with j % 3 == c
    means = [[3.0 * (j % 3 == c) for j in range(6)] for c in range(3)]
    cfg = write_config(tmp_path / "exp.json",
                       source={"input_dim": 6, "class_count": 3, "spread": 1.2,
                               "class_means": means})
    assert main(["simulate", "--config", str(cfg), "--print-config"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["source"]["class_means"] == means
    log = simulate(cfg, tmp_path)
    sidecar = load_log_metadata(log)["metadata"]["config"]
    assert sidecar["source"]["class_means"] == means
    # evaluate must score against the config's own test set, not one drawn
    # from random class means
    _, _, test = build_participants(parse_config(cfg))
    want = mr_eval(load_log(log), test).total.values.tolist()
    assert evaluate_doc(log, "mr", tmp_path)["total"] == want


@pytest.mark.parametrize("sidecar_doc", [
    [1],                                    # the top level is no object
    {"metadata": [1]},                      # nor is its metadata
    {"metadata": {"config": [1]}},          # nor the embedded config
    {"metadata": {"config": "exp.json"}},
], ids=["top-level", "metadata", "config-list", "config-string"])
def test_evaluate_sidecar_parts_must_be_objects(config_path, tmp_path, capsys,
                                                sidecar_doc):
    log = simulate(config_path, tmp_path)
    Path(log + ".json").write_text(json.dumps(sidecar_doc))
    assert main(["evaluate", "--log", log, "--estimator", "mr",
                 "--out", str(tmp_path), "--quiet"]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {log}.json: ")
    assert "must be a JSON object" in err[0]


def write_params(tmp_path, params: dict) -> Path:
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    return path


@pytest.mark.parametrize("name", ["mr", "tmr"])
def test_exact_estimators_mark_rounds_as_exact(eval_log, tmp_path, name):
    doc = evaluate_doc(eval_log, name, tmp_path, "--params", str(
        write_params(tmp_path, {"round_threshold": 0.95} if name == "tmr" else {})))
    # tmr skips every round past the first at this threshold; skipped or
    # solved, an exact round carries no convergence flag
    assert [r["converged"] for r in doc["per_round"]] == [None, None]
    assert doc["converged_rounds"] == [True, True]


def test_evaluate_malformed_sidecar_names_it(config_path, tmp_path, capsys):
    log = simulate(config_path, tmp_path)
    Path(log + ".json").write_text("{bad")
    assert main(["evaluate", "--log", log, "--estimator", "mr",
                 "--out", str(tmp_path), "--quiet"]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{log}.json" in err[0]


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


# --- malformed inputs: every subcommand, every input kind ---------------------------


def _file(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _config(work: Path, **overrides) -> str:
    return str(write_config(work / "broken.json", **overrides))


def _params(work: Path, params) -> str:
    return _file(work / "params.json", json.dumps(params))


def _sidecar(log: str, edit) -> str:
    path = Path(log + ".json")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return log


def _drop_sidecar(log: str) -> str:
    Path(log + ".json").unlink()
    return log


def _report(work: Path, edit) -> str:
    row = ComparisonRow("mr", 0.1, 0.2, 0.3, 8, 0.5, -0.3)
    _, path = write_report(build_report([row], {"scenario": "same_dist_same_size"}),
                           work, "report")
    doc = json.loads(path.read_text())
    edit(doc)
    return _file(path, json.dumps(doc))


def _evaluate(log: str, name: str, *extra: str) -> list[str]:
    return ["evaluate", "--log", log, "--estimator", name, *extra]


@pytest.mark.parametrize("argv, code", [
    # config: simulate and compare
    pytest.param(lambda w, log: ["simulate", "--config", _file(w / "c.json", "{bad")],
                 EXIT_USAGE, id="simulate-config-not-json"),
    pytest.param(lambda w, log: ["simulate", "--config", _file(w / "c.json", "[1]")],
                 EXIT_USAGE, id="simulate-config-not-an-object"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, source=[1])],
                 EXIT_USAGE, id="simulate-config-section-not-a-table"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, train={"epochs": 2})],
                 EXIT_USAGE, id="simulate-config-unknown-field"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, rounds="x")],
                 EXIT_USAGE, id="simulate-config-rounds-not-a-number"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, output_dir=5)],
                 EXIT_USAGE, id="simulate-config-output-dir-not-a-string"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={"input_dim": 6, "class_count": 3, "class_means": [[0.0]]})],
                 EXIT_USAGE, id="simulate-config-class-means-shape"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, data={"train_per_class": 0})],
                 EXIT_USAGE, id="simulate-config-no-training-rows"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, data={"test_per_class": 0})],
                 EXIT_USAGE, id="simulate-config-no-test-rows"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, data={"train_per_clas": 5})],
                 EXIT_USAGE, id="simulate-config-unknown-data-field"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, data={"train_per_class": 2.9})],
                 EXIT_USAGE, id="simulate-config-rows-not-an-integer"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, rounds=2.5)],
                 EXIT_USAGE, id="simulate-config-rounds-not-an-integer"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, seed=True)],
                 EXIT_USAGE, id="simulate-config-seed-a-bool"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, model={"hidden_dim": 1.5})],
                 EXIT_USAGE, id="simulate-config-hidden-dim-not-an-integer"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, train={"local_epochs": 2.5})],
                 EXIT_USAGE, id="simulate-config-epochs-not-an-integer"),
    pytest.param(lambda w, log: ["compare", "--config", _config(
        w, scenario={"kind": "bogus", "n": 3})],
                 EXIT_USAGE, id="compare-config-unknown-scenario"),
    pytest.param(lambda w, log: ["compare", "--config",
                                 _config(w, model={"input_dim": 5})],
                 EXIT_USAGE, id="compare-config-model-mismatch"),
    pytest.param(lambda w, log: ["compare", "--config",
                                 _config(w, estimators={"mr": 1})],
                 EXIT_USAGE, id="compare-config-estimators-not-a-list"),
    # params: evaluate --params and a config's estimator tables
    pytest.param(lambda w, log: _evaluate(log, "gtg", "--params",
                                          _file(w / "p.json", "{bad")),
                 EXIT_USAGE, id="evaluate-params-not-json"),
    pytest.param(lambda w, log: _evaluate(log, "tmr", "--params",
                                          _params(w, {"lam": 2})),
                 EXIT_USAGE, id="evaluate-params-tmr-lam-out-of-range"),
    pytest.param(lambda w, log: _evaluate(log, "tmr", "--params",
                                          _params(w, {"round_threshold": "x"})),
                 EXIT_USAGE, id="evaluate-params-tmr-threshold-not-a-number"),
    pytest.param(lambda w, log: _evaluate(log, "tmc", "--params",
                                          _params(w, {"lookback": [10]})),
                 EXIT_USAGE, id="evaluate-params-tmc-lookback-not-a-number"),
    pytest.param(lambda w, log: ["compare", "--config", _config(
        w, estimators=[{"name": "gtg", "params": {"sampling": "metropolis"}}])],
                 EXIT_USAGE, id="compare-params-unknown-sampling"),
    # log: evaluate
    pytest.param(lambda w, log: _evaluate(str(w / "absent.gtgl"), "mr"),
                 EXIT_RUNTIME, id="evaluate-log-missing"),
    pytest.param(lambda w, log: _evaluate(_file(Path(log), ""), "mr"),
                 EXIT_RUNTIME, id="evaluate-log-empty"),
    pytest.param(lambda w, log: _evaluate(log + ".json", "mr"),
                 EXIT_RUNTIME, id="evaluate-log-not-a-log"),
    # sidecar: evaluate
    pytest.param(lambda w, log: _evaluate(_drop_sidecar(log), "mr"),
                 EXIT_RUNTIME, id="evaluate-sidecar-missing"),
    pytest.param(lambda w, log: _evaluate(_sidecar(
        log, lambda d: d["metadata"]["config"].update(source=[1])), "mr"),
                 EXIT_USAGE, id="evaluate-sidecar-config-section-not-a-table"),
    pytest.param(lambda w, log: _evaluate(_sidecar(
        log, lambda d: d["metadata"]["config"].update(estimators="mr")), "mr"),
                 EXIT_USAGE, id="evaluate-sidecar-config-estimators-not-a-list"),
    # report: report
    pytest.param(lambda w, log: ["report", str(w / "absent.json")],
                 EXIT_RUNTIME, id="report-missing"),
    pytest.param(lambda w, log: ["report", _file(w / "r.json", "{bad")],
                 EXIT_RUNTIME, id="report-not-json"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(bogus=1))],
                 EXIT_RUNTIME, id="report-row-unknown-field"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(eval_count="x"))],
                 EXIT_RUNTIME, id="report-row-count-not-a-number"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["metadata"].update(scenario=[1]))],
                 EXIT_RUNTIME, id="report-scenario-not-a-string"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(estimator_name=[1]))],
                 EXIT_RUNTIME, id="report-estimator-not-a-string"),
])
def test_malformed_inputs_end_in_one_line(eval_log, tmp_path, capsys,
                                          monkeypatch, argv, code):
    log = str(tmp_path / Path(eval_log).name)
    for suffix in ("", ".json"):
        shutil.copy(eval_log + suffix, log + suffix)
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "out"))
    assert main([*argv(tmp_path, log), "--quiet"]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
