"""Command-line driver, exercised in-process through main(argv).

Exit-code contract: 0 success, 1 usage/config error, 2 runtime/data error.
"""
from __future__ import annotations

import collections
import json
import math
import re
import shutil
import tracemalloc
from pathlib import Path

import pytest

from fedshapley import cli, estimators, federation, models, scenarios
from fedshapley import (
    GradientLog,
    GtgConfig,
    derive_seed,
    evaluate,
    gtg_eval,
    gtg_oti,
    gtg_ti,
    gtg_tib,
    load_log,
    load_log_metadata,
    mr_eval,
    original_shapley_eval,
    save_log,
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
                         (federation, "_train_stacked"), (estimators, "train_local")):
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


def test_simulate_quiet_evaluates_nothing(config_path, tmp_path, monkeypatch):
    scored = []
    monkeypatch.setattr(cli, "evaluate", lambda *args: scored.append(args) or 0.5)
    simulate(config_path, tmp_path / "quiet")
    assert not scored
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(tmp_path / "loud")]) == EXIT_OK
    assert len(scored) == 2  # the first round's base model and the last aggregate


def test_the_configs_seed_sets_the_stem_and_the_streams(config_path, tmp_path):
    nine = write_config(tmp_path / "nine.json", seed=9)
    assert main(["simulate", "--config", str(nine), "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    other = tmp_path / "same_dist_same_size_seed9.gtgl"
    assert other.exists()
    base = simulate(config_path, tmp_path / "b")
    assert Path(base).read_bytes() != other.read_bytes()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """An empty working directory, entered for the test."""
    path = tmp_path / "cwd"
    path.mkdir()
    monkeypatch.chdir(path)
    return path


def test_out_dir_falls_back_to_the_working_directory(config_path, workdir,
                                                     monkeypatch):
    # the environment steers nothing: a variable that once did is ignored
    monkeypatch.setenv("FEDSHAPLEY_OUT_DIR", str(workdir.parent / "from-env"))
    code = main(["simulate", "--config", str(config_path), "--quiet"])
    assert code == EXIT_OK
    assert (workdir / f"{STEM}.gtgl").exists()
    assert not (workdir.parent / "from-env").exists()


def test_a_moved_log_writes_its_estimate_to_the_working_directory(
        eval_log, tmp_path, workdir):
    # earlier runs wrote a config's output_dir into the sidecar; such a log,
    # moved away from where it was made, evaluates, and its estimate goes to
    # the working directory, not to the output_dir
    old_place = tmp_path / "original_place" / "deep"
    log = str(tmp_path / "moved" / Path(eval_log).name)
    Path(log).parent.mkdir()
    for suffix in ("", ".json"):
        shutil.copy(eval_log + suffix, log + suffix)
    _sidecar(log, lambda d: d["metadata"]["config"].update(output_dir=str(old_place)))
    assert main(_evaluate(log, "gtg", "--quiet")) == EXIT_OK
    moved = json.loads((workdir / f"estimate_gtg_{STEM}.json").read_text())
    made_here = evaluate_doc(eval_log, "gtg", tmp_path / "here")
    del moved["wall_time_s"], made_here["wall_time_s"]
    assert moved == made_here
    assert not (tmp_path / "original_place").exists()


def test_compare_writes_to_the_working_directory_and_prints_its_table(
        tmp_path, workdir, capsys):
    cfg = write_config(tmp_path / "exp.json", rounds=1, estimators=["mr"])
    assert main(["compare", "--config", str(cfg)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"csv:  {workdir / f'compare_{STEM}.csv'}",
                         f"json: {workdir / f'compare_{STEM}.json'}"]
    header, rule, row = lines[2:]
    assert header.split() == ["scenario", "estimator", "cosine", "euclid",
                              "maxdiff", "evals", "time_s"]
    assert rule == "-" * len(header)
    assert row.split()[:2] == ["same_dist_same_size", "mr"]
    assert row.split()[5] == "8"  # 2^3 coalitions, one round


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_a_run_deals_its_table_once(tmp_path, monkeypatch, command):
    # the table that checks the scenario deals the pool too
    calls = collections.Counter()
    for module in (cli, scenarios):
        monkeypatch.setattr(module, "deal_table", lambda *args, _real=module.deal_table:
                            calls.update(["deal_table"]) or _real(*args))
    cfg = write_config(tmp_path / "exp.json", rounds=1, estimators=["mr"])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    assert calls == {"deal_table": 1}


def test_print_config_round_trips(config_path, tmp_path, capsys):
    code = main(["simulate", "--config", str(config_path), "--print-config"])
    assert code == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["schema"] == CONFIG_SCHEMA
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(printed))
    assert config_to_dict(parse_config(echo)) == printed


def test_work_calls_see_simulate_train_and_evaluate_read(config_path, tmp_path,
                                                         work_calls):
    # the counter that the fail-fast tests below find empty sees real work
    log = simulate(config_path, tmp_path / "runs")
    assert work_calls["_train_stacked"] > 0 and work_calls["load_log"] == 0
    assert main(["evaluate", "--log", log, "--estimator", "mr",
                 "--out", str(tmp_path / "est"), "--quiet"]) == EXIT_OK
    assert work_calls["load_log"] == 1


def test_print_config_on_evaluate_and_compare_starts_no_work(
        config_path, tmp_path, workdir, capsys, work_calls):
    params = _params(tmp_path, {"eps_within": 0.01})
    assert main(["evaluate", "--log", str(tmp_path / "absent.gtgl"), "--estimator",
                 "gtg", "--params", params, "--print-config"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"estimator": "gtg",
                                                   "params": {"eps_within": 0.01}}
    assert main(["compare", "--config", str(config_path), "--print-config"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == config_to_dict(
        parse_config(config_path))
    assert not any(workdir.iterdir()) and not work_calls


@pytest.mark.parametrize("command", ["simulate", "evaluate", "compare"])
def test_an_out_path_taken_by_a_file_fails_before_any_work(
        eval_log, config_path, tmp_path, capsys, work_calls, command):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    argv = {"simulate": ["simulate", "--config", str(config_path)],
            "evaluate": ["evaluate", "--log", eval_log, "--estimator", "gtg"],
            "compare": ["compare", "--config", str(config_path)]}[command]
    assert main([*argv, "--out", str(taken), "--quiet"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not work_calls and taken.read_text() == "kept"


# --- config validation -----------------------------------------------------------


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--quiet"])
    assert code == EXIT_USAGE
    assert "cannot read config" in capsys.readouterr().err


def test_zero_rounds_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", rounds=0)
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    assert "rounds must be >= 1" in capsys.readouterr().err


def test_the_most_rounds_a_log_header_stores_are_accepted(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", rounds=2 ** 32 - 1)
    assert main(["simulate", "--config", str(cfg), "--print-config"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rounds"] == 2 ** 32 - 1


def test_the_most_participants_a_log_header_stores_are_accepted(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", scenario={"n": 2 ** 32 - 1})
    assert main(["simulate", "--config", str(cfg), "--print-config"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["scenario"]["n"] == 2 ** 32 - 1


def test_a_default_schedule_is_not_built_when_a_config_is_parsed(tmp_path, capsys):
    # two million participants' default noise rates would take tens of MB
    cfg = write_config(tmp_path / "exp.json",
                       scenario={"kind": "noisy_features", "n": 2_000_000})
    argv = ["simulate", "--config", str(cfg), "--print-config"]
    assert main(argv) == EXIT_OK  # once first, so that lazy imports are done
    assert json.loads(capsys.readouterr().out)["scenario"]["n"] == 2_000_000
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("extra, named", [
    ({"roundz": 5, "estimator": ["gtg"], "sead": 3},
     "unknown field(s) estimator, roundz, sead"),
    ({"output_dir": "runs"}, "give the output directory with --out"),
])
def test_a_config_refuses_top_level_keys_it_does_not_know(
        tmp_path, workdir, capsys, work_calls, extra, named):
    cfg = write_config(tmp_path / "exp.json", **extra)
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config(cfg)
    for command in ("simulate", "compare"):
        for argv in (["--print-config"], []):
            assert main([command, "--config", str(cfg), *argv]) == EXIT_USAGE
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].endswith(named)
    assert not work_calls and not any(workdir.iterdir())


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
    {"name": "mr", "params": {}},  # listed twice: two rows would read mr
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


@pytest.mark.parametrize("estimator", ["original", "tmc"])
def test_evaluate_refuses_retraining_past_the_guard_before_reading_a_block(
        tmp_path, capsys, monkeypatch, estimator):
    cfg = write_config(tmp_path / "exp.json", rounds=1,
                       scenario={"kind": "same_dist_same_size", "n": 12},
                       data={"train_per_class": 12, "test_per_class": 2})
    log = simulate(cfg, tmp_path)
    assert main(["compare", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    refused = capsys.readouterr().err.splitlines()
    assert refused == ["error: retraining coalitions: n=12 exceeds the n <= 10 guard"]
    read = []
    monkeypatch.setattr(federation, "_fill", lambda *args: read.append(args))
    monkeypatch.setattr(cli, "generate_source", lambda *args: read.append(args))
    out = tmp_path / "out"
    assert main(["evaluate", "--log", log, "--estimator", estimator,
                 "--out", str(out), "--quiet"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == refused
    assert not read and not out.exists()


@pytest.fixture()
def drawn(monkeypatch):
    """Counts the calls of ``cli.generate_source``, which draws the data."""
    calls = []
    real = cli.generate_source
    monkeypatch.setattr(cli, "generate_source",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("config, named", [
    # the first pair's two participants would take 100 rows of class 0 each,
    # the second pair's 6 each
    ({"scenario": {"kind": "diff_dist_same_size", "n": 4}},
     "pool exhausted for class 0: the scenario deals 212 rows of it, the pool has 100"),
    # 1,000 rows: every participant's equal share of each class is 0 rows
    ({"scenario": {"n": 102}},
     "a pool of 1000 rows deals participant 1 of 102 no rows"),
    ({"scenario": {"n": 1002}}, "pool smaller than the participant count"),
    ({"source": {"class_count": 7}, "data": {"train_per_class": 2},
      "scenario": {"kind": "diff_dist_same_size", "n": 2, "params": {"skew": 1}}},
     "skew 1.0 with size 7 leaves negative remainder"),
    ({"source": {"class_count": 2}, "data": {"train_per_class": 10},
      "scenario": {"kind": "diff_dist_same_size", "n": 2, "params": {"skew": 0.8}}},
     "every class is designated"),
], ids=["skewed-pairs-overdraw", "equal-shares-empty", "pool-smaller-than-n",
        "negative-remainder", "every-class-designated"])
def test_a_scenario_the_pool_cannot_deal_ends_before_any_data_is_drawn(
        tmp_path, capsys, drawn, config, named):
    cfg = _file(tmp_path / "deal.json", json.dumps(
        {"schema": CONFIG_SCHEMA, "estimators": ["gtg"], **config}))
    # parsing checks O(1) things only: the table is built when data would be
    assert main(["simulate", "--config", cfg, "--print-config"]) == EXIT_OK
    capsys.readouterr()
    for command in ("simulate", "compare"):
        out = tmp_path / command
        argv = [command, "--config", cfg, "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        # compare refuses n past its ground-truth guard (10) before it deals
        if command == "simulate" or config["scenario"]["n"] <= 10:
            assert err[0].startswith("error: cannot deal the scenario: ")
            assert named in err[0]
        assert not out.exists()
    assert not drawn


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


@pytest.mark.parametrize("config", [
    # at n = 8, gtg's walks rebuild coalitions of fewer than
    # federation.GATHER_MEMBERS (6) members one member at a time, and larger
    # ones in one reduction
    {"scenario": {"n": 8}},
    # a wide set, 1,030 test rows of 512 values: evaluate screens each
    # coalition from the round's first-layer products, of a first layer of
    # 512 x 4 ...
    {"source": {"input_dim": 512}, "model": {"hidden_dim": 4},
     "data": {"test_per_class": 103}, "scenario": {"n": 3}},
    # ... or of softmax units, where each row's margin is the units' largest
    # slope times its norm, plus their largest offset
    {"source": {"input_dim": 512}, "model": {"hidden_dim": 0},
     "data": {"test_per_class": 103}, "scenario": {"n": 3}},
], ids=["n8", "wide", "wide-softmax"])
def test_gtg_scores_a_log_alike_twice_and_mr_scores_every_coalition(
        tmp_path, workdir, config):
    cfg = _file(tmp_path / "run.json", json.dumps(
        {"schema": CONFIG_SCHEMA, "seed": 3, "rounds": 1, **config}))
    assert main(["simulate", "--config", cfg, "--quiet"]) == EXIT_OK
    log = str(workdir / f"{STEM}.gtgl")
    runs = [evaluate_doc(log, "gtg", tmp_path / run) for run in ("a", "b")]
    for doc in runs:
        del doc["wall_time_s"]
    assert runs[0] == runs[1]
    n = config["scenario"]["n"]
    assert evaluate_doc(log, "mr", tmp_path / "mr")["eval_count"] == 2 ** n


def test_evaluate_accepts_params_file(config_path, tmp_path):
    log = simulate(config_path, tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"eps_within": 0.5, "seed": 1}))
    assert main(["evaluate", "--log", log, "--estimator", "gtg_ti",
                 "--params", str(params), "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    assert (tmp_path / f"estimate_gtg_ti_{STEM}.json").exists()


def test_a_lookback_past_the_cap_scores_as_the_cap(eval_log, tmp_path):
    # a round checks before it pushes, so no more than max_perms_per_round
    # estimates ever fill the window: a longer one, here one whose ring numpy
    # could not even map, is sized to the cap and scores the same
    docs = [evaluate_doc(eval_log, "gtg", tmp_path / str(lookback), "--params",
                         _params(tmp_path, {"lookback": lookback}))
            for lookback in (10**14, GtgConfig().max_perms_per_round)]
    for doc in docs:
        del doc["wall_time_s"]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("params", [
    {"eps_withn": 0.01}, [1, 2], "gtg",
    # values and types are checked as early as the names
    {"eps_within": -1.0}, {"lookback": 0}, {"threshold": 0.0},
    {"eps_within": "abc"}, {"max_perms_per_round": 2.5}, {"sampling": None},
    {"min_samples": -5},
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


def test_a_run_parses_each_estimator_table_once(eval_log, tmp_path, monkeypatch):
    # the table is checked and turned into run's keywords in one parse, the
    # derived seed already in
    built = []

    class Counted(GtgConfig):
        # GtgConfig's check reads the annotations of the name this class
        # takes over
        __annotations__ = GtgConfig.__annotations__

        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(estimators, "GtgConfig", Counted)
    params = _params(tmp_path, {"eps_within": 0.01})
    evaluate_doc(eval_log, "gtg", tmp_path / "evaluate", "--params", params)
    sidecar = load_log_metadata(eval_log)["metadata"]["config"]
    seed = derive_seed(sidecar["seed"], "estimator", "gtg")
    assert [vars(c) for c in built] == [vars(GtgConfig(eps_within=0.01, seed=seed))]
    built.clear()
    cfg = write_config(tmp_path / "one.json", estimators=[
        {"name": "gtg", "params": {"max_perms_per_round": 30}}])
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "compare"),
                 "--quiet"]) == EXIT_OK
    assert [vars(c) for c in built] == [vars(GtgConfig(
        max_perms_per_round=30, seed=derive_seed(3, "estimator", "gtg")))]


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


@pytest.mark.parametrize("name", ["gtg", "mr"])
def test_evaluate_reads_each_block_twice_and_calls_no_validate(
        config_path, tmp_path, monkeypatch, name):
    # load_log checks the chain as it reads the blocks, and the estimator
    # reads them again: no third walk
    def refuse(self):
        raise RuntimeError("validate was called")

    log = simulate(config_path, tmp_path)
    read = []
    fill = federation._fill
    monkeypatch.setattr(federation, "_fill", lambda *args: read.append(1) or fill(*args))
    monkeypatch.setattr(GradientLog, "validate", refuse)
    assert main(["evaluate", "--log", log, "--estimator", name,
                 "--out", str(tmp_path), "--quiet"]) == EXIT_OK
    # T = 2 rounds of n + 2 = 5 blocks, read twice, and the checksum once
    assert len(read) == 2 * 2 * 5 + 1


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
    estimators get ``seed``, as a ``--params`` seed gives it, or else the
    seed the cli derives from the config's master seed."""
    cfg = config_from_dict(load_log_metadata(log_path)["metadata"]["config"],
                           log_path)
    participants, _, test = build_participants(cfg)
    log = load_log(log_path)
    seeded = GtgConfig(seed=derive_seed(cfg.seed, "estimator", name)
                       if seed is None else seed)
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


@pytest.mark.parametrize("name", list(estimators.ESTIMATORS))
def test_evaluate_dispatch_matches_direct_calls(eval_log, tmp_path, monkeypatch, name):
    # a log-based estimator reads the test set alone: the pool is drawn but
    # not dealt; the deal table is built once, to check the log's weights,
    # and a retraining estimator's pool is dealt from that table
    calls = collections.Counter()
    for module, attr in ((cli, "partition"), (cli, "deal_table"),
                         (scenarios, "deal_table")):
        def counted(*args, _real=getattr(module, attr), _name=attr):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, attr, counted)
    doc = evaluate_doc(eval_log, name, tmp_path)
    assert calls == ({"partition": 1, "deal_table": 1}
                     if estimators.estimator(name).retrains else {"deal_table": 1})
    want = direct_estimate(name, eval_log)
    assert doc["estimator"] == want.name == name
    assert doc["total"] == want.total.values.tolist()
    assert ([r["values"] for r in doc["per_round"]]
            == [v.values.tolist() for v in want.per_round])
    assert doc["eval_count"] == want.eval_count


@pytest.mark.parametrize("listed", [
    [{"name": "gtg", "params": {"sampling": "guided"}}],
    [{"name": "gtg", "params": {"guided_prefix": 1}}],
    "mr",
], ids=["sampling", "guided-prefix", "not-a-list"])
def test_evaluate_reads_no_estimator_list_from_the_sidecar(eval_log, tmp_path, listed):
    # evaluate runs --estimator alone, so a sidecar's estimator list is
    # dropped: earlier runs wrote entries that today's checks refuse
    log = str(tmp_path / Path(eval_log).name)
    for suffix in ("", ".json"):
        shutil.copy(eval_log + suffix, log + suffix)
    _sidecar(log, lambda d: d["metadata"]["config"].update(estimators=listed))
    for name in ("gtg", "mr"):
        old = evaluate_doc(log, name, tmp_path / "old")
        new = evaluate_doc(eval_log, name, tmp_path / "new")
        del old["wall_time_s"], new["wall_time_s"]
        assert old == new


def test_evaluate_seed_drives_only_the_estimator_streams(eval_log, tmp_path):
    # a seed in --params moves a sampled estimator's stream and nothing else:
    # the data is what the sidecar's config rebuilds, so mr stays as it was
    plain = evaluate_doc(eval_log, "gtg", tmp_path / "plain")
    params = _params(tmp_path, {"seed": 9})
    gtg = evaluate_doc(eval_log, "gtg", tmp_path / "gtg", "--params", params)
    assert gtg["total"] != plain["total"]
    assert gtg["total"] == direct_estimate("gtg", eval_log, seed=9).total.values.tolist()
    mr = evaluate_doc(eval_log, "mr", tmp_path / "mr")
    assert mr["total"] == direct_estimate("mr", eval_log).total.values.tolist()


@pytest.mark.parametrize("section, key, value", [
    ("scenario", "n", 4),
    (None, "rounds", 3),
    ("model", "hidden_dim", 2),
    ("data", "train_per_class", 21),  # same shape, other participant weights
])
def test_evaluate_rejects_a_sidecar_config_of_another_run(
        config_path, tmp_path, capsys, drawn, section, key, value):
    log = simulate(config_path, tmp_path)
    drawn.clear()
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
    # refused before any data is drawn, participant weights too
    assert not drawn


def test_class_means_are_refused(eval_log, tmp_path, capsys, work_calls):
    # the source draws its class means from the seed; a config gives none
    means = [[3.0 * (j % 3 == c) for j in range(6)] for c in range(3)]
    source = {"input_dim": 6, "class_count": 3, "spread": 1.2, "class_means": means}
    cfg = write_config(tmp_path / "exp.json", source=source)
    log = str(tmp_path / Path(eval_log).name)
    for suffix in ("", ".json"):
        shutil.copy(eval_log + suffix, log + suffix)
    _sidecar(log, lambda d: d["metadata"]["config"].update(source=source))
    for argv in (["simulate", "--config", str(cfg), "--print-config"],
                 ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")],
                 _evaluate(log, "mr", "--out", str(tmp_path / "out"))):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "class_means" in err[0]
    assert not work_calls and not (tmp_path / "out").exists()


def assert_retired_fields_still_evaluate(eval_log, tmp_path, capsys, retired: dict):
    """A sidecar whose config tables also hold ``retired`` ({table: {key:
    value}}), as sidecars written before those keys were retired do,
    evaluates as one without them; a config holding them parses, and
    --print-config prints it as the config without them."""
    log = str(tmp_path / Path(eval_log).name)
    shutil.copy(eval_log, log)
    shutil.copy(eval_log + ".json", log + ".json")

    def add(doc):
        for section, fields in retired.items():
            doc["metadata"]["config"].setdefault(section, {}).update(fields)

    _sidecar(log, add)
    old = evaluate_doc(log, "gtg", tmp_path / "old")
    new = evaluate_doc(eval_log, "gtg", tmp_path / "new")
    del old["wall_time_s"], new["wall_time_s"]
    assert old == new
    config = load_log_metadata(log)["metadata"]["config"]
    config_path = _file(tmp_path / "old.json", json.dumps(config))
    assert main(["simulate", "--config", config_path, "--print-config"]) == EXIT_OK
    assert (json.loads(capsys.readouterr().out)
            == load_log_metadata(eval_log)["metadata"]["config"])


def test_sidecars_written_with_per_class_pool_still_evaluate(
        eval_log, tmp_path, capsys):
    assert_retired_fields_still_evaluate(eval_log, tmp_path, capsys,
                                         {"scenario": {"per_class_pool": 100}})


def test_sidecars_written_with_an_activation_still_evaluate(
        eval_log, tmp_path, capsys):
    # ReLU, the one activation there is, was written into every sidecar
    assert_retired_fields_still_evaluate(eval_log, tmp_path, capsys,
                                         {"model": {"activation": "relu"}})


def test_a_sidecar_as_earlier_runs_wrote_it_still_evaluates(
        eval_log, tmp_path, capsys):
    # earlier sidecars' model table repeated the source's dimensions, and
    # their scenario table the pool size
    assert load_log_metadata(eval_log)["metadata"]["config"]["model"] == {
        "hidden_dim": 0}
    assert_retired_fields_still_evaluate(eval_log, tmp_path, capsys, {
        "scenario": {"per_class_pool": 100},
        "model": {"input_dim": 6, "hidden_dim": 0, "class_count": 3,
                  "activation": "relu"}})


def test_evaluate_holds_the_log_the_test_set_and_one_rounds_products(tmp_path):
    # a wide log: 670 test rows of 784 values (past WIDE_ELEMENTS), a first
    # layer of 784 x 64 and 8 participants
    n, rows, width = 8, 670, 64
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({
        "schema": CONFIG_SCHEMA, "rounds": 1,
        "source": {"input_dim": 784, "class_count": 10},
        "scenario": {"n": n}, "model": {"hidden_dim": width},
        "data": {"train_per_class": 8, "test_per_class": rows // 10}}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    log = tmp_path / "same_dist_same_size_seed0.gtgl"
    argv = ["evaluate", "--log", str(log), "--estimator", "gtg",
            "--out", str(tmp_path), "--quiet"]
    assert main(argv) == EXIT_OK  # once first, so that lazy imports are done
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads((tmp_path / f"estimate_gtg_{log.stem}.json").read_text())
    assert doc["eval_count"] > 2 * n  # the round was sampled, not truncated
    test_set = rows * 784 * 4
    products = (n + 1) * rows * width * 8
    # the slack covers a chunk of rows and a block cast to float64 while the
    # products are made, their running sum and a first layer while they are
    # scored, and a full model rebuilt where the screen reads one; it is
    # below the round's float64 stack of every parameter, (n + 1) x 50,890 x
    # 8 bytes (3.7 MB), and the participants' rows are not held
    slack = 3 * 2 ** 20
    assert peak < log.stat().st_size + test_set + products + slack


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


def test_an_all_zero_ground_truth_ends_compare_before_any_estimator(
        tmp_path, capsys, monkeypatch):
    # at this seed the retrained coalitions all score alike, so every
    # ground-truth share is 0 and no estimate has a direction to compare
    cfg = _file(tmp_path / "zero.json", json.dumps({
        "schema": CONFIG_SCHEMA, "seed": 2, "rounds": 2,
        "source": {"input_dim": 5, "class_count": 4, "spread": 2.0},
        "scenario": {"kind": "noisy_labels", "n": 4}, "model": {"hidden_dim": 2},
        "estimators": ["gtg", "mr"]}))
    ran = []
    real = cli._run_named_estimator
    monkeypatch.setattr(cli, "_run_named_estimator",
                        lambda name, *args: ran.append(name) or real(name, *args))
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "ground truth" in err[0]
    assert ran == ["original"] and not out.exists()


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


def test_report_merges_and_prints_table(compare_run, tmp_path, capsys):
    path = str(compare_run / f"compare_{STEM}.json")
    # --print-config reads no report: the second does not exist
    absent = str(tmp_path / "absent.json")
    assert main(["report", path, absent, "--print-config"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"paths": [path, absent]}
    assert main(["report", path, path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "scenario" in out.splitlines()[0]
    assert out.count(" mr ") >= 2  # merged twice
    assert "same_dist_same_size" in out


def test_compare_on_a_wide_set_scores_as_the_float64_pass(tmp_path, workdir,
                                                         monkeypatch):
    # on a wide set (1,030 rows of 512 values), original scores each lone
    # retrained model from the float64 pass's first layer on slices of the
    # set, and gtg each coalition by the screen: both score as a narrow set
    # of the same rows, which takes the float64 pass on every row
    cfg = _file(tmp_path / "wide.json", json.dumps({
        "schema": CONFIG_SCHEMA, "seed": 3, "rounds": 1,
        "source": {"input_dim": 512}, "model": {"hidden_dim": 4},
        "data": {"test_per_class": 103}, "scenario": {"n": 2},
        "estimators": ["gtg"]}))
    assert main(["compare", "--config", cfg, "--quiet"]) == EXIT_OK
    report = workdir / f"compare_{STEM}.json"
    assert main(["report", str(report)]) == EXIT_OK
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 2 ** 62)
    narrow = tmp_path / "narrow"
    assert main(["compare", "--config", cfg, "--out", str(narrow), "--quiet"]) == EXIT_OK
    screened, whole = (json.loads(path.read_text())["metadata"]
                       for path in (report, narrow / report.name))
    assert screened["ground_truth"] == whole["ground_truth"]
    assert screened["trajectories"] == whole["trajectories"]


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


# --- numbers that are not finite --------------------------------------------------


def _trained_at(work: Path, hidden_dim: int, learning_rate: float, **extra) -> str:
    return _file(work / "trained.json", json.dumps({
        "schema": CONFIG_SCHEMA, "rounds": 5, "scenario": {"n": 3},
        "model": {"hidden_dim": hidden_dim},
        "train": {"learning_rate": learning_rate}, **extra}))


# a RuntimeWarning fails these tests (pyproject.toml): none reaches stderr
@pytest.mark.parametrize("hidden_dim, learning_rate", [(8, 100), (8, 1e5), (0, 1e300)])
def test_training_that_diverges_ends_simulate_in_one_line(tmp_path, capsys,
                                                          hidden_dim, learning_rate):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _trained_at(tmp_path, hidden_dim, learning_rate),
                 "--out", str(out), "--quiet"]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: round \d, participants \[1, 2, 3\]: training "
                        r"diverged: a trained parameter is not finite", err[0])
    assert not out.exists()


def test_training_that_diverges_ends_compare_before_any_estimator(
        tmp_path, capsys, monkeypatch):
    ran = []
    real = cli._run_named_estimator
    monkeypatch.setattr(cli, "_run_named_estimator",
                        lambda name, *args: ran.append(name) or real(name, *args))
    cfg = _trained_at(tmp_path, 8, 100, estimators=["gtg", "mr"])
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: retraining coalition \[[\d, ]+\]: training "
                        r"diverged: a trained parameter is not finite", err[0])
    assert ran == ["original"] and not out.exists()


@pytest.mark.parametrize("hidden_dim", [0, 8])
@pytest.mark.parametrize("learning_rate", [0.1, 10, 100, 1e5])
def test_any_learning_rate_gives_finite_efficient_shares_or_one_line(
        tmp_path, capsys, hidden_dim, learning_rate):
    cfg = _trained_at(tmp_path, hidden_dim, learning_rate)
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err.splitlines()
    if code == EXIT_RUNTIME:
        assert len(err) == 1 and not out.exists()
        assert re.fullmatch(r"error: round \d+(, participants \[[\d, ]+\])?: (training "
                            r"diverged: .+|an update or the aggregated model .+)", err[0])
        return
    assert code == EXIT_OK and not err
    log = str(out / "same_dist_same_size_seed0.gtgl")
    assert main(_evaluate(log, "gtg", "--out", str(out), "--quiet")) == EXIT_OK
    doc = json.loads((out / "estimate_gtg_same_dist_same_size_seed0.json").read_text())
    assert all(map(math.isfinite, doc["total"]))
    # each round's shares add up to its gain, within the truncation thresholds
    test, loaded, gtg = build_participants(parse_config(cfg))[2], load_log(log), GtgConfig()
    tolerance = max(gtg.eps_within, gtg.eps_between) + 1e-9
    assert len(doc["per_round"]) == loaded.total_rounds
    for rec, shares in zip(loaded.rounds, doc["per_round"]):
        gain = (evaluate(loaded.architecture, rec.aggregated, test)
                - evaluate(loaded.architecture, rec.base_model, test))
        assert math.fsum(shares["values"]) == pytest.approx(gain, abs=tolerance)


def test_a_log_holding_a_value_not_finite_is_refused_by_round(eval_log, tmp_path,
                                                             capsys):
    loaded = load_log(eval_log)
    rounds = list(loaded.rounds)
    rounds[1].updates[2][0] = math.nan
    log = str(save_log(GradientLog(loaded.architecture, rounds,
                                   loaded.participant_weights),
                       tmp_path / Path(eval_log).name,
                       load_log_metadata(eval_log)["metadata"]))
    out = tmp_path / "out"
    assert main(_evaluate(log, "gtg", "--out", str(out), "--quiet")) == EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines() == [
        f"error: {log}: round 1: a block holds a value that is not finite"]
    assert not out.exists()


# --- malformed inputs: every subcommand, every input kind ---------------------------


def _file(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# a UTF-16 byte-order mark: no UTF-8 text starts so
NOT_UTF8 = b"\xff\xfe"


def _not_utf8(path: Path) -> str:
    path.write_bytes(NOT_UTF8 + "{}".encode("utf-16-le"))
    return str(path)


def _config(work: Path, **overrides) -> str:
    return str(write_config(work / "broken.json", **overrides))


def _scenario(work: Path, kind, params) -> str:
    return _config(work, scenario={"kind": kind, "n": 4, "params": params})


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


def _sidecar_not_utf8(log: str) -> str:
    _not_utf8(Path(log + ".json"))
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
    pytest.param(lambda w, log: ["simulate", "--config", _not_utf8(w / "c.json")],
                 EXIT_USAGE, id="simulate-config-not-utf-8"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, source=[1])],
                 EXIT_USAGE, id="simulate-config-section-not-a-table"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, train={"epochs": 2})],
                 EXIT_USAGE, id="simulate-config-unknown-field"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, rounds="x")],
                 EXIT_USAGE, id="simulate-config-rounds-not-a-number"),
    # a run's inputs are its config and --out: output_dir and other top-level
    # keys a config does not know are refused, as is --seed on any command
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, output_dir=5)],
                 EXIT_USAGE, id="simulate-config-output-dir-not-a-string"),
    pytest.param(lambda w, log: _evaluate(_sidecar(
        log, lambda d: d["metadata"]["config"].update(roundz=5)), "mr"),
                 EXIT_USAGE, id="evaluate-sidecar-unknown-top-level-key"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w), "--seed", "3"],
                 EXIT_USAGE, id="simulate-seed"),
    pytest.param(lambda w, log: _evaluate(log, "gtg", "--seed", "3"),
                 EXIT_USAGE, id="evaluate-seed"),
    pytest.param(lambda w, log: ["compare", "--config", _config(w), "--seed", "3"],
                 EXIT_USAGE, id="compare-seed"),
    # class_means is no field: any value is refused, well-formed or not
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
    # the log's header stores T as a u32: refused before any data is drawn
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, rounds=2 ** 32),
                                 "--print-config"],
                 EXIT_USAGE, id="simulate-print-config-rounds-past-u32"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, rounds=2 ** 70),
                                 "--print-config"],
                 EXIT_USAGE, id="simulate-print-config-rounds-2-to-the-70"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, rounds=2 ** 32)],
                 EXIT_USAGE, id="simulate-config-rounds-past-u32"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, rounds=2 ** 70)],
                 EXIT_USAGE, id="simulate-config-rounds-2-to-the-70"),
    # and n as a u32 too
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, scenario={"n": 2 ** 32}), "--print-config"],
                 EXIT_USAGE, id="simulate-print-config-n-past-u32"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, scenario={"n": 2 ** 40})],
                 EXIT_USAGE, id="simulate-config-n-2-to-the-40"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(w, seed=True)],
                 EXIT_USAGE, id="simulate-config-seed-a-bool"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, model={"hidden_dim": 1.5})],
                 EXIT_USAGE, id="simulate-config-hidden-dim-not-an-integer"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, model={"activation": "tanh"})],
                 EXIT_USAGE, id="simulate-config-activation-not-relu"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, train={"local_epochs": 2.5})],
                 EXIT_USAGE, id="simulate-config-epochs-not-an-integer"),
    # non-finite numbers: NaN nowhere, inf only where it means something
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, train={"learning_rate": math.nan})],
                 EXIT_USAGE, id="simulate-config-learning-rate-nan"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, train={"learning_rate": math.inf})],
                 EXIT_USAGE, id="simulate-config-learning-rate-inf"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={"input_dim": 6, "class_count": 3, "spread": math.nan})],
                 EXIT_USAGE, id="simulate-config-spread-nan"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={"input_dim": 6, "class_count": 3, "spread": math.inf})],
                 EXIT_USAGE, id="simulate-config-spread-inf"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={"input_dim": 6, "class_count": 3,
                   "class_means": [[0.0] * 5 + [math.inf]] * 3})],
                 EXIT_USAGE, id="simulate-config-class-means-inf"),
    pytest.param(lambda w, log: _evaluate(log, "tmr", "--params",
                                          _params(w, {"round_threshold": math.nan})),
                 EXIT_USAGE, id="evaluate-params-tmr-threshold-nan"),
    # features are float32: a spread that overflows them is refused once drawn
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={"input_dim": 6, "class_count": 3, "spread": 1e308})],
                 EXIT_RUNTIME, id="simulate-config-spread-past-float32"),
    # integers past the float range, in float fields
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={"input_dim": 6, "class_count": 3, "spread": 10 ** 400})],
                 EXIT_USAGE, id="simulate-config-spread-past-float-range"),
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, train={"learning_rate": 10 ** 400})],
                 EXIT_USAGE, id="simulate-config-learning-rate-past-float-range"),
    pytest.param(lambda w, log: _evaluate(log, "gtg", "--params",
                                          _params(w, {"eps_within": 10 ** 400})),
                 EXIT_USAGE, id="evaluate-params-eps-within-past-float-range"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(wall_time_s=math.nan))],
                 EXIT_RUNTIME, id="report-wall-time-nan"),
    pytest.param(lambda w, log: ["compare", "--config", _config(
        w, scenario={"kind": "bogus", "n": 3})],
                 EXIT_USAGE, id="compare-config-unknown-scenario"),
    pytest.param(lambda w, log: ["compare", "--config", _scenario(w, 5, {})],
                 EXIT_USAGE, id="compare-config-scenario-kind-not-a-name"),
    # a kind is one of the five values sidecars write, as they write it
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "SameDistSameSize", {}), "--print-config"],
                 EXIT_USAGE, id="simulate-print-config-kind-camel-case"),
    pytest.param(lambda w, log: _evaluate(_sidecar(
        log, lambda d: d["metadata"]["config"]["scenario"].update(
            kind="SameDistSameSize")), "mr"),
                 EXIT_USAGE, id="evaluate-sidecar-kind-camel-case"),
    # each skewed pair needs two classes of its own: pair 6 needs 10 and 11
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={}, scenario={"kind": "diff_dist_same_size", "n": 12}),
        "--print-config"],
                 EXIT_USAGE, id="simulate-print-config-pairs-past-the-classes"),
    pytest.param(lambda w, log: ["compare", "--config", _config(w, estimators=[])],
                 EXIT_USAGE, id="compare-config-no-estimators"),
    # scenario params: the one entry each kind reads
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "noisy_labels", [0.1] * 4)],
                 EXIT_USAGE, id="simulate-scenario-params-not-a-table"),
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "noisy_labels", {"noise_rates": [0.1] * 4})],
                 EXIT_USAGE, id="simulate-scenario-other-kinds-key"),
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "noisy_features", {"noise_rate": [0.1] * 4})],
                 EXIT_USAGE, id="simulate-scenario-misspelled-key"),
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "same_dist_same_size", {"skew": 0.5})],
                 EXIT_USAGE, id="simulate-scenario-key-on-same-dist"),
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "diff_dist_same_size", {"skew": None})],
                 EXIT_USAGE, id="simulate-scenario-skew-null"),
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "same_dist_diff_size", {"ratios": 5})],
                 EXIT_USAGE, id="simulate-scenario-ratios-a-scalar"),
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "same_dist_diff_size", {"ratios": "1234"})],
                 EXIT_USAGE, id="simulate-scenario-ratios-a-string"),
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "same_dist_diff_size", {"ratios": [1, 2, 3]})],
                 EXIT_USAGE, id="simulate-scenario-ratios-wrong-length"),
    pytest.param(lambda w, log: ["compare", "--config", _scenario(
        w, "same_dist_diff_size", {"ratios": [1, 2, 0, 4]})],
                 EXIT_USAGE, id="compare-scenario-ratios-not-positive"),
    pytest.param(lambda w, log: ["simulate", "--config", _scenario(
        w, "noisy_labels", {"flip_rates": 0.1})],
                 EXIT_USAGE, id="simulate-scenario-flip-rates-a-scalar"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, scenario={"kind": "noisy_labels", "n": 44})],
                 EXIT_USAGE, id="simulate-scenario-default-flip-rates-past-one"),
    pytest.param(lambda w, log: ["compare", "--config",
                                 _config(w, model={"input_dim": 5})],
                 EXIT_USAGE, id="compare-config-model-mismatch"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={"input_dim": 6, "class_count": 10}, model={"class_count": 3})],
                 EXIT_USAGE, id="simulate-config-model-fewer-classes"),
    # the model takes its dimensions from the source; a config may repeat them
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, model={"class_count": 4}), "--print-config"],
                 EXIT_USAGE, id="simulate-print-config-model-more-classes"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, model={"input_dim": 6.0}), "--print-config"],
                 EXIT_USAGE, id="simulate-print-config-model-input-dim-a-float"),
    pytest.param(lambda w, log: _evaluate(_sidecar(
        log, lambda d: d["metadata"]["config"]["model"].update(input_dim=5)), "mr"),
                 EXIT_USAGE, id="evaluate-sidecar-model-input-dim"),
    pytest.param(lambda w, log: ["compare", "--config",
                                 _config(w, estimators={"mr": 1})],
                 EXIT_USAGE, id="compare-config-estimators-not-a-list"),
    # params: evaluate --params and a config's estimator tables
    pytest.param(lambda w, log: _evaluate(log, "gtg", "--params",
                                          _file(w / "p.json", "{bad")),
                 EXIT_USAGE, id="evaluate-params-not-json"),
    pytest.param(lambda w, log: _evaluate(log, "gtg", "--params",
                                          _not_utf8(w / "p.json")),
                 EXIT_USAGE, id="evaluate-params-not-utf-8"),
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
    # gtg samples guided orders; its uniform form is gtg_tib
    pytest.param(lambda w, log: _evaluate(log, "gtg", "--params",
                                          _params(w, {"sampling": "uniform"})),
                 EXIT_USAGE, id="evaluate-params-gtg-sampling"),
    # an ablation refuses the fields it overrides
    pytest.param(lambda w, log: _evaluate(log, "gtg_ti", "--params",
                                          _params(w, {"eps_between": 0.1})),
                 EXIT_USAGE, id="evaluate-params-gtg-ti-eps-between"),
    pytest.param(lambda w, log: _evaluate(log, "gtg_oti", "--params",
                                          _params(w, {"sampling": "guided"})),
                 EXIT_USAGE, id="evaluate-params-gtg-oti-sampling"),
    pytest.param(lambda w, log: _evaluate(log, "gtg_tib", "--params",
                                          _params(w, {"sampling": "cycle"})),
                 EXIT_USAGE, id="evaluate-params-gtg-tib-sampling"),
    pytest.param(lambda w, log: ["compare", "--config", _config(
        w, estimators=[{"name": "tmc", "params": {"eps_between": 0.1}}])],
                 EXIT_USAGE, id="compare-params-tmc-eps-between"),
    pytest.param(lambda w, log: ["compare", "--config", _config(
        w, estimators=[{"name": "tmc", "params": {"sampling": "guided"}}])],
                 EXIT_USAGE, id="compare-params-tmc-sampling"),
    # out of memory: each array is past 2^47 bytes, more than a 64-bit
    # process can map, so numpy fails at once and touches no memory
    pytest.param(lambda w, log: ["simulate", "--config",
                                 _config(w, model={"hidden_dim": 10**13})],
                 EXIT_RUNTIME, id="simulate-out-of-memory-hidden-dim"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, data={"train_per_class": 10**14, "test_per_class": 6})],
                 EXIT_RUNTIME, id="simulate-out-of-memory-train-rows"),
    pytest.param(lambda w, log: ["simulate", "--config", _config(
        w, source={"input_dim": 10**14, "class_count": 3})],
                 EXIT_RUNTIME, id="simulate-out-of-memory-input-dim"),
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
    pytest.param(lambda w, log: _evaluate(_sidecar_not_utf8(log), "mr"),
                 EXIT_RUNTIME, id="evaluate-sidecar-not-utf-8"),
    pytest.param(lambda w, log: _evaluate(_sidecar(
        log, lambda d: d["metadata"]["config"].update(source=[1])), "mr"),
                 EXIT_USAGE, id="evaluate-sidecar-config-section-not-a-table"),
    # report: report
    pytest.param(lambda w, log: ["report", str(w / "absent.json")],
                 EXIT_RUNTIME, id="report-missing"),
    pytest.param(lambda w, log: ["report", _file(w / "r.json", "{bad")],
                 EXIT_RUNTIME, id="report-not-json"),
    pytest.param(lambda w, log: ["report", _not_utf8(w / "r.json")],
                 EXIT_RUNTIME, id="report-not-utf-8"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(bogus=1))],
                 EXIT_RUNTIME, id="report-row-unknown-field"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(eval_count="x"))],
                 EXIT_RUNTIME, id="report-row-count-not-a-number"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(eval_count=2.9))],
                 EXIT_RUNTIME, id="report-row-count-fractional"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(wall_time_s=True))],
                 EXIT_RUNTIME, id="report-row-time-a-bool"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["metadata"].update(scenario=[1]))],
                 EXIT_RUNTIME, id="report-scenario-not-a-string"),
    pytest.param(lambda w, log: ["report", _report(
        w, lambda d: d["rows"][0].update(estimator_name=[1]))],
                 EXIT_RUNTIME, id="report-estimator-not-a-string"),
    # report reads paths; it takes no seed and prints nothing to quiet
    pytest.param(lambda w, log: ["report", _report(w, lambda d: None), "--quiet"],
                 EXIT_USAGE, id="report-quiet"),
    pytest.param(lambda w, log: ["report", "--seed", "3", _report(w, lambda d: None)],
                 EXIT_USAGE, id="report-seed"),
])
def test_malformed_inputs_end_in_one_line(eval_log, tmp_path, workdir, capsys,
                                          argv, code):
    log = str(tmp_path / Path(eval_log).name)
    for suffix in ("", ".json"):
        shutil.copy(eval_log + suffix, log + suffix)
    argv = argv(tmp_path, log)
    try:
        ended = main(argv if argv[0] == "report" else [*argv, "--quiet"])
    except SystemExit as exc:  # argparse refused the command line
        ended = exc.code
    assert ended == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not any(workdir.iterdir()) and not (tmp_path / "out").exists()
    # a file that is not UTF-8 text is named
    for path in tmp_path.iterdir():
        if path.is_file() and path.read_bytes().startswith(NOT_UTF8):
            assert str(path) in err
