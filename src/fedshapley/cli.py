"""Command-line driver: simulate training runs, score estimators, compare, report.

One JSON config file describes a full experiment (source, scenario, model,
training, estimator list).  Every random stream is derived from the single
master seed, so runs are reproducible byte-for-byte and adding an estimator
never perturbs the simulation.

Exit codes: 0 success, 1 usage/config error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import (LOG_ESTIMATORS, RETRAIN_PLAYER_LIMIT, EstimatorReport,
                         GtgConfig, check_estimator_params, estimator_names,
                         original_shapley_eval, run_log_estimator,
                         tmc_shapley_eval)
from .federation import (GradientLog, LogFormatError, Participant, load_log,
                         load_log_metadata, run_federation, save_log)
from .games import CapacityError
from .metrics import (ComparisonRow, build_report, read_report,
                      write_report)
from .models import ModelArchitecture, TrainConfig, evaluate
from .scenarios import ScenarioSpec, SyntheticSource, generate_source, partition
from .seeding import derive_seed

CONFIG_SCHEMA = "fedshapley-config-v1"
ESTIMATE_SCHEMA = "fedshapley-estimate-v1"
OUT_DIR_ENV = "FEDSHAPLEY_OUT_DIR"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Fully resolved experiment: every seed already derived from the master."""

    seed: int
    rounds: int
    scenario: ScenarioSpec
    source: SyntheticSource
    model: ModelArchitecture
    train: TrainConfig
    train_per_class: int
    test_per_class: int
    estimators: list[dict]
    output_dir: str | None = None

    @property
    def federation_seed(self) -> int:
        return derive_seed(self.seed, "federation")

    def estimator_seed(self, name: str) -> int:
        return derive_seed(self.seed, "estimator", name)


def _section(doc: dict, key: str) -> dict:
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError(f"section {key!r} must be a table, got {type(val).__name__}")
    return dict(val)


def parse_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    schema = doc.get("schema")
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"{path}: schema {schema!r}, expected {CONFIG_SCHEMA!r}")

    try:
        seed = int(doc.get("seed", 0)) if seed_override is None else int(seed_override)
        rounds = int(doc.get("rounds", 1))
        if rounds < 1:
            raise ConfigError(f"{path}: rounds must be >= 1, got {rounds}")

        source_tbl = _section(doc, "source")
        source = SyntheticSource(seed=derive_seed(seed, "source"), **source_tbl)

        scen_tbl = _section(doc, "scenario")
        scen_tbl.setdefault("kind", "same_dist_same_size")
        scenario = ScenarioSpec(seed=derive_seed(seed, "scenario"), **scen_tbl)

        model_tbl = _section(doc, "model")
        model_tbl.setdefault("input_dim", source.input_dim)
        model_tbl.setdefault("class_count", source.class_count)
        model = ModelArchitecture(**model_tbl)
        if model.input_dim != source.input_dim:
            raise ConfigError(f"{path}: model input_dim {model.input_dim} does "
                              f"not match source input_dim {source.input_dim}")

        train_tbl = _section(doc, "train")
        train = TrainConfig(seed=derive_seed(seed, "train"), **train_tbl)

        data_tbl = _section(doc, "data")
        train_per_class = int(data_tbl.get("train_per_class", 100))
        test_per_class = int(data_tbl.get("test_per_class", 10))

        raw_estimators = doc.get("estimators", [])
        if not isinstance(raw_estimators, list):
            raise ConfigError(f"{path}: 'estimators' must be a list")
        known = set(estimator_names())
        entries = []
        for item in raw_estimators:
            if isinstance(item, str):
                item = {"name": item}
            if not isinstance(item, dict):
                raise ConfigError(f"{path}: each estimator must be a name or a "
                                  f"table, got {type(item).__name__}")
            name = item.get("name")
            if name not in known:
                raise ConfigError(f"{path}: unknown estimator {name!r}; "
                                  f"registered: {', '.join(sorted(known))}")
            params = item.get("params", {})
            check_estimator_params(name, params)
            entries.append({"name": name, "params": dict(params)})
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    return ExperimentConfig(seed=seed, rounds=rounds, scenario=scenario,
                            source=source, model=model, train=train,
                            train_per_class=train_per_class,
                            test_per_class=test_per_class,
                            estimators=entries,
                            output_dir=doc.get("output_dir"))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical config document; reparsing it yields an equivalent config."""
    doc = {
        "schema": CONFIG_SCHEMA,
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "scenario": {"kind": cfg.scenario.kind.value, "n": cfg.scenario.n,
                     "per_class_pool": cfg.scenario.per_class_pool,
                     "params": cfg.scenario.params},
        "source": {"input_dim": cfg.source.input_dim,
                   "class_count": cfg.source.class_count,
                   "spread": cfg.source.spread},
        "model": {"input_dim": cfg.model.input_dim,
                  "hidden_dim": cfg.model.hidden_dim,
                  "class_count": cfg.model.class_count,
                  "activation": cfg.model.activation},
        "train": {"local_epochs": cfg.train.local_epochs,
                  "batch_size": cfg.train.batch_size,
                  "learning_rate": cfg.train.learning_rate},
        "data": {"train_per_class": cfg.train_per_class,
                 "test_per_class": cfg.test_per_class},
        "estimators": cfg.estimators,
    }
    if cfg.output_dir is not None:
        doc["output_dir"] = cfg.output_dir
    return doc


def build_participants(cfg: ExperimentConfig):
    """Generate the pool, test set, and per-participant datasets."""
    pool, test = generate_source(cfg.source, cfg.train_per_class,
                                 cfg.test_per_class)
    parts = partition(pool, cfg.scenario)
    participants = [Participant(id=i, dataset=ds)
                    for i, ds in enumerate(parts, start=1)]
    return participants, pool, test


def _out_dir(args, cfg_dir: str | None = None) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    if cfg_dir:
        return Path(cfg_dir)
    return Path.cwd()


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [float(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _estimate_doc(report: EstimatorReport) -> dict:
    return _jsonable({
        "schema": ESTIMATE_SCHEMA,
        "estimator": report.name,
        "total": report.total.values,
        "per_round": [{"round": v.round, "values": v.values,
                       "sample_count": v.sample_count, "converged": v.converged}
                      for v in report.per_round],
        "eval_count": report.eval_count,
        "reconstructions": report.reconstructions,
        "wall_time_s": report.wall_time,
        "converged_rounds": list(report.converged_rounds),
    })


def _log_stem(cfg: ExperimentConfig) -> str:
    return f"{cfg.scenario.kind.value}_seed{cfg.seed}"


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config, args.seed)
    if args.print_config:
        print(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2))
        return EXIT_OK
    participants, _, test = build_participants(cfg)
    log = run_federation(participants, cfg.model, cfg.train, cfg.rounds,
                         cfg.federation_seed)
    out = _out_dir(args, cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{_log_stem(cfg)}.gtgl"
    save_log(log, path, metadata={"config": config_to_dict(cfg)})
    final_acc = evaluate(cfg.model, log.rounds[-1].aggregated, test)
    start_acc = evaluate(cfg.model, log.rounds[0].base_model, test)
    _say(args, f"log: {path}")
    _say(args, f"accuracy: {start_acc:.4f} -> {final_acc:.4f} "
               f"over {cfg.rounds} rounds")
    return EXIT_OK


def _config_from_sidecar(log_path: str, seed_override: int | None) -> ExperimentConfig:
    meta = load_log_metadata(log_path)
    config_doc = meta.get("metadata", {}).get("config")
    if not config_doc:
        raise LogFormatError(
            f"{log_path}: sidecar has no embedded config; cannot rebuild the "
            "experiment (re-run simulate, or use compare with a config file)")
    tmp = Path(log_path).parent / ".sidecar-config.json"
    tmp.write_text(json.dumps(config_doc))
    try:
        return parse_config(tmp, seed_override)
    finally:
        tmp.unlink(missing_ok=True)


def _run_named_estimator(name: str, params: dict, cfg: ExperimentConfig,
                         log: GradientLog, test, participants) -> EstimatorReport:
    params = dict(params)
    if name in LOG_ESTIMATORS:
        if name in ("gtg", "gtg_ti", "gtg_tib", "gtg_oti"):
            params.setdefault("seed", cfg.estimator_seed(name))
        return run_log_estimator(name, log, test, params)
    if name == "tmc":
        params.setdefault("seed", cfg.estimator_seed(name))
        return tmc_shapley_eval(participants, cfg.model, cfg.train, cfg.rounds,
                                test, init_seed=cfg.federation_seed,
                                cfg=GtgConfig(**params))
    if name == "original":
        return original_shapley_eval(participants, cfg.model, cfg.train,
                                     cfg.rounds, test,
                                     init_seed=cfg.federation_seed)
    raise ConfigError(f"unknown estimator {name!r}; "
                      f"registered: {', '.join(estimator_names())}")


def cmd_evaluate(args) -> int:
    if args.estimator not in set(estimator_names()):
        raise ConfigError(f"unknown estimator {args.estimator!r}; "
                          f"registered: {', '.join(estimator_names())}")
    params = {}
    if args.params:
        try:
            params = json.loads(Path(args.params).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read params {args.params}: {exc}") from exc
        try:
            check_estimator_params(args.estimator, params)
        except ValueError as exc:
            raise ConfigError(f"{args.params}: {exc}") from exc
    if args.print_config:
        print(json.dumps({"estimator": args.estimator, "params": params},
                         sort_keys=True, indent=2))
        return EXIT_OK
    log = load_log(args.log)
    log.validate()
    cfg = _config_from_sidecar(args.log, args.seed)
    participants, _, test = build_participants(cfg)
    report = _run_named_estimator(args.estimator, params, cfg, log, test,
                                  participants)
    out = _out_dir(args, cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"estimate_{args.estimator}_{Path(args.log).stem}.json"
    path.write_text(json.dumps(_estimate_doc(report), sort_keys=True, indent=2)
                    + "\n")
    _say(args, f"report: {path}")
    shares = ", ".join(f"{v:.5f}" for v in report.total.values)
    _say(args, f"total contributions: [{shares}]")
    _say(args, f"evaluations: {report.eval_count}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = parse_config(args.config, args.seed)
    if args.print_config:
        print(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2))
        return EXIT_OK
    if not cfg.estimators:
        raise ConfigError("compare needs at least one estimator in the config")
    # fail fast: ground truth retrains 2^n models, so guard before any training
    if cfg.scenario.n > RETRAIN_PLAYER_LIMIT:
        raise ConfigError(
            f"compare computes ground truth by retraining all coalitions; "
            f"n={cfg.scenario.n} exceeds the n <= {RETRAIN_PLAYER_LIMIT} guard")
    participants, _, test = build_participants(cfg)
    truth = original_shapley_eval(participants, cfg.model, cfg.train, cfg.rounds,
                                  test, init_seed=cfg.federation_seed)
    log = run_federation(participants, cfg.model, cfg.train, cfg.rounds,
                         cfg.federation_seed)
    rows = []
    trajectories = {}
    for entry in cfg.estimators:
        report = _run_named_estimator(entry["name"], entry["params"], cfg, log,
                                      test, participants)
        rows.append(ComparisonRow.compare(truth.total, report))
        trajectories[report.name] = {
            "per_round": [_jsonable(v.values) for v in report.per_round],
            "total": _jsonable(report.total.values),
            "converged_rounds": list(report.converged_rounds),
        }
    metadata = {
        "config": config_to_dict(cfg),
        "scenario": cfg.scenario.kind.value,
        "seed": cfg.seed,
        "ground_truth": _jsonable(truth.total.values),
        "ground_truth_evals": truth.eval_count,
        "trajectories": trajectories,
    }
    out = _out_dir(args, cfg.output_dir)
    csv_path, json_path = write_report(build_report(rows, metadata), out,
                                       f"compare_{_log_stem(cfg)}")
    _say(args, f"csv:  {csv_path}")
    _say(args, f"json: {json_path}")
    if not args.quiet:
        _print_rows([(cfg.scenario.kind.value, r) for r in rows])
    return EXIT_OK


def _print_rows(tagged_rows) -> None:
    header = f"{'scenario':<22} {'estimator':<10} {'cosine':>10} " \
             f"{'euclid':>10} {'maxdiff':>10} {'evals':>8} {'time_s':>9}"
    print(header)
    print("-" * len(header))
    for scenario, r in tagged_rows:
        print(f"{scenario:<22} {r.estimator_name:<10} {r.cosine_distance:>10.5f} "
              f"{r.euclidean_distance:>10.5f} {r.max_difference:>10.5f} "
              f"{r.eval_count:>8d} {r.wall_time_s:>9.3f}")


def cmd_report(args) -> int:
    if args.print_config:
        print(json.dumps({"paths": list(args.paths)}, indent=2))
        return EXIT_OK
    tagged = []
    for path in args.paths:
        doc = read_report(path)
        scenario = doc.get("metadata", {}).get("scenario", "?")
        tagged += [(scenario, ComparisonRow(**row)) for row in doc["rows"]]
    tagged.sort(key=lambda pair: (pair[0], pair[1].estimator_name))
    _print_rows(tagged)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's master seed")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    common.add_argument("--print-config", action="store_true",
                        help="print the resolved configuration and exit")

    parser = _Parser(prog="fedshapley",
                     description="Deterministic federated-training simulator "
                                 "with per-participant contribution estimators.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run federated training and store the gradient log")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or cwd)")
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="score one estimator against a stored log")
    p_eval.add_argument("--log", required=True)
    p_eval.add_argument("--estimator", required=True)
    p_eval.add_argument("--params", default=None,
                        help="JSON file with estimator parameters")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="run every configured estimator against the "
                                "retrained ground truth")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", parents=[common],
                           help="merge comparison reports into one table")
    p_rep.add_argument("paths", nargs="+")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, LogFormatError, OSError, RuntimeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
