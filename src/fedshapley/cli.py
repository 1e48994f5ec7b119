"""Command-line driver: simulate training runs, score estimators, compare, report.

One JSON config file describes a full experiment (source, scenario, model,
training, estimator list).  Every random stream is derived from the single
master seed, so runs are reproducible byte-for-byte and adding an estimator
never perturbs the simulation.

Exit codes: 0 success, 1 usage/config error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from .estimators import (RETRAIN_PLAYER_LIMIT, Estimator, EstimatorReport,
                         check_estimator_params, estimator)
from .federation import (HEADER_FIELD_MAX, GradientLog, LogFormatError,
                         Participant, load_log, load_log_metadata, run_federation,
                         save_log)
from .games import CapacityError
from .metrics import (ComparisonRow, build_report, read_report,
                      write_report)
from .models import ModelArchitecture, TrainConfig, check_types, evaluate
from .scenarios import (ScenarioSpec, SyntheticSource, deal_table, generate_source,
                        partition)
from .seeding import derive_seed

CONFIG_SCHEMA = "fedshapley-config-v1"
ESTIMATE_SCHEMA = "fedshapley-estimate-v1"
CONFIG_FIELDS = frozenset({"schema", "seed", "rounds", "scenario", "source", "model",
                           "train", "data", "estimators"})
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclasses.dataclass
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

    def __post_init__(self) -> None:
        check_types(vars(self), ExperimentConfig.__annotations__)
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.rounds > HEADER_FIELD_MAX:
            raise ValueError(f"rounds must be at most {HEADER_FIELD_MAX}, what a "
                             f"log's header stores, got {self.rounds}")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("per-class sample counts must be >= 1")

    @property
    def federation_seed(self) -> int:
        return derive_seed(self.seed, "federation")


def _section(doc: dict, key: str) -> dict:
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError(f"section {key!r} must be a table, got {type(val).__name__}")
    return dict(val)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(doc, path)


def config_from_dict(doc: object, path: str | Path) -> ExperimentConfig:
    """Validate a config document; errors name ``path``, where it came from."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    schema = doc.get("schema")
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"{path}: schema {schema!r}, expected {CONFIG_SCHEMA!r}")
    unknown = sorted(set(doc) - CONFIG_FIELDS)
    if unknown:
        out = "; give the output directory with --out" * ("output_dir" in unknown)
        raise ConfigError(f"{path}: unknown field(s) {', '.join(unknown)}{out}")

    try:
        seed = doc.get("seed", 0)
        # checked before every section's seed is derived from it
        check_types({"seed": seed}, ExperimentConfig.__annotations__)

        source = SyntheticSource(seed=derive_seed(seed, "source"),
                                 **_section(doc, "source"))
        tables = {key: _section(doc, key) for key in ("scenario", "model")}
        # keys that earlier configs and sidecars hold and no config sets now,
        # each dropped where it holds its one value (None: any value)
        retired = {("scenario", "per_class_pool"): None,
                   ("model", "activation"): "relu",
                   ("model", "input_dim"): source.input_dim,
                   ("model", "class_count"): source.class_count}
        for (section, key), allowed in retired.items():
            value = tables[section].pop(key, allowed)
            if allowed is not None and (type(value) is not type(allowed)
                                        or value != allowed):
                raise ConfigError(f"{path}: {section}.{key} may only be "
                                  f"{allowed!r}, got {value!r}")
        scenario = ScenarioSpec(seed=derive_seed(seed, "scenario"),
                                **tables["scenario"])
        scenario.check_classes(source.class_count)
        model = ModelArchitecture(source.input_dim, class_count=source.class_count,
                                  **tables["model"])

        train = TrainConfig(seed=derive_seed(seed, "train"), **_section(doc, "train"))

        data_tbl = _section(doc, "data")
        train_per_class = data_tbl.pop("train_per_class", 100)
        test_per_class = data_tbl.pop("test_per_class", 10)
        if data_tbl:
            raise ConfigError(f"{path}: unknown data field(s) {', '.join(data_tbl)}")

        raw_estimators = doc.get("estimators", [])
        if not isinstance(raw_estimators, list):
            raise ConfigError(f"{path}: 'estimators' must be a list")
        entries = []
        for item in raw_estimators:
            if isinstance(item, str):
                item = {"name": item}
            if not isinstance(item, dict):
                raise ConfigError(f"{path}: each estimator must be a name or a "
                                  f"table, got {type(item).__name__}")
            params = item.get("params", {})
            keywords = _estimator_keywords(item.get("name"), params, seed, path)
            entries.append({"name": item["name"], "params": dict(params),
                            "keywords": keywords})
        return ExperimentConfig(seed=seed, rounds=doc.get("rounds", 1),
                                scenario=scenario, source=source, model=model,
                                train=train, train_per_class=train_per_class,
                                test_per_class=test_per_class, estimators=entries)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _section_doc(section) -> dict:
    """A config section's fields, less its derived seed and unset (None) options."""
    return {f.name: getattr(section, f.name) for f in dataclasses.fields(section)
            if f.name != "seed" and getattr(section, f.name) is not None}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical config document; reparsing it yields an equivalent config."""
    return {
        "schema": CONFIG_SCHEMA,
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "scenario": _section_doc(cfg.scenario),
        "source": _section_doc(cfg.source),
        "model": {"hidden_dim": cfg.model.hidden_dim},
        "train": _section_doc(cfg.train),
        "data": {"train_per_class": cfg.train_per_class,
                 "test_per_class": cfg.test_per_class},
        "estimators": [{"name": entry["name"], "params": entry["params"]}
                       for entry in cfg.estimators],
    }


def _deal_table(cfg: ExperimentConfig):
    """The rows of each class that the scenario deals each participant from
    the config's pool (see :func:`deal_table`); ConfigError if it cannot."""
    try:
        return deal_table(cfg.scenario, [cfg.train_per_class] * cfg.source.class_count)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"cannot deal the scenario: {exc}") from exc


def build_participants(cfg: ExperimentConfig, table=None):
    """Generate the pool, test set, and per-participant datasets, once the
    scenario is known to deal from that pool: ``table``, its
    :func:`_deal_table`, is made here unless the caller has made it."""
    if table is None:
        table = _deal_table(cfg)
    pool, test = generate_source(cfg.source, cfg.train_per_class,
                                 cfg.test_per_class)
    parts = partition(pool, cfg.scenario, table)
    participants = [Participant(id=i, dataset=ds)
                    for i, ds in enumerate(parts, start=1)]
    return participants, pool, test


@contextlib.contextmanager
def _output_dir(args):
    """``--out`` or else the working directory, made before the work whose
    results go there, so a path no directory can take fails at once; if the
    work fails, the directories made here are removed, those still empty."""
    out = Path(args.out) if args.out else Path.cwd()
    made = [path for path in (out, *out.parents) if not path.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _estimate_doc(report: EstimatorReport) -> dict:
    return {
        "schema": ESTIMATE_SCHEMA,
        "estimator": report.name,
        "total": report.total.values.tolist(),
        "per_round": [{"round": v.round, "values": v.values.tolist(),
                       "sample_count": v.sample_count, "converged": v.converged}
                      for v in report.per_round],
        "eval_count": report.eval_count,
        "reconstructions": report.reconstructions,
        "wall_time_s": report.wall_time,
        "converged_rounds": list(report.converged_rounds),
    }


def _log_stem(cfg: ExperimentConfig) -> str:
    return f"{cfg.scenario.kind.value}_seed{cfg.seed}"


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    if args.print_config:
        print(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2))
        return EXIT_OK
    # the pool is not kept alive through training: nothing reads it
    participants, test = build_participants(cfg)[::2]
    with _output_dir(args) as out:
        log = run_federation(participants, cfg.model, cfg.train, cfg.rounds,
                             cfg.federation_seed)
        path = out / f"{_log_stem(cfg)}.gtgl"
        save_log(log, path, metadata={"config": config_to_dict(cfg)})
    if not args.quiet:
        final_acc = evaluate(cfg.model, log.rounds[-1].aggregated, test)
        start_acc = evaluate(cfg.model, log.rounds[0].base_model, test)
        print(f"log: {path}")
        print(f"accuracy: {start_acc:.4f} -> {final_acc:.4f} "
              f"over {cfg.rounds} rounds")
    return EXIT_OK


def _sidecar_config(log_path: str) -> ExperimentConfig:
    """The config embedded in the sidecar of the log at ``log_path``."""
    sidecar = f"{log_path}.json"

    def json_object(value, what: str) -> dict:
        if not isinstance(value, dict):
            raise LogFormatError(f"{sidecar}: {what} must be a JSON object, "
                                 f"got {type(value).__name__}")
        return value

    doc = json_object(load_log_metadata(log_path), "the top level")
    config_doc = json_object(doc.get("metadata", {}), "'metadata'").get("config")
    if not config_doc:
        raise LogFormatError(
            f"{log_path}: sidecar has no embedded config; cannot rebuild the "
            "experiment (re-run simulate, or use compare with a config file)")
    config_doc = json_object(config_doc, "'metadata.config'")
    # evaluate runs --estimator alone; earlier runs wrote output_dir, and
    # estimator entries that today's checks may refuse
    for key in ("output_dir", "estimators"):
        config_doc.pop(key, None)
    return config_from_dict(config_doc, sidecar)


def _experiment_of(log_path: str, cfg: ExperimentConfig, log: GradientLog,
                   retrains: bool):
    """The participants (None unless the estimator ``retrains``) and test
    set that the sidecar's config ``cfg`` rebuilds for ``log``, which
    :func:`load_log` has checked.  Before any data is drawn, the config is
    checked against ``log`` (its n, rounds, model and the participant
    weights the config deals).  A log-based estimator reads no participant,
    so the pool is drawn but not dealt."""
    sidecar = f"{log_path}.json"
    found = (log.n, log.total_rounds, log.architecture)
    if (cfg.scenario.n, cfg.rounds, cfg.model) != found:
        raise LogFormatError(f"{sidecar}: config does not describe the log's n, "
                             f"rounds and model {found}")
    weights, table = list(log.participant_weights.values()), _deal_table(cfg)
    if table.sum(axis=1).tolist() != weights:
        raise LogFormatError(f"{sidecar}: config deals participants whose "
                             "weights differ from the log's")
    if retrains:
        participants, _, test = build_participants(cfg, table)
        return participants, test
    return None, generate_source(cfg.source, cfg.train_per_class, cfg.test_per_class)[1]


def _check_retraining(cfg: ExperimentConfig, entry: Estimator) -> None:
    """Usage error, before any data is drawn or block read, where ``entry``
    retrains coalitions (``original``, whose shares are compare's ground
    truth, and ``tmc``) past the n guard."""
    if entry.retrains and cfg.scenario.n > RETRAIN_PLAYER_LIMIT:
        raise ConfigError(f"retraining coalitions: n={cfg.scenario.n} exceeds the "
                          f"n <= {RETRAIN_PLAYER_LIMIT} guard")


def _estimator_keywords(name: str, params: object, seed: int | None,
                        source) -> dict:
    """``name``'s ``run`` keywords from its params table, which is parsed
    once, here (see ``estimators.check_estimator_params``); a ConfigError
    that names ``source``, where the table came from, if it is refused.
    Unless the table sets a seed, a sampled estimator's seed derives from
    the config's master ``seed`` (None: no seed is put in)."""
    try:
        if (seed is not None and isinstance(params, dict)
                and "seed" in estimator(name).options):
            params = {"seed": derive_seed(seed, "estimator", name), **params}
        return check_estimator_params(name, params)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _run_named_estimator(name: str, keywords: dict, cfg: ExperimentConfig,
                         log: GradientLog | None, test, participants) -> EstimatorReport:
    """Run ``name`` on the experiment with ``run`` keywords from
    :func:`_estimator_keywords`."""
    entry = estimator(name)
    if entry.retrains:
        return entry.run(participants, cfg.model, cfg.train, cfg.rounds, test,
                         init_seed=cfg.federation_seed, **keywords)
    return entry.run(log, test, **keywords)


def cmd_evaluate(args) -> int:
    try:
        entry = estimator(args.estimator)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    params = {}
    if args.params:
        try:
            params = json.loads(Path(args.params).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read params {args.params}: {exc}") from exc
    if args.print_config:
        _estimator_keywords(args.estimator, params, None, args.params)
        print(json.dumps({"estimator": args.estimator, "params": params},
                         sort_keys=True, indent=2))
        return EXIT_OK
    try:
        cfg = _sidecar_config(args.log)
    except (OSError, ValueError):
        # a bad table is a usage error whatever the sidecar
        _estimator_keywords(args.estimator, params, None, args.params)
        raise
    keywords = _estimator_keywords(args.estimator, params, cfg.seed, args.params)
    _check_retraining(cfg, entry)
    with _output_dir(args) as out:
        log = load_log(args.log)
        participants, test = _experiment_of(args.log, cfg, log, entry.retrains)
        report = _run_named_estimator(args.estimator, keywords, cfg, log, test,
                                      participants)
        path = out / f"estimate_{args.estimator}_{Path(args.log).stem}.json"
        path.write_text(json.dumps(_estimate_doc(report), sort_keys=True, indent=2)
                        + "\n")
    _say(args, f"report: {path}")
    shares = ", ".join(f"{v:.5f}" for v in report.total.values)
    _say(args, f"total contributions: [{shares}]")
    _say(args, f"evaluations: {report.eval_count}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = parse_config(args.config)
    if args.print_config:
        print(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2))
        return EXIT_OK
    if not cfg.estimators:
        raise ConfigError("compare needs at least one estimator in the config")
    # fail fast: ground truth retrains 2^n models, so guard before any training
    _check_retraining(cfg, estimator("original"))
    # the pool is not kept alive through training: nothing reads it
    participants, test = build_participants(cfg)[::2]
    with _output_dir(args) as out:
        # the ground truth takes no parameters
        truth = _run_named_estimator("original", {}, cfg, None, test, participants)
        if not truth.total.values.any():
            raise RuntimeError("the ground truth gives every participant 0, so "
                               "no estimate can be compared with it")
        log = run_federation(participants, cfg.model, cfg.train, cfg.rounds,
                             cfg.federation_seed)
        rows = []
        trajectories = {}
        for entry in cfg.estimators:
            report = _run_named_estimator(entry["name"], entry["keywords"], cfg, log,
                                          test, participants)
            rows.append(ComparisonRow.compare(truth.total, report))
            trajectories[report.name] = {
                "per_round": [v.values.tolist() for v in report.per_round],
                "total": report.total.values.tolist(),
                "converged_rounds": list(report.converged_rounds),
            }
        metadata = {
            "config": config_to_dict(cfg),
            "scenario": cfg.scenario.kind.value,
            "seed": cfg.seed,
            "ground_truth": truth.total.values.tolist(),
            "ground_truth_evals": truth.eval_count,
            "trajectories": trajectories,
        }
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
    """argparse exits 2 on usage errors; this CLI reserves 2 for runtime,
    and ends every error in one line."""

    def error(self, message):
        print(f"error: {self.prog}: {message} (see --help)", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    printable = _Parser(add_help=False)
    printable.add_argument("--print-config", action="store_true",
                           help="print the resolved configuration and exit")
    common = _Parser(add_help=False, parents=[printable])
    common.add_argument("--out", default=None,
                        help="output directory (default: the working directory)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational output")

    parser = _Parser(prog="fedshapley",
                     description="Deterministic federated-training simulator "
                                 "with per-participant contribution estimators.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run federated training and store the gradient log")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="score one estimator against a stored log")
    p_eval.add_argument("--log", required=True)
    p_eval.add_argument("--estimator", required=True)
    p_eval.add_argument("--params", default=None,
                        help="JSON file with estimator parameters")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="run every configured estimator against the "
                                "retrained ground truth")
    p_cmp.add_argument("--config", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", parents=[printable],
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
    except (CapacityError, LogFormatError, MemoryError, OSError,
            RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
