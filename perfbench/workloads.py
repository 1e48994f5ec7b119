"""The benchmark's workloads: their inputs, timed phases and correctness checks.

Each workload has three phases.  ``build_inputs`` is set-up: it generates the
synthetic sources, partitions them and writes the settings each log is made
from.  ``simulate`` trains the federations that produce the workload's logs,
and ``estimate`` runs the workload's estimator calls on those logs; a pass
times the two.  ``result`` then checks a pass's outputs with properties that
hold for any correct implementation.

Every call into the library goes through a module attribute
(``fs.federation.run_federation``, ``fs.estimators.gtg_eval``, ...), so the
traced run can wrap it without touching ``src/``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

# The data sets are the test suite's ``scenario_log`` settings at its default
# seed.  They stay fixed, and the workload seed drives the estimators'
# permutation streams instead: with the data drawn from the seed as well,
# gtg's eval count spread by about 25% between seeds (truncation depends on
# the data), which no useful bound can absorb.
DATA_SEED = 1
# gtg runs behind ``cosine_to_mr``, one per permutation stream, so the
# quality figure averages 5 logs x 10 streams rather than 5 estimates.
QUALITY_STREAMS = 10
MR_TOLERANCE = 1e-9
GTG_VARIANTS = ("gtg_eval", "gtg_ti", "gtg_tib", "gtg_oti")


def import_package(fresh: bool = False) -> SimpleNamespace:
    """Import ``fedshapley`` from this checkout's ``src/``.

    With ``fresh`` every ``fedshapley`` module is dropped first, so the import
    is paid again; set-up is timed that way.
    """
    src = ROOT / "src"
    if not (src / "fedshapley" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fedshapley package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [m for m in sys.modules
                     if m == "fedshapley" or m.startswith("fedshapley.")]:
            del sys.modules[name]
    pkg = importlib.import_module("fedshapley")
    if Path(pkg.__file__).resolve().parent != src / "fedshapley":
        raise ImportError(f"fedshapley resolved to {pkg.__file__}, not {src}")
    mods = {name: importlib.import_module(f"fedshapley.{name}")
            for name in ("cli", "estimators", "federation", "games", "metrics",
                         "models", "scenarios")}
    return SimpleNamespace(pkg=pkg, **mods)


# --- inputs ------------------------------------------------------------------

def log_settings(kind: str, n: int = 10, train_per_class: int = 100) -> dict:
    """One log's settings: the test suite's ``scenario_log`` defaults."""
    return {"kind": kind, "n": n, "rounds": 10, "input_dim": 16, "spread": 1.0,
            "train_per_class": train_per_class, "test_per_class": 10,
            "learning_rate": 0.1, "batch_size": 32, "data_seed": DATA_SEED}


@dataclass
class LogInput:
    settings: dict
    participants: list
    test: object
    arch: object
    train: object


def build_log_input(fs, settings: dict) -> LogInput:
    s = settings
    seed = s["data_seed"]
    source = fs.scenarios.SyntheticSource(input_dim=s["input_dim"],
                                          class_count=10, spread=s["spread"],
                                          seed=seed)
    pool, test = fs.scenarios.generate_source(source, s["train_per_class"],
                                              s["test_per_class"])
    spec = fs.scenarios.ScenarioSpec(kind=s["kind"], n=s["n"], seed=seed)
    shards = fs.scenarios.partition(pool, spec)
    parts = [fs.federation.Participant(id=i + 1, dataset=d)
             for i, d in enumerate(shards)]
    arch = fs.models.ModelArchitecture(s["input_dim"], 0, 10)
    train = fs.models.TrainConfig(local_epochs=1, batch_size=s["batch_size"],
                                  learning_rate=s["learning_rate"],
                                  seed=seed + 100)
    return LogInput(settings, parts, test, arch, train)


def small_log_settings(fs) -> list[dict]:
    """Five n=10 logs, one per scenario kind."""
    return [log_settings(kind.value) for kind in fs.scenarios.ScenarioKind]


def gtg_seed(fs, seed: int, stream: int = 0) -> int:
    return fs.pkg.derive_seed(seed, "gtg", stream)


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


# --- fingerprints and checks ---------------------------------------------------

def log_digest(log) -> str:
    """sha256 over a gradient log's weights and every stored block."""
    h = hashlib.sha256()
    h.update(json.dumps(sorted(log.participant_weights.items())).encode())
    for rec in log.rounds:
        h.update(rec.base_model.tobytes())
        for pid in sorted(rec.updates):
            h.update(rec.updates[pid].tobytes())
        h.update(rec.aggregated.tobytes())
    return h.hexdigest()


def dataset_digest(h, data) -> None:
    h.update(data.features.tobytes())
    h.update(data.labels.tobytes())


def report_digest(reports) -> str:
    """sha256 over the shares and eval counts of estimator reports."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(f"{rep.name}:{rep.eval_count}".encode())
        h.update(rep.total.values.tobytes())
        for vec in rep.per_round:
            h.update(vec.values.tobytes())
    return h.hexdigest()


def pass_fingerprint(logs, reports) -> str:
    """sha256 over a pass's logs and its estimator reports."""
    return hashlib.sha256(("".join(log_digest(g) for g in logs)
                           + report_digest(reports)).encode()).hexdigest()


def round_gains(fs, log, test) -> list[float]:
    """vN - v0 per round, computed with ``models.evaluate`` directly."""
    ev = fs.models.evaluate
    return [ev(log.architecture, rec.aggregated, test)
            - ev(log.architecture, rec.base_model, test) for rec in log.rounds]


def efficiency_problems(label: str, per_round_sums, gains, tol: float) -> list[str]:
    """Rounds whose shares do not add up to the round's utility gain."""
    if len(per_round_sums) != len(gains):
        return [f"{label}: {len(per_round_sums)} rounds of shares, "
                f"{len(gains)} rounds in the log"]
    return [f"{label} round {t}: |sum(phi) - (vN - v0)| = {abs(s - g):.3g} > {tol:.3g}"
            for t, (s, g) in enumerate(zip(per_round_sums, gains))
            if not abs(s - g) <= tol]


def sampled_tolerance(cfg) -> float:
    return max(cfg.eps_within, cfg.eps_between) + MR_TOLERANCE


def oti_gain(fs, log, test) -> float:
    game = fs.estimators.RoundGame.accumulated(log, test)
    return game.full_utility - game.base_utility


def check_sampled(fs, label, report, log, test, cfg, gains) -> list[str]:
    """Efficiency of a sampled estimator, round by round."""
    sums = [math.fsum(v.values) for v in report.per_round]
    if report.name == "gtg_oti":
        gains = [oti_gain(fs, log, test)]
    return efficiency_problems(f"{label} {report.name}", sums, gains,
                               sampled_tolerance(cfg))


@dataclass
class PassResult:
    """What one pass produced, reduced to what the run reports and compares."""

    evals: int
    fingerprint: str
    ops: dict[str, list[str]] = field(default_factory=dict)  # op -> problems
    reports: list = field(default_factory=list)  # (log index, report)
    logs: list = field(default_factory=list)
    doc: dict | None = None  # cli784: the estimate document
    log_bytes: int = 0  # cli784: size of the .gtgl file


def mr_reference(fs, log, test, cache_dir: Path):
    """mr totals for ``log``, cached under the sha256 of log and test set."""
    h = hashlib.sha256(log_digest(log).encode())
    dataset_digest(h, test)
    path = cache_dir / f"mr-{h.hexdigest()}.json"
    if path.is_file():
        return json.loads(path.read_text())["total"]
    total = [float(x) for x in fs.estimators.mr_eval(log, test).total.values]
    write_json(path, {"total": total})
    return total


def gtg_quality(fs, inputs, logs, mr_totals, seed: int) -> tuple[float, dict]:
    """Mean cosine distance of gtg to mr over the logs and QUALITY_STREAMS
    permutation streams; also returns the efficiency problems per run."""
    cosines, ops = [], {}
    gains = [round_gains(fs, log, inp.test) for inp, log in zip(inputs, logs)]
    for k in range(QUALITY_STREAMS):
        cfg = fs.estimators.GtgConfig(seed=gtg_seed(fs, seed, k))
        for i, (inp, log, ref) in enumerate(zip(inputs, logs, mr_totals)):
            rep = fs.estimators.gtg_eval(log, inp.test, cfg)
            cosines.append(fs.metrics.cosine_distance(ref, rep.total))
            ops[f"quality stream {k} log {i}"] = check_sampled(
                fs, f"log {i}", rep, log, inp.test, cfg, gains[i])
    return math.fsum(cosines) / len(cosines), ops


# --- workloads -----------------------------------------------------------------

class LibraryWorkload:
    """Shared shape of ``enum`` and ``sample``: logs built in-process."""

    name = ""
    why = ""

    def log_settings(self, fs) -> list[dict]:
        return small_log_settings(fs)

    def build_inputs(self, fs, seed: int, workdir: Path) -> SimpleNamespace:
        settings = self.log_settings(fs)
        write_json(workdir / self.name / "inputs.json",
                   {"workload": self.name, "seed": seed, "logs": settings,
                    "gtg_seed": gtg_seed(fs, seed)})
        return SimpleNamespace(seed=seed, workdir=workdir,
                               logs=[build_log_input(fs, s) for s in settings])

    def input_digest(self, inputs) -> str:
        h = hashlib.sha256((inputs.workdir / self.name / "inputs.json").read_bytes())
        for inp in inputs.logs:
            for p in inp.participants:
                dataset_digest(h, p.dataset)
            dataset_digest(h, inp.test)
        return h.hexdigest()

    def simulate(self, fs, inputs) -> list:
        return [fs.federation.run_federation(inp.participants, inp.arch,
                                             inp.train, inp.settings["rounds"],
                                             inp.settings["data_seed"] + 7)
                for inp in inputs.logs]


class Enum(LibraryWorkload):
    name = "enum"
    why = ("mr enumerates 2^n coalitions per round, so cost is Python "
           "overhead per coalition in reconstruction and evaluation, plus the "
           "exact solver; it never samples or checks convergence")

    def estimate(self, fs, inputs, logs) -> list:
        return [fs.estimators.mr_eval(log, inp.test)
                for inp, log in zip(inputs.logs, logs)]

    def result(self, fs, inputs, logs, reports) -> PassResult:
        ops = {}
        for i, (inp, log, rep) in enumerate(zip(inputs.logs, logs, reports)):
            expected = log.total_rounds * 2 ** log.n
            problems = ([] if rep.eval_count == expected else
                        [f"log {i} mr: {rep.eval_count} evals, expected {expected}"])
            sums = [math.fsum(v.values) for v in rep.per_round]
            problems += efficiency_problems(f"log {i} mr", sums,
                                            round_gains(fs, log, inp.test),
                                            MR_TOLERANCE)
            ops[f"log {i} mr"] = problems
        return PassResult(sum(r.eval_count for r in reports),
                          pass_fingerprint(logs, reports), ops,
                          list(enumerate(reports)), logs)

    def quality(self, fs, inputs, result: PassResult) -> tuple[float, dict]:
        refs = [rep.total.values for _, rep in result.reports]
        return gtg_quality(fs, inputs.logs, result.logs, refs, inputs.seed)


class Sample(LibraryWorkload):
    name = "sample"
    why = ("gtg and its three ablations on the five n=10 logs, plus gtg at "
           "n=50 and n=100: convergence checks and the permutation walker "
           "dominate at n=10, O(n) aggregation per coalition at n=50 and up")

    def log_settings(self, fs) -> list[dict]:
        wide = [log_settings(fs.scenarios.ScenarioKind.SAME_DIST_SAME_SIZE.value,
                             n=n, train_per_class=10 * n) for n in (50, 100)]
        return small_log_settings(fs) + wide

    def estimate(self, fs, inputs, logs) -> list:
        cfg = fs.estimators.GtgConfig(seed=gtg_seed(fs, inputs.seed))
        return [(i, getattr(fs.estimators, variant)(log, inp.test, cfg))
                for i, (inp, log) in enumerate(zip(inputs.logs, logs))
                for variant in (GTG_VARIANTS if log.n == 10 else GTG_VARIANTS[:1])]

    def result(self, fs, inputs, logs, reports) -> PassResult:
        cfg = fs.estimators.GtgConfig(seed=gtg_seed(fs, inputs.seed))
        gains = [round_gains(fs, log, inp.test)
                 for inp, log in zip(inputs.logs, logs)]
        ops = {f"log {i} {rep.name}": check_sampled(
                   fs, f"log {i}", rep, logs[i], inputs.logs[i].test, cfg, gains[i])
               for i, rep in reports}
        return PassResult(sum(rep.eval_count for _, rep in reports),
                          pass_fingerprint(logs, [rep for _, rep in reports]),
                          ops, reports, logs)

    def quality(self, fs, inputs, result: PassResult) -> tuple[float, dict]:
        small = [(inp, log) for inp, log in zip(inputs.logs, result.logs)
                 if log.n == 10]
        refs = [mr_reference(fs, log, inp.test, inputs.workdir / "mr")
                for inp, log in small]
        return gtg_quality(fs, [inp for inp, _ in small],
                           [log for _, log in small], refs, inputs.seed)


CLI784_CONFIG = {
    "schema": "fedshapley-config-v1",
    "seed": DATA_SEED,
    "rounds": 5,
    "source": {"input_dim": 784, "class_count": 10, "spread": 4.0},
    "scenario": {"kind": "same_dist_same_size", "n": 10},
    "model": {"hidden_dim": 64},
    "train": {"local_epochs": 1, "batch_size": 32, "learning_rate": 0.05},
    "data": {"train_per_class": 100, "test_per_class": 100},
}


class Cli784:
    name = "cli784"
    why = ("fedshapley simulate then evaluate --estimator gtg at the MNIST "
           "shape (d=784, hidden 64, 1,000 test rows): cost is arithmetic, "
           "so a Python-overhead optimisation should not move it")

    def build_inputs(self, fs, seed: int, workdir: Path) -> SimpleNamespace:
        # The config fixes the master seed, so the data and the CLI's gtg
        # stream do not follow the workload seed (see README, "Seeds").
        out = workdir / self.name
        config = write_json(out / "config.json", CLI784_CONFIG)
        return SimpleNamespace(seed=seed, workdir=workdir, config=config, out=out,
                               log=out / f"same_dist_same_size_seed{DATA_SEED}.gtgl",
                               test=None)

    def input_digest(self, inputs) -> str:
        return hashlib.sha256(inputs.config.read_bytes()).hexdigest()

    def simulate(self, fs, inputs) -> int:
        return fs.cli.main(["simulate", "--config", str(inputs.config),
                            "--out", str(inputs.out), "--quiet"])

    def estimate(self, fs, inputs, simulate_status) -> int:
        return fs.cli.main(["evaluate", "--log", str(inputs.log),
                            "--estimator", "gtg", "--out", str(inputs.out),
                            "--quiet"])

    def test_set(self, fs, inputs):
        if inputs.test is None:
            cfg = fs.cli.parse_config(inputs.config)
            inputs.test = fs.cli.build_participants(cfg)[2]
        return inputs.test

    def result(self, fs, inputs, simulate_status, estimate_status) -> PassResult:
        ops = {"cli simulate": ([] if simulate_status == 0 else
                                [f"simulate exited {simulate_status}"]),
               "cli evaluate": ([] if estimate_status == 0 else
                                [f"evaluate exited {estimate_status}"])}
        if simulate_status or estimate_status:
            return PassResult(1, "failed", ops)
        log = fs.federation.load_log(inputs.log)
        try:
            log.validate()
            ops["log validate"] = []
        except ValueError as exc:
            ops["log validate"] = [f"log fails validate(): {exc}"]
        doc = json.loads((inputs.out / f"estimate_gtg_{inputs.log.stem}.json")
                         .read_text())
        test = self.test_set(fs, inputs)
        sums = [math.fsum(r["values"]) for r in doc["per_round"]]
        ops["gtg efficiency"] = efficiency_problems(
            "cli784 gtg", sums, round_gains(fs, log, test),
            sampled_tolerance(fs.estimators.GtgConfig()))
        h = hashlib.sha256(inputs.log.read_bytes())
        h.update(json.dumps({k: doc[k] for k in ("total", "per_round", "eval_count")},
                            sort_keys=True).encode())
        return PassResult(int(doc["eval_count"]), h.hexdigest(), ops, [], [log],
                          doc, inputs.log.stat().st_size)

    def quality(self, fs, inputs, result: PassResult) -> tuple[float, dict]:
        if result.doc is None:  # a CLI call failed; 1.0 is "no estimate"
            return 1.0, {}
        ref = mr_reference(fs, result.logs[0], self.test_set(fs, inputs),
                           inputs.workdir / "mr")
        return fs.metrics.cosine_distance(ref, result.doc["total"]), {}


WORKLOADS = {w.name: w for w in (Enum(), Sample(), Cli784())}
