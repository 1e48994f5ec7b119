#!/usr/bin/env python3
"""fedshapley benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each layer's
public functions in spans and prints the per-layer metrics.  Every pass is
checked for correctness; see ``perfbench/README.md`` for the workloads, the
metrics and how times are normalised.
"""

from __future__ import annotations

import os

# BLAS threads are held at one before numpy loads, so runs on machines with
# different core counts do the same arithmetic the same way.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPS = 9
SIMULATE_REPS = 4
WORKDIR = workloads.ROOT / ".bench_work"

# --- time normalisation --------------------------------------------------------
#
# CPU speed on a shared host drifts by up to 2x within a minute, and run
# medians of raw times spread by about 25% between runs.  While a phase runs,
# an interval timer interrupts it every PROBE_INTERVAL_S and the handler times
# a short fixed probe: an interpreter loop, numpy calls shaped like a softmax
# evaluation, and BLAS products shaped like the 784-wide hidden layer.  A
# phase is reported as its raw seconds, less the probes' own time, scaled by
# PROBE_REF_S over the mean probe time: seconds at the speed at which the
# probe takes PROBE_REF_S.  Raw seconds are kept in the result file.
PROBE_REF_S = 0.0013
PROBE_INTERVAL_S = 0.05
_RNG = np.random.default_rng(0)
_PROBE_W = _RNG.standard_normal(160)
_PROBE_X = _RNG.standard_normal((100, 16))
_PROBE_A = _RNG.standard_normal((32, 784))
_PROBE_B = _RNG.standard_normal((784, 64))


def probe() -> float:
    """Wall time of the fixed probe workload.

    The garbage collector is held off, so that a collection of the
    program's heap is never charged to the probe.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for i in range(5000):
            acc += i * 0.5
        for _ in range(60):
            w = np.asarray(_PROBE_W, dtype=np.float64).reshape(16, 10)
            (_PROBE_X @ w).argmax(axis=1).mean()
        for _ in range(4):
            _PROBE_A @ _PROBE_B
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Times the probe before, every PROBE_INTERVAL_S during, and after a block."""

    def __enter__(self) -> "SpeedSampler":
        self.samples = [probe()]
        self.probes: list[tuple[float, float]] = []  # (start, seconds taken)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.probes.append((start, time.perf_counter() - start))

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def stolen(self, start: float, end: float) -> float:
        return sum(took for at, took in self.probes if start <= at < end)


def timed(fn, *args) -> tuple:
    """``fn(*args)``, its raw seconds and its normalised seconds."""
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
    raw = end - start - sampler.stolen(start, end)
    return result, raw, raw * PROBE_REF_S / statistics.fmean(sampler.samples)


# --- bookkeeping -----------------------------------------------------------------

class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op}: {p}" for p in problems]


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def set_up(workload, seed: int, tally: Tally):
    """Import the package and build the inputs SETUP_REPS times.

    Returns the last import, its inputs and the normalised time of each rep.
    """
    def once():
        fs = workloads.import_package(fresh=True)
        return fs, workload.build_inputs(fs, seed, WORKDIR)

    times, digests = [], []
    for _ in range(SETUP_REPS):
        (fs, inputs), _, took = timed(once)
        times.append(took)
        digests.append(workload.input_digest(inputs))
    tally.record("set-up builds identical inputs every time",
                 [] if len(set(digests)) == 1 else ["input digests differ"])
    return fs, inputs, times


def run_pass(workload, fs, inputs, simulate_reps: int) -> tuple:
    """Simulate phases, then one estimate phase on the last one's logs.

    Each phase is timed and normalised.
    """
    gc.collect()
    sims = [timed(workload.simulate, fs, inputs) for _ in range(simulate_reps)]
    sim = sims[-1][0]
    est, est_raw, est_s = timed(workload.estimate, fs, inputs, sim)
    times = {"simulate_raw_s": [raw for _, raw, _ in sims],
             "simulate_s": [took for _, _, took in sims],
             "estimate_raw_s": [est_raw], "estimate_s": [est_s]}
    return sim, est, times


def run_passes(workload, fs, inputs, seconds: float, tally: Tally,
               tracer=None) -> list[tuple[dict, workloads.PassResult]]:
    """Passes until ``seconds`` have gone by (at least one), each checked.

    Untraced passes simulate SIMULATE_REPS times, because one simulate phase
    is too short to time steadily.  With a tracer, a pass simulates once and
    rebuilds its inputs first, so per-pass counts cover set-up, one
    simulation and one estimation; the checks' own library calls are dropped
    from the trace.  Only the last pass keeps its logs and reports: every
    pass is checked to give the same, and a growing heap would slow each
    pass's garbage collection.
    """
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        if tracer is not None:
            inputs = workload.build_inputs(fs, inputs.seed, WORKDIR)
        sim, est, times = run_pass(workload, fs, inputs,
                                   SIMULATE_REPS if tracer is None else 1)
        with tracer.excluded() if tracer is not None else contextlib.nullcontext():
            result = workload.result(fs, inputs, sim, est)
        for op, problems in result.ops.items():
            tally.record(op, problems)
        if out:
            out[-1][1].reports, out[-1][1].logs = [], []
        out.append((times, result))
    return out


def median_of(key: str, passes) -> float:
    """Median of one kind of phase time over every phase of ``passes``."""
    return statistics.median(t for times, _ in passes for t in times[key])


def check_repeats(workload, seed: int, passes, tally: Tally, cosine=None) -> None:
    """Every pass matches the first, and this run matches earlier runs of
    the same workload and seed in this checkout (traced or not)."""
    first = passes[0][1]
    for i, (_, res) in enumerate(passes[1:], start=2):
        tally.record(f"pass {i} reproduces pass 1",
                     [] if (res.fingerprint, res.evals) == (first.fingerprint, first.evals)
                     else ["outputs or eval count differ"])
    now = {"fingerprint": first.fingerprint, "evals": first.evals}
    if cosine is not None:
        now["cosine_to_mr"] = cosine
    path = WORKDIR / "expected" / f"{workload.name}-seed{seed}.json"
    before = json.loads(path.read_text()) if path.is_file() else {}
    differ = sorted(k for k in now if k in before and before[k] != now[k])
    tally.record("run reproduces earlier runs of this seed",
                 [f"{k}: {before[k]!r} before, {now[k]!r} now" for k in differ])
    workloads.write_json(path, {**now, **before})


def percentiles_us(durations) -> tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    p50, p99 = np.percentile(np.asarray(durations), [50, 99])
    return float(p50) * 1e6, float(p99) * 1e6


def layer_metrics(workload, fs, inputs, tracer, traced, overhead_s) -> dict:
    """Per-layer figures, per traced pass."""
    n_pass = len(traced)
    summary = spans.summarize(tracer)
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    m = {}

    def layer(name, *fields):
        s = summary.get(name, empty)
        if "calls" in fields:
            m[f"{name}.calls"] = s["calls"] / n_pass
        if "self_s" in fields:
            m[f"{name}.self_s"] = s["self_s"] / n_pass
        if "percentiles" in fields:
            m[f"{name}.p50_us"], m[f"{name}.p99_us"] = percentiles_us(s["durations"])

    layer("federation.reconstruct_submodel", "calls", "self_s", "percentiles")
    layer("models.evaluate", "calls", "self_s", "percentiles")
    layer("games.check_convergence", "calls", "self_s")
    layer("estimators.gtg_round", "self_s")
    layer("games.exact_shapley", "self_s")
    layer("games.value_mask", "calls", "self_s")
    evals = traced[0][1].evals
    mask_calls = m["games.value_mask.calls"]
    m["games.cache_hit_ratio"] = 1.0 - evals / mask_calls if mask_calls else 0.0

    # Sampled rounds of the last pass (every pass is checked to match it);
    # mr's rounds are exact and never truncated.
    last = traced[-1][1]
    rounds = [(v.sample_count, len(v)) for _, rep in last.reports
              if rep.name != "mr" for v in rep.per_round]
    if last.doc is not None:
        rounds += [(r["sample_count"], len(r["values"])) for r in last.doc["per_round"]]
    visited = sum(k * n for k, n in rounds)
    walked = spans.child_calls(tracer, "estimators.gtg_round", "games.value_mask") / n_pass
    m["estimators.samples"] = sum(k for k, _ in rounds)
    m["estimators.rounds_truncated"] = sum(1 for k, _ in rounds if k == 0)
    m["estimators.truncation_skip_ratio"] = (visited - walked) / visited if visited else 0.0

    # evals-versus-error frontier on the five n=10 logs (sample only)
    refs = {}
    for name in ("gtg", "gtg_ti", "gtg_tib", "gtg_oti"):
        runs = [(i, rep) for i, rep in last.reports
                if rep.name == name and last.logs[i].n == 10]
        for i, _ in runs:
            if i not in refs:
                refs[i] = workloads.mr_reference(fs, last.logs[i], inputs.logs[i].test,
                                                 WORKDIR / "mr")
        m[f"estimators.{name}.evals"] = sum(rep.eval_count for _, rep in runs)
        m[f"estimators.{name}.cosine_to_mr"] = (
            sum(fs.metrics.cosine_distance(refs[i], rep.total) for i, rep in runs)
            / len(runs) if runs else 0.0)

    layer("models.train_local", "calls", "self_s")
    for name in ("federation.run_federation", "federation.save_log",
                 "federation.load_log", "federation.validate",
                 "scenarios.generate_source", "scenarios.partition"):
        layer(name, "self_s")
    m["federation.log_bytes"] = last.log_bytes
    m["cli.self_s"] = sum(s["self_s"] for name, s in summary.items()
                          if name.startswith("cli.")) / n_pass
    m["trace.estimate_overhead_s"] = overhead_s
    m["trace.spans"] = len(tracer.starts) / n_pass
    return m


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long the timed passes run (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()

    try:
        fs, inputs, setup_times = set_up(workload, args.seed, tally)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = run_passes(workload, fs, inputs, 0, tally)  # warm-up
    passes[0][1].reports, passes[0][1].logs = [], []
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    timed = run_passes(workload, fs, inputs, untraced_s, tally)
    passes += timed

    if args.trace:
        with spans.Tracer() as tracer:
            traced = run_passes(workload, fs, inputs, args.seconds / 2, tally, tracer)
        passes += traced
        spanned = spans.summarize(tracer).get("models.evaluate", {"calls": 0})["calls"]
        reported = sum(r.evals for _, r in traced)
        tally.record("traced utility evaluations match the reported evals",
                     [] if spanned == reported
                     else [f"{spanned} evaluate spans, {reported} evals reported"])
        overhead = median_of("estimate_s", traced) - median_of("estimate_s", timed)
        metrics = layer_metrics(workload, fs, inputs, tracer, traced, overhead)
        check_repeats(workload, args.seed, passes, tally)
        WORKDIR.joinpath("results").mkdir(parents=True, exist_ok=True)
        tracer.save(WORKDIR / "results" / f"spans-{workload.name}-seed{args.seed}.npz")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cosine, ops = workload.quality(fs, inputs, passes[-1][1])
        for op, problems in ops.items():
            tally.record(op, problems)
        check_repeats(workload, args.seed, passes, tally, cosine)
        metrics = {"setup_s": statistics.median(setup_times),
                   "simulate_s": median_of("simulate_s", timed),
                   "estimate_s": median_of("estimate_s", timed),
                   "evals": passes[-1][1].evals,
                   "cosine_to_mr": cosine,
                   "peak_rss_mb": peak_rss_mb}

    facts = machine_facts()
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "machine": facts,
              "probe_ref_s": PROBE_REF_S, "setup_s": setup_times,
              "passes": [t for t, _ in passes[1:]], "metrics": metrics,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems}
    workloads.write_json(WORKDIR / "results" /
                         f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
                         record)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} are measured "
              "or declared in BENCHMARK.json, not both", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
