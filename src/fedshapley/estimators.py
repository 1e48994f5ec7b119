"""Per-participant contribution estimators over recorded training runs.

The cheap estimators score coalitions by rebuilding sub-models from stored
gradient updates (one cached utility game per round); the expensive baselines
retrain from scratch per coalition.  All estimators report exact evaluation
counts, which is the portable cost measure — wall time is recorded but
hardware-bound.

Estimator family:

====================  ==========================================================
gtg                   per-round games, guided sampling, between- and
                      within-round truncation
gtg_ti                ablation: within-round truncation only, uniform sampling
gtg_tib               ablation: both truncations, uniform sampling (no guidance)
gtg_oti               ablation: one game over updates accumulated across all
                      rounds, within-round truncation, uniform sampling
mr                    exact per-round values by full subset enumeration
tmr                   mr with decay weights; late rounds below a weight
                      threshold are skipped outright
tmc                   retraining-based sampling with within-permutation
                      truncation
original              retraining-based exact values (ground truth)
====================  ==========================================================
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import time
from dataclasses import dataclass

import numpy as np

# reconstruct_submodel is not called here, but the benchmark's tracer
# (perfbench/spans.py) wraps it at this module's attribute, so it stays.
from .federation import (GradientLog, Participant, RoundRecord,  # noqa: F401
                         RoundStack, fedavg_aggregate, reconstruct_submodel)
from .games import (CapacityError, CoalitionGame, ContributionVector,
                    ConvergenceWindow, CyclingPermutationSampler,
                    UniformPermutationSampler, check_convergence,
                    check_enumerable, exact_shapley, shapley_from_values)
from .models import (LabeledDataset, ModelArchitecture, TrainConfig, evaluate,
                     init_params, train_local)
from .seeding import derive_seed

SAMPLING_MODES = ("guided", "uniform", "cycle")
RETRAIN_PLAYER_LIMIT = 10


@dataclass(frozen=True)
class GtgConfig:
    """Sampling and truncation knobs shared by the estimator family.

    ``eps_between`` = 0 disables between-round truncation entirely (a zero
    threshold would otherwise still truncate rounds whose endpoint utilities
    tie exactly, breaking the exact-limit contract).  ``eps_within`` = 0
    likewise evaluates every position.  ``sampling`` picks the permutation
    stream: "guided" cycles the leading positions deterministically,
    "uniform" is seeded i.i.d., "cycle" enumerates all n! orders (tests).
    """

    eps_between: float = 0.001
    eps_within: float = 0.001
    guided_prefix: int = 1
    max_perms_per_round: int = 500
    lookback: int = 10
    threshold: float = 0.05
    min_samples: int = 11
    seed: int = 0
    sampling: str = "guided"

    def __post_init__(self) -> None:
        if self.eps_between < 0 or self.eps_within < 0:
            raise ValueError("truncation thresholds must be >= 0")
        if self.guided_prefix < 1:
            raise ValueError("guided_prefix must be >= 1")
        if self.max_perms_per_round < 1:
            raise ValueError("max_perms_per_round must be >= 1")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")

    def window(self) -> ConvergenceWindow:
        return ConvergenceWindow(lookback=self.lookback, threshold=self.threshold,
                                 min_samples=self.min_samples)


def nth_partial_permutation(rank: int, n: int, m: int) -> tuple[int, ...]:
    """The rank-th (0-based) length-m prefix of 1..n in lexicographic order."""
    total = math.perm(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    available = list(range(1, n + 1))
    prefix = []
    for j in range(m):
        block = math.perm(n - j - 1, m - j - 1)
        idx, rank = divmod(rank, block)
        prefix.append(available.pop(idx))
    return tuple(prefix)


def guided_permutation(k: int, n: int, m: int,
                       rng: np.random.Generator) -> tuple[int, ...]:
    """Iteration k's join order: deterministic length-m prefix, random suffix.

    With m = 1 the leader is ((k-1) mod n) + 1, so every participant heads a
    permutation equally often; larger m cycles all m-prefixes lexicographically.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    prefix = nth_partial_permutation((k - 1) % math.perm(n, m), n, m)
    rest = [p for p in range(1, n + 1) if p not in prefix]
    suffix = tuple(rest[i] for i in rng.permutation(len(rest)))
    return prefix + suffix


def _make_sampler(cfg: GtgConfig, n: int, seed: int):
    if cfg.sampling == "uniform":
        return UniformPermutationSampler(n, seed)
    if cfg.sampling == "cycle":
        return CyclingPermutationSampler(n)
    rng = np.random.default_rng(seed)
    return lambda k: guided_permutation(k, n, cfg.guided_prefix, rng)


class RoundGame:
    """One round's cached coalition-utility game.

    ``base_utility`` (v0) and ``full_utility`` (vN) are evaluated on
    construction, so a round handled purely by between-round truncation costs
    exactly two utility evaluations.
    """

    def __init__(self, round_index: int, game: CoalitionGame,
                 recon_counter: list[int] | None = None):
        self.round = round_index
        self.game = game
        self._recon = recon_counter if recon_counter is not None else [0]
        self.base_utility = game.value_mask(0)
        self.full_utility = game.value_mask(game.full_mask)

    @property
    def reconstructions(self) -> int:
        return self._recon[0]

    @classmethod
    def from_round(cls, record: RoundRecord, weights: dict[int, int],
                   arch: ModelArchitecture, test: LabeledDataset) -> "RoundGame":
        """The round's game over models rebuilt from its stored updates.

        The base model and updates are cast to float64 once, here, and each
        coalition a walker visits is rebuilt on its own from them.
        """
        counter = [0]
        stack = RoundStack(record, weights)

        def oracle(ids: tuple[int, ...]) -> float:
            if not ids:
                return evaluate(arch, record.base_model, test)
            counter[0] += 1
            return evaluate(arch, stack.rebuild(ids), test)

        return cls(record.round, CoalitionGame(len(weights), oracle), counter)

    @classmethod
    def accumulated(cls, log: GradientLog, test: LabeledDataset) -> "RoundGame":
        """Single game over updates summed across every round (float64 sums)."""
        p = log.architecture.param_count
        acc = {pid: np.zeros(p, dtype=np.float64) for pid in log.participant_weights}
        for rec in log.rounds:
            for pid, delta in rec.updates.items():
                acc[pid] += delta.astype(np.float64)
        summed = {pid: acc[pid].astype(np.float32) for pid in acc}
        base = log.rounds[0].base_model
        record = RoundRecord(round=0, base_model=base, updates=summed,
                             aggregated=fedavg_aggregate(
                                 base, summed, log.participant_weights))
        return cls.from_round(record, log.participant_weights,
                              log.architecture, test)


@dataclass
class GtgRoundStats:
    round: int
    sample_count: int
    converged: bool
    truncated: bool
    eval_count: int
    reconstructions: int


def gtg_round(rgame: RoundGame, cfg: GtgConfig, sampler=None,
              always_evaluate_first: bool = False
              ) -> tuple[ContributionVector, GtgRoundStats]:
    """Estimate one round's contributions with truncated permutation sampling.

    Between-round truncation: if the round's total utility gain |vN - v0| is
    within ``eps_between`` (and that threshold is positive), the round is
    scored all-zero without sampling.  Within a sampled permutation, position
    j is evaluated only while |vN - v_{j-1}| >= ``eps_within``; once the
    residual gap falls below the threshold the remaining positions inherit
    the running utility (marginal 0).  ``always_evaluate_first`` exempts
    position 1 from that check (the retraining-based sampler wants every
    permutation to refresh at least one utility).
    """
    n = rgame.game.n
    v0, v_n = rgame.base_utility, rgame.full_utility
    if cfg.eps_between > 0 and abs(v_n - v0) <= cfg.eps_between:
        vec = ContributionVector(np.zeros(n), round=rgame.round,
                                 sample_count=0, converged=True)
        stats = GtgRoundStats(round=rgame.round, sample_count=0, converged=True,
                              truncated=True, eval_count=rgame.game.eval_count,
                              reconstructions=rgame.reconstructions)
        return vec, stats

    if sampler is None:
        sampler = _make_sampler(cfg, n, derive_seed(cfg.seed, "round", rgame.round))
    window = cfg.window()
    phi = np.zeros(n, dtype=np.float64)
    marginals = np.zeros(n, dtype=np.float64)
    converged = False
    k = 0
    while k < cfg.max_perms_per_round:
        k += 1
        order = sampler(k)
        mask = 0
        prev = v0
        for j, pid in enumerate(order):
            mask |= 1 << (pid - 1)
            if (j == 0 and always_evaluate_first) or abs(v_n - prev) >= cfg.eps_within:
                cur = rgame.game.value_mask(mask)
            else:
                cur = prev
            marginals[pid - 1] = cur - prev
            prev = cur
        phi = ((k - 1.0) / k) * phi + marginals / k
        if k >= cfg.min_samples and check_convergence(window, phi):
            converged = True
            break
        window.push(phi)
    vec = ContributionVector(phi, round=rgame.round, sample_count=k,
                             converged=converged)
    stats = GtgRoundStats(round=rgame.round, sample_count=k, converged=converged,
                          truncated=False, eval_count=rgame.game.eval_count,
                          reconstructions=rgame.reconstructions)
    return vec, stats


@dataclass
class EstimatorReport:
    """What an estimator produced and what it cost."""

    name: str
    per_round: list[ContributionVector]
    total: ContributionVector
    eval_count: int
    reconstructions: int
    wall_time: float
    converged_rounds: list[bool]
    round_stats: list[GtgRoundStats] | None = None


def _totalize(name: str, per_round: list[ContributionVector], n: int,
              eval_count: int, reconstructions: int, started: float,
              converged_rounds: list[bool],
              round_stats: list[GtgRoundStats] | None = None) -> EstimatorReport:
    values = np.zeros(n, dtype=np.float64)
    for vec in per_round:
        values += vec.values
    total = ContributionVector(values,
                               sample_count=sum(v.sample_count for v in per_round),
                               converged=all(converged_rounds))
    return EstimatorReport(name=name, per_round=per_round, total=total,
                           eval_count=eval_count, reconstructions=reconstructions,
                           wall_time=time.perf_counter() - started,
                           converged_rounds=converged_rounds,
                           round_stats=round_stats)


def _gtg_family(log: GradientLog, test: LabeledDataset, cfg: GtgConfig,
                name: str) -> EstimatorReport:
    started = time.perf_counter()
    per_round: list[ContributionVector] = []
    stats_list: list[GtgRoundStats] = []
    evals = recon = 0
    for rec in log.rounds:
        rgame = RoundGame.from_round(rec, log.participant_weights,
                                     log.architecture, test)
        vec, stats = gtg_round(rgame, cfg)
        per_round.append(vec)
        stats_list.append(stats)
        evals += stats.eval_count
        recon += stats.reconstructions
    return _totalize(name, per_round, log.n, evals, recon, started,
                     [s.converged for s in stats_list], stats_list)


def gtg_eval(log: GradientLog, test: LabeledDataset,
             cfg: GtgConfig | None = None) -> EstimatorReport:
    """Full estimator: guided sampling plus both truncation levels."""
    return _gtg_family(log, test, cfg or GtgConfig(), "gtg")


def gtg_ti(log: GradientLog, test: LabeledDataset,
           cfg: GtgConfig | None = None) -> EstimatorReport:
    """Ablation: within-round truncation only, unguided uniform sampling."""
    cfg = dataclasses.replace(cfg or GtgConfig(), eps_between=0.0,
                              sampling="uniform")
    return _gtg_family(log, test, cfg, "gtg_ti")


def gtg_tib(log: GradientLog, test: LabeledDataset,
            cfg: GtgConfig | None = None) -> EstimatorReport:
    """Ablation: both truncation levels, unguided uniform sampling."""
    cfg = dataclasses.replace(cfg or GtgConfig(), sampling="uniform")
    return _gtg_family(log, test, cfg, "gtg_tib")


def gtg_oti(log: GradientLog, test: LabeledDataset,
            cfg: GtgConfig | None = None) -> EstimatorReport:
    """Ablation: one game over per-participant updates accumulated across
    all rounds; within-round truncation only, uniform sampling."""
    started = time.perf_counter()
    cfg = dataclasses.replace(cfg or GtgConfig(), eps_between=0.0,
                              sampling="uniform")
    rgame = RoundGame.accumulated(log, test)
    vec, stats = gtg_round(rgame, cfg)
    return _totalize("gtg_oti", [vec], log.n, stats.eval_count,
                     stats.reconstructions, started, [stats.converged], [stats])


def round_utilities(rec: RoundRecord, log: GradientLog,
                    test: LabeledDataset) -> np.ndarray:
    """Utility of every coalition of one round, indexed by bitmask.

    Costs 2^n evaluations: the base model, then every non-empty coalition's
    model, rebuilt a chunk of coalitions at a time.  The enumeration guard
    is checked before anything is evaluated.
    """
    check_enumerable(log.n)
    arch = log.architecture
    masks = np.arange(1, 1 << log.n)
    values = np.empty(1 << log.n, dtype=np.float64)
    values[0] = evaluate(arch, rec.base_model, test)
    stack = RoundStack(rec, log.participant_weights)
    for mask, model in zip(masks.tolist(), stack.rebuild_masks(masks)):
        values[mask] = evaluate(arch, model, test)
    return values


def mr_eval(log: GradientLog, test: LabeledDataset) -> EstimatorReport:
    """Exact per-round values by subset enumeration; totals are their sum.

    Costs exactly 2^n utility evaluations per round (the base model plus
    every non-empty coalition reconstruction)."""
    started = time.perf_counter()
    per_round = []
    evals = recon = 0
    for rec in log.rounds:
        values = round_utilities(rec, log, test)
        vec = shapley_from_values(values)
        vec.round = rec.round
        per_round.append(vec)
        evals += len(values)
        recon += len(values) - 1
    return _totalize("mr", per_round, log.n, evals, recon, started,
                     [True] * log.total_rounds)


def tmr_eval(log: GradientLog, test: LabeledDataset, lam: float = 0.9,
             round_threshold: float = 0.01) -> EstimatorReport:
    """Decay-weighted per-round exact values.

    Round t's vector is scaled by lam**t; once lam**t drops below
    ``round_threshold`` the round is skipped outright (zero vector, zero
    evaluations)."""
    if not 0 < lam <= 1:
        raise ValueError("decay must lie in (0, 1]")
    started = time.perf_counter()
    per_round = []
    evals = recon = 0
    for rec in log.rounds:
        weight = lam ** rec.round
        if weight < round_threshold:
            per_round.append(ContributionVector(np.zeros(log.n), round=rec.round,
                                                converged=True))
            continue
        values = round_utilities(rec, log, test)
        vec = shapley_from_values(values)
        per_round.append(ContributionVector(weight * vec.values, round=rec.round,
                                            converged=True))
        evals += len(values)
        recon += len(values) - 1
    return _totalize("tmr", per_round, log.n, evals, recon, started,
                     [True] * log.total_rounds)


class RetrainOracle:
    """Coalition utility by centralized retraining.

    V(S) is the test accuracy of a model trained from the shared initial
    parameters on the concatenation of S's datasets (ascending id order) for
    rounds x local_epochs epochs.  One fixed training seed is used for every
    coalition, so the utility is a deterministic function of the coalition's
    data alone.
    """

    def __init__(self, participants: list[Participant], arch: ModelArchitecture,
                 train_cfg: TrainConfig, rounds: int, test: LabeledDataset,
                 init_seed: int):
        self._by_id = {p.id: p for p in participants}
        self._arch = arch
        self._test = test
        self._base = init_params(arch, derive_seed(init_seed, "init"))
        self._cfg = dataclasses.replace(
            train_cfg, local_epochs=train_cfg.local_epochs * rounds,
            seed=derive_seed(init_seed, "retrain"))
        self.trainings = [0]

    def __call__(self, ids: tuple[int, ...]) -> float:
        if not ids:
            return evaluate(self._arch, self._base, self._test)
        parts = [self._by_id[i].dataset for i in sorted(ids)]
        merged = LabeledDataset(
            features=np.concatenate([p.features for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            id="coalition-" + "-".join(str(i) for i in sorted(ids)))
        self.trainings[0] += 1
        model = train_local(self._arch, self._base, merged, self._cfg)
        return evaluate(self._arch, model, self._test)


def original_shapley_eval(participants: list[Participant],
                          arch: ModelArchitecture, train_cfg: TrainConfig,
                          rounds: int, test: LabeledDataset,
                          init_seed: int = 0) -> EstimatorReport:
    """Ground truth: exact values over the retraining utility (2^n trainings)."""
    n = len(participants)
    if n > RETRAIN_PLAYER_LIMIT:
        raise CapacityError(
            f"retraining all 2^{n} coalitions is past the n <= "
            f"{RETRAIN_PLAYER_LIMIT} guard")
    started = time.perf_counter()
    oracle = RetrainOracle(participants, arch, train_cfg, rounds, test, init_seed)
    game = CoalitionGame(n, oracle)
    vec = exact_shapley(game)
    return _totalize("original", [vec], n, game.eval_count, oracle.trainings[0],
                     started, [True])


def tmc_shapley_eval(participants: list[Participant], arch: ModelArchitecture,
                     train_cfg: TrainConfig, rounds: int, test: LabeledDataset,
                     init_seed: int = 0,
                     cfg: GtgConfig | None = None) -> EstimatorReport:
    """Truncated Monte-Carlo baseline over the retraining utility.

    Permutation sampling with within-permutation truncation against the
    grand-coalition utility; ``eps_between`` and ``guided_prefix`` are
    ignored (single game, unguided sampling unless cfg.sampling overrides)."""
    n = len(participants)
    if n > RETRAIN_PLAYER_LIMIT:
        raise CapacityError(
            f"retraining-based sampling is past the n <= "
            f"{RETRAIN_PLAYER_LIMIT} guard")
    started = time.perf_counter()
    base_cfg = cfg or GtgConfig()
    if base_cfg.sampling == "guided":
        base_cfg = dataclasses.replace(base_cfg, sampling="uniform")
    base_cfg = dataclasses.replace(base_cfg, eps_between=0.0)
    oracle = RetrainOracle(participants, arch, train_cfg, rounds, test, init_seed)
    rgame = RoundGame(0, CoalitionGame(n, oracle), oracle.trainings)
    vec, stats = gtg_round(rgame, base_cfg, always_evaluate_first=True)
    return _totalize("tmc", [vec], n, stats.eval_count, stats.reconstructions,
                     started, [stats.converged], [stats])


def round_marginal_gains(log: GradientLog, test: LabeledDataset) -> list[float]:
    """Per-round total utility gain v_N - v_0 (no reconstructions needed)."""
    arch = log.architecture
    return [evaluate(arch, rec.aggregated, test)
            - evaluate(arch, rec.base_model, test)
            for rec in log.rounds]


def position_marginal_profile(log: GradientLog, test: LabeledDataset,
                              samples_per_round: int = 20,
                              seed: int = 0) -> np.ndarray:
    """Mean marginal contribution by permutation position (0-based).

    Averages v_j - v_{j-1} by join position over uniformly sampled
    permutations of every round, exposing how much of the round's gain is
    perceived by early versus late joiners."""
    n = log.n
    sums = np.zeros(n, dtype=np.float64)
    count = 0
    for rec in log.rounds:
        rgame = RoundGame.from_round(rec, log.participant_weights,
                                     log.architecture, test)
        sampler = UniformPermutationSampler(n, derive_seed(seed, "profile",
                                                           rec.round))
        for k in range(1, samples_per_round + 1):
            order = sampler(k)
            mask = 0
            prev = rgame.base_utility
            for j, pid in enumerate(order):
                mask |= 1 << (pid - 1)
                cur = rgame.game.value_mask(mask)
                sums[j] += cur - prev
                prev = cur
            count += 1
    return sums / count


LOG_ESTIMATORS = {
    "gtg": gtg_eval,
    "gtg_ti": gtg_ti,
    "gtg_tib": gtg_tib,
    "gtg_oti": gtg_oti,
    "mr": mr_eval,
    "tmr": tmr_eval,
}
RETRAIN_ESTIMATORS = {
    "tmc": tmc_shapley_eval,
    "original": original_shapley_eval,
}


def estimator_names() -> list[str]:
    return sorted(LOG_ESTIMATORS) + sorted(RETRAIN_ESTIMATORS)


def accepted_params(name: str) -> tuple[str, ...]:
    """Names a plain parameter table may hold for the estimator ``name``.

    An estimator that takes a ``cfg`` takes GtgConfig's fields; any other
    log-based one takes its keyword parameters after the log and test set.
    A retraining estimator's other arguments come from the experiment
    config, never from a parameter table.
    """
    estimator = {**LOG_ESTIMATORS, **RETRAIN_ESTIMATORS}[name]
    params = tuple(inspect.signature(estimator).parameters)
    if "cfg" in params:
        return tuple(f.name for f in dataclasses.fields(GtgConfig))
    return params[2:] if name in LOG_ESTIMATORS else ()


def check_estimator_params(name: str, params: object) -> None:
    """Raise ValueError unless ``params`` is a table of parameter names that
    the registered estimator ``name`` accepts.  Values are checked later, by
    the estimator itself."""
    if not isinstance(params, dict):
        raise ValueError(f"{name} params must be a table of name/value pairs, "
                         f"got {type(params).__name__}")
    accepted = accepted_params(name)
    unknown = sorted(str(key) for key in params if key not in accepted)
    if unknown:
        raise ValueError(f"{name} does not accept {', '.join(unknown)}; "
                         f"accepted: {', '.join(accepted) or 'none'}")


def run_log_estimator(name: str, log: GradientLog, test: LabeledDataset,
                      params: dict | None = None) -> EstimatorReport:
    """Dispatch a log-based estimator by name with a plain parameter table."""
    if name not in LOG_ESTIMATORS:
        raise ValueError(f"unknown log-based estimator {name!r}; "
                         f"registered: {', '.join(estimator_names())}")
    params = {} if params is None else params
    check_estimator_params(name, params)
    if name == "mr":
        return mr_eval(log, test)
    if name == "tmr":
        return tmr_eval(log, test, **params)
    cfg = GtgConfig(**params) if params else None
    return LOG_ESTIMATORS[name](log, test, cfg)
