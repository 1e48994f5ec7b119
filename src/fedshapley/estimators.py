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
import functools
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# reconstruct_submodel is not called here, but the benchmark's tracer
# (perfbench/spans.py) wraps it at this module's attribute, so it stays.
from .federation import (GradientLog, Participant, RoundRecord,  # noqa: F401
                         RoundStack, fedavg_aggregate, reconstruct_submodel)
from .games import (CapacityError, CoalitionGame, ContributionVector,
                    ConvergenceWindow, CyclingPermutationSampler,
                    UniformPermutationSampler, check_convergence,
                    check_enumerable, exact_shapley, shapley_from_values,
                    walk_order)
from .models import (EvalSet, LabeledDataset, ModelArchitecture, TrainConfig,
                     check_types, eval_set, evaluate, init_params, train_local)
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
    stream: "guided" rotates which participant leads each permutation,
    "uniform" is seeded i.i.d., "cycle" enumerates all n! orders (tests).
    A field of the wrong type or a value out of range is a ValueError.
    """

    eps_between: float = 0.001
    eps_within: float = 0.001
    max_perms_per_round: int = 500
    lookback: int = 10
    threshold: float = 0.05
    min_samples: int = 11
    seed: int = 0
    sampling: str = "guided"

    def __post_init__(self) -> None:
        check_types(vars(self), GtgConfig.__annotations__)
        if not (self.eps_between >= 0 and self.eps_within >= 0):
            raise ValueError("truncation thresholds must be >= 0")
        if self.max_perms_per_round < 1:
            raise ValueError("max_perms_per_round must be >= 1")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        self.window()  # the window checks lookback and threshold

    def window(self) -> ConvergenceWindow:
        return ConvergenceWindow(lookback=self.lookback, threshold=self.threshold,
                                 min_samples=self.min_samples)


def guided_permutation(k: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Iteration k's join order: participant ((k-1) mod n) + 1 leads, so
    every participant heads a permutation equally often; the rest follow in
    random order."""
    leader = (k - 1) % n + 1
    rest = np.array([p for p in range(1, n + 1) if p != leader])
    return (leader,) + tuple(rest[rng.permutation(len(rest))].tolist())


def _make_sampler(cfg: GtgConfig, n: int, seed: int):
    if cfg.sampling == "uniform":
        return UniformPermutationSampler(n, seed)
    if cfg.sampling == "cycle":
        return CyclingPermutationSampler(n)
    rng = np.random.default_rng(seed)
    return lambda k: guided_permutation(k, n, rng)


class RoundGame:
    """One round's cached coalition-utility game.

    ``base_utility`` (v0) and ``full_utility`` (vN) are evaluated on
    construction, so a round handled purely by between-round truncation costs
    exactly two utility evaluations.  v0 is evaluated first and is the one
    evaluation that rebuilds (or retrains) nothing.
    """

    def __init__(self, round_index: int | None, game: CoalitionGame):
        self.round = round_index
        self.game = game
        self.base_utility = game.value_mask(0)
        self.full_utility = game.value_mask(game.full_mask)

    @classmethod
    def from_round(cls, record: RoundRecord, weights: dict[int, int],
                   arch: ModelArchitecture,
                   test: LabeledDataset | EvalSet) -> "RoundGame":
        """The round's game over models rebuilt from its stored updates.

        The base model, the updates and the test features are cast to
        float64 once, here, and each coalition a walker visits is rebuilt on
        its own from them and evaluated once.
        """
        stack = RoundStack(record, weights)
        test = eval_set(test)

        def oracle(ids: tuple[int, ...]) -> float:
            return evaluate(arch, stack.rebuild(ids) if ids else record.base_model,
                            test)

        return cls(record.round, CoalitionGame(len(weights), oracle))

    @classmethod
    def accumulated(cls, log: GradientLog,
                    test: LabeledDataset | EvalSet) -> "RoundGame":
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


def gtg_round(rgame: RoundGame, cfg: GtgConfig, sampler=None,
              always_evaluate_first: bool = False) -> ContributionVector:
    """Estimate one round's contributions with truncated permutation sampling;
    the vector carries the game's evaluation count.

    Between-round truncation: if the round's total utility gain |vN - v0| is
    within ``eps_between`` (and that threshold is positive), the round is
    scored all-zero without sampling (``sample_count`` 0).  Within a sampled
    permutation, position j is evaluated only while |vN - v_{j-1}| >=
    ``eps_within``; once the residual gap falls below the threshold the
    remaining positions inherit the running utility (marginal 0).
    ``always_evaluate_first`` exempts position 1 from that check (the
    retraining-based sampler wants every permutation to refresh at least one
    utility).
    """
    n = rgame.game.n
    v0, v_n = rgame.base_utility, rgame.full_utility
    converged = cfg.eps_between > 0 and abs(v_n - v0) <= cfg.eps_between
    if sampler is None and not converged:
        sampler = _make_sampler(cfg, n, derive_seed(cfg.seed, "round", rgame.round))
    window = cfg.window()
    phi = np.zeros(n, dtype=np.float64)
    marginals = np.empty(n, dtype=np.float64)
    k = 0
    while not converged and k < cfg.max_perms_per_round:
        k += 1
        walk_order(rgame.game, sampler(k), marginals, v0, v_n, cfg.eps_within,
                   always_evaluate_first)
        phi = ((k - 1.0) / k) * phi + marginals / k
        converged = k >= cfg.min_samples and check_convergence(window, phi)
        window.push(phi)
    return ContributionVector(phi, round=rgame.round, sample_count=k,
                              converged=converged, eval_count=rgame.game.eval_count)


@dataclass
class EstimatorReport:
    """What an estimator produced (one vector per round, at least one) and
    what it cost; every total is derived from the rounds."""

    name: str
    per_round: list[ContributionVector]
    wall_time: float

    @property
    def total(self) -> ContributionVector:
        """The rounds' sum: converged if every round is, None if all are exact."""
        values = sum((v.values for v in self.per_round),
                     np.zeros(len(self.per_round[0])))
        exact = all(v.converged is None for v in self.per_round)
        return ContributionVector(
            values, sample_count=sum(v.sample_count for v in self.per_round),
            converged=None if exact else all(self.converged_rounds),
            eval_count=self.eval_count)

    @property
    def eval_count(self) -> int:
        return sum(v.eval_count for v in self.per_round)

    @property
    def reconstructions(self) -> int:
        """Evaluations less the base model of each round that evaluated any."""
        return sum(v.eval_count - 1 for v in self.per_round if v.eval_count)

    @property
    def converged_rounds(self) -> list[bool]:
        """Per round: an exact round counts as converged."""
        return [v.converged is not False for v in self.per_round]


def _sample_games(name: str, cfg: GtgConfig,
                  builders: Sequence[Callable[[], RoundGame]],
                  evaluate_first: bool = False) -> EstimatorReport:
    """Score each builder's game with :func:`gtg_round`, in order; a game is
    built when its turn comes, so one game's float64 stack is alive at a time."""
    started = time.perf_counter()
    rounds = [gtg_round(build(), cfg, always_evaluate_first=evaluate_first)
              for build in builders]
    return EstimatorReport(name, rounds, time.perf_counter() - started)


def _gtg_family(log: GradientLog, test: LabeledDataset, cfg: GtgConfig,
                name: str) -> EstimatorReport:
    return _sample_games(name, cfg, [
        functools.partial(RoundGame.from_round, rec, log.participant_weights,
                          log.architecture, test) for rec in log.rounds])


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
    cfg = dataclasses.replace(cfg or GtgConfig(), eps_between=0.0,
                              sampling="uniform")
    return _sample_games("gtg_oti", cfg, [lambda: RoundGame.accumulated(log, test)])


def round_utilities(rec: RoundRecord, log: GradientLog,
                    test: LabeledDataset | EvalSet) -> np.ndarray:
    """Utility of every coalition of one round, indexed by bitmask.

    Costs 2^n evaluations: the base model, then every non-empty coalition's
    model, rebuilt a chunk of coalitions at a time.  The enumeration guard
    is checked before anything is evaluated.
    """
    check_enumerable(log.n)
    arch = log.architecture
    test = eval_set(test)
    masks = np.arange(1, 1 << log.n)
    values = np.empty(1 << log.n, dtype=np.float64)
    values[0] = evaluate(arch, rec.base_model, test)
    stack = RoundStack(rec, log.participant_weights)
    for mask, model in zip(masks.tolist(), stack.rebuild_masks(masks)):
        values[mask] = evaluate(arch, model, test)
    return values


def _exact_rounds(name: str, log: GradientLog, test: LabeledDataset,
                  lam: float, round_threshold: float) -> EstimatorReport:
    """The one loop of :func:`mr_eval` and :func:`tmr_eval` (see the latter)."""
    started = time.perf_counter()
    per_round = []
    for rec in log.rounds:
        weight = lam ** rec.round
        if weight < round_threshold:
            per_round.append(ContributionVector(np.zeros(log.n), round=rec.round))
            continue
        values = round_utilities(rec, log, test)
        per_round.append(ContributionVector(weight * shapley_from_values(values).values,
                                            round=rec.round, eval_count=len(values)))
    return EstimatorReport(name, per_round, time.perf_counter() - started)


def mr_eval(log: GradientLog, test: LabeledDataset) -> EstimatorReport:
    """Exact per-round values by subset enumeration; totals are their sum.

    Costs exactly 2^n utility evaluations per round (the base model plus
    every non-empty coalition reconstruction): tmr's loop with lam = 1.0."""
    return _exact_rounds("mr", log, test, lam=1.0, round_threshold=0.0)


def _tmr_params(**params) -> dict:
    """:func:`tmr_eval`'s keywords, of its annotated types; lam lies in (0, 1]."""
    check_types(params, tmr_eval.__annotations__)
    if "lam" in params and not 0 < params["lam"] <= 1:
        raise ValueError("decay must lie in (0, 1]")
    return params


def tmr_eval(log: GradientLog, test: LabeledDataset, lam: float = 0.9,
             round_threshold: float = 0.01) -> EstimatorReport:
    """Decay-weighted per-round exact values.

    Round t's vector is scaled by lam**t; once lam**t drops below
    ``round_threshold`` the round is skipped outright (zero vector, zero
    evaluations)."""
    return _exact_rounds("tmr", log, test, **_tmr_params(
        lam=lam, round_threshold=round_threshold))


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
        self._test = eval_set(test)
        self._base = init_params(arch, derive_seed(init_seed, "init"))
        self._cfg = dataclasses.replace(
            train_cfg, local_epochs=train_cfg.local_epochs * rounds,
            seed=derive_seed(init_seed, "retrain"))

    def __call__(self, ids: tuple[int, ...]) -> float:
        if not ids:
            return evaluate(self._arch, self._base, self._test)
        parts = [self._by_id[i].dataset for i in sorted(ids)]
        merged = LabeledDataset(
            features=np.concatenate([p.features for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            id="coalition-" + "-".join(str(i) for i in sorted(ids)))
        model = train_local(self._arch, self._base, merged, self._cfg)
        return evaluate(self._arch, model, self._test)


def _retraining_game(participants: list[Participant], arch: ModelArchitecture,
                     train_cfg: TrainConfig, rounds: int, test: LabeledDataset,
                     init_seed: int) -> CoalitionGame:
    """The game over :class:`RetrainOracle`, refused past the n guard."""
    n = len(participants)
    if n > RETRAIN_PLAYER_LIMIT:
        raise CapacityError(f"retraining coalitions of {n} participants is past "
                            f"the n <= {RETRAIN_PLAYER_LIMIT} guard")
    return CoalitionGame(n, RetrainOracle(participants, arch, train_cfg, rounds,
                                          test, init_seed))


def original_shapley_eval(participants: list[Participant],
                          arch: ModelArchitecture, train_cfg: TrainConfig,
                          rounds: int, test: LabeledDataset,
                          init_seed: int = 0) -> EstimatorReport:
    """Ground truth: exact values over the retraining utility (2^n - 1 trainings)."""
    started = time.perf_counter()
    game = _retraining_game(participants, arch, train_cfg, rounds, test, init_seed)
    vec = exact_shapley(game)
    vec.eval_count = game.eval_count
    return EstimatorReport("original", [vec], time.perf_counter() - started)


def tmc_shapley_eval(participants: list[Participant], arch: ModelArchitecture,
                     train_cfg: TrainConfig, rounds: int, test: LabeledDataset,
                     init_seed: int = 0,
                     cfg: GtgConfig | None = None) -> EstimatorReport:
    """Truncated Monte-Carlo baseline over the retraining utility.

    Permutation sampling with within-permutation truncation against the
    grand-coalition utility; ``eps_between`` is ignored (single game,
    unguided sampling unless cfg.sampling overrides)."""
    game = _retraining_game(participants, arch, train_cfg, rounds, test, init_seed)
    cfg = cfg or GtgConfig()
    cfg = dataclasses.replace(cfg, eps_between=0.0, sampling=(
        "uniform" if cfg.sampling == "guided" else cfg.sampling))
    return _sample_games("tmc", cfg, [lambda: RoundGame(0, game)], evaluate_first=True)


def mc_shapley(game: CoalitionGame, sampler: Callable[[int], Sequence[int]],
               window: ConvergenceWindow | None = None,
               max_iters: int = 500) -> ContributionVector:
    """Monte-Carlo Shapley estimate over sampled join orders: one
    :func:`gtg_round` with both truncations off, stopped by ``window``'s
    rule (only its parameters are read) or at ``max_iters``.  The returned
    vector's ``converged`` flag tells which; non-convergence is no error."""
    window = window or ConvergenceWindow()
    if max_iters < window.min_samples:
        raise ValueError(
            f"max_iters={max_iters} is below min_samples={window.min_samples}")
    cfg = GtgConfig(eps_between=0.0, eps_within=0.0, max_perms_per_round=max_iters,
                    lookback=window.lookback, threshold=window.threshold,
                    min_samples=window.min_samples)
    return gtg_round(RoundGame(None, game), cfg, sampler)


def round_marginal_gains(log: GradientLog, test: LabeledDataset) -> list[float]:
    """Per-round total utility gain v_N - v_0 (no reconstructions needed)."""
    arch = log.architecture
    test = eval_set(test)
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
    if samples_per_round < 1:
        raise ValueError(f"samples_per_round must be >= 1, got {samples_per_round}")
    n = log.n
    sums = np.zeros(n, dtype=np.float64)
    marginals = np.empty(n, dtype=np.float64)
    for rec in log.rounds:
        rgame = RoundGame.from_round(rec, log.participant_weights,
                                     log.architecture, test)
        sampler = UniformPermutationSampler(n, derive_seed(seed, "profile",
                                                           rec.round))
        for k in range(1, samples_per_round + 1):
            order = sampler(k)
            walk_order(rgame.game, order, marginals, rgame.base_utility)
            sums += marginals[np.subtract(order, 1)]
    return sums / (samples_per_round * log.total_rounds)


class Estimator(NamedTuple):
    """An entry of :data:`ESTIMATORS`.  ``options``: the names its parameter
    table may hold.  ``sampled``: it takes them as a :class:`GtgConfig` ``cfg``
    and draws from a seed of its own.  ``retrains``: it takes ``(participants,
    arch, train_cfg, rounds, test)`` and ``init_seed``, not ``(log, test)``.
    ``checked``: the keywords of a table, if not sampled; ValueError if bad."""

    run: Callable[..., EstimatorReport]
    options: tuple[str, ...] = ()
    sampled: bool = False
    retrains: bool = False
    checked: Callable[..., dict] = dict

    def keywords(self, params: dict) -> dict:
        return {"cfg": GtgConfig(**params)} if self.sampled else self.checked(**params)


_CFG_FIELDS = tuple(f.name for f in dataclasses.fields(GtgConfig))
ESTIMATORS = {
    "gtg": Estimator(gtg_eval, _CFG_FIELDS, sampled=True),
    "gtg_oti": Estimator(gtg_oti, _CFG_FIELDS, sampled=True),
    "gtg_ti": Estimator(gtg_ti, _CFG_FIELDS, sampled=True),
    "gtg_tib": Estimator(gtg_tib, _CFG_FIELDS, sampled=True),
    "mr": Estimator(mr_eval),
    "tmr": Estimator(tmr_eval, ("lam", "round_threshold"), checked=_tmr_params),
    "original": Estimator(original_shapley_eval, retrains=True),
    "tmc": Estimator(tmc_shapley_eval, _CFG_FIELDS, sampled=True, retrains=True),
}


def estimator_names() -> list[str]:
    return list(ESTIMATORS)


def estimator(name: str, log_based: bool = False) -> Estimator:
    """The table entry for ``name``; ValueError naming the registered ones
    (those that score a log alone, with ``log_based``) if there is none."""
    names = [key for key, e in ESTIMATORS.items() if not (log_based and e.retrains)]
    if name not in names:
        kind = "log-based estimator" if log_based else "estimator"
        raise ValueError(f"unknown {kind} {name!r}; registered: {', '.join(names)}")
    return ESTIMATORS[name]


def check_estimator_params(name: str, params: object) -> None:
    """Raise ValueError unless ``name`` is registered and ``params`` is a
    table of parameter names it accepts, each holding a value it accepts."""
    entry = estimator(name)
    if not isinstance(params, dict):
        raise ValueError(f"{name} params must be a table of name/value pairs, "
                         f"got {type(params).__name__}")
    unknown = sorted(str(key) for key in params if key not in entry.options)
    if unknown:
        raise ValueError(f"{name} does not accept {', '.join(unknown)}; "
                         f"accepted: {', '.join(entry.options) or 'none'}")
    entry.keywords(params)


def run_log_estimator(name: str, log: GradientLog, test: LabeledDataset,
                      params: dict | None = None) -> EstimatorReport:
    """Dispatch a log-based estimator by name with a plain parameter table."""
    entry = estimator(name, log_based=True)
    params = {} if params is None else params
    check_estimator_params(name, params)
    return entry.run(log, test, **entry.keywords(params))
