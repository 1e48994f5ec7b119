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
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# RoundScorer rebuilds a wide coalition's full model through this module's
# reconstruct_submodel, read when it is called; the benchmark's tracer
# (perfbench/spans.py) counts those calls by wrapping that attribute.
from .federation import (GradientLog, Participant, RoundRecord, RoundStack,
                         reconstruct_submodel, round_vectors)
from .games import (CapacityError, CoalitionGame, ContributionVector,
                    ConvergenceWindow, CyclingPermutationSampler,
                    UniformPermutationSampler, check_convergence,
                    check_enumerable, exact_shapley, players_of,
                    shapley_from_values, walk_order)
from .models import (LabeledDataset, LazyModel, ModelArchitecture, TrainConfig,
                     check_types, evaluate, first_layer_chunk, first_layer_products,
                     first_layers, init_params, train_local)
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
        # a round checks before it pushes, so a window longer than
        # max_perms_per_round could never fill: it is sized down to that
        return ConvergenceWindow(lookback=min(self.lookback, self.max_perms_per_round),
                                 threshold=self.threshold, min_samples=self.min_samples)


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


class RoundScorer:
    """A round's coalition utilities, one evaluation each, from models rebuilt
    out of its updates.  On a wide test set (see
    :func:`~fedshapley.models.first_layer_products`, which checks the set
    first) the first-layer products are made once, from the record's float32
    blocks, biases included; a coalition is then rebuilt as its tail, the
    layers after the first (W2 and b2; none without a hidden layer), from a
    stack of the tails alone, and in full, by
    :func:`~fedshapley.federation.reconstruct_submodel`, only where
    ``evaluate`` reads it (see :class:`~fedshapley.models.LazyModel`).  Else
    every coalition is rebuilt in full, from one stack of the round."""

    def __init__(self, record: RoundRecord, weights: dict[int, int],
                 arch: ModelArchitecture, test: LabeledDataset):
        self._arch, self._test, self._base = arch, test, record.base_model
        self._record, self._weights = record, weights
        self._products = first_layer_products(
            arch, round_vectors(record, weights), test,
            [weights[i] for i in range(1, len(weights) + 1)])
        self._stack = RoundStack(record, weights, 0 if self._products is None
                                 else arch.first_layer_size)

    def score(self, ids: tuple[int, ...]) -> float:
        """The coalition ``ids``'s utility: a game's oracle, as a bound method,
        which Python calls inline (an instance's ``__call__`` goes through C)."""
        return self._score(ids, self._stack.rebuild(ids) if ids else None)

    def every_coalition(self, n: int) -> np.ndarray:
        """Utility of every coalition, indexed by bitmask; rebuilt in chunks,
        one ``evaluate`` call each.  On a narrow set, each chunk is cast to
        float64 and scored :func:`~fedshapley.models.first_layer_chunk`
        models at a time: their first layers are made in one stacked product
        (:func:`~fedshapley.models.first_layers`), and each coalition is
        scored from its own."""
        arch, test = self._arch, self._test
        masks = np.arange(1, 1 << n)
        utilities = [self.score(())]
        most = first_layer_chunk(arch, test)
        if most:
            for chunk in self._stack.rebuild_chunks(masks):
                for start in range(0, len(chunk), most):
                    part = chunk[start:start + most].astype(np.float64)
                    utilities += [evaluate(arch, model, test, first) for model, first
                                  in zip(part, first_layers(arch, part, test))]
            return np.array(utilities)
        # only the products read a coalition's members
        members = ([None] * len(masks) if self._products is None
                   else map(players_of, masks.tolist()))
        rebuilt = self._stack.rebuild_masks(masks)
        utilities += [self._score(ids, model) for ids, model in zip(members, rebuilt)]
        return np.array(utilities)

    def _score(self, ids: tuple[int, ...] | None, model: np.ndarray | None) -> float:
        """The utility of ``ids`` from its rebuilt ``model``, a tail where
        there are products (None: the base)."""
        if self._products is None:
            return evaluate(self._arch, self._base if model is None else model,
                            self._test)
        model = (self._base if model is None else LazyModel(
            model, lambda: reconstruct_submodel(self._record, ids, self._weights)))
        return evaluate(self._arch, model, self._test, self._products.combine(ids))


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
                   arch: ModelArchitecture, test: LabeledDataset) -> "RoundGame":
        """The round's game over its :class:`RoundScorer`."""
        return cls(record.round, CoalitionGame(
            len(weights), RoundScorer(record, weights, arch, test).score))

    @classmethod
    def accumulated(cls, log: GradientLog, test: LabeledDataset) -> "RoundGame":
        """Single game over updates summed across every round (float64 sums);
        the rounds are visited once, in order."""
        p = log.architecture.param_count
        acc = {pid: np.zeros(p, dtype=np.float64) for pid in log.participant_weights}
        base = None  # round 0's
        for rec in log.rounds:
            if base is None:
                base = rec.base_model
            for pid, delta in rec.updates.items():
                acc[pid] += delta.astype(np.float64)
            rec = delta = None  # drop the round before the next is read
        summed = {pid: acc[pid].astype(np.float32) for pid in acc}
        # coalitions are rebuilt from the base and the updates alone
        record = RoundRecord(0, base, summed, aggregated=None)
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


def _report(name: str, count: int,
            score: Callable[[int], ContributionVector]) -> EstimatorReport:
    """The one per-round loop: ``score(t)`` for t in range(``count``), timed.
    A call reads round t, builds and scores its game, and drops both on
    return, so one round is alive at a time."""
    started = time.perf_counter()
    per_round = [score(t) for t in range(count)]
    return EstimatorReport(name, per_round, time.perf_counter() - started)


def _gtg_family(log: GradientLog, test: LabeledDataset, cfg: GtgConfig,
                name: str) -> EstimatorReport:
    return _report(name, log.total_rounds, lambda t: gtg_round(RoundGame.from_round(
        log.rounds[t], log.participant_weights, log.architecture, test), cfg))


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
    return _report("gtg_oti", 1,
                   lambda _: gtg_round(RoundGame.accumulated(log, test), cfg))


def round_utilities(rec: RoundRecord, log: GradientLog,
                    test: LabeledDataset) -> np.ndarray:
    """Utility of every coalition of one round, indexed by bitmask
    (:meth:`RoundScorer.every_coalition`): 2^n evaluations.  The enumeration
    guard is checked before anything is evaluated."""
    check_enumerable(log.n)
    return RoundScorer(rec, log.participant_weights, log.architecture,
                       test).every_coalition(log.n)


def _exact_rounds(name: str, log: GradientLog, test: LabeledDataset,
                  lam: float, round_threshold: float) -> EstimatorReport:
    """:func:`mr_eval` and :func:`tmr_eval` (see the latter)."""

    def score(t: int) -> ContributionVector:
        weight = lam ** t
        if weight < round_threshold:
            return ContributionVector(np.zeros(log.n), round=t)
        values = round_utilities(log.rounds[t], log, test)
        return ContributionVector(weight * shapley_from_values(values).values,
                                  round=t, eval_count=len(values))

    return _report(name, log.total_rounds, score)


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
    data alone.  A coalition whose training diverges is a ValueError that
    names it.
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

    def __call__(self, ids: tuple[int, ...]) -> float:
        if not ids:
            return evaluate(self._arch, self._base, self._test)
        parts = [self._by_id[i].dataset for i in sorted(ids)]
        merged = LabeledDataset(
            features=np.concatenate([p.features for p in parts]),
            labels=np.concatenate([p.labels for p in parts]))
        try:
            model = train_local(self._arch, self._base, merged, self._cfg)
        except ValueError as exc:
            raise ValueError(f"retraining coalition {list(ids)}: {exc}") from exc
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
    game = _retraining_game(participants, arch, train_cfg, rounds, test, init_seed)
    # the count is read once exact_shapley has evaluated every coalition
    return _report("original", 1, lambda _: dataclasses.replace(
        exact_shapley(game), eval_count=game.eval_count))


def tmc_shapley_eval(participants: list[Participant], arch: ModelArchitecture,
                     train_cfg: TrainConfig, rounds: int, test: LabeledDataset,
                     init_seed: int = 0,
                     cfg: GtgConfig | None = None) -> EstimatorReport:
    """Truncated Monte-Carlo baseline over the retraining utility.

    Permutation sampling with within-permutation truncation against the
    grand-coalition utility.  One game, so ``eps_between`` is ignored;
    "guided" sampling runs as "uniform", and "cycle" is kept."""
    game = _retraining_game(participants, arch, train_cfg, rounds, test, init_seed)
    cfg = cfg or GtgConfig()
    cfg = dataclasses.replace(cfg, eps_between=0.0, sampling=(
        "uniform" if cfg.sampling == "guided" else cfg.sampling))
    return _report("tmc", 1, lambda _: gtg_round(RoundGame(0, game), cfg,
                                                 always_evaluate_first=True))


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
    arch, gains = log.architecture, []
    for rec in log.rounds:
        gains.append(evaluate(arch, rec.aggregated, test)
                     - evaluate(arch, rec.base_model, test))
        del rec  # before the next round is read
    return gains


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
        del rec, rgame  # before the next round is read
    return sums / (samples_per_round * log.total_rounds)


class Estimator(NamedTuple):
    """An entry of :data:`ESTIMATORS`.  ``options``: the names its parameter
    table may hold; it is sampled, and draws from a seed of its own, if they
    hold ``seed``.  ``parse``: ``run``'s keywords from a table of those names;
    ValueError if a value is bad.  ``retrains``: it takes ``(participants,
    arch, train_cfg, rounds, test)`` and ``init_seed``, not ``(log, test)``."""

    run: Callable[..., EstimatorReport]
    options: tuple[str, ...] = ()
    parse: Callable[..., dict] = dict
    retrains: bool = False


def _sampled(**params) -> dict:
    """A sampled estimator's keywords: its table as a :class:`GtgConfig`."""
    return {"cfg": GtgConfig(**params)}


def _cfg_fields(*overridden: str) -> tuple[str, ...]:
    """:class:`GtgConfig`'s fields, less those an estimator overrides."""
    return tuple(f.name for f in dataclasses.fields(GtgConfig)
                 if f.name not in overridden)


ESTIMATORS = {
    # gtg samples guided orders: its uniform form is gtg_tib
    "gtg": Estimator(gtg_eval, _cfg_fields("sampling"), _sampled),
    "gtg_oti": Estimator(gtg_oti, _cfg_fields("eps_between", "sampling"), _sampled),
    "gtg_ti": Estimator(gtg_ti, _cfg_fields("eps_between", "sampling"), _sampled),
    "gtg_tib": Estimator(gtg_tib, _cfg_fields("sampling"), _sampled),
    "mr": Estimator(mr_eval),
    "tmr": Estimator(tmr_eval, ("lam", "round_threshold"), _tmr_params),
    "original": Estimator(original_shapley_eval, retrains=True),
    "tmc": Estimator(tmc_shapley_eval, _cfg_fields("eps_between", "sampling"),
                     _sampled, retrains=True),
}


def estimator(name: str, log_based: bool = False) -> Estimator:
    """The table entry for ``name``; ValueError naming the registered ones
    (those that score a log alone, with ``log_based``) if there is none."""
    names = [key for key, e in ESTIMATORS.items() if not (log_based and e.retrains)]
    if name not in names:
        kind = "log-based estimator" if log_based else "estimator"
        raise ValueError(f"unknown {kind} {name!r}; registered: {', '.join(names)}")
    return ESTIMATORS[name]


def check_estimator_params(name: str, params: object) -> dict:
    """``name``'s ``run`` keywords from ``params``; ValueError unless ``name``
    is registered and ``params`` is a table of parameter names it accepts,
    each holding a value it accepts."""
    entry = estimator(name)
    if not isinstance(params, dict):
        raise ValueError(f"{name} params must be a table of name/value pairs, "
                         f"got {type(params).__name__}")
    unknown = sorted(str(key) for key in params if key not in entry.options)
    if unknown:
        raise ValueError(f"{name} does not accept {', '.join(unknown)}; "
                         f"accepted: {', '.join(entry.options) or 'none'}")
    return entry.parse(**params)


def run_log_estimator(name: str, log: GradientLog, test: LabeledDataset,
                      params: dict | None = None) -> EstimatorReport:
    """Dispatch a log-based estimator by name with a plain parameter table."""
    entry = estimator(name, log_based=True)
    return entry.run(log, test, **check_estimator_params(
        name, {} if params is None else params))
