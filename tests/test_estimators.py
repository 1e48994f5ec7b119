"""Estimator family tests.

Strategy: hand-built gradient logs with controlled updates give rounds whose
coalition games are known exactly, so sampling-based estimators can be checked
against subset enumeration on the same reconstruction oracle, and the
retraining-based baselines against an independently built retraining game.
"""
from __future__ import annotations

import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import gaussian_blobs, quick_log, scenario_log, split_participants

from fedshapley import (
    CapacityError,
    CoalitionGame,
    ContributionVector,
    CyclingPermutationSampler,
    GradientLog,
    GtgConfig,
    LabeledDataset,
    ModelArchitecture,
    Participant,
    RetrainOracle,
    RoundGame,
    RoundRecord,
    ScenarioKind,
    ScenarioSpec,
    SyntheticSource,
    TrainConfig,
    convergence_criterion,
    derive_seed,
    exact_shapley,
    exact_shapley_by_permutations,
    fedavg_aggregate,
    generate_source,
    gtg_eval,
    gtg_oti,
    gtg_round,
    gtg_ti,
    gtg_tib,
    guided_permutation,
    mr_eval,
    original_shapley_eval,
    partition,
    position_marginal_profile,
    round_marginal_gains,
    run_federation,
    run_log_estimator,
    tmc_shapley_eval,
    tmr_eval,
)
from fedshapley import estimators, federation, models
from fedshapley.estimators import (check_estimator_params, estimator,
                                   round_utilities)
from fedshapley.federation import (CHUNK_ELEMENTS, RoundStack, StoredRounds,
                                   load_log, save_log)

EXHAUSTIVE = GtgConfig(eps_between=0.0, eps_within=0.0, sampling="cycle",
                       max_perms_per_round=6, min_samples=6)


def synthetic_log(arch: ModelArchitecture, base: np.ndarray,
                  rounds_updates: list[dict[int, np.ndarray]],
                  weights: dict[int, int]) -> GradientLog:
    records = []
    for t, updates in enumerate(rounds_updates):
        agg = fedavg_aggregate(base, updates, weights)
        records.append(RoundRecord(round=t, base_model=base,
                                   updates=updates, aggregated=agg))
        base = agg
    return GradientLog(architecture=arch, rounds=records,
                       participant_weights=weights)


def small_participants(n: int, seed: int = 0) -> tuple[list[Participant], LabeledDataset]:
    train = gaussian_blobs(6 * n, 5, 3, seed=seed)
    test = gaussian_blobs(8, 5, 3, seed=seed)
    return split_participants(train, n), test


# logs that tests here and in test_fast_paths.py score: name -> (log, test set)
LOGS = {
    "quick": lambda: quick_log(n=3, rounds=2, seed=0)[:2],
    "hidden": lambda: quick_log(n=4, rounds=2, seed=13, hidden_dim=6)[:2],
    "unequal-weights": lambda: scenario_log(ScenarioKind.SAME_DIST_DIFF_SIZE, n=6,
                                            rounds=3, seed=4)[:2],
    # the acceptance logs of test_acceptance.py
    "acceptance-iid": lambda: scenario_log(ScenarioKind.SAME_DIST_SAME_SIZE, n=10,
                                           rounds=10, seed=1, lr=0.1)[:2],
    "acceptance-skewed": lambda: scenario_log(ScenarioKind.DIFF_DIST_SAME_SIZE,
                                              n=10, rounds=10, seed=2, lr=0.02)[:2],
    "n50": lambda: scenario_log(ScenarioKind.SAME_DIST_SAME_SIZE, n=50, rounds=3,
                                seed=1, train_per_class=500)[:2],
}


# --- permutation scheduling ----------------------------------------------------


def test_guided_leader_cycles_through_participants():
    rng = np.random.default_rng(0)
    n = 10
    orders = [guided_permutation(k, n, rng) for k in range(1, 10 * n + 1)]
    assert all(sorted(o) == list(range(1, n + 1)) for o in orders)
    leaders = [o[0] for o in orders]
    assert leaders[:n] == list(range(1, n + 1))
    # over 10n draws every participant leads exactly 10 times
    assert np.bincount(leaders, minlength=n + 1)[1:].tolist() == [10] * n


def test_gtg_config_validation():
    with pytest.raises(ValueError):
        GtgConfig(eps_between=-0.1)
    with pytest.raises(ValueError):
        GtgConfig(eps_within=-1.0)
    with pytest.raises(ValueError):
        GtgConfig(max_perms_per_round=0)
    with pytest.raises(ValueError):
        GtgConfig(sampling="metropolis")
    # the window's own checks, and the field types, apply on construction
    for bad in ({"lookback": 0}, {"threshold": 0.0}, {"threshold": math.nan},
                {"eps_within": math.nan},
                {"eps_within": "abc"}, {"lookback": 2.5}, {"min_samples": "3"},
                {"min_samples": -5},
                {"seed": None}, {"sampling": 1}, {"eps_between": True}):
        with pytest.raises(ValueError):
            GtgConfig(**bad)
    assert GtgConfig(eps_within=1, seed=np.int64(3)).seed == 3
    window = GtgConfig(lookback=4, threshold=0.2, min_samples=5).window()
    assert window.lookback == 4 and window.threshold == 0.2


# --- per-round games -----------------------------------------------------------


def test_round_game_costs_two_endpoint_evaluations():
    log, test, _ = quick_log(n=3, rounds=1, seed=0)
    rgame = RoundGame.from_round(log.rounds[0], log.participant_weights,
                                 log.architecture, test)
    assert rgame.game.eval_count == 2      # empty set and grand coalition
    assert rgame.base_utility == rgame.game.value(())
    assert rgame.full_utility == rgame.game.value((1, 2, 3))
    assert rgame.game.eval_count == 2      # those were cache hits


def test_no_gain_round_is_truncated_for_two_evaluations():
    arch = ModelArchitecture(4, 0, 3)
    base = np.zeros(arch.param_count, dtype=np.float32)
    zeros = {i: np.zeros(arch.param_count, dtype=np.float32) for i in (1, 2, 3)}
    log = synthetic_log(arch, base, [zeros], {1: 5, 2: 5, 3: 5})
    test = gaussian_blobs(6, 4, 3, seed=1)
    rgame = RoundGame.from_round(log.rounds[0], log.participant_weights, arch, test)
    vec = gtg_round(rgame, GtgConfig())  # default eps_between 0.001
    assert vec.sample_count == 0 and vec.converged
    assert vec.eval_count == 2 and vec.values.tolist() == [0.0, 0.0, 0.0]


def test_zero_gap_round_without_between_truncation_stays_cheap():
    # eps_between = 0 disables the round-level shortcut, but the first
    # within-round check already sees |vN - v0| = 0 and copies everything
    arch = ModelArchitecture(4, 0, 3)
    base = np.zeros(arch.param_count, dtype=np.float32)
    zeros = {i: np.zeros(arch.param_count, dtype=np.float32) for i in (1, 2, 3)}
    log = synthetic_log(arch, base, [zeros], {1: 5, 2: 5, 3: 5})
    test = gaussian_blobs(6, 4, 3, seed=1)
    rgame = RoundGame.from_round(log.rounds[0], log.participant_weights, arch, test)
    vec = gtg_round(rgame, GtgConfig(eps_between=0.0, sampling="uniform"))
    assert vec.sample_count > 0
    assert vec.eval_count == 2
    assert vec.converged and vec.values.tolist() == [0.0, 0.0, 0.0]


def test_exhaustive_sampling_equals_subset_enumeration():
    log, test, _ = quick_log(n=3, rounds=1, seed=3)
    rec = log.rounds[0]
    sampled = gtg_round(RoundGame.from_round(rec, log.participant_weights,
                                             log.architecture, test), EXHAUSTIVE)
    enumerated = exact_shapley(RoundGame.from_round(
        rec, log.participant_weights, log.architecture, test).game)
    np.testing.assert_allclose(sampled.values, enumerated.values, atol=1e-9)


def test_full_estimator_exact_limit_matches_per_round_enumeration():
    log, test, _ = quick_log(n=3, rounds=2, seed=1)
    exhaustive = gtg_eval(log, test, EXHAUSTIVE)
    reference = mr_eval(log, test)
    np.testing.assert_allclose(exhaustive.total.values, reference.total.values,
                               atol=1e-9)
    for a, b in zip(exhaustive.per_round, reference.per_round):
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)
    # full cycling touches every coalition, same as enumeration
    assert exhaustive.eval_count == reference.eval_count == 2 * 2 ** 3


def test_per_round_enumeration_accounting():
    log, test, _ = quick_log(n=3, rounds=3, seed=2)
    report = mr_eval(log, test)
    assert report.eval_count == 3 * 2 ** 3
    assert report.reconstructions == 3 * (2 ** 3 - 1)
    gains = round_marginal_gains(log, test)
    for vec, gain in zip(report.per_round, gains):
        assert vec.total() == pytest.approx(gain, abs=1e-9)
    assert report.total.total() == pytest.approx(sum(gains), abs=1e-9)
    summed = sum(vec.values for vec in report.per_round)
    np.testing.assert_allclose(report.total.values, summed, atol=1e-12)


def test_decay_weighting_and_round_skipping():
    log, test, _ = quick_log(n=3, rounds=3, seed=4)
    plain = mr_eval(log, test)
    undecayed = tmr_eval(log, test, lam=1.0, round_threshold=0.0)
    np.testing.assert_array_equal(undecayed.total.values, plain.total.values)
    assert undecayed.eval_count == plain.eval_count

    decayed = tmr_eval(log, test, lam=0.5, round_threshold=0.3)
    # lam**2 = 0.25 < 0.3: round 2 skipped outright
    assert decayed.per_round[2].values.tolist() == [0.0, 0.0, 0.0]
    assert decayed.per_round[2].eval_count == 0
    assert decayed.eval_count == 2 * 2 ** 3
    assert decayed.reconstructions == 2 * (2 ** 3 - 1)
    want = plain.per_round[0].values + 0.5 * plain.per_round[1].values
    np.testing.assert_allclose(decayed.total.values, want, atol=1e-12)

    with pytest.raises(ValueError):
        tmr_eval(log, test, lam=0.0)
    with pytest.raises(ValueError):
        tmr_eval(log, test, lam=1.0001)


def test_accumulated_game_equals_per_round_on_single_round_logs():
    log, test, _ = quick_log(n=4, rounds=1, seed=5)
    cfg = GtgConfig(seed=9)
    one_shot = gtg_oti(log, test, cfg)
    per_round = gtg_ti(log, test, cfg)
    np.testing.assert_array_equal(one_shot.total.values, per_round.total.values)
    assert one_shot.eval_count == per_round.eval_count
    assert one_shot.reconstructions == per_round.reconstructions


def test_between_round_truncation_off_reduces_to_within_only():
    log, test, _ = quick_log(n=3, rounds=2, seed=6)
    cfg = GtgConfig(eps_between=0.0, seed=2)
    np.testing.assert_array_equal(gtg_tib(log, test, cfg).total.values,
                                  gtg_ti(log, test, cfg).total.values)


def test_stalled_tail_rounds_cost_two_evaluations_each():
    arch = ModelArchitecture(4, 0, 3)
    rng = np.random.default_rng(3)
    base = np.zeros(arch.param_count, dtype=np.float32)
    live = {i: rng.normal(scale=50, size=arch.param_count).astype(np.float32)
            for i in (1, 2, 3)}
    dead = {i: np.zeros(arch.param_count, dtype=np.float32) for i in (1, 2, 3)}
    log = synthetic_log(arch, base, [live, dead, dead], {1: 5, 2: 5, 3: 5})
    test = gaussian_blobs(8, 4, 3, seed=4)
    report = gtg_tib(log, test, GtgConfig(seed=1))
    assert [v.sample_count == 0 for v in report.per_round] == [False, True, True]
    assert [v.eval_count for v in report.per_round][1:] == [2, 2]
    for vec in report.per_round[1:]:
        assert vec.values.tolist() == [0.0, 0.0, 0.0]


def test_participant_with_zero_updates_scores_exactly_zero():
    # base 0 and two large colinear-free updates: every coalition with the
    # idle participant rescales logits without reordering them, so utilities
    # tie exactly and the idle share is exactly zero
    arch = ModelArchitecture(4, 0, 3)
    rng = np.random.default_rng(8)
    base = np.zeros(arch.param_count, dtype=np.float32)
    updates = {1: (100 * rng.normal(size=arch.param_count)).astype(np.float32),
               2: (100 * rng.normal(size=arch.param_count)).astype(np.float32),
               3: np.zeros(arch.param_count, dtype=np.float32)}
    log = synthetic_log(arch, base, [updates], {1: 7, 2: 7, 3: 7})
    test = gaussian_blobs(10, 4, 3, seed=9)

    enumerated = mr_eval(log, test)
    assert enumerated.total.values[2] == 0.0
    assert np.any(enumerated.total.values[:2] != 0.0)

    sampled = gtg_eval(log, test, EXHAUSTIVE)
    assert sampled.total.values[2] == 0.0


# --- screened scoring of a narrow first layer on a wide set ---------------------


def narrow_layer_wide_set_log() -> tuple[GradientLog, LabeledDataset]:
    """One round of 4 participants at d = 784, hidden 4 (a first layer of
    3,136 multiplies a row), and 1,000 test rows: a wide set unpatched."""
    source = SyntheticSource(input_dim=784, class_count=10, spread=1.0, seed=3)
    pool, test = generate_source(source, train_per_class=20, test_per_class=100)
    shards = partition(pool, ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE, n=4,
                                          seed=3))
    parts = [Participant(id=i, dataset=d) for i, d in enumerate(shards, start=1)]
    log = run_federation(parts, ModelArchitecture(784, 4, 10),
                         TrainConfig(batch_size=32, learning_rate=0.05, seed=5),
                         rounds=1, init_seed=6)
    return log, test


@pytest.mark.blas_order
def test_a_narrow_first_layer_on_a_wide_set_is_scored_from_products(monkeypatch):
    # every coalition is screened from the round's products, and gtg's and
    # mr's reports equal, bit for bit, those of the float64 pass alone
    log, test = narrow_layer_wide_set_log()
    assert test.features.size >= models.WIDE_ELEMENTS
    made, products = [], estimators.first_layer_products
    monkeypatch.setattr(estimators, "first_layer_products",
                        lambda *args: made.append(products(*args)) or made[-1])
    cfg = GtgConfig(seed=9)
    got = [gtg_eval(log, test, cfg), mr_eval(log, test)]
    assert len(made) == 2 and all(made)
    # the same rows as a narrow set, which every model takes through the
    # float64 pass
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 1 << 62)
    narrow = LabeledDataset(test.features, test.labels)
    for report, want in zip(got, [gtg_eval(log, narrow, cfg), mr_eval(log, narrow)]):
        assert_reports_bit_equal(report, want)


# --- stacked first layers on narrow sets ------------------------------------------


@pytest.mark.parametrize("name", ["hidden", "unequal-weights"])
def test_mr_on_a_narrow_log_calls_evaluate_once_per_evaluation(monkeypatch, name):
    # the traced benchmark run's rule: one models.evaluate span per eval
    log, test = LOGS[name]()
    assert models.first_layer_chunk(log.architecture, test) > 0
    calls, evaluate = [], estimators.evaluate
    monkeypatch.setattr(estimators, "evaluate",
                        lambda *args: calls.append(len(args)) or evaluate(*args))
    report = mr_eval(log, test)
    assert len(calls) == report.eval_count == log.total_rounds * 2 ** log.n
    # every coalition, each round's base too, is scored from its stacked first layer
    assert calls.count(4) == report.eval_count


def test_enumerating_a_narrow_round_holds_one_chunk_of_first_layers():
    # the enum workload's shape: n = 10, d = 16, softmax, 100 test rows
    log, test, _ = scenario_log(ScenarioKind.SAME_DIST_SAME_SIZE, n=10, rounds=1)
    arch, rec = log.architecture, log.rounds[0]
    assert (arch.input_dim, arch.hidden_dim, len(test)) == (16, 0, 100)
    test.prepared
    stack = RoundStack(rec, log.participant_weights)
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: next(stack.rebuild_chunks(log.n)),
                    lambda: round_utilities(rec, log, test)):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            done = run()
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            del done
    finally:
        tracemalloc.stop()
    rebuilt, enumerated = peaks
    # a block is the largest power of two of models within CHUNK_ELEMENTS
    # values: 256 of the 385 that fit
    rows = 1 << (CHUNK_ELEMENTS // arch.param_count).bit_length() - 1
    assert rows == 256
    assert rebuilt > rows * arch.param_count * 8  # a block's float64 sums, at least
    # a block rebuilt while the last one is held (float32 values), plus one
    # chunk of first layers (float64 values)
    assert enumerated < rebuilt + CHUNK_ELEMENTS * (4 + 8)


@pytest.mark.parametrize("estimate", [mr_eval, tmr_eval], ids=["mr", "tmr"])
def test_enumeration_guard_comes_before_any_evaluation(monkeypatch, estimate):
    log, test, _ = quick_log(n=21, rounds=1, seed=20, rows_per_class=1)
    calls = []
    monkeypatch.setattr(estimators, "evaluate",
                        lambda *args: calls.append(args) or 0.0)
    with pytest.raises(CapacityError, match="2\\^21"):
        estimate(log, test)
    assert calls == []


def test_enumeration_keeps_costs_and_per_round_efficiency():
    for log, test in (quick_log(n=4, rounds=3, seed=15)[:2],
                      scenario_log(ScenarioKind.SAME_DIST_DIFF_SIZE, n=8,
                                   rounds=4, seed=3)[:2]):
        report = mr_eval(log, test)
        assert report.eval_count == log.total_rounds * 2 ** log.n
        assert report.reconstructions == log.total_rounds * (2 ** log.n - 1)
        for vec, gain in zip(report.per_round, round_marginal_gains(log, test)):
            assert abs(math.fsum(vec.values) - gain) <= 1e-9


def test_identical_participants_get_bit_identical_enumerated_shares():
    data = gaussian_blobs(10, 5, 3, seed=16)
    others = [gaussian_blobs(10, 5, 3, seed=s) for s in (17, 18)]
    parts = [Participant(1, others[0]), Participant(2, data),
             Participant(3, others[1]), Participant(4, data)]
    test = gaussian_blobs(8, 5, 3, seed=19)
    cfg = TrainConfig(local_epochs=1, batch_size=8, learning_rate=0.2, seed=3)
    log = run_federation(parts, ModelArchitecture(5, 0, 3), cfg, rounds=3,
                         init_seed=4)
    for rec in log.rounds:
        assert rec.updates[2].tobytes() == rec.updates[4].tobytes()
    report = mr_eval(log, test)
    assert np.any(report.total.values != 0.0)
    for vec in report.per_round + [report.total]:
        assert vec.values[1] == vec.values[3]


# --- retraining-based baselines --------------------------------------------------


def test_retraining_utility_is_a_function_of_coalition_data():
    parts, test = small_participants(3, seed=1)
    arch = ModelArchitecture(5, 0, 3)
    cfg = TrainConfig(local_epochs=1, batch_size=8, learning_rate=0.2, seed=5)
    oracle = RetrainOracle(parts, arch, cfg, rounds=2, test=test, init_seed=3)
    a = oracle((1, 3))
    b = oracle((3, 1))
    assert a == b


def test_identical_datasets_share_identical_ground_truth():
    data = gaussian_blobs(9, 5, 3, seed=2)
    other = gaussian_blobs(9, 5, 3, seed=3)
    parts = [Participant(1, data), Participant(2, data), Participant(3, other)]
    test = gaussian_blobs(8, 5, 3, seed=4)
    arch = ModelArchitecture(5, 0, 3)
    cfg = TrainConfig(local_epochs=1, batch_size=8, learning_rate=0.2, seed=6)
    report = original_shapley_eval(parts, arch, cfg, rounds=1, test=test, init_seed=1)
    assert report.total.values[0] == report.total.values[1]
    assert report.eval_count == 2 ** 3
    assert report.reconstructions == 2 ** 3 - 1  # empty coalition skips training


def test_ground_truth_agrees_with_permutation_enumeration():
    parts, test = small_participants(3, seed=7)
    arch = ModelArchitecture(5, 0, 3)
    cfg = TrainConfig(local_epochs=1, batch_size=8, learning_rate=0.2, seed=2)
    report = original_shapley_eval(parts, arch, cfg, rounds=1, test=test, init_seed=5)
    oracle = RetrainOracle(parts, arch, cfg, rounds=1, test=test, init_seed=5)
    reference = exact_shapley_by_permutations(CoalitionGame(3, oracle))
    np.testing.assert_allclose(report.total.values, reference.values, atol=1e-9)
    gain = oracle((1, 2, 3)) - oracle(())
    assert report.total.total() == pytest.approx(gain, abs=1e-9)


def test_truncated_retraining_exact_limit_matches_ground_truth():
    parts, test = small_participants(3, seed=8)
    arch = ModelArchitecture(5, 0, 3)
    cfg = TrainConfig(local_epochs=1, batch_size=8, learning_rate=0.2, seed=1)
    truth = original_shapley_eval(parts, arch, cfg, rounds=1, test=test, init_seed=2)
    sampled = tmc_shapley_eval(parts, arch, cfg, rounds=1, test=test, init_seed=2,
                               cfg=EXHAUSTIVE)
    np.testing.assert_allclose(sampled.total.values, truth.total.values, atol=1e-9)
    assert sampled.eval_count <= truth.eval_count


def test_aggressive_truncation_only_scores_leading_positions():
    parts, test = small_participants(3, seed=9)
    arch = ModelArchitecture(5, 0, 3)
    cfg = TrainConfig(local_epochs=1, batch_size=8, learning_rate=0.2, seed=4)
    sampled = tmc_shapley_eval(
        parts, arch, cfg, rounds=1, test=test, init_seed=7,
        cfg=GtgConfig(eps_within=10.0, sampling="cycle",
                      max_perms_per_round=6, min_samples=6))
    # position 1 always evaluates; everything after it copies forward,
    # leaving 2 endpoints + 3 singleton coalitions = 5 utility calls
    assert sampled.per_round[0].eval_count == 5
    oracle = RetrainOracle(parts, arch, cfg, rounds=1, test=test, init_seed=7)
    v0 = oracle(())
    want = np.array([(oracle((i,)) - v0) / 3 for i in (1, 2, 3)])
    np.testing.assert_allclose(sampled.total.values, want, atol=1e-12)


def test_retraining_player_guard():
    parts, test = small_participants(11, seed=0)
    arch = ModelArchitecture(5, 0, 3)
    cfg = TrainConfig()
    with pytest.raises(CapacityError):
        original_shapley_eval(parts, arch, cfg, rounds=1, test=test)
    with pytest.raises(CapacityError):
        tmc_shapley_eval(parts, arch, cfg, rounds=1, test=test)


# --- diagnostics and dispatch ----------------------------------------------------


def test_position_profile_telescopes_to_mean_round_gain():
    log, test, _ = quick_log(n=4, rounds=3, seed=10)
    profile = position_marginal_profile(log, test, samples_per_round=10, seed=3)
    again = position_marginal_profile(log, test, samples_per_round=10, seed=3)
    assert profile.shape == (4,)
    np.testing.assert_array_equal(profile, again)
    gains = round_marginal_gains(log, test)
    assert profile.sum() == pytest.approx(np.mean(gains), abs=1e-9)


def test_estimator_registry_and_dispatch(monkeypatch):
    assert list(estimators.ESTIMATORS) == ["gtg", "gtg_oti", "gtg_ti", "gtg_tib",
                                           "mr", "tmr", "original", "tmc"]
    log, test, _ = quick_log(n=3, rounds=2, seed=11)
    by_name = run_log_estimator("mr", log, test)
    np.testing.assert_array_equal(by_name.total.values,
                                  mr_eval(log, test).total.values)
    tuned = run_log_estimator("gtg", log, test, {"eps_within": 0.01, "seed": 3})
    np.testing.assert_array_equal(
        tuned.total.values, gtg_eval(log, test, GtgConfig(eps_within=0.01,
                                                          seed=3)).total.values)
    weighted = run_log_estimator("tmr", log, test, {"lam": 0.5})
    np.testing.assert_array_equal(weighted.total.values,
                                  tmr_eval(log, test, lam=0.5).total.values)
    with pytest.raises(ValueError, match="registered"):
        run_log_estimator("original", log, test)
    assert estimator("mr").options == estimator("original").options == ()
    assert estimator("tmr").options == ("lam", "round_threshold")
    # a sampled estimator takes the GtgConfig fields it does not override
    fields = {f.name for f in dataclasses.fields(GtgConfig)}
    for name, overridden in (("gtg", {"sampling"}),
                             ("gtg_ti", {"eps_between", "sampling"}),
                             ("gtg_oti", {"eps_between", "sampling"}),
                             ("gtg_tib", {"sampling"}),
                             ("tmc", {"eps_between", "sampling"})):
        assert fields - set(estimator(name).options) == overridden
    with pytest.raises(ValueError, match="eps_withn"):
        run_log_estimator("gtg", log, test, {"eps_withn": 0.01})
    with pytest.raises(ValueError, match="accepted: none"):
        run_log_estimator("mr", log, test, {"lam": 0.5})
    with pytest.raises(ValueError, match="table"):
        run_log_estimator("tmr", log, test, [("lam", 0.5)])
    # the checked table is the keywords run receives
    received = []
    for name, params in (("gtg", {"eps_within": 0.01, "seed": 3}), ("gtg_oti", {}),
                         ("mr", {}), ("tmr", {"lam": 0.5})):
        monkeypatch.setitem(estimators.ESTIMATORS, name, estimator(name)._replace(
            run=lambda *args, **keywords: received.append(keywords)))
        run_log_estimator(name, log, test, params)
        assert received.pop() == check_estimator_params(name, params)


def test_a_library_run_builds_one_config(monkeypatch):
    log, test, _ = quick_log(n=3, rounds=2, seed=11)
    built = []

    class Counted(GtgConfig):
        # GtgConfig's check reads the annotations of the class its name holds
        __annotations__ = GtgConfig.__annotations__

        def __post_init__(self) -> None:
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(estimators, "GtgConfig", Counted)
    run_log_estimator("gtg", log, test, {"seed": 3})
    assert [vars(cfg) for cfg in built] == [vars(GtgConfig(seed=3))]


def test_tmr_reads_no_round_it_skips(tmp_path, monkeypatch):
    log, test, _ = quick_log(n=3, rounds=5, seed=11)
    loaded = load_log(save_log(log, tmp_path / "run.gtgl"))
    read = []
    visit = StoredRounds.__getitem__
    monkeypatch.setattr(StoredRounds, "__getitem__",
                        lambda rounds, t: read.append(t) or visit(rounds, t))
    # 0.5 ** t falls below 0.2 from round 3 on
    report = tmr_eval(loaded, test, lam=0.5, round_threshold=0.2)
    assert read == [0, 1, 2]
    assert [v.eval_count for v in report.per_round] == [8, 8, 8, 0, 0]


def test_report_totals_match_per_round_sums():
    log, test, _ = quick_log(n=4, rounds=3, seed=12)
    for name in ("gtg", "gtg_ti", "gtg_tib", "gtg_oti", "mr", "tmr"):
        report = run_log_estimator(name, log, test, {})
        summed = sum(vec.values for vec in report.per_round)
        np.testing.assert_allclose(report.total.values, summed, atol=1e-12)
        assert report.eval_count >= report.reconstructions >= 0
        assert report.wall_time >= 0.0
        assert report.name == name


def test_exact_totals_carry_no_convergence_flag():
    log, test, _ = quick_log(n=3, rounds=2, seed=11)
    parts, held_out = small_participants(3, seed=7)
    truth = original_shapley_eval(
        parts, ModelArchitecture(5, 0, 3),
        TrainConfig(local_epochs=1, batch_size=8, learning_rate=0.2, seed=2),
        rounds=1, test=held_out)
    for report in (mr_eval(log, test), tmr_eval(log, test), truth):
        assert report.total.converged is None
        assert all(v.converged is None for v in report.per_round)
        assert report.converged_rounds == [True] * len(report.per_round)
    # a sampled total keeps its flag: whether every round converged
    sampled = gtg_eval(log, test)
    assert sampled.total.converged is all(sampled.converged_rounds)


@pytest.mark.parametrize("samples", [0, -1])
def test_position_profile_needs_a_sample_before_any_evaluation(monkeypatch,
                                                               samples):
    log, test, _ = quick_log(n=3, rounds=2, seed=0)

    def must_not_evaluate(*args):
        raise AssertionError("evaluated before the argument check")

    monkeypatch.setattr(estimators, "evaluate", must_not_evaluate)
    with pytest.raises(ValueError, match="samples_per_round"):
        position_marginal_profile(log, test, samples_per_round=samples)


# --- the walker and its bookkeeping against the first implementation ------------
# The reference functions below are the estimators' hot loop as first written: a
# deque of past estimates checked with convergence_criterion, samplers that
# convert one drawn element at a time, and a walk over every position of every
# join order.  The walker must reproduce them bit for bit at the same cost.


def reference_sampler(cfg: GtgConfig, n: int, seed: int):
    if cfg.sampling == "cycle":
        return CyclingPermutationSampler(n)
    rng = np.random.default_rng(seed)
    if cfg.sampling == "uniform":
        return lambda k: tuple(int(p) + 1 for p in rng.permutation(n))

    def guided(k):
        prefix = ((k - 1) % n + 1,)
        rest = [p for p in range(1, n + 1) if p not in prefix]
        return prefix + tuple(rest[i] for i in rng.permutation(len(rest)))

    return guided


def reference_gtg_round(rgame, cfg, sampler=None, always_evaluate_first=False):
    n = rgame.game.n
    v0, v_n = rgame.base_utility, rgame.full_utility
    if cfg.eps_between > 0 and abs(v_n - v0) <= cfg.eps_between:
        return ContributionVector(np.zeros(n), round=rgame.round, sample_count=0,
                                  converged=True, eval_count=rgame.game.eval_count)
    if sampler is None:
        sampler = reference_sampler(cfg, n,
                                    derive_seed(cfg.seed, "round", rgame.round))
    history = collections.deque(maxlen=cfg.lookback)
    phi = np.zeros(n, dtype=np.float64)
    marginals = np.zeros(n, dtype=np.float64)
    converged = False
    k = 0
    while k < cfg.max_perms_per_round:
        k += 1
        mask = 0
        prev = v0
        for j, pid in enumerate(sampler(k)):
            mask |= 1 << (pid - 1)
            if (j == 0 and always_evaluate_first) or abs(v_n - prev) >= cfg.eps_within:
                cur = rgame.game.value_mask(mask)
            else:
                cur = prev
            marginals[pid - 1] = cur - prev
            prev = cur
        phi = ((k - 1.0) / k) * phi + marginals / k
        if (k >= cfg.min_samples and len(history) == cfg.lookback
                and convergence_criterion(phi, tuple(history)) < cfg.threshold):
            converged = True
            break
        history.append(phi.copy())
    return ContributionVector(phi, round=rgame.round, sample_count=k,
                              converged=converged, eval_count=rgame.game.eval_count)


def assert_reports_bit_equal(got, want):
    assert got.total.values.tobytes() == want.total.values.tobytes()
    assert ([(v.round, v.sample_count, v.converged, v.eval_count, v.values.tobytes())
             for v in got.per_round]
            == [(v.round, v.sample_count, v.converged, v.eval_count,
                 v.values.tobytes()) for v in want.per_round])
    assert got.eval_count == want.eval_count
    assert got.reconstructions == want.reconstructions
    assert got.converged_rounds == want.converged_rounds


@pytest.fixture(scope="module", params=["acceptance-iid", "acceptance-skewed", "n50",
                                        "quick"])
def walker_log(request):
    return request.param, LOGS[request.param]()


@pytest.mark.parametrize("eps_within", [0.0, 0.001, 0.05])
def test_walker_matches_the_first_implementation(monkeypatch, walker_log,
                                                 eps_within):
    name, (log, test) = walker_log
    # untruncated orders at n=50 cost 50 evaluations each; fewer keep it quick
    perms = 40 if name == "n50" else 500
    cfg = GtgConfig(eps_within=eps_within, seed=9, max_perms_per_round=perms)
    for estimate in (gtg_eval, gtg_ti, gtg_tib, gtg_oti):
        got = estimate(log, test, cfg)
        with monkeypatch.context() as patched:
            patched.setattr(estimators, "gtg_round", reference_gtg_round)
            want = estimate(log, test, cfg)
        assert_reports_bit_equal(got, want)


@pytest.mark.blas_order
@pytest.mark.parametrize("name", ["acceptance-iid", "acceptance-skewed", "hidden",
                                  "quick"])
def test_screened_evaluation_reproduces_every_report(monkeypatch, name):
    # with every test set wide, each evaluation is screened first, from the
    # first layer the round's products give its coalition
    log, test = LOGS[name]()
    cfg = GtgConfig(seed=9)
    runs = [lambda t: gtg_eval(log, t, cfg), lambda t: gtg_oti(log, t, cfg),
            lambda t: mr_eval(log, t)]
    wants = [run(test) for run in runs]
    calls, rebuilds = collections.Counter(), collections.Counter()
    screen, products = models._screened_argmax, models.first_layer_products
    decide, reconstruct = models._decide, estimators.reconstruct_submodel
    whole = models.predict_logits

    def counted(arch, model, features, norms, first_layer):
        calls["screen"] += 1
        decided, fell_back = rebuilds["decide"], rebuilds["whole set"]
        top = screen(arch, model, features, norms, first_layer)
        # a second decide scored rows again; predict_logits is the float64
        # pass over the whole set
        rescored = rebuilds["decide"] > decided + 1
        rebuilds["rescored or fell back"] += rescored or rebuilds["whole set"] > fell_back
        return top

    def counted_decide(logits, margins):
        rebuilds["decide"] += 1
        return decide(logits, margins)

    def counted_whole(arch, params, features):
        rebuilds["whole set"] += 1
        return whole(arch, params, features)

    # a coalition's tail comes from a stack of tails, its full model from
    # reconstruct_submodel, where evaluate reads it
    def counted_reconstruct(record, ids, weights):
        rebuilds["full"] += 1
        return reconstruct(record, ids, weights)

    # evaluate makes no products (the rounds' are made by their scorers)
    def counted_products(arch, vectors, test, weights):
        calls["own products"] += 1
        return products(arch, vectors, test, weights)

    # a tail is rebuilt one coalition at a time or a block of them at once; a
    # softmax model's first layer is all of it, so each of its single
    # rebuilds returns the one shared empty row
    def counted_tails(method):
        def counted_method(stack, *args):
            rebuilds["tails"] += 1
            tails = method(stack, *args)
            rebuilds["shared empty rows"] += tails is federation._NO_VALUES
            return tails
        return counted_method

    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    for name in ("rebuild", "rebuild_chunks"):
        monkeypatch.setattr(RoundStack, name, counted_tails(getattr(RoundStack, name)))
    monkeypatch.setattr(models, "_screened_argmax", counted)
    monkeypatch.setattr(models, "first_layer_products", counted_products)
    monkeypatch.setattr(models, "_decide", counted_decide)
    monkeypatch.setattr(models, "predict_logits", counted_whole)
    monkeypatch.setattr(estimators, "reconstruct_submodel", counted_reconstruct)
    for run, want in zip(runs, wants):
        # a fresh set over the same arrays, prepared under the patched bounds
        assert_reports_bit_equal(run(LabeledDataset(test.features, test.labels)),
                                 want)
    assert calls == {"screen": sum(want.eval_count for want in wants)}
    single = sum(want.eval_count for want in wants[:2])  # gtg's and gtg_oti's
    assert rebuilds["tails"] == single + log.total_rounds  # and mr's blocks
    softmax = log.architecture.hidden_dim == 0
    assert rebuilds["shared empty rows"] == (single if softmax else 0)
    # a coalition's model is rebuilt in full only where the screen read it
    assert rebuilds["full"] <= rebuilds["rescored or fell back"]


# at 1.0 every gap is below the threshold, so only the first position of
# each order is evaluated: the exemption tmc asks for
@pytest.mark.parametrize("eps_within", [0.0, 0.001, 0.05, 1.0])
def test_retraining_walker_matches_the_first_implementation(monkeypatch,
                                                            eps_within):
    parts, test = small_participants(4, seed=3)
    arch = ModelArchitecture(5, 0, 3)
    train = TrainConfig(local_epochs=1, batch_size=8, learning_rate=0.2, seed=5)
    cfg = GtgConfig(eps_within=eps_within, seed=4, max_perms_per_round=30)
    got = tmc_shapley_eval(parts, arch, train, rounds=1, test=test, cfg=cfg)
    monkeypatch.setattr(estimators, "gtg_round", reference_gtg_round)
    want = tmc_shapley_eval(parts, arch, train, rounds=1, test=test, cfg=cfg)
    assert_reports_bit_equal(got, want)
    assert got.reconstructions == got.eval_count - 1


def test_position_profile_matches_the_first_implementation():
    log, test, _ = quick_log(n=4, rounds=3, seed=10)
    sums = np.zeros(log.n)
    for rec in log.rounds:
        rgame = RoundGame.from_round(rec, log.participant_weights,
                                     log.architecture, test)
        sampler = reference_sampler(GtgConfig(sampling="uniform"), log.n,
                                    derive_seed(3, "profile", rec.round))
        for k in range(1, 11):
            mask, prev = 0, rgame.base_utility
            for j, pid in enumerate(sampler(k)):
                mask |= 1 << (pid - 1)
                cur = rgame.game.value_mask(mask)
                sums[j] += cur - prev
                prev = cur
    want = sums / (10 * log.total_rounds)
    got = position_marginal_profile(log, test, samples_per_round=10, seed=3)
    assert got.tobytes() == want.tobytes()


# ids read n-m: n participants, a guided prefix of m = 1 (the leader)
@pytest.mark.parametrize("n", [2, 5, 10, 50, 100], ids="{}-1".format)
def test_guided_sampler_matches_the_first_implementation(n):
    for seed in (0, 1, 17, 2**40 + 3):
        want = reference_sampler(GtgConfig(), n, seed)
        rng = np.random.default_rng(seed)
        for k in range(1, 3 * n + 2):
            got = guided_permutation(k, n, rng)
            assert got == want(k)
            assert all(type(p) is int for p in got)
