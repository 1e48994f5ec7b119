"""Coalition-game solver tests.

The three-player table used throughout is small enough to check by hand:
all six join orders and both enumeration strategies are written out, so the
solver is validated against arithmetic done on paper, not against itself.
"""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from fedshapley import (
    CapacityError,
    CoalitionGame,
    ContributionVector,
    ConvergenceWindow,
    CyclingPermutationSampler,
    UniformPermutationSampler,
    check_convergence,
    convergence_criterion,
    exact_shapley,
    exact_shapley_by_permutations,
    mc_shapley,
    permutation_marginals,
)
from fedshapley.games import mask_of, players_of, shapley_from_values

THREE_PLAYER_TABLE = {
    (1,): 50.0, (2,): 50.0, (3,): 10.0,
    (1, 2): 60.0, (1, 3): 90.0, (2, 3): 90.0,
    (1, 2, 3): 100.0,
}

# hand-computed marginal columns, one per join order; entry i-1 is player i's
HAND_MARGINALS = {
    (1, 2, 3): [50.0, 10.0, 40.0],
    (1, 3, 2): [50.0, 10.0, 40.0],
    (2, 1, 3): [10.0, 50.0, 40.0],
    (2, 3, 1): [10.0, 50.0, 40.0],
    (3, 1, 2): [80.0, 10.0, 10.0],
    (3, 2, 1): [10.0, 80.0, 10.0],
}


def three_player_game() -> CoalitionGame:
    return CoalitionGame.from_table(3, THREE_PLAYER_TABLE)


def random_table_game(n: int, seed: int) -> CoalitionGame:
    rng = np.random.default_rng(seed)
    by_mask = dict(enumerate(rng.uniform(-10.0, 10.0, size=1 << n)))
    by_mask[0] = 0.0
    return CoalitionGame(n, lambda ids: by_mask[mask_of(ids)])


def test_mask_round_trip():
    for ids in [(), (1,), (3,), (1, 2, 3), (2, 5, 9)]:
        assert players_of(mask_of(ids)) == ids
    assert mask_of([3, 1, 2]) == mask_of([1, 2, 3]) == 0b111


def test_hand_checked_three_player_values():
    game = three_player_game()
    shares = exact_shapley(game)
    assert shares.values.tolist() == [35.0, 35.0, 30.0]
    assert game.eval_count == 8  # every coalition incl. the empty one, once


def test_hand_checked_marginal_columns():
    game = three_player_game()
    for order, expected in HAND_MARGINALS.items():
        assert permutation_marginals(game, order).tolist() == expected
    # the plain average of the six columns reproduces the shares
    mean = np.mean(list(HAND_MARGINALS.values()), axis=0)
    assert mean.tolist() == [35.0, 35.0, 30.0]


def test_marginals_telescope_to_grand_value():
    game = random_table_game(5, seed=3)
    for order in [(1, 2, 3, 4, 5), (5, 3, 1, 2, 4)]:
        got = math.fsum(permutation_marginals(game, order).tolist())
        want = game.value_mask(game.full_mask) - game.value_mask(0)
        assert got == pytest.approx(want, abs=1e-12)


def test_marginals_reject_non_permutations():
    game = three_player_game()
    with pytest.raises(ValueError):
        permutation_marginals(game, (1, 1, 2))
    with pytest.raises(ValueError):
        permutation_marginals(game, (0, 1, 2))
    with pytest.raises(ValueError):
        permutation_marginals(game, (1, 2))


def test_from_table_unknown_coalition():
    game = CoalitionGame.from_table(3, {(1, 2, 3): 1.0})
    with pytest.raises(KeyError):
        game.value((1, 2))


def test_cache_counts_only_oracle_calls():
    calls = []
    game = CoalitionGame(3, lambda ids: calls.append(ids) or float(len(ids)))
    for _ in range(4):
        game.value((1, 3))
    assert game.eval_count == 1 and len(calls) == 1
    exact_shapley(game)
    exact_shapley(game)  # second run is fully cached
    assert game.eval_count == 8


def test_a_game_refuses_no_players_and_masks_past_its_players():
    with pytest.raises(ValueError, match="^need at least one player, got n=0$"):
        CoalitionGame(0, lambda ids: 0.0)
    game = three_player_game()
    for mask in (-1, 0b1000):
        with pytest.raises(ValueError, match="out of range for n=3"):
            game.value_mask(mask)
    assert game.eval_count == 0


def test_single_player_game():
    game = CoalitionGame.from_table(1, {(1,): 7.0})
    assert exact_shapley(game).values.tolist() == [7.0]


def test_additive_game_returns_weights():
    weights = {1: 1.0, 2: 2.0, 3: 4.0, 4: 0.5}
    game = CoalitionGame(4, lambda ids: math.fsum(weights[p] for p in ids))
    shares = exact_shapley(game)
    np.testing.assert_allclose(shares.values, [1.0, 2.0, 4.0, 0.5], atol=1e-12)


def test_constant_game_gives_zero_shares():
    game = CoalitionGame(4, lambda ids: 3.25)
    assert exact_shapley(game).values.tolist() == [0.0] * 4


def test_enumeration_strategies_agree():
    # subset-weighted sums vs the plain average over all n! orders
    for seed, n in [(0, 3), (1, 4), (2, 5), (3, 6)]:
        game = random_table_game(n, seed)
        a = exact_shapley(game).values
        b = exact_shapley_by_permutations(game).values
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_efficiency_holds_on_random_games():
    for seed in range(20):
        n = 3 + seed % 3
        game = random_table_game(n, seed)
        shares = exact_shapley(game)
        gain = game.value_mask(game.full_mask) - game.value_mask(0)
        assert shares.total() == pytest.approx(gain, abs=1e-9)


def test_linearity_of_shares():
    rng = np.random.default_rng(11)
    for seed in range(5):
        u = random_table_game(4, seed)
        w = random_table_game(4, seed + 100)
        a, b = rng.uniform(-2, 2, size=2)
        combined = CoalitionGame(4, lambda ids: a * u.value(ids) + b * w.value(ids))
        lhs = exact_shapley(combined).values
        rhs = a * exact_shapley(u).values + b * exact_shapley(w).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_interchangeable_players_get_identical_shares():
    # utility depends on players 1 and 2 only through how many joined,
    # so their shares must match bit for bit (fsum over equal multisets)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        vals: dict = {}

        def u(ids):
            key = (len(set(ids) & {1, 2}), tuple(sorted(set(ids) - {1, 2})))
            if key not in vals:
                vals[key] = float(rng.uniform(-5, 5))
            return vals[key]

        shares = exact_shapley(CoalitionGame(4, u))
        assert shares.values[0] == shares.values[1]


def test_ignored_player_gets_exactly_zero():
    for seed in range(8):
        inner = random_table_game(3, seed)

        def u(ids, _inner=inner):
            return _inner.value(tuple(p for p in ids if p != 4))

        shares = exact_shapley(CoalitionGame(4, u))
        assert shares.values[3] == 0.0
        assert np.any(shares.values[:3] != 0.0)


def test_enumeration_guards():
    with pytest.raises(CapacityError):
        exact_shapley(CoalitionGame(21, lambda ids: 0.0))
    with pytest.raises(CapacityError):
        exact_shapley_by_permutations(CoalitionGame(9, lambda ids: 0.0))
    with pytest.raises(CapacityError):
        CyclingPermutationSampler(9)


def test_exact_guard_comes_before_any_utility_call():
    calls = []
    with pytest.raises(CapacityError):
        exact_shapley(CoalitionGame(21, lambda ids: calls.append(ids) or 0.0))
    assert calls == []


def test_solver_over_a_value_table_matches_the_game_solver():
    game = CoalitionGame.from_table(3, THREE_PLAYER_TABLE)
    values = np.array([game.value_mask(mask) for mask in range(8)])
    assert (shapley_from_values(values).values.tobytes()
            == exact_shapley(game).values.tobytes())
    for size in (0, 1, 6):
        with pytest.raises(ValueError, match="2\\^n"):
            shapley_from_values(np.zeros(size))


def test_contribution_vector_shape_checks():
    with pytest.raises(ValueError):
        ContributionVector(np.zeros((2, 2)))
    vec = ContributionVector([1.0, 2.0], round=3)
    assert len(vec) == 2 and vec.total() == 3.0 and vec.round == 3


# --- convergence rule --------------------------------------------------------


def test_relative_change_hand_example():
    history = [np.array([0.92, 1.0])] * 10
    assert convergence_criterion(np.array([1.0, 1.0]), history) == pytest.approx(0.04)
    window = ConvergenceWindow(lookback=10, threshold=0.05)
    for past in history:
        window.push(past)
    assert check_convergence(window, np.array([1.0, 1.0]))
    # widen the gap to 0.12 -> mean change 0.06, above the 0.05 threshold
    worse = ConvergenceWindow(lookback=10, threshold=0.05)
    for _ in range(10):
        worse.push(np.array([0.88, 1.0]))
    assert not check_convergence(worse, np.array([1.0, 1.0]))


def test_convergence_needs_full_window():
    window = ConvergenceWindow(lookback=10, threshold=0.05)
    for _ in range(9):
        window.push(np.array([1.0, 1.0]))
    assert not check_convergence(window, np.array([1.0, 1.0]))
    window.push(np.array([1.0, 1.0]))
    assert check_convergence(window, np.array([1.0, 1.0]))


def test_near_zero_shares_do_not_converge_for_free():
    window = ConvergenceWindow(lookback=2, threshold=0.05)
    window.push(np.array([1e-3, 0.0]))
    window.push(np.array([1e-3, 0.0]))
    assert not check_convergence(window, np.zeros(2))


def test_window_is_a_ring_buffer():
    # the window scores against the last ``lookback`` pushes, before and
    # after the ring wraps, and ``clear`` forgets every earlier push
    window = ConvergenceWindow(lookback=10)
    cur = np.array([3.0, -2.0])
    pushed = []
    for k in range(15):
        pushed.append(np.array([float(k), 1.0 / (k + 1)]))
        window.push(pushed[-1])
        assert window.full == (k >= 9)
        assert window.relative_change(cur) == convergence_criterion(cur, pushed[-10:])
    window.clear()
    assert not window.full
    pushed = [np.array([7.0, 0.5]), np.array([-1.0, 4.0])]
    for estimate in pushed:
        window.push(estimate)
    assert window.relative_change(cur) == convergence_criterion(cur, pushed)


def test_window_parameter_validation():
    with pytest.raises(ValueError):
        ConvergenceWindow(threshold=0.0)
    with pytest.raises(ValueError):
        ConvergenceWindow(lookback=0)


def test_window_stores_copies():
    window = ConvergenceWindow(lookback=3)
    estimate = np.array([1.0, 2.0])
    window.push(estimate)
    estimate[0] = 99.0
    cur = np.array([1.5, 2.0])
    assert window.relative_change(cur) == convergence_criterion(
        cur, [np.array([1.0, 2.0])])


@pytest.mark.parametrize("n", [2, 10, 50, 100, 129])
def test_window_criterion_is_bit_equal_to_the_reference(n):
    # partly filled, exactly full and wrapped windows; zero shares; scales
    # from 1e-8 to 10; spreads on both sides of the threshold
    rng = np.random.default_rng(n)
    for lookback in (1, 3, 10):
        for pushes in sorted({1, max(1, lookback - 1), lookback, lookback + 1,
                              3 * lookback + 2}):
            for scale in (1e-8, 1e-3, 1.0, 10.0):
                for spread in (1e-3, 0.1):
                    base = scale * rng.standard_normal(n)
                    base[rng.random(n) < 0.25] = 0.0
                    window = ConvergenceWindow(lookback=lookback, threshold=0.05)
                    pushed = []
                    for _ in range(pushes):
                        pushed.append(base * (1 + spread * rng.standard_normal(n)))
                        window.push(pushed[-1])
                    for cur in (base, np.zeros(n)):
                        want = convergence_criterion(cur, pushed[-lookback:])
                        assert window.relative_change(cur) == want
                        assert check_convergence(window, cur) == (
                            pushes >= lookback and want < 0.05)


def test_players_of_matches_a_plain_bit_loop():
    bits = random.Random(7)
    masks = [0, 1, 2 ** 100 - 1, 2 ** 100, 2 ** 99 + 1]
    masks += [bits.getrandbits(bits.randint(1, 100)) for _ in range(2000)]
    for mask in masks:
        want = tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
        assert players_of(mask) == want


# --- samplers and Monte-Carlo estimation --------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 10, 100])
def test_uniform_sampler_matches_its_generator_form(n):
    for seed in (0, 3, 42, 2 ** 40 + 1):
        rng = np.random.default_rng(seed)
        sampler = UniformPermutationSampler(n, seed)
        for k in range(1, 30):
            got = sampler(k)
            assert got == tuple(int(p) + 1 for p in rng.permutation(n))
            assert all(type(p) is int for p in got)


def test_uniform_sampler_yields_valid_seeded_permutations():
    sampler = UniformPermutationSampler(5, seed=42)
    again = UniformPermutationSampler(5, seed=42)
    draws = [sampler(k) for k in range(1, 51)]
    assert all(sorted(d) == [1, 2, 3, 4, 5] for d in draws)
    assert draws == [again(k) for k in range(1, 51)]
    assert len(set(draws)) > 1


def test_cycling_sampler_enumerates_lexicographically():
    sampler = CyclingPermutationSampler(3)
    first_cycle = [sampler(k) for k in range(1, 7)]
    assert first_cycle == sorted(itertools.permutations((1, 2, 3)))
    assert sampler(7) == first_cycle[0]
    assert sampler.period == 6


def test_mc_over_one_full_cycle_is_exact():
    game = three_player_game()
    window = ConvergenceWindow(lookback=10, threshold=0.05, min_samples=6)
    est = mc_shapley(game, CyclingPermutationSampler(3), window, max_iters=6)
    np.testing.assert_allclose(est.values, [35.0, 35.0, 30.0], atol=1e-12)
    assert est.sample_count == 6 and est.converged is False


def test_mc_constant_game_stops_at_min_samples():
    game = CoalitionGame(4, lambda ids: 5.0)
    est = mc_shapley(game, UniformPermutationSampler(4, seed=0),
                     ConvergenceWindow(min_samples=11), max_iters=500)
    assert est.converged is True
    assert est.sample_count == 11  # 10 pushes fill the window, check fires next
    assert est.values.tolist() == [0.0] * 4


def test_mc_long_run_approximates_exact_values():
    game = three_player_game()
    window = ConvergenceWindow(lookback=10, threshold=1e-12, min_samples=10_000)
    est = mc_shapley(game, UniformPermutationSampler(3, seed=4), window,
                     max_iters=10_000)
    assert est.sample_count == 10_000
    np.testing.assert_allclose(est.values, [35.0, 35.0, 30.0], atol=0.5)
    assert est.total() == pytest.approx(100.0, abs=1e-9)


def test_mc_running_mean_preserves_efficiency():
    game = random_table_game(4, seed=9)
    gain = game.value_mask(game.full_mask) - game.value_mask(0)
    est = mc_shapley(game, UniformPermutationSampler(4, seed=1),
                     ConvergenceWindow(min_samples=11), max_iters=50)
    assert est.total() == pytest.approx(gain, abs=1e-9)


def test_mc_rejects_budget_below_min_samples():
    with pytest.raises(ValueError):
        mc_shapley(three_player_game(), UniformPermutationSampler(3, seed=0),
                   ConvergenceWindow(min_samples=11), max_iters=10)


def reference_mc_shapley(game, sampler, window, max_iters):
    """The running-mean loop as first written, over full permutation walks."""
    phi = np.zeros(game.n)
    for k in range(1, max_iters + 1):
        phi = ((k - 1.0) / k) * phi + permutation_marginals(game, sampler(k)) / k
        if k >= window.min_samples and check_convergence(window, phi):
            return phi, k, True
        window.push(phi)
    return phi, max_iters, False


@pytest.mark.parametrize("n, seed, threshold, max_iters", [
    (3, 0, 0.05, 500), (4, 1, 0.01, 500), (6, 2, 1e-3, 300), (8, 3, 0.05, 40),
    (5, 4, 1e-9, 200),
])
def test_mc_matches_the_reference_loop_bit_for_bit(n, seed, threshold, max_iters):
    game = random_table_game(n, seed)
    got = mc_shapley(game, UniformPermutationSampler(n, seed),
                     ConvergenceWindow(threshold=threshold), max_iters=max_iters)
    fresh = random_table_game(n, seed)
    phi, k, converged = reference_mc_shapley(
        fresh, UniformPermutationSampler(n, seed),
        ConvergenceWindow(threshold=threshold), max_iters)
    assert got.values.tobytes() == phi.tobytes()
    assert (got.sample_count, got.converged, got.round) == (k, converged, None)
    assert game.eval_count == fresh.eval_count
