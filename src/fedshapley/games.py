"""Coalition games and Shapley-value computation.

Players are identified by integers 1..n.  Coalitions are sets of player ids,
permutations are tuples containing each id exactly once.  Per-player value
arrays are position-indexed: entry ``i - 1`` belongs to player ``i``.

Utility oracles are cached by coalition bitmask (bit ``i - 1`` set iff player
``i`` is in the coalition); cache hits do not count as evaluations, so
``eval_count`` measures exactly the evaluation cost that sampling schemes and
truncation are meant to reduce.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

EXACT_PLAYER_LIMIT = 20
FACTORIAL_PLAYER_LIMIT = 8


class CapacityError(ValueError):
    """Raised when a computation would exceed its enumeration guard."""


def mask_of(coalition: Iterable[int]) -> int:
    """Bitmask for a coalition of 1-based player ids."""
    mask = 0
    for pid in coalition:
        mask |= 1 << (pid - 1)
    return mask


def players_of(mask: int) -> tuple[int, ...]:
    """1-based player ids present in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class CoalitionGame:
    """A cooperative game: player count plus a cached utility oracle.

    Parameters
    ----------
    n : int
        Number of players, ids 1..n.
    utility : callable
        Maps a tuple of ascending player ids (possibly empty) to a float.
        Must be deterministic; values are cached by coalition bitmask.
    """

    def __init__(self, n: int, utility: Callable[[tuple[int, ...]], float]):
        if n < 1:
            raise ValueError(f"need at least one player, got n={n}")
        self.n = n
        self._utility = utility
        self._cache: dict[int, float] = {}
        self._eval_count = 0

    @property
    def eval_count(self) -> int:
        """Number of oracle invocations so far (cache hits excluded)."""
        return self._eval_count

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def value_mask(self, mask: int) -> float:
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"mask {mask:#x} out of range for n={self.n}")
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        val = float(self._utility(players_of(mask)))
        self._eval_count += 1
        self._cache[mask] = val
        return val

    def value(self, coalition: Iterable[int]) -> float:
        return self.value_mask(mask_of(coalition))

    @classmethod
    def from_table(cls, n: int, table: dict[frozenset[int] | tuple[int, ...], float]
                   ) -> "CoalitionGame":
        """Game backed by an explicit coalition -> value table; a missing
        empty coalition is worth 0 (the usual V(∅) = 0 convention)."""
        by_mask = {mask_of(k): float(v) for k, v in table.items()}
        by_mask.setdefault(0, 0.0)

        def lookup(ids: tuple[int, ...]) -> float:
            try:
                return by_mask[mask_of(ids)]
            except KeyError:
                raise KeyError(f"no utility recorded for coalition {ids}") from None

        return cls(n, lookup)


@dataclass
class ContributionVector:
    """Per-player contribution estimates.

    ``values[i - 1]`` is the share of player ``i``.  ``sample_count`` is the
    number of permutations averaged (0 for exact computations), ``converged``
    is None for exact results and a flag for iterative ones, and
    ``eval_count`` is the utility evaluations it cost (0 if none were counted).
    """

    values: np.ndarray
    round: int | None = None
    sample_count: int = 0
    converged: bool | None = None
    eval_count: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("contribution values must be one-dimensional")

    def __len__(self) -> int:
        return self.values.shape[0]

    def total(self) -> float:
        return float(math.fsum(self.values.tolist()))


def permutation_marginals(game: CoalitionGame, order: Sequence[int]) -> np.ndarray:
    """Marginal contribution of each player along one join order.

    Returns a position-indexed array: entry ``pid - 1`` holds
    V(predecessors ∪ {pid}) − V(predecessors) for ``pid = order[j]``.
    """
    if sorted(order) != list(range(1, game.n + 1)):
        raise ValueError(f"not a permutation of 1..{game.n}: {order!r}")
    return walk_order(game, order, np.empty(game.n), game.value_mask(0))


def walk_order(game: CoalitionGame, order: Sequence[int], marginals: np.ndarray,
               v0: float, v_n: float | None = None, eps: float = 0.0,
               evaluate_first: bool = False) -> np.ndarray:
    """Fill ``marginals`` (position-indexed, zeroed first) along ``order``,
    which must be a permutation of 1..n; returns ``marginals``.

    ``v0`` is V(∅).  With ``v_n`` given, position j is evaluated only while
    |v_n - v_{j-1}| >= ``eps``, and ``evaluate_first`` exempts position 1
    from that test.  Truncation is absorbing: a skipped position leaves the
    running utility as it was, so every later one sees the same gap; the
    walk stops at the first skipped position and the rest keep marginal 0.
    """
    marginals.fill(0.0)
    value_mask = game.value_mask
    mask = 0
    prev = v0
    for j, pid in enumerate(order):
        if v_n is not None and not abs(v_n - prev) >= eps and (j or not evaluate_first):
            break
        mask |= 1 << (pid - 1)
        cur = value_mask(mask)
        marginals[pid - 1] = cur - prev
        prev = cur
    return marginals


def check_enumerable(n: int) -> None:
    """Raise CapacityError if enumerating all 2^n coalitions is past the guard."""
    if n > EXACT_PLAYER_LIMIT:
        raise CapacityError(
            f"subset enumeration needs 2^{n} utility values; limit is n <= {EXACT_PLAYER_LIMIT}")


def exact_shapley(game: CoalitionGame) -> ContributionVector:
    """Exact Shapley values by subset enumeration.

    Checks the enumeration guard before any utility is evaluated, then
    evaluates every coalition in ascending mask order and hands the table to
    :func:`shapley_from_values`.
    """
    check_enumerable(game.n)
    return shapley_from_values(
        np.array([game.value_mask(mask) for mask in range(game.full_mask + 1)]))


def shapley_from_values(values: np.ndarray) -> ContributionVector:
    """Exact Shapley values of the game whose utility at bitmask m is
    ``values[m]``; ``len(values)`` is 2^n for n >= 1 players.

    For each player the weighted marginals are summed with ``math.fsum``,
    so players that are interchangeable in the utility receive bit-identical
    shares regardless of enumeration order, and a player whose marginals are
    all exactly zero receives exactly 0.0.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values).bit_length() - 1
    if n < 1 or len(values) != 1 << n:
        raise ValueError(f"need 2^n utility values for n >= 1, got {len(values)}")
    masks = np.arange(len(values))
    sizes = np.zeros(len(values), dtype=np.intp)
    for i in range(n):
        sizes += (masks >> i) & 1
    # 1 / C(n-1, s) for s = |S| of the coalition being joined
    inv_choose = np.array([1.0 / math.comb(n - 1, s) for s in range(n)])
    shares = np.zeros(n, dtype=np.float64)
    for pid in range(1, n + 1):
        bit = 1 << (pid - 1)
        without = masks[masks & bit == 0]
        terms = (values[without | bit] - values[without]) * inv_choose[sizes[without]]
        shares[pid - 1] = math.fsum(terms.tolist()) / n
    return ContributionVector(values=shares)


def exact_shapley_by_permutations(game: CoalitionGame) -> ContributionVector:
    """Exact Shapley values as the plain average over all n! join orders.

    Independent of :func:`exact_shapley` (different enumeration), so the two
    serve as cross-checking oracles.  Guarded at n <= 8.
    """
    n = game.n
    if n > FACTORIAL_PLAYER_LIMIT:
        raise CapacityError(
            f"{n}! permutations is past the enumeration guard n <= {FACTORIAL_PLAYER_LIMIT}")
    per_player: list[list[float]] = [[] for _ in range(n)]
    for order in itertools.permutations(range(1, n + 1)):
        marginals = permutation_marginals(game, order)
        for pid in range(1, n + 1):
            per_player[pid - 1].append(marginals[pid - 1])
    count = math.factorial(n)
    shares = np.array([math.fsum(terms) / count for terms in per_player])
    return ContributionVector(values=shares)


# --- convergence bookkeeping -------------------------------------------------

RELATIVE_CHANGE_FLOOR = 1e-12


def convergence_criterion(current: np.ndarray, history: Sequence[np.ndarray],
                          floor: float = RELATIVE_CHANGE_FLOOR) -> float:
    """Mean relative change of ``current`` against each history vector.

    (1 / (n * len(history))) * sum over history and players of
    |current_i - past_i| / max(|current_i|, floor).  The floor keeps
    near-zero shares from dividing by zero and from converging for free.
    """
    if not history:
        raise ValueError("no past estimate to compare against")
    cur = np.asarray(current, dtype=np.float64)
    denom = np.maximum(np.abs(cur), floor)
    total = 0.0
    for past in history:
        total += float(np.sum(np.abs(cur - np.asarray(past)) / denom))
    return total / (cur.shape[0] * len(history))


@dataclass
class ConvergenceWindow:
    """Ring buffer of recent estimates plus the stopping rule parameters.

    Convergence requires ``lookback`` prior estimates, so it can never be
    declared before iteration ``lookback + 1``; ``min_samples`` can push
    that later but not earlier.  The estimates live in one ``(lookback, n)``
    float64 array, allocated at the first push after creation or ``clear``.
    """

    lookback: int = 10
    threshold: float = 0.05
    min_samples: int = 11

    def __post_init__(self) -> None:
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.lookback < 1:
            raise ValueError("lookback must be at least 1")
        if self.min_samples < 0:
            raise ValueError("min_samples must be >= 0")
        self.clear()

    @property
    def full(self) -> bool:
        return self._size == self.lookback

    def push(self, estimate: np.ndarray) -> None:
        """Store a copy of ``estimate``, dropping the oldest once full."""
        estimate = np.asarray(estimate, dtype=np.float64)
        if self._ring is None:
            self._ring = np.empty((self.lookback,) + estimate.shape)
        self._ring[self._next] = estimate
        self._next = (self._next + 1) % self.lookback
        self._size = min(self._size + 1, self.lookback)

    def relative_change(self, current: np.ndarray) -> float:
        """``convergence_criterion(current, pushed[-lookback:])`` over the
        estimates pushed since ``clear``, bit-equal: numpy sums each row as
        the reference sums one vector, and the row sums are added oldest first."""
        cur = np.asarray(current, dtype=np.float64)
        denom = np.maximum(np.abs(cur), RELATIVE_CHANGE_FLOOR)
        try:  # no branch for check_convergence, which reads a full window
            past = self._ring[:self._size]
        except TypeError:  # the ring is None until the first push
            raise ValueError("no estimate has been pushed") from None
        rows = (np.abs(cur - past) / denom).sum(axis=1).tolist()
        total = 0.0
        # until the ring wraps, _next == _size and the rows are in order
        for row in rows[self._next:] + rows[:self._next]:
            total += row
        return total / (cur.shape[0] * self._size)

    def clear(self) -> None:
        self._ring = None  # (lookback, n), allocated by the first push
        self._size = self._next = 0  # rows stored; row the next push writes


def check_convergence(window: ConvergenceWindow, current: np.ndarray) -> bool:
    """True iff the window is full and the mean relative change is below threshold."""
    return window.full and window.relative_change(current) < window.threshold


# --- permutation samplers ----------------------------------------------------


class UniformPermutationSampler:
    """Seeded i.i.d. uniform permutations of 1..n."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self._ids = np.arange(1, n + 1)
        self._rng = np.random.default_rng(seed)

    def __call__(self, k: int) -> tuple[int, ...]:
        return tuple(self._ids[self._rng.permutation(self.n)].tolist())


class CyclingPermutationSampler:
    """All n! permutations in lexicographic order, repeating.

    Feeding every permutation exactly once makes Monte-Carlo averaging exact,
    which is how truncation-free estimator paths are checked against the
    subset-enumeration computation.
    """

    def __init__(self, n: int):
        if n > FACTORIAL_PLAYER_LIMIT:
            raise CapacityError(
                f"cannot enumerate {n}! permutations; limit is n <= {FACTORIAL_PLAYER_LIMIT}")
        self.n = n
        self.period = math.factorial(n)
        self._orders = list(itertools.permutations(range(1, n + 1)))

    def __call__(self, k: int) -> tuple[int, ...]:
        # k is the 1-based iteration index
        return self._orders[(k - 1) % self.period]
