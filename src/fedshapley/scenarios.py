"""Participant data scenarios over a balanced multi-class pool.

Five partition schemes cover the i.i.d./non-i.i.d. axes: identical
distributions, per-pair class skew, per-pair size ramps, per-pair label
flipping, and per-pair feature noise.  Participants are configured in pairs
(participants 2p-1 and 2p form pair p), so the paired kinds require an even
participant count unless explicit per-participant schedules are supplied.

Every scheme deals from one table of each participant's rows per class
(:func:`deal_table`), built from the pool's class counts alone, so a pool
that cannot deal a spec is refused before any row is drawn.  All
generation is seeded and deterministic; before noise injection, no pool
sample is handed to two participants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from typing import Sequence

import numpy as np

from .federation import HEADER_FIELD_MAX
from .models import LabeledDataset, check_types
from .seeding import derive_seed


class ScenarioKind(str, Enum):
    SAME_DIST_SAME_SIZE = "same_dist_same_size"
    DIFF_DIST_SAME_SIZE = "diff_dist_same_size"
    SAME_DIST_DIFF_SIZE = "same_dist_diff_size"
    NOISY_LABELS = "noisy_labels"
    NOISY_FEATURES = "noisy_features"


def pair_of(pid: int) -> int:
    """1-based pair index of participant ``pid`` (1,2 -> 1; 3,4 -> 2; ...)."""
    return (pid + 1) // 2


def skewed_classes(pid: int, class_count: int) -> tuple[int, int]:
    """The two classes participant ``pid`` of a skewed pair is dealt most
    of: pair p takes classes 2p - 2 and 2p - 1.  ValueError if the source's
    ``class_count`` classes do not reach them."""
    pair = pair_of(pid)
    designated = (2 * pair - 2, 2 * pair - 1)
    if designated[1] >= class_count:
        raise ValueError(f"pair {pair} needs classes {designated}, but only "
                         f"{class_count} classes exist")
    return designated


def _noise_rate(pid: int) -> float:
    return 0.05 * (pair_of(pid) - 1)


def default_noise_rates(n: int) -> list[float]:
    """Per-pair ramp 0, 0, .05, .05, .10, .10, ... used for label/feature noise."""
    return [_noise_rate(pid) for pid in range(1, n + 1)]


def default_size_ratios(n: int) -> list[float]:
    """Per-pair ramp .10, .10, .15, .15, ...; treated as relative proportions."""
    return [0.10 + 0.05 * (pair_of(pid) - 1) for pid in range(1, n + 1)]


# Each kind's one ``params`` entry and that entry's default for n participants.
SCENARIO_PARAMS = {
    ScenarioKind.SAME_DIST_SAME_SIZE: None,
    ScenarioKind.DIFF_DIST_SAME_SIZE: ("skew", lambda n: 0.8),
    ScenarioKind.SAME_DIST_DIFF_SIZE: ("ratios", default_size_ratios),
    ScenarioKind.NOISY_LABELS: ("flip_rates", default_noise_rates),
    ScenarioKind.NOISY_FEATURES: ("noise_rates", default_noise_rates),
}


@dataclass
class ScenarioSpec:
    """Which partition scheme to apply, for how many participants; ``params``
    holds at most the entry :data:`SCENARIO_PARAMS` names for ``kind``."""

    kind: ScenarioKind = ScenarioKind.SAME_DIST_SAME_SIZE
    n: int = 10
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_types(vars(self), ScenarioSpec.__annotations__)
        if self.kind not in list(ScenarioKind):
            raise ValueError(f"unknown scenario kind {self.kind!r}; known: "
                             + ", ".join(kind.value for kind in ScenarioKind))
        self.kind = ScenarioKind(self.kind)
        if not 2 <= self.n <= HEADER_FIELD_MAX:
            raise ValueError(f"n must lie in 2..{HEADER_FIELD_MAX}, the most a "
                             f"log's header stores, got {self.n}")
        self._entry()

    def _entry(self) -> str | None:
        """The ``params`` key this kind reads, if any; ValueError unless
        ``params`` holds no other entry and a given skew is one number in
        [0, 1], a given schedule n numbers: rates in [0, 1], ratios > 0.
        The default flip rates pass 1 from n = 44 on, and are refused there."""
        key = (SCENARIO_PARAMS[self.kind] or (None,))[0]
        others = sorted(str(k) for k in self.params if k != key)
        if others:
            raise ValueError(f"{self.kind.value} params may hold "
                             f"{key or 'nothing'}, not {', '.join(others)}")
        if key is None:
            return None
        if self.n % 2 and (key == "skew" or key not in self.params):
            raise ValueError(
                f"{self.kind.value} pairs participants; n={self.n} is odd and no "
                "explicit per-participant schedule was given")
        if key not in self.params:
            # a flip rate is a share of rows; a noise scale may pass 1.  The
            # last pair's default rate is the largest: no schedule is built
            if key == "flip_rates" and _noise_rate(self.n) > 1:
                raise ValueError(f"the default flip_rates pass 1 at n={self.n}; "
                                 "give explicit flip_rates")
            return key
        value = self.params[key]
        values, count = ([value], 1) if key == "skew" else (value, self.n)
        if not (isinstance(values, (list, tuple)) and len(values) == count and all(
                isinstance(v, Real) and not isinstance(v, bool)
                and (0 < v < math.inf if key == "ratios" else 0 <= v <= 1)
                for v in values)):
            raise ValueError(
                f"{key} must be {'one number' if count == 1 else f'{count} numbers'} "
                f"{'> 0' if key == 'ratios' else 'in [0, 1]'}, got {value!r}")
        return key

    def param(self) -> float | list[float] | None:
        """The entry this kind reads, or its default for n participants."""
        key = self._entry()
        if key in self.params:
            value = self.params[key]
            return float(value) if key == "skew" else [float(v) for v in value]
        return key and SCENARIO_PARAMS[self.kind][1](self.n)

    def check_classes(self, class_count: int) -> None:
        """ValueError unless a source of ``class_count`` classes can deal
        this scenario: each skewed pair needs two classes of its own."""
        if self.kind is ScenarioKind.DIFF_DIST_SAME_SIZE:
            skewed_classes(self.n, class_count)


@dataclass
class SyntheticSource:
    """Gaussian blobs: one center per class, shared within-class spread."""

    input_dim: int = 16
    class_count: int = 10
    spread: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_types(vars(self), SyntheticSource.__annotations__)
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if not 0 <= self.spread < math.inf:
            raise ValueError("spread must be finite and >= 0")


def generate_source(cfg: SyntheticSource, train_per_class: int,
                    test_per_class: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Balanced train pool and disjoint test set, deterministic per seed."""
    if train_per_class < 1 or test_per_class < 1:
        raise ValueError("per-class sample counts must be >= 1")
    rng = np.random.default_rng(derive_seed(cfg.seed, "source"))
    c, d = cfg.class_count, cfg.input_dim
    means = rng.standard_normal((c, d))

    def draw(per_class: int) -> LabeledDataset:
        feats = np.empty((c * per_class, d), dtype=np.float32)
        labels = np.empty(c * per_class, dtype=np.int64)
        for cls in range(c):
            block = means[cls] + cfg.spread * rng.standard_normal((per_class, d))
            feats[cls * per_class:(cls + 1) * per_class] = block.astype(np.float32)
            labels[cls * per_class:(cls + 1) * per_class] = cls
        return LabeledDataset(features=feats, labels=labels)

    try:
        with np.errstate(over="raise"):
            return draw(train_per_class), draw(test_per_class)
    except FloatingPointError:
        raise ValueError(f"spread {cfg.spread} draws features past the float32 "
                         "range") from None


def deal_table(spec: ScenarioSpec, class_counts: Sequence[int]) -> np.ndarray:
    """The rows of each class that each participant is dealt (n x C, int64,
    not to be written) from a pool of ``class_counts[c]`` rows of class c,
    by ``spec``'s rule; ValueError if the pool cannot deal it, so it can be
    refused before any data is drawn.

    The equal kinds give everyone count // n rows of each class.  A skewed
    pair takes round(skew * size / 2) rows of each of its two classes and
    spreads the rest of size = rows // n over the others, rotating which
    take the rounding extras.  Ratios r give participant i about
    rows * r_i / sum(r) rows (leftovers to the lowest ids), split evenly by
    class, each rounding extra going to a class with the most rows left, so
    balanced pools are dealt out exactly."""
    counts = np.asarray(class_counts, dtype=np.int64)
    # summed exactly: a pool too large to draw must not wrap past int64
    n, c, rows = spec.n, len(counts), sum(int(k) for k in class_counts)
    if rows < n:
        raise ValueError("pool smaller than the participant count")
    value = spec.param()
    if spec.kind is ScenarioKind.DIFF_DIST_SAME_SIZE:
        spec.check_classes(c)
        size = rows // n
        designated = int(round(value * size / 2))
        rest = size - 2 * designated
        if rest < 0:
            raise ValueError(f"skew {value} with size {size} leaves negative remainder")
        if c == 2 and rest:
            raise ValueError(f"skew {value} leaves {rest} rows for non-designated "
                             "classes, but every class is designated")
        base, extra = divmod(rest, max(c - 2, 1))
        table = np.full((n, c), base, dtype=np.int64)
        for pid, row in enumerate(table, start=1):
            pair = skewed_classes(pid, c)
            row[list(pair)] = designated
            others = np.delete(np.arange(c), pair)
            row[others[((pid - 1) * extra + np.arange(extra)) % others.size]] += 1
    elif spec.kind is ScenarioKind.SAME_DIST_DIFF_SIZE:
        total = sum(value)
        sizes = [int(rows * r / total) for r in value]
        for i in range(rows - sum(sizes)):
            sizes[i] += 1
        table = np.empty((n, c), dtype=np.int64)
        left = counts.copy()
        for size, row in zip(sizes, table):
            base, extra = divmod(size, c)
            left -= base
            most = np.lexsort((np.arange(c), -left))[:extra]
            row[:] = base
            row[most] += 1
            left[most] -= 1
    else:  # one row, read n times: nothing n x C long is held
        table = np.broadcast_to(counts // n, (n, c))
    over = np.flatnonzero(table.sum(axis=0) > counts)
    if over.size:
        cls = over[0]
        raise ValueError(f"pool exhausted for class {cls}: the scenario deals "
                         f"{table[:, cls].sum()} rows of it, the pool has "
                         f"{counts[cls]}")
    empty = np.flatnonzero(table.sum(axis=1) == 0)
    if empty.size:
        raise ValueError(f"a pool of {rows} rows deals participant {empty[0] + 1} "
                         f"of {n} no rows")
    return table


def _flip_labels(parts: list[LabeledDataset], rates: list[float],
                 class_count: int, rng: np.random.Generator) -> None:
    for part, rate in zip(parts, rates):
        flips = int(round(rate * len(part)))
        if flips == 0:
            continue
        rows = rng.choice(len(part), size=flips, replace=False)
        # adding 1..C-1 modulo C guarantees the new label differs
        shift = rng.integers(1, class_count, size=flips)
        part.labels[rows] = (part.labels[rows] + shift) % class_count


def _add_feature_noise(parts: list[LabeledDataset], rates: list[float],
                       pool_std: np.ndarray, rng: np.random.Generator) -> None:
    for i, (part, rate) in enumerate(zip(parts, rates)):
        if rate == 0.0:
            continue
        noise = rng.standard_normal(part.features.shape) * (rate * pool_std)
        noisy = (part.features + noise).astype(np.float32)
        parts[i] = LabeledDataset(noisy, part.labels)


def partition(pool: LabeledDataset, spec: ScenarioSpec,
              table: np.ndarray | None = None) -> list[LabeledDataset]:
    """Split ``pool`` into per-participant datasets according to ``spec``:
    participant by participant, each class's rows of ``table``, the
    :func:`deal_table` of ``spec`` and the pool's class counts (made here
    unless the caller has made it), are taken in turn from that class's
    shuffled queue of pool rows.  ValueError if ``table`` does not fit."""
    counts = np.bincount(pool.labels)
    if table is None:
        table = deal_table(spec, counts)
    elif np.shape(table) != (spec.n, len(counts)) or (table.sum(axis=0) > counts).any():
        raise ValueError(f"a deal table of shape {np.shape(table)} does not deal "
                         f"{spec.n} participants from a pool of {len(counts)} classes")
    rng = np.random.default_rng(derive_seed(spec.seed, "partition", spec.kind.value))
    queues = [idx[rng.permutation(idx.size)] for idx in
              (np.flatnonzero(pool.labels == cls) for cls in range(len(counts)))]
    parts = []
    for row, ends in zip(table, np.cumsum(table, axis=0)):
        idx = np.concatenate([q[end - k:end] for q, k, end in zip(queues, row, ends)])
        parts.append(LabeledDataset(pool.features[idx], pool.labels[idx]))
    if spec.kind is ScenarioKind.NOISY_LABELS:
        _flip_labels(parts, spec.param(), len(counts), rng)
    elif spec.kind is ScenarioKind.NOISY_FEATURES:
        pool_std = pool.features.astype(np.float64).std(axis=0)
        _add_feature_noise(parts, spec.param(), pool_std, rng)
    return parts
