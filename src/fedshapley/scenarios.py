"""Participant data scenarios over a balanced multi-class pool.

Five partition schemes cover the i.i.d./non-i.i.d. axes: identical
distributions, per-pair class skew, per-pair size ramps, per-pair label
flipping, and per-pair feature noise.  Participants are configured in pairs
(participants 2p-1 and 2p form pair p), so the paired kinds require an even
participant count unless explicit per-participant schedules are supplied.

All generation is seeded and deterministic; before noise injection, no pool
sample is handed to two participants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .models import LabeledDataset, check_types
from .seeding import derive_seed

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class ScenarioKind(str, Enum):
    SAME_DIST_SAME_SIZE = "same_dist_same_size"
    DIFF_DIST_SAME_SIZE = "diff_dist_same_size"
    SAME_DIST_DIFF_SIZE = "same_dist_diff_size"
    NOISY_LABELS = "noisy_labels"
    NOISY_FEATURES = "noisy_features"

    @classmethod
    def parse(cls, name: str) -> "ScenarioKind":
        """Accepts snake_case or CamelCase spellings, case-insensitively."""
        key = name.replace("_", "").replace("-", "").lower()
        for member in cls:
            if member.value.replace("_", "") == key:
                return member
        raise ValueError(f"unknown scenario kind {name!r}; known: "
                         + ", ".join(m.value for m in cls))


PAIRED_KINDS = frozenset({ScenarioKind.DIFF_DIST_SAME_SIZE,
                          ScenarioKind.SAME_DIST_DIFF_SIZE,
                          ScenarioKind.NOISY_LABELS,
                          ScenarioKind.NOISY_FEATURES})


def pair_of(pid: int) -> int:
    """1-based pair index of participant ``pid`` (1,2 -> 1; 3,4 -> 2; ...)."""
    return (pid + 1) // 2


def default_noise_rates(n: int) -> list[float]:
    """Per-pair ramp 0, 0, .05, .05, .10, .10, ... used for label/feature noise."""
    return [0.05 * (pair_of(pid) - 1) for pid in range(1, n + 1)]


def default_size_ratios(n: int) -> list[float]:
    """Per-pair ramp .10, .10, .15, .15, ...; treated as relative proportions."""
    return [0.10 + 0.05 * (pair_of(pid) - 1) for pid in range(1, n + 1)]


@dataclass
class ScenarioSpec:
    """Which partition scheme to apply, for how many participants."""

    kind: ScenarioKind
    n: int = 10
    seed: int = 0
    per_class_pool: int = 100
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_types(vars(self), ScenarioSpec.__annotations__)
        if isinstance(self.kind, str):
            self.kind = ScenarioKind.parse(self.kind)
        if self.n < 2:
            raise ValueError("need at least two participants")
        if self.kind in PAIRED_KINDS and self.n % 2 and not self._has_schedule():
            raise ValueError(
                f"{self.kind.value} pairs participants; n={self.n} is odd and no "
                "explicit per-participant schedule was given")
        for key in ("skew", "flip_rates", "noise_rates"):
            val = self.params.get(key)
            rates = val if isinstance(val, (list, tuple)) else [val]
            for r in rates:
                if r is not None and not 0.0 <= float(r) <= 1.0:
                    raise ValueError(f"{key} values must lie in [0, 1], got {r}")

    def _has_schedule(self) -> bool:
        key = {ScenarioKind.SAME_DIST_DIFF_SIZE: "ratios",
               ScenarioKind.NOISY_LABELS: "flip_rates",
               ScenarioKind.NOISY_FEATURES: "noise_rates"}.get(self.kind)
        return key is not None and key in self.params


@dataclass
class SyntheticSource:
    """Gaussian blobs: one center per class, shared within-class spread."""

    input_dim: int = 16
    class_count: int = 10
    spread: float = 1.0
    seed: int = 0
    class_means: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_types(vars(self), SyntheticSource.__annotations__)
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if self.spread < 0:
            raise ValueError("spread must be >= 0")
        if self.class_means is not None:
            shape = np.asarray(self.class_means, dtype=np.float64).shape
            if shape != (self.class_count, self.input_dim):
                raise ValueError(f"class_means must have shape "
                                 f"{(self.class_count, self.input_dim)}, got {shape}")


def generate_source(cfg: SyntheticSource, train_per_class: int,
                    test_per_class: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Balanced train pool and disjoint test set, deterministic per seed."""
    if train_per_class < 1 or test_per_class < 1:
        raise ValueError("per-class sample counts must be >= 1")
    rng = np.random.default_rng(derive_seed(cfg.seed, "source"))
    c, d = cfg.class_count, cfg.input_dim
    means = cfg.class_means
    if means is None:
        means = rng.standard_normal((c, d))
    means = np.asarray(means, dtype=np.float64)
    diffs = means[:, None, :] - means[None, :, :]
    gaps = np.sqrt((diffs ** 2).sum(axis=2))
    if np.any(gaps[~np.eye(c, dtype=bool)] == 0.0):
        raise ValueError("class means must be pairwise distinct")

    def draw(per_class: int, tag: str) -> LabeledDataset:
        feats = np.empty((c * per_class, d), dtype=np.float32)
        labels = np.empty(c * per_class, dtype=np.int64)
        for cls in range(c):
            block = means[cls] + cfg.spread * rng.standard_normal((per_class, d))
            feats[cls * per_class:(cls + 1) * per_class] = block.astype(np.float32)
            labels[cls * per_class:(cls + 1) * per_class] = cls
        return LabeledDataset(features=feats, labels=labels, id=tag)

    train = draw(train_per_class, "train-pool")
    test = draw(test_per_class, "test")
    return train, test


class _ClassQueues:
    """Shuffled per-class index queues over a pool; draws never overlap."""

    def __init__(self, pool: LabeledDataset, rng: np.random.Generator):
        self.class_count = int(pool.labels.max()) + 1 if len(pool) else 0
        self._queues = []
        for cls in range(self.class_count):
            idx = np.flatnonzero(pool.labels == cls)
            self._queues.append(idx[rng.permutation(idx.size)])
        self._cursors = [0] * self.class_count

    def available(self, cls: int) -> int:
        return self._queues[cls].size - self._cursors[cls]

    def take(self, cls: int, k: int) -> np.ndarray:
        if k > self.available(cls):
            raise ValueError(
                f"pool exhausted for class {cls}: need {k} more rows, "
                f"have {self.available(cls)}")
        start = self._cursors[cls]
        self._cursors[cls] = start + k
        return self._queues[cls][start:start + k]


def _slice(pool: LabeledDataset, idx: np.ndarray, pid: int) -> LabeledDataset:
    return LabeledDataset(features=pool.features[idx].copy(),
                          labels=pool.labels[idx].copy(),
                          id=f"participant-{pid}")


def _equal_balanced(pool: LabeledDataset, n: int,
                    queues: _ClassQueues) -> list[LabeledDataset]:
    shares = [queues.available(cls) // n for cls in range(queues.class_count)]
    out = []
    for pid in range(1, n + 1):
        idx = np.concatenate([queues.take(cls, shares[cls])
                              for cls in range(queues.class_count)])
        out.append(_slice(pool, idx, pid))
    return out


def _skewed_counts(pid: int, size: int, class_count: int, skew: float) -> dict[int, int]:
    """Per-class sample counts for one participant of a skewed pair."""
    pair = pair_of(pid)
    designated = (2 * pair - 2, 2 * pair - 1)
    if designated[1] >= class_count:
        raise ValueError(
            f"pair {pair} needs classes {designated}, but only "
            f"{class_count} classes exist")
    per_designated = int(round(skew * size / 2))
    others = [c for c in range(class_count) if c not in designated]
    rest = size - 2 * per_designated
    if rest < 0:
        raise ValueError(f"skew {skew} with size {size} leaves negative remainder")
    if not others and rest:
        raise ValueError(
            f"skew {skew} leaves {rest} rows for non-designated classes, "
            "but every class is designated")
    base, extra = divmod(rest, len(others)) if others else (0, 0)
    counts = {c: base for c in others}
    counts[designated[0]] = per_designated
    counts[designated[1]] = per_designated
    # rotate which classes absorb the rounding extras so that, across
    # participants, no class is systematically over-drawn.  Skews whose
    # per-participant remainder does not divide the non-designated class
    # count can still leave a zero-slack pool short by a few rows; the
    # draw then fails with an explicit pool-exhausted error.
    offset = ((pid - 1) * extra) % len(others) if others else 0
    for j in range(extra):
        counts[others[(offset + j) % len(others)]] += 1
    return counts


def _diff_dist(pool: LabeledDataset, spec: ScenarioSpec,
               queues: _ClassQueues) -> list[LabeledDataset]:
    size = len(pool) // spec.n
    skew = float(spec.params.get("skew", 0.8))
    out = []
    for pid in range(1, spec.n + 1):
        counts = _skewed_counts(pid, size, queues.class_count, skew)
        idx = np.concatenate([queues.take(cls, counts[cls])
                              for cls in sorted(counts)])
        out.append(_slice(pool, idx, pid))
    return out


def _diff_size(pool: LabeledDataset, spec: ScenarioSpec,
               queues: _ClassQueues) -> list[LabeledDataset]:
    ratios = [float(r) for r in spec.params.get("ratios", default_size_ratios(spec.n))]
    if len(ratios) != spec.n:
        raise ValueError(f"need {spec.n} ratios, got {len(ratios)}")
    if min(ratios) <= 0:
        raise ValueError("size ratios must be positive")
    total = sum(ratios)
    rows = len(pool)
    sizes = [int(rows * r / total) for r in ratios]
    for i in range(rows - sum(sizes)):  # leftovers to the lowest ids
        sizes[i] += 1

    c = queues.class_count
    remaining = [queues.available(cls) for cls in range(c)]
    out = []
    for pid in range(1, spec.n + 1):
        size = sizes[pid - 1]
        base, extra = divmod(size, c)
        counts = [base] * c
        remaining = [remaining[cls] - base for cls in range(c)]
        for _ in range(extra):
            # greedy: send each rounding extra to the class with the most
            # pool slack, so balanced pools are consumed exactly
            cls = max((cls for cls in range(c) if counts[cls] == base),
                      key=lambda cls: (remaining[cls], -cls))
            counts[cls] += 1
            remaining[cls] -= 1
        idx = np.concatenate([queues.take(cls, counts[cls]) for cls in range(c)])
        out.append(_slice(pool, idx, pid))
    return out


def _flip_labels(parts: list[LabeledDataset], rates: list[float],
                 class_count: int, rng: np.random.Generator) -> None:
    for pid, (part, rate) in enumerate(zip(parts, rates), start=1):
        flips = int(round(rate * len(part)))
        if flips == 0:
            continue
        rows = rng.choice(len(part), size=flips, replace=False)
        # adding 1..C-1 modulo C guarantees the new label differs
        shift = rng.integers(1, class_count, size=flips)
        part.labels[rows] = (part.labels[rows] + shift) % class_count


def _add_feature_noise(parts: list[LabeledDataset], rates: list[float],
                       pool_std: np.ndarray, rng: np.random.Generator) -> None:
    for part, rate in zip(parts, rates):
        if rate == 0.0:
            continue
        noise = rng.standard_normal(part.features.shape) * (rate * pool_std)
        part.features = (part.features.astype(np.float64) + noise).astype(np.float32)


def partition(pool: LabeledDataset, spec: ScenarioSpec) -> list[LabeledDataset]:
    """Split ``pool`` into per-participant datasets according to ``spec``."""
    if len(pool) < spec.n:
        raise ValueError("pool smaller than the participant count")
    rng = np.random.default_rng(derive_seed(spec.seed, "partition", spec.kind.value))
    queues = _ClassQueues(pool, rng)
    kind = spec.kind
    if kind == ScenarioKind.SAME_DIST_SAME_SIZE:
        return _equal_balanced(pool, spec.n, queues)
    if kind == ScenarioKind.DIFF_DIST_SAME_SIZE:
        return _diff_dist(pool, spec, queues)
    if kind == ScenarioKind.SAME_DIST_DIFF_SIZE:
        return _diff_size(pool, spec, queues)
    if kind == ScenarioKind.NOISY_LABELS:
        parts = _equal_balanced(pool, spec.n, queues)
        rates = [float(r) for r in spec.params.get("flip_rates",
                                                   default_noise_rates(spec.n))]
        if len(rates) != spec.n:
            raise ValueError(f"need {spec.n} flip rates, got {len(rates)}")
        _flip_labels(parts, rates, queues.class_count, rng)
        return parts
    if kind == ScenarioKind.NOISY_FEATURES:
        parts = _equal_balanced(pool, spec.n, queues)
        rates = [float(r) for r in spec.params.get("noise_rates",
                                                   default_noise_rates(spec.n))]
        if len(rates) != spec.n:
            raise ValueError(f"need {spec.n} noise rates, got {len(rates)}")
        pool_std = pool.features.astype(np.float64).std(axis=0)
        _add_feature_noise(parts, rates, pool_std, rng)
        return parts
    raise ValueError(f"unhandled scenario kind {kind!r}")


def _read_idx(path: str | Path, expected_magic: int, dims: int) -> np.ndarray:
    raw = Path(path).read_bytes()
    header = 4 + 4 * dims
    if len(raw) < header:
        raise ValueError(f"{path}: truncated IDX header")
    magic = int.from_bytes(raw[:4], "big")
    if magic != expected_magic:
        raise ValueError(f"{path}: bad IDX magic {magic:#010x}, "
                         f"expected {expected_magic:#010x}")
    shape = tuple(int.from_bytes(raw[4 + 4 * i:8 + 4 * i], "big")
                  for i in range(dims))
    need = header + math.prod(shape)
    if len(raw) != need:
        raise ValueError(f"{path}: expected {need} bytes for shape {shape}, "
                         f"found {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(shape)


def load_idx(images_path: str | Path, labels_path: str | Path) -> LabeledDataset:
    """Load an IDX image/label pair; pixels scaled to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, dims=3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, dims=1)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    feats = images.reshape(images.shape[0], -1).astype(np.float32) / np.float32(255.0)
    return LabeledDataset(features=feats, labels=labels.astype(np.int64),
                          id=str(images_path))
