"""Small deterministic classifiers: softmax regression and a one-hidden-layer MLP.

Parameters travel as flat float32 vectors so they can be aggregated, diffed,
and serialized without knowing the layer layout; the layout is defined by a
ModelArchitecture.  All arithmetic that feeds results (losses, gradients,
aggregation) runs in float64 and is round-to-float32 only at the storage
boundary, keeping every operation bit-reproducible for fixed inputs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

INIT_SCALE = 0.05
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str,
          "str | None": (str, type(None))}


def check_types(values: dict, annotations: dict) -> None:
    """ValueError unless each value annotated int, float, str or str | None has
    that type (a bool is no number); values of other annotations are not checked."""
    for name, value in values.items():
        kind = _TYPES.get(annotations[name])
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"{name} must be {annotations[name]}, got {value!r}")


@dataclass(frozen=True)
class ModelArchitecture:
    """Layer layout: hidden_dim = 0 means plain softmax regression."""

    input_dim: int
    hidden_dim: int = 0
    class_count: int = 10
    activation: str = "relu"

    def __post_init__(self) -> None:
        check_types(vars(self), ModelArchitecture.__annotations__)
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.hidden_dim < 0:
            raise ValueError("hidden_dim must be >= 0")
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def param_count(self) -> int:
        if self.hidden_dim == 0:
            return self.input_dim * self.class_count + self.class_count
        return (self.input_dim * self.hidden_dim + self.hidden_dim
                + self.hidden_dim * self.class_count + self.class_count)


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        check_types(vars(self), TrainConfig.__annotations__)
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


@dataclass
class LabeledDataset:
    """Feature matrix plus integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    id: str = ""

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D vector")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"row mismatch: {self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} labels")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")

    def __len__(self) -> int:
        return self.features.shape[0]


# a plain class: as a dataclass it would add about 0.7 ms to every import
class EvalSet:
    """A test set prepared for many evaluations: its features already cast to
    float64, so :func:`evaluate` casts nothing.  Build it with :func:`eval_set`."""

    __slots__ = ("features", "labels")

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        self.features = features
        self.labels = labels

    def __len__(self) -> int:
        return self.labels.shape[0]


def eval_set(test: LabeledDataset | EvalSet) -> EvalSet:
    """``test`` prepared for repeated :func:`evaluate` calls (one float64 cast;
    a prepared set is returned as it is)."""
    if isinstance(test, EvalSet):
        return test
    return EvalSet(np.asarray(test.features, dtype=np.float64), test.labels)


def init_params(arch: ModelArchitecture, seed: int) -> np.ndarray:
    """Seeded uniform initialization in [-INIT_SCALE, INIT_SCALE], float32."""
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-INIT_SCALE, INIT_SCALE, size=arch.param_count)
    return flat.astype(np.float32)


def _check_params(arch: ModelArchitecture, params: np.ndarray) -> None:
    if params.shape != (arch.param_count,):
        raise ValueError(
            f"parameter vector has shape {params.shape}, architecture needs "
            f"({arch.param_count},)")


def _unpack(arch: ModelArchitecture, flat: np.ndarray):
    """Split a flat float64 vector into layer weight/bias views."""
    d, h, c = arch.input_dim, arch.hidden_dim, arch.class_count
    if h == 0:
        w = flat[:d * c].reshape(d, c)
        b = flat[d * c:]
        return w, b
    off = 0
    w1 = flat[off:off + d * h].reshape(d, h); off += d * h
    b1 = flat[off:off + h]; off += h
    w2 = flat[off:off + h * c].reshape(h, c); off += h * c
    b2 = flat[off:]
    return w1, b1, w2, b2


def _forward(layers: tuple, x: np.ndarray):
    """One forward pass of float64 ``x`` through the views :func:`_unpack`
    gives: (post-ReLU hidden layer or None, logits).  Biases and the ReLU are
    applied in place on each fresh product, which gives the same bits as
    ``x @ w + b`` and ``np.maximum(pre, 0.0)``.  ``np.dot`` makes the same
    BLAS call as ``@`` on these 2-D float64 operands, with less dispatch
    overhead.  The two differ only in the sign of an exact-zero 1x1 product
    (one row, one input, one hidden unit), which the bias add erases unless
    that bias is -0.0."""
    if len(layers) == 2:
        w, b = layers
        logits = np.dot(x, w)
        logits += b
        return None, logits
    w1, b1, w2, b2 = layers
    hidden = np.dot(x, w1)
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = np.dot(hidden, w2)
    logits += b2
    return hidden, logits


def predict_logits(arch: ModelArchitecture, params: np.ndarray,
                   features: np.ndarray) -> np.ndarray:
    """Class scores in float64, rows aligned with ``features``."""
    _check_params(arch, params)
    flat = np.asarray(params, dtype=np.float64)
    return _forward(_unpack(arch, flat), np.asarray(features, dtype=np.float64))[1]


def _gradient(arch: ModelArchitecture, flat: np.ndarray, x: np.ndarray,
              y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (flat float64) of the mean cross-entropy over a non-empty
    float64 batch, and the log-probabilities it came from.  The loss itself
    is left to :func:`loss_and_gradient`, so training does not pay for it."""
    rows = x.shape[0]
    layers = _unpack(arch, flat)
    hidden, logits = _forward(layers, x)

    # log-sum-exp stabilized log-softmax, in place on the logits
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits
    log_probs -= np.log(np.exp(logits).sum(axis=1, keepdims=True))

    d_logits = np.exp(log_probs)
    d_logits[np.arange(rows), y] -= 1.0
    d_logits /= rows

    if hidden is None:
        return log_probs, np.concatenate([(x.T @ d_logits).reshape(-1),
                                          d_logits.sum(axis=0)])
    d_hidden = d_logits @ layers[2].T
    # no gradient flows where the ReLU's input was <= 0, which is exactly
    # where its output is
    d_hidden[hidden <= 0.0] = 0.0
    return log_probs, np.concatenate([
        (x.T @ d_hidden).reshape(-1), d_hidden.sum(axis=0),
        (hidden.T @ d_logits).reshape(-1), d_logits.sum(axis=0)])


def loss_and_gradient(arch: ModelArchitecture, params: np.ndarray,
                      features: np.ndarray, labels: np.ndarray
                      ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient (flat float64)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    log_probs, grad = _gradient(arch, np.asarray(params, dtype=np.float64), x, y)
    return float(-log_probs[np.arange(x.shape[0]), y].mean()), grad


def train_local(arch: ModelArchitecture, base: np.ndarray,
                data: LabeledDataset, cfg: TrainConfig) -> np.ndarray:
    """Mini-batch SGD from ``base``; returns new float32 parameters.

    Bit-deterministic: shuffling is seeded per config, batches are visited in
    shuffle order, and the working precision is float64 with a single cast to
    float32 at the end.
    """
    _check_params(arch, base)
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if data.features.shape[1] != arch.input_dim:
        raise ValueError(
            f"dataset has {data.features.shape[1]} features, architecture "
            f"expects {arch.input_dim}")
    work = np.asarray(base, dtype=np.float64).copy()
    rng = np.random.default_rng(cfg.seed)
    rows = len(data)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(rows)
        for start in range(0, rows, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grad = _gradient(arch, work,
                             data.features[batch].astype(np.float64),
                             data.labels[batch])[1]
            work = work - cfg.learning_rate * grad
    return work.astype(np.float32)


def gradient_update(local: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Element-wise difference local - base (float32)."""
    local = np.asarray(local, dtype=np.float32)
    base = np.asarray(base, dtype=np.float32)
    if local.shape != base.shape:
        raise ValueError(f"shape mismatch: {local.shape} vs {base.shape}")
    return local - base


def evaluate(arch: ModelArchitecture, params: np.ndarray,
             test: LabeledDataset | EvalSet) -> float:
    """Top-1 accuracy on ``test``; argmax ties resolve to the lowest class.

    A test set prepared by :func:`eval_set` is used as it is; a
    :class:`LabeledDataset`'s features are cast to float64 on every call."""
    rows = len(test)
    if rows == 0:
        raise ValueError("cannot evaluate on an empty test set")
    predictions = predict_logits(arch, params, test.features).argmax(axis=1)
    return int(np.count_nonzero(predictions == test.labels)) / rows


def finite_difference_check(arch: ModelArchitecture, params: np.ndarray,
                            data: LabeledDataset, epsilon: float = 1e-4) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    if len(data) > 64:
        raise ValueError("finite differences are for small probe sets (<= 64 rows)")
    flat = np.asarray(params, dtype=np.float64).copy()
    _, analytic = loss_and_gradient(arch, flat, data.features, data.labels)
    worst = 0.0
    for idx in range(flat.size):
        saved = flat[idx]
        flat[idx] = saved + epsilon
        up, _ = loss_and_gradient(arch, flat, data.features, data.labels)
        flat[idx] = saved - epsilon
        down, _ = loss_and_gradient(arch, flat, data.features, data.labels)
        flat[idx] = saved
        numeric = (up - down) / (2.0 * epsilon)
        scale = max(abs(analytic[idx]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[idx] - numeric) / scale)
    return worst
