"""Small deterministic classifiers: softmax regression and a one-hidden-layer MLP.

Parameters travel as flat float32 vectors so they can be aggregated, diffed,
and serialized without knowing the layer layout; the layout is defined by a
ModelArchitecture.  Every result equals that of float64 arithmetic: losses,
gradients and aggregation run in float64 and are rounded to float32 only at
the storage boundary, and :func:`evaluate` decides each row of a wide test
set under certified error bounds that prove its prediction equal to the
float64 pass's, by one screen: from a coalition's first-layer products
(:class:`FirstLayerProducts`, made once per round) where the caller has
them, else from that pass's own first layer, a chunk of rows at a time, on
a test set prepared once, at its first evaluation.  A narrow set takes the
float64 pass itself, from a first layer the caller made for many models in
one stacked product (:func:`first_layers`) where it has one.  Every
operation is bit-reproducible for fixed inputs.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

INIT_SCALE = 0.05
# A test set of at least WIDE_ELEMENTS feature values (rows x input_dim) is
# wide (see LabeledDataset.prepared): evaluate screens it, and
# first_layer_products makes a round's products for it.  Below it, the plain
# float64 work is about as fast as the screen's bookkeeping, or faster.
WIDE_ELEMENTS = 1 << 19
# float64 values per chunk of test rows cast to float64, of rebuilt models,
# and of participants trained in one stacked pass (512 KiB)
CHUNK_ELEMENTS = 1 << 16
# Unit roundoff and smallest normal value of float64.
_F64 = (2.0 ** -53, 2.0 ** -1022)
_F32_MAX = float(np.finfo(np.float32).max)
_F64_MAX = float(np.finfo(np.float64).max)
# Covers the rounding of the bounds' own float64 arithmetic.
_SAFETY = 1.0 + 1e-9
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "dict": dict}


def check_types(values: dict, annotations: dict) -> None:
    """ValueError unless each value annotated int, float, str or dict has
    that type (a bool is no number, NaN no float, and an int past the float
    range no float); values of other annotations are not checked."""
    for name, value in values.items():
        kind = _TYPES.get(annotations[name])
        if kind and (isinstance(value, bool) or not isinstance(value, kind)
                     or kind is numbers.Real and value != value):  # NaN
            raise ValueError(f"{name} must be {annotations[name]}, got {value!r}")
        if kind is numbers.Real and isinstance(value, numbers.Integral):
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{name} must be {annotations[name]}, got an "
                                 "integer past the float range") from None


@dataclass(frozen=True)
class ModelArchitecture:
    """Layer layout: hidden_dim = 0 is softmax regression, else one ReLU hidden layer."""

    input_dim: int
    hidden_dim: int = 0
    class_count: int = 10

    def __post_init__(self) -> None:
        check_types(vars(self), ModelArchitecture.__annotations__)
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.hidden_dim < 0:
            raise ValueError("hidden_dim must be >= 0")
        if self.class_count < 2:
            raise ValueError("need at least two classes")

    # The sizes are computed once, at the first read, and kept in the
    # instance's __dict__, beside the fields: equality, hash, repr and
    # dataclasses.asdict read the fields alone.
    @functools.cached_property
    def param_count(self) -> int:
        if self.hidden_dim == 0:
            return self.input_dim * self.class_count + self.class_count
        return (self.input_dim * self.hidden_dim + self.hidden_dim
                + self.hidden_dim * self.class_count + self.class_count)

    @functools.cached_property
    def first_layer_size(self) -> int:
        """The first layer, weights then bias, (W1; b1) of d + 1 rows: where
        the rest of a flat vector, its tail, starts."""
        return (self.input_dim + 1) * (self.hidden_dim or self.class_count)


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
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus integer class labels.  Frozen; change no feature in
    place either, as :func:`evaluate` caches their preparation (not labels).
    Every feature is finite: a NaN or an infinity is a ValueError."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, np.float32))
        object.__setattr__(self, "labels", np.asarray(self.labels, np.int64))
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite: a value is NaN or infinite")
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

    @functools.cached_property
    def prepared(self) -> tuple[np.ndarray, np.ndarray | None]:
        """What :func:`evaluate` reads, built at the first evaluation: the
        features cast to float64 and None; on a set of :data:`WIDE_ELEMENTS`
        values or more, the float32 features (uncopied) and the 2-norm of each
        row x with a 1 appended, ||(x, 1)||, which are finite, as the features
        are (see :class:`FirstLayer`)."""
        features = np.ascontiguousarray(self.features)
        if features.size < WIDE_ELEMENTS:
            return np.asarray(features, dtype=np.float64), None
        return features, np.sqrt(np.einsum("ij,ij->i", features, features,
                                           dtype=np.float64) + 1.0)


def init_params(arch: ModelArchitecture, seed: int) -> np.ndarray:
    """Seeded uniform initialization in [-INIT_SCALE, INIT_SCALE], float32."""
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-INIT_SCALE, INIT_SCALE, size=arch.param_count)
    return flat.astype(np.float32)


def coalition_total(weights: Iterable[int]) -> float:
    """W_S, a coalition's total weight, as every rebuild and aggregation
    takes it: the members' integer weights summed exactly, then cast to
    float64 once.  ValueError unless it is positive."""
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("total coalition weight must be positive")
    return total


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


def _unpack_tail(arch: ModelArchitecture, tail: np.ndarray) -> tuple:
    """:func:`_unpack`'s W2 and b2 (none without a hidden layer) from a
    vector ``tail`` of the parameters from ``arch.first_layer_size`` on.
    (Training and a narrow evaluation without a first layer unpack a whole
    vector per call, so :func:`_unpack` keeps its own offsets rather than
    pay for a call of this.)"""
    h, c = arch.hidden_dim, arch.class_count
    if h == 0:
        return ()
    return tail[:h * c].reshape(h, c), tail[h * c:]


def _forward(layers: tuple, x: np.ndarray, product=np.dot):
    """One float64 forward pass of ``x`` through the views :func:`_unpack`
    gives: (post-ReLU hidden layer or None, logits).  Biases and the ReLU
    are applied in place on each fresh product, which gives the same bits
    as ``x @ w + b`` and ``np.maximum(pre, 0.0)``.  ``np.dot``
    gives ``@``'s bits on these 2-D float64 operands with less dispatch
    overhead, except for one row through a layer of one input (d = 1, or one
    hidden unit).  There an exact-zero input times a NaN or infinite weight
    gives 0 where ``@`` gives NaN (with two or more outputs), and a 1x1
    product's zero may differ in sign, which the bias add erases unless that
    bias is -0.0.  Training passes ``product=np.matmul`` and the stacks of
    :func:`_unpack_stack`, which run each member's slice as ``@`` does."""
    first = product(x, layers[0])
    first += layers[1]
    return _from_first_layer(layers[2:], first, product)


def _from_first_layer(layers: tuple, first: np.ndarray, product=np.dot):
    """:func:`_forward` from its first layer ``first``, the pre-activations,
    bias included, which the ReLU overwrites, through ``layers``, the views
    of W2 and b2 (none without a hidden layer)."""
    if not layers:
        return None, first
    np.maximum(first, 0.0, out=first)
    logits = product(first, layers[0])
    logits += layers[1]
    return first, logits


def predict_logits(arch: ModelArchitecture, params: np.ndarray,
                   features: np.ndarray) -> np.ndarray:
    """Class scores in float64, rows aligned with ``features``."""
    _check_params(arch, params)
    flat = np.asarray(params, dtype=np.float64)
    return _forward(_unpack(arch, flat), np.asarray(features, dtype=np.float64))[1]


def _unpack_stack(arch: ModelArchitecture, stack: np.ndarray) -> tuple:
    """:func:`_unpack`'s views of each row of a (G, P) stack of flat vectors:
    weights (G, inputs, outputs) and biases (G, 1, outputs)."""
    d, h, c = arch.input_dim, arch.hidden_dim, arch.class_count
    g = stack.shape[0]
    if h == 0:
        return stack[:, :d * c].reshape(g, d, c), stack[:, None, d * c:]
    off = d * h + h
    return (stack[:, :d * h].reshape(g, d, h), stack[:, None, d * h:off],
            stack[:, off:off + h * c].reshape(g, h, c), stack[:, None, off + h * c:])


def _gradient(layers: tuple, x: np.ndarray, y: np.ndarray,
              grads: tuple) -> np.ndarray:
    """For each member g of a stack, the gradient of the mean cross-entropy
    over its non-empty float64 batch ``x[g]`` (G x rows x d; labels ``y``, G
    x rows) at the parameters ``layers`` (:func:`_unpack_stack` views),
    written into ``grads`` (the same views of a gradient stack); returns the
    log-probabilities.  The loss is left to :func:`loss_and_gradient`, so
    training does not pay for it.  Each product is one ``np.matmul``, which
    runs each member's slice as a 2-D ``@`` does; the rest is element-wise
    or reduces a member's own values along one axis, so each member's
    gradient is bit-equal to that of a stack of one."""
    rows = x.shape[1]
    hidden, logits = _forward(layers, x, product=np.matmul)

    # log-sum-exp stabilized log-softmax, in place on the logits
    logits -= logits.max(axis=2, keepdims=True)
    log_probs = logits
    log_probs -= np.log(np.exp(logits).sum(axis=2, keepdims=True))

    d_logits = np.exp(log_probs)
    d_logits.reshape(y.size, -1)[np.arange(y.size), y.reshape(-1)] -= 1.0
    d_logits /= rows

    x_t = x.transpose(0, 2, 1)
    if hidden is None:
        np.matmul(x_t, d_logits, out=grads[0])
        d_logits.sum(axis=1, keepdims=True, out=grads[1])
        return log_probs
    d_hidden = np.matmul(d_logits, layers[2].transpose(0, 2, 1))
    # no gradient flows where the ReLU's input was <= 0, which is exactly
    # where its output is
    d_hidden[hidden <= 0.0] = 0.0
    np.matmul(x_t, d_hidden, out=grads[0])
    d_hidden.sum(axis=1, keepdims=True, out=grads[1])
    np.matmul(hidden.transpose(0, 2, 1), d_logits, out=grads[2])
    d_logits.sum(axis=1, keepdims=True, out=grads[3])
    return log_probs


def loss_and_gradient(arch: ModelArchitecture, params: np.ndarray,
                      features: np.ndarray, labels: np.ndarray
                      ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient (flat float64)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    flat = np.asarray(params, dtype=np.float64)[None]
    grad = np.empty_like(flat)
    log_probs = _gradient(_unpack_stack(arch, flat), x[None], y[None],
                          _unpack_stack(arch, grad))[0]
    return float(-log_probs[np.arange(x.shape[0]), y].mean()), grad[0]


def check_training(arch: ModelArchitecture, base: np.ndarray,
                   data: LabeledDataset) -> None:
    """ValueError unless ``base`` fits ``arch`` and ``data`` is a non-empty
    set of ``arch``'s width whose labels are ``arch``'s classes, as training
    needs."""
    _check_params(arch, base)
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if data.features.shape[1] != arch.input_dim:
        raise ValueError(
            f"dataset has {data.features.shape[1]} features, architecture "
            f"expects {arch.input_dim}")
    if data.labels.max() >= arch.class_count:
        raise ValueError(f"label {data.labels.max()} is past the model's "
                         f"{arch.class_count} classes")


def _stack_datasets(datasets: Sequence[LabeledDataset]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The features (sets x rows x d) and labels (sets x rows) of non-empty
    ``datasets`` of one length, as :func:`_train_stacked` reads them: a view,
    not a copy, of a lone set's."""
    if len(datasets) == 1:
        return datasets[0].features[None], datasets[0].labels[None]
    return (np.stack([data.features for data in datasets]),
            np.stack([data.labels for data in datasets]))


def _train_stacked(arch: ModelArchitecture, base: np.ndarray, features: np.ndarray,
                   labels: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """:func:`train_local` of each set in the stacks of :func:`_stack_datasets`
    (sets that :func:`check_training` accepts for ``base``) in one pass:
    float32 parameters, a row per set, each bit-equal to training that set
    alone.  One length means one shuffle visits the same batch positions in
    each; their parameters, batches and gradients are stacked along a
    leading axis (see :func:`_gradient`).  ValueError if a trained parameter
    is not finite.

    A step that overflows leaves an infinity or a NaN that every later step
    keeps (bar a pre-activation of -inf, which the ReLU makes the exact 0),
    as does the float32 cast of a parameter past its range, so the trained
    parameters alone tell whether training diverged.  Callers run this under
    ``np.errstate(over="ignore", invalid="ignore")``, which
    ``federation.run_federation`` enters once per run, so numpy warns of
    nothing on the way."""
    rows = features.shape[1]
    work = np.broadcast_to(base, (len(features), arch.param_count)).astype(np.float64)
    grad = np.empty_like(work)
    layers, grads = _unpack_stack(arch, work), _unpack_stack(arch, grad)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(rows)
        for start in range(0, rows, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _gradient(layers, np.take(features, batch, axis=1).astype(np.float64),
                      np.take(labels, batch, axis=1), grads)
            grad *= cfg.learning_rate
            work -= grad
    trained = work.astype(np.float32)
    if not np.isfinite(trained).all():
        raise ValueError("training diverged: a trained parameter is not finite")
    return trained


def train_local(arch: ModelArchitecture, base: np.ndarray,
                data: LabeledDataset, cfg: TrainConfig) -> np.ndarray:
    """Mini-batch SGD from ``base``; returns new float32 parameters.

    Bit-deterministic: shuffling is seeded per config, batches are visited in
    shuffle order, and the working precision is float64 with a single cast to
    float32 at the end.  A stack of one for :func:`_train_stacked`.
    """
    check_training(arch, base, data)
    with np.errstate(over="ignore", invalid="ignore"):
        return _train_stacked(arch, base, *_stack_datasets([data]), cfg)[0]


def gradient_update(local: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Element-wise difference local - base (float32)."""
    local = np.asarray(local, dtype=np.float32)
    base = np.asarray(base, dtype=np.float32)
    if local.shape != base.shape:
        raise ValueError(f"shape mismatch: {local.shape} vs {base.shape}")
    return local - base


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), for float64's unit roundoff u."""
    u = _F64[0]
    return k * u / (1 - k * u)


def _norm_bound(w: np.ndarray) -> np.ndarray:
    """Per column j of a float64 matrix ``w`` of d rows, a bound at least its
    exact 2-norm ||w_j||.  Each square rounds once (a float32 value's not at
    all), and their float64 sum, in any order, is within gamma_d of the exact
    one (Higham, 3.1), less at most 2d - 1 smallest normals for underflow,
    which the padding adds back.  The pad's add and the root round once each,
    so the root is at least (1 - gamma_{d+2}) ||w_j||, and the factor
    1 + gamma_{2d+4}, itself rounded and applied, more than makes up that."""
    d = w.shape[0]
    sums = np.einsum("ij,ij->j", w, w)
    sums += 2 * d * _F64[1]
    return np.sqrt(sums) * (1 + _gamma(2 * d + 4))


def _first_layer_error(d: int, w_norms: np.ndarray) -> tuple[np.ndarray, float]:
    """The float64 pass's first-layer bounds (slope per unit, floor) given
    ``w_norms``, as :class:`FirstLayer` states them."""
    return _gamma(d + 1) * w_norms, (2 * d + 2) * _F64[1]


class FirstLayer(NamedTuple):
    """One model's first layer on rows x of a wide test set: ``values``, the
    pre-activations, bias included (float64, units x rows).  With x' = (x, 1)
    and W1'_j = (W1_j; b1_j), unit j's weights over its bias, the exact
    x.W1_j + b1_j is x'.W1'_j, d + 1 terms; each value is within slope_j
    ||x'|| + ``floor`` of it, and ||W1'_j|| <= ``w_norms_j``.
    :func:`evaluate`'s screen works in ``values`` in place, then makes them
    read-only, spent: a first layer serves one evaluation, another is a
    ValueError.

    :meth:`FirstLayerProducts.combine` makes one on every row (see
    :func:`_margins`), and :func:`_screened_argmax` one from the float64
    product of the rows it scores again with float64 weights W1, plus b1,
    with w_norms = :func:`_norm_bound` (W1'), slope_j = gamma_{d+1}
    w_norms_j and a floor of 2d + 2 smallest normals
    (:func:`_first_layer_error`).  These bound the float64 pass's first
    layer too: each sums x'.W1'_j in float64 in some order, so within
    gamma_{d+1} |x'|.|W1'_j| <= gamma_{d+1} ||x'|| ||W1'_j|| of exact (see
    :func:`_margins`; Cauchy-Schwarz also gives ||x|| ||W1_j|| + |b1_j| <=
    ||x'|| ||W1'_j||, so the bias needs no term of its own), and underflow
    costs at most a smallest normal in each of d inexact products (1 b1_j is
    exact) and d adds.  :attr:`LabeledDataset.prepared` keeps each ||x'||."""

    values: np.ndarray
    slope: np.ndarray
    floor: float
    w_norms: np.ndarray


class LazyModel:
    """Float32 parameters of which only ``tail``, those from
    ``arch.first_layer_size`` on, are built up front; ``params``, every
    value, is built by ``build()`` at its first read.  :func:`evaluate`
    screens the model from ``tail`` and its :class:`FirstLayer`, and reads
    ``params`` only to score rows again or to run the float64 pass."""

    def __init__(self, tail: np.ndarray, build: Callable[[], np.ndarray]):
        self.tail = tail
        self._build = build

    @functools.cached_property
    def params(self) -> np.ndarray:
        return self._build()


def _first_layer_product(features: np.ndarray, layer: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """The float64 pre-activations (units x rows) of float32 rows with a
    float64 first layer ``layer``, (W1; b1): their product with W1, cast
    :data:`CHUNK_ELEMENTS` / d rows a slice, plus b1; into ``out`` if given."""
    weights = layer[:-1]
    if out is None:
        out = np.empty((weights.shape[1], len(features)))
    step = max(1, CHUNK_ELEMENTS // len(weights))
    for start in range(0, len(features), step):  # X.W1 is the faster GEMM
        out[:, start:start + step] = np.dot(
            features[start:start + step].astype(np.float64), weights).T
    out += layer[-1][:, None]
    return out


class FirstLayerProducts:
    """The float64 pre-activations Q_i = X'.B_i (units x rows) of a wide test
    set's rows X' = (X, 1) with the first layers B_i = (W1_i; b1_i) of n + 1
    flat parameter vectors v_i (a base, then one update per participant, of
    integer weight w_i >= 0), and each B_i's column 2-norms, made once (see
    :func:`first_layer_products`).  The vectors may be float32, as a round's
    record holds them: each block is cast to float64 in its turn, and the
    rows a chunk at a time, so neither every float64 block nor a float64
    copy of X is held.  Q_0 is kept as it is, and each update's row as
    P_i = w_i (Q_0 + Q_i), in float64.

    A coalition S's model is fl32(v_0 + sum_{i in S} c_i v_i), with
    c_i = w_i / W_S the float64 shares of :meth:`coefficients` and the
    products and their sum taken in float64, in any order (as
    :class:`~fedshapley.federation.RoundStack` rebuilds it).  Since
    W_S = sum_{i in S} w_i, its first layer is R_S / W_S, with the running
    sum R_S = sum_{i in S} P_i, bias included, to within bounds that
    :meth:`combine` gives.  ``combine`` keeps the R_S it made last, one
    row: a walk adds one member at a time, so the next coalition often holds
    that one, and costs one add of P_p per member p it adds."""

    def __init__(self, arch: ModelArchitecture, vectors: Sequence[np.ndarray],
                 features: np.ndarray, max_abs: np.ndarray, weights: Sequence[int]):
        d, width = arch.input_dim, arch.hidden_dim or arch.class_count
        self._shape = (width, features.shape[0])
        self._weights = list(weights)
        products = np.empty((len(vectors), *self._shape))
        squares = np.empty((len(vectors), width))
        for i, (vector, out) in enumerate(zip(vectors, products)):
            layer = vector[:arch.first_layer_size].reshape(-1, width).astype(np.float64)
            squares[i] = np.einsum("ij,ij->j", layer, layer)
            _first_layer_product(features, layer, out)
            if i:  # P_i
                out += products[0]
                out *= float(self._weights[i - 1])
        self._products = products.reshape(len(vectors), -1)
        # R_S of the coalition whose bitmask (bit i for participant i) is
        # _summed; 0: none yet
        self._sum = np.empty(self._products.shape[1])
        self._summed = 0
        self._norms = np.sqrt(squares)
        self._max_abs = max_abs
        # slope_j, w_norms_j: these factors of s_j = sum_i c_i ||B_ij||, plus
        # the subnormal term (see _margins)
        u32 = 2.0 ** -24  # float32's unit roundoff
        n, g_d = len(vectors) - 1, _gamma(d + 1)
        cast = u32 * (1 + _gamma(n + 1)) + _gamma(n + 1)
        self._factors = np.array([[cast + g_d + _gamma(n + 7) * (1 + g_d)],
                                  [1 + cast]])
        self._subnormal = math.sqrt(d + 1) * 2.0 ** -150
        self._floor = (4 * d + 2 * n + 12) * _F64[1]

    def _total(self, ids: Sequence[int]) -> float:
        """W_S, the total weight of the non-empty coalition ``ids``, as the
        rebuild sums it."""
        return coalition_total(self._weights[i - 1] for i in ids)

    def coefficients(self, ids: Sequence[int]) -> np.ndarray:
        """The coalition ``ids``'s model as a weighted sum of the vectors
        (float64, n + 1 values): 1 for the base, then the w_i / W_S that
        every rebuild gives each member i, 0 for the rest.  No ids give the
        base alone, the empty coalition's model."""
        coefficients = np.zeros(len(self._products))
        coefficients[0] = 1.0
        if ids:
            total = self._total(ids)
            for i in ids:
                coefficients[i] = self._weights[i - 1] / total
        return coefficients

    def _running_sum(self, ids: Sequence[int]) -> np.ndarray:
        """R_S for the non-empty coalition ``ids`` (members in 1..n), kept
        for the next call: where the last coalition summed is a subset of
        this one, one add per missing member, else a sum of its members' rows."""
        rows, mask, last = self._products, sum(1 << i for i in ids), self._summed
        if last and mask & last == last:
            for i in ids:
                if not last >> i & 1:
                    self._sum += rows[i]
        elif len(ids) == 1:
            np.copyto(self._sum, rows[ids[0]])
        else:
            np.add(rows[ids[0]], rows[ids[1]], out=self._sum)
            for i in ids[2:]:
                self._sum += rows[i]
        self._summed = mask
        return self._sum

    def combine(self, ids: Sequence[int] = ()) -> FirstLayer | None:
        """The first layer of the coalition ``ids``'s model (ascending, in
        1..n; none for the base alone), or None where its float32 parameters
        could overflow."""
        c = self.coefficients(ids)  # none negative
        if not np.dot(c, self._max_abs) < _F32_MAX / 2:
            return None
        if ids:
            values = np.multiply(self._running_sum(ids), 1.0 / self._total(ids))
        else:
            values = self._products[0].copy()
        slope, w_norms = self._factors * np.dot(c, self._norms) + self._subnormal
        return FirstLayer(values.reshape(self._shape), slope, self._floor, w_norms)


def first_layer_products(arch: ModelArchitecture, vectors: Sequence[np.ndarray],
                         test: LabeledDataset, weights: Sequence[int]
                         ) -> FirstLayerProducts | None:
    """The :class:`FirstLayerProducts` of ``test``'s rows with ``vectors``
    (flat float32 or float64 parameters of ``arch``, such as a round
    record's blocks: a base, then one update per weight), where
    :func:`evaluate` reads them: a wide set, every vector's value finite, no
    weight negative and every sum of weighted products far inside float64's
    range; else None.  The set is checked first, before any vector is read."""
    features, norms = test.prepared
    if norms is None or any(v.shape != (arch.param_count,) for v in vectors):
        return None
    max_abs = np.array([np.abs(v).max() for v in vectors], dtype=np.float64)
    if not np.isfinite(max_abs).all():
        return None
    # |P_i| <= w_i sqrt(d + 1) (max|v_0| + max|v_i|) ||x'||, up to rounding
    scales = np.array(weights, dtype=np.float64)
    reach = np.dot(scales, max_abs[1:] + max_abs[0]) * math.sqrt(arch.input_dim + 1)
    if not (scales >= 0).all() or not reach * norms.max() < _F64_MAX / 4:
        return None
    return FirstLayerProducts(arch, vectors, features, max_abs, weights)


def _margins(slope: np.ndarray, offset: float, norms: np.ndarray,
             hidden: np.ndarray | None, others: tuple) -> np.ndarray:
    """One margin per row (float64), for rows x of norms ``norms``, each
    ||x'|| with x' = (x, 1), that covers each of the row's logits' distance
    from the float64 pass's logit.  For each first-layer unit j, slope_j
    ||x'|| + ``offset`` bounds e1 + e1', the first pass's and the float64
    pass's distances from the exact unit x'.W1'_j, W1'_j = (W1_j; b1_j)
    (before the ReLU; see :class:`FirstLayer`).  ``hidden`` is the first
    pass's hidden layer (float64, units x rows; None without one);
    ``others`` holds |W2| and |b2| (float64; nothing without a hidden
    layer).

    An inner product of n terms, summed in any order, with or without FMA,
    is within gamma_n |x|.|y| of the exact one, gamma_n = nu / (1 - nu)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1),
    and each layer adds 2n + 2 times the smallest normal value, which covers
    underflow, gradual or flushed to zero.  So the float64 pass (u = 2^-53)
    computes a first-layer unit, x'.W1'_j of d + 1 terms, within the bounds
    :class:`FirstLayer` states (:func:`_first_layer_error`), as does the
    pass that scores again the rows a first pass leaves, whose margins
    follow by this proof too.

    From :class:`FirstLayerProducts` (float64, u = 2^-53), for a coalition S
    of m <= n members: c_i = fl(w_i / W) are the rebuild's shares of the
    weights w_i >= 0 and total W, cast to float64 as the rebuild casts them,
    c_0 = 1, B_i = (W1_i; b1_i) of d + 1 rows, A = sum_i c_i B_i, s_j =
    sum_i c_i ||B_ij|| and g = gamma_{n+1}.  The rebuild's float64 sum is
    within g sum_i c_i |B_i| of A, and its cast to float32 adds u32 = 2^-24
    of that sum and up to 2^-150 (half a subnormal step) per value, so
    ||W1'_j - A_j|| <= (u32 (1 + g) + g) s_j + sqrt(d + 1) 2^-150 and
    ||W1'_j|| <= w_norms_j = s_j + that.  Each Q_i = x'.B_ij, summed as
    x.W1_ij + b1_ij, is within gamma_{d+1} ||x'|| ||B_ij|| of exact.  The
    values are fl(R fl(1 / W)), R the float64 sum, in any order, of the
    members' rows P_i = fl(w_i fl(Q_0 + Q_i)); a member's term takes at most
    m + 4 roundings (two make P_i, m - 1 adds, the scale, and the two that
    part w_i fl(1 / W) from c_i), so by Higham's Lemma 3.1 the values are
    sum_{i in S} c_i (Q_0 + Q_i) (1 + theta_i), |theta_i| <= gamma_{m+4}.
    With w_i >= 0, sum_{i in S} c_i is within gamma_3 of 1 (each cast
    weight, the cast total and each share round once), even where weights
    past 2^53 make the cast weights' sum differ from the cast total.  So the
    values are within gamma_{m+7} (|Q_0| + sum_{i in S} c_i |Q_i|) <= g' (1
    + gamma_{d+1}) ||x'|| s_j of Q_0 + sum_{i in S} c_i Q_i, g' =
    gamma_{n+7} (the empty coalition's are Q_0 itself), and within slope_j
    ||x'|| of x'.W1'_j, slope_j = (u32 (1 + g) + g + gamma_{d+1} + g' (1 +
    gamma_{d+1})) s_j + sqrt(d + 1) 2^-150.  The floor, 4d + 2n + 12
    smallest normals, covers underflow: up to 2d + 4 in each product, which
    reaches the values times c_i (Q_i) or sum_{i in S} c_i (Q_0), and one in
    each later operation, times c_i or 1 / W (W is at least the count of
    members of non-zero weight; one of weight 0 adds an exact 0).  The guard
    of :meth:`FirstLayerProducts.combine` keeps the cast from overflowing,
    and :func:`first_layer_products` every sum of rows from passing
    float64's range.

    Without a hidden layer the units are the logits, and e1 + e1' is class
    c's margin.  With one, the ReLU is 1-Lipschitz, so the first pass's
    logit c is within E = gamma (|h|.|W2_c| + |b2_c|) + e1.|W2_c| of exact,
    gamma = gamma_{h+1}.  The float64 pass's hidden layer is within e1 + e1'
    of the first pass's h, so its logit is within E' = gamma ((|h| + e1 +
    e1').|W2_c| + |b2_c|) + e1'.|W2_c| of exact, and E + E' is class c's
    margin.  |h|.|W2_c|, summed in float64, falls short of the exact sum by
    at most a factor 1 - gamma and 2h smallest normals.  The safety factor
    covers the rounding of these bounds' own float64 arithmetic, whose
    relative error is of order (d + n) 2^-53.

    A row's one margin covers every class by the same proof, term by term.
    Without a hidden layer it is max_j slope_j ||x'|| + offset, at least
    each class's margin, as rounding is monotone.  With one, |h|.|W2_c|
    becomes max_c |W2_c|.h, one matrix-vector product: h >= 0 after the
    ReLU, so its exact value is at least every class's exact |h|.|W2_c|,
    and its float64 sum falls short of that by no more than the factor and
    the smallest normals above.  The terms in e1 + e1' and |b2| are taken at
    their largest class.  So the proof above holds unchanged, and a larger
    margin only sends more rows to the float64 pass (see :func:`_decide`)."""
    if hidden is None:
        err = np.multiply(slope.max(), norms)
        err += offset
    else:
        abs_w2, abs_b2 = others
        h, tiny = abs_w2.shape[0], _F64[1]
        gamma = _gamma(h + 1)
        lift, both = 1 + gamma, 2 * gamma  # both: in E and in E'
        err = np.dot(abs_w2.max(axis=1), hidden)
        err *= both / (1 - gamma)
        # (e1 + e1').|W2_c| is rank one in the rows, plus a constant
        err += lift * np.dot(slope, abs_w2).max() * norms
        err += (np.max(lift * offset * abs_w2.sum(axis=0) + both * abs_b2)
                + (2 * h + 2) * 2 * tiny + 2 * h * tiny * both / (1 - gamma))
    err *= _SAFETY
    return err


def _decide(logits: np.ndarray, margins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class of each row (of class-major ``logits``, classes x rows,
    float64, which it overwrites) that is decided, and the rows where the
    float64 pass's argmax could differ, given one margin per row
    (:func:`_margins`) that covers each logit of the row.  A row is decided
    when one class's lowest value (logit less margin) beats every other
    class's highest: that class is then the row's argmax in either pass.  A
    row with no such class at all can only hold NaN, and is undecided too;
    an undecided row's class is meaningless.  Each margin first grows by
    2^-52 times the row's largest logit magnitude, which covers the rounding
    of these float64 sums (given the safety factor of :func:`_margins`).  A
    larger margin never decides a row that a smaller one leaves, and never
    decides it differently.

    Rounding is monotone, so the largest lowest value is the top logit less
    the margin.  Each class whose highest value reaches it is a rival; a
    decided row has one, its class, so one product of the rivals with the
    class counts and indices (exact in float64) gives both."""
    pad = np.abs(logits).max(axis=0)
    pad *= 2 * _F64[0]
    margins += pad
    low = logits.max(axis=0) - margins
    high = np.add(logits, margins, out=logits)
    classes = len(logits)
    count, picked = np.dot(np.array([np.ones(classes), np.arange(classes)]),
                           high >= low)
    return picked.astype(np.intp), np.flatnonzero(count != 1)


def _screen(arch: ModelArchitecture, tail: np.ndarray, first_layer: FirstLayer,
            norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_decide` of the rows of norms ``norms`` on which ``first_layer``
    holds a model's first layer, not yet spent (this spends it), and
    ``tail`` its parameters after it (float32 or float64): logits W2^T
    relu(values) + b2, class-major, under the :func:`_margins` of the first
    layer's bounds plus the float64 pass's own (:func:`_first_layer_error`)."""
    values = first_layer.values
    if not values.flags.writeable:
        raise ValueError("a first layer serves one evaluation")
    layers = _unpack_tail(arch, tail)
    others = tuple(np.abs(a).astype(np.float64) for a in layers)
    slope, floor = _first_layer_error(arch.input_dim, first_layer.w_norms)
    hidden, logits = None, values
    if layers:
        hidden = np.maximum(values, 0.0, out=values)
        logits = np.dot(layers[0].T, hidden)
        logits += layers[1][:, None]
    decided = _decide(logits, _margins(first_layer.slope + slope,
                                       first_layer.floor + floor, norms,
                                       hidden, others))
    values.flags.writeable = False
    return decided


def _screened_argmax(arch: ModelArchitecture, model: LazyModel,
                     features: np.ndarray, norms: np.ndarray,
                     first_layer: FirstLayer | None) -> np.ndarray:
    """The argmax of every row of ``predict_logits(arch, model.params,
    features)`` for float32 rows of norms ``norms``.  Every row is decided
    by :func:`_screen`: first, given ``first_layer`` (these parameters'
    first layer on the rows), from it and ``model.tail``; the rows it
    leaves, gathered once, or all without one, as slices, from the float64
    pass's own first layer of them (:func:`_first_layer_product`), whose
    bounds :class:`FirstLayer` states.  The float64 pass scores the whole
    set where a parameter is not finite, or a row is still undecided (exact
    ties, all-zero parameters)."""
    if first_layer is None:
        top, rows = np.empty(len(features), dtype=np.intp), slice(None)
    else:
        top, rows = _screen(arch, model.tail, first_layer, norms)
        if not rows.size:
            return top
    flat = np.asarray(model.params, dtype=np.float64)
    if np.isfinite(flat).all():
        layer = flat[:arch.first_layer_size].reshape(arch.input_dim + 1, -1)
        w_norms = _norm_bound(layer)
        first = FirstLayer(_first_layer_product(features[rows], layer),
                           *_first_layer_error(arch.input_dim, w_norms), w_norms)
        top[rows], still = _screen(arch, flat[arch.first_layer_size:], first,
                                   norms[rows])
        if not still.size:
            return top
    return predict_logits(arch, flat, features).argmax(axis=1)


def first_layer_chunk(arch: ModelArchitecture, test: LabeledDataset) -> int:
    """How many models one :func:`first_layers` call takes on ``test``: as
    many as keep their first layers within :data:`CHUNK_ELEMENTS` values,
    at least one; 0 where :func:`evaluate` takes no such first layer (a
    wide set, see :attr:`LabeledDataset.prepared`) or the stacked product
    could differ from the float64 pass's (a layer of one input, d = 1: see
    :func:`_forward`; there a lone row's exact-zero input times an infinite
    weight makes ``np.matmul`` warn, and ``np.dot`` not)."""
    features, norms = test.prepared
    if norms is not None or arch.input_dim == 1:
        return 0
    width = arch.hidden_dim or arch.class_count
    return max(1, CHUNK_ELEMENTS // max(1, len(features) * width))


def first_layers(arch: ModelArchitecture, stack: np.ndarray,
                 test: LabeledDataset) -> np.ndarray:
    """The float64 pass's first layer on the rows of a narrow set ``test``,
    bias included, of each model of an (m, P) ``stack`` of flat parameter
    vectors (cast to float64 once): m x rows x units, each what
    :func:`evaluate` takes as ``first_layer``.  One ``np.matmul`` makes
    them, which runs each model's slice as the 2-D product that
    :func:`_forward`'s ``np.dot`` runs, bit for bit, where
    :func:`first_layer_chunk` is not 0."""
    weights, bias = _unpack_stack(arch, np.asarray(stack, dtype=np.float64))[:2]
    out = np.matmul(test.prepared[0], weights)
    out += bias
    return out


def evaluate(arch: ModelArchitecture, params: np.ndarray | LazyModel,
             test: LabeledDataset,
             first_layer: FirstLayer | np.ndarray | None = None) -> float:
    """Top-1 accuracy on ``test``; argmax ties resolve to the lowest class.

    ``first_layer``, if given, is these parameters' first layer on ``test``.
    A narrow set takes the float64 forward pass on its cached float64
    features, from ``first_layer`` where the caller passes one: that pass's
    own first layer, rows x units, bias included (:func:`first_layers`),
    which the ReLU may overwrite; only the parameters after it are read
    then.  On a wide set (see :attr:`LabeledDataset.prepared`), every model
    takes :func:`_screened_argmax`: screened from ``first_layer`` where the
    caller passes one, a bounded :class:`FirstLayer`
    (:meth:`FirstLayerProducts.combine`), not yet spent by another
    evaluation, and otherwise scored by the float64 pass a chunk of rows at a
    time, under certified bounds, without a float64 copy of the set.  A
    :class:`LazyModel` is built in full only where that pass runs.  Only a
    row still undecided or a parameter that is not finite sends the whole
    set through the float64 pass at once.  The accuracy is always that of
    the float64 forward pass."""
    features, norms = test.prepared
    rows = len(features)
    if rows == 0:
        raise ValueError("cannot evaluate on an empty test set")
    if norms is None and first_layer is None:
        full = params.params if isinstance(params, LazyModel) else params
        predictions = predict_logits(arch, full, features).argmax(axis=1)
    elif norms is None:
        lazy = isinstance(params, LazyModel)
        if not lazy:
            _check_params(arch, params)
        shape = (rows, arch.hidden_dim or arch.class_count)
        if getattr(first_layer, "shape", None) != shape:
            raise ValueError(f"a narrow set's first layer is an array of shape {shape}")
        logits = first_layer  # a softmax model's first layer is its logits
        if arch.hidden_dim:
            tail = params.tail if lazy else params[arch.first_layer_size:]
            logits = _from_first_layer(
                _unpack_tail(arch, np.asarray(tail, dtype=np.float64)), first_layer)[1]
        predictions = logits.argmax(axis=1)
    else:
        if not isinstance(first_layer, (FirstLayer, type(None))):
            raise ValueError("a wide set's first layer is a FirstLayer")
        if not isinstance(params, LazyModel):
            _check_params(arch, params)
            params = LazyModel(params[arch.first_layer_size:], lambda full=params: full)
        predictions = _screened_argmax(arch, params, features, norms, first_layer)
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
