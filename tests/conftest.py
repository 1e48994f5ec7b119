"""Shared builders for the test suite.

Everything here is deterministic: same arguments -> bit-identical datasets,
logs, and models.  Tests freeze oracle values against these builders.
"""
from __future__ import annotations

import numpy as np

from fedshapley import (
    GradientLog,
    LabeledDataset,
    ModelArchitecture,
    Participant,
    ScenarioKind,
    ScenarioSpec,
    SyntheticSource,
    TrainConfig,
    fedavg_aggregate,
    generate_source,
    init_params,
    partition,
    run_federation,
    train_local,
)
from fedshapley import models
from fedshapley.federation import RoundRecord, round_vectors
from fedshapley.models import FirstLayerProducts, first_layer_products

_ACCEPTANCE_OUTCOMES: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _ACCEPTANCE_OUTCOMES[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for name, outcome in _ACCEPTANCE_OUTCOMES.items():
        tag = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{tag}  {name}")


def gaussian_blobs(rows_per_class: int, input_dim: int, class_count: int,
                   seed: int, spread: float = 2.0,
                   noise_seed: int | None = None) -> LabeledDataset:
    """Well-separated class blobs; spread scales the mean separation.  The
    means come from ``seed``, and the rows' noise from ``noise_seed`` when
    given: other rows around the same means, as a test set's are."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((class_count, input_dim)) * spread
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
    feats = []
    labels = []
    for c in range(class_count):
        feats.append(means[c] + rng.standard_normal((rows_per_class, input_dim)))
        labels.append(np.full(rows_per_class, c, dtype=np.int64))
    return LabeledDataset(np.concatenate(feats).astype(np.float32),
                          np.concatenate(labels))


def split_participants(data: LabeledDataset, n: int) -> list[Participant]:
    """Deal rows round-robin into n equally sized participant shards."""
    parts = []
    for i in range(n):
        idx = np.arange(i, len(data), n)
        parts.append(Participant(
            id=i + 1, dataset=LabeledDataset(data.features[idx], data.labels[idx])))
    return parts


def quick_log(n: int = 3, rounds: int = 2, seed: int = 0, lr: float = 0.1,
              input_dim: int = 5, class_count: int = 3,
              rows_per_class: int = 12, hidden_dim: int = 0,
              ) -> tuple[GradientLog, LabeledDataset, list[Participant]]:
    """Small federation log for estimator tests (seconds, not minutes)."""
    arch = ModelArchitecture(input_dim=input_dim, hidden_dim=hidden_dim,
                             class_count=class_count)
    train = gaussian_blobs(rows_per_class * n, input_dim, class_count, seed)
    test = gaussian_blobs(8, input_dim, class_count, seed, noise_seed=seed + 1)
    parts = split_participants(train, n)
    cfg = TrainConfig(local_epochs=1, batch_size=16, learning_rate=lr,
                      seed=seed + 100)
    log = run_federation(parts, arch, cfg, rounds=rounds, init_seed=seed + 7)
    return log, test, parts


def scenario_log(kind: ScenarioKind, n: int = 10, rounds: int = 10,
                 seed: int = 1, lr: float = 0.1, train_per_class: int = 100,
                 test_per_class: int = 10,
                 ) -> tuple[GradientLog, LabeledDataset, list[Participant]]:
    """Benchmark-scale run: synthetic source -> partition -> federation."""
    src = SyntheticSource(input_dim=16, class_count=10, spread=1.0, seed=seed)
    pool, test = generate_source(src, train_per_class=train_per_class,
                                 test_per_class=test_per_class)
    shards = partition(pool, ScenarioSpec(kind=kind, n=n, seed=seed))
    parts = [Participant(id=i + 1, dataset=d) for i, d in enumerate(shards)]
    cfg = TrainConfig(local_epochs=1, batch_size=32, learning_rate=lr,
                      seed=seed + 100)
    log = run_federation(parts, arch=ModelArchitecture(16, 0, 10), cfg=cfg,
                         rounds=rounds, init_seed=seed + 7)
    return log, test, parts


# logs that test_estimators.py and test_fast_paths.py score: name -> (log, test set)
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


def bits(value):
    """``value``'s type, shape and bytes (each field's, for a tuple)."""
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    if value is None:
        return None
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def same_bits(a, b) -> bool:
    return bits(a) == bits(b)


# --- the float64 reference -----------------------------------------------------------
# The kernels' first implementations, kept here as the one reference that every
# differential test compares the library with: a fresh float64 copy of the
# features on every call, biases and the ReLU added into new temporaries, and the
# loss computed on every training batch.


def ref_unpack(arch, flat):
    d, h, c = arch.input_dim, arch.hidden_dim, arch.class_count
    if h == 0:
        return flat[:d * c].reshape(d, c), flat[d * c:]
    off = 0
    w1 = flat[off:off + d * h].reshape(d, h); off += d * h
    b1 = flat[off:off + h]; off += h
    w2 = flat[off:off + h * c].reshape(h, c); off += h * c
    b2 = flat[off:]
    return w1, b1, w2, b2


def ref_forward(arch, params, features):
    """The first layer, bias included, before the ReLU (a softmax model's
    logits), and the logits."""
    if params.shape != (arch.param_count,):
        raise ValueError(
            f"parameter vector has shape {params.shape}, architecture needs "
            f"({arch.param_count},)")
    flat = np.asarray(params, dtype=np.float64)
    x = np.asarray(features, dtype=np.float64)
    if arch.hidden_dim == 0:
        w, b = ref_unpack(arch, flat)
        logits = x @ w + b
        return logits, logits
    w1, b1, w2, b2 = ref_unpack(arch, flat)
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    return pre, hidden @ w2 + b2


def ref_accuracy(logits: np.ndarray, test: LabeledDataset) -> float:
    """The accuracy of ``logits`` on ``test``: argmax ties go to the lowest
    class."""
    return int(np.count_nonzero(logits.argmax(axis=1) == test.labels)) / len(test)


def float64_pass(arch: ModelArchitecture, params: np.ndarray,
                 test: LabeledDataset) -> float:
    """The accuracy evaluate must give: the reference's."""
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    return ref_accuracy(ref_forward(arch, params, test.features)[1], test)


def ref_loss_and_gradient(arch, params, features, labels):
    flat = np.asarray(params, dtype=np.float64)
    x = np.asarray(features, dtype=np.float64)
    rows = x.shape[0]
    if rows == 0:
        raise ValueError("empty batch")
    pre, logits = ref_forward(arch, flat, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(rows), labels].mean())
    d_logits = np.exp(log_probs)
    d_logits[np.arange(rows), labels] -= 1.0
    d_logits /= rows
    if arch.hidden_dim == 0:
        return loss, np.concatenate([(x.T @ d_logits).reshape(-1), d_logits.sum(axis=0)])
    hidden = np.maximum(pre, 0.0)
    d_hidden = d_logits @ ref_unpack(arch, flat)[2].T
    d_hidden[pre <= 0.0] = 0.0
    return loss, np.concatenate([(x.T @ d_hidden).reshape(-1), d_hidden.sum(axis=0),
                                 (hidden.T @ d_logits).reshape(-1), d_logits.sum(axis=0)])


def ref_train_local(arch, base, data, cfg):
    work = np.asarray(base, dtype=np.float64).copy()
    rng = np.random.default_rng(cfg.seed)
    rows = len(data)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(rows)
        for start in range(0, rows, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _, grad = ref_loss_and_gradient(
                arch, work, data.features[batch], data.labels[batch])
            work = work - cfg.learning_rate * grad
    return work.astype(np.float32)


def ref_train_stacked(arch, base, features, labels, cfg):
    """One :func:`ref_train_local` per stacked dataset, in order."""
    return [ref_train_local(arch, base, LabeledDataset(x, y), cfg)
            for x, y in zip(features, labels)]


# --- kernel cases ----------------------------------------------------------------------

ARCHS = [
    ModelArchitecture(input_dim=1, hidden_dim=1, class_count=2),  # 1x1 products
    ModelArchitecture(input_dim=5, hidden_dim=0, class_count=3),
    ModelArchitecture(input_dim=6, hidden_dim=4, class_count=3),
    ModelArchitecture(input_dim=16, hidden_dim=0, class_count=10),
    ModelArchitecture(input_dim=784, hidden_dim=64, class_count=10),
]
ARCH_IDS = [f"d{a.input_dim}h{a.hidden_dim}c{a.class_count}" for a in ARCHS]


def blobs(arch: ModelArchitecture, rows_per_class: int, seed: int) -> LabeledDataset:
    return gaussian_blobs(rows_per_class, arch.input_dim, arch.class_count, seed,
                          spread=0.5)


def param_cases(arch: ModelArchitecture) -> list[np.ndarray]:
    """Small initial weights, large ones that saturate the softmax and kill
    ReLU units, and all zeros (every argmax ties, and resolves to class 0)."""
    rng = np.random.default_rng(arch.param_count)
    return [init_params(arch, seed=3),
            rng.uniform(-4.0, 4.0, arch.param_count).astype(np.float32),
            np.zeros(arch.param_count, dtype=np.float32)]


def screen_param_cases(arch: ModelArchitecture,
                       data: LabeledDataset) -> list[np.ndarray]:
    """:func:`param_cases`, trained parameters, and trained parameters
    edited so that class 1 ties class 0 exactly (the tie resolves to class
    0), or differs from it by one float32 ulp in its bias or in each
    weight, which rounding can miss or reverse; one NaN, which leaves a
    model without products; large values, scaled by 1e17 in the first layer
    and 1e22 in the second, if there is one; and values near float32's
    largest, whose products :meth:`~models.FirstLayerProducts.combine`
    refuses."""
    cases = param_cases(arch)
    trained = train_local(arch, cases[0], data, TrainConfig(
        local_epochs=3, batch_size=8, learning_rate=0.3, seed=1))
    up = np.float32(np.inf)
    tied, near_bias, near_weight = trained.copy(), trained.copy(), trained.copy()
    for params in (tied, near_bias, near_weight):
        w, b = models._unpack(arch, params)[-2:]
        w[:, 1] = w[:, 0]
        b[1] = b[0]
    bias = models._unpack(arch, near_bias)[-1]
    bias[1] = np.nextafter(bias[0], up)
    weights = models._unpack(arch, near_weight)[-2]
    signs = np.random.default_rng(arch.param_count).choice([-up, up], len(weights))
    weights[:, 1] = np.nextafter(weights[:, 0], signs)
    nan = trained.copy()
    nan[arch.param_count // 2] = np.nan
    large = trained.copy()
    layers = models._unpack(arch, large)
    layers[0][...] *= np.float32(1e17)
    if arch.hidden_dim:
        layers[2][...] *= np.float32(1e22)
    return cases + [trained, tied, near_bias, near_weight, nan, large,
                    np.full(arch.param_count, 3e38, dtype=np.float32)]


# unequal weights, so w_i / W is no power of two and its rounding shows; then
# a weight of 2^53, whose totals round when cast to float64; then weights past
# 2^53 and 2^64, which round themselves
BLOCK_WEIGHTS = {"small": {1: 7, 2: 13, 3: 3, 4: 101},
                 "2^53": {1: 2 ** 53, 2: 13, 3: 3, 4: 101},
                 "past-2^53": {1: 2 ** 53 + 1, 2: 13, 3: 3, 4: 2 ** 64 + 3}}


# rows a chunk (models.CHUNK_ELEMENTS / input_dim) while block_rounds are
# scored, so that the chunks' edges show
BLOCK_ROWS = 5


def block_rounds(arch: ModelArchitecture, weights: dict[int, int]
                 ) -> tuple[list[RoundRecord], tuple[LabeledDataset, ...]]:
    """A round from each of :func:`screen_param_cases`' bases, and the test
    sets to score them on, :data:`BLOCK_ROWS` rows a chunk.  The
    updates: a zero one; two that scale the base by powers of two, so that
    every coalition's model keeps the base's exact ties and (up to rounding)
    its one-ulp ones, its NaN and its scale; and a random one.  The sets: 12
    rows a class, and its row of largest norm alone, which in the 1x1 model
    keeps the hidden unit alive, so that a one-ulp tie in the second layer
    shows."""
    full = blobs(arch, 12, seed=5)
    top = int(np.argmax(np.linalg.norm(full.features, axis=1)))
    tests = (full, LabeledDataset(full.features[top:top + 1], full.labels[top:top + 1]))
    rng = np.random.default_rng(arch.param_count)
    records = []
    for base in screen_param_cases(arch, full):
        updates = {1: np.zeros_like(base), 2: base * np.float32(0.125),
                   3: base * np.float32(-0.25),
                   4: rng.normal(0.0, 1e-2, arch.param_count).astype(np.float32)}
        records.append(RoundRecord(0, base, updates,
                                   fedavg_aggregate(base, updates, weights)))
    return records, tests


def round_products(record: RoundRecord, weights: dict[int, int],
                   arch: ModelArchitecture, test: LabeledDataset
                   ) -> FirstLayerProducts | None:
    """A round's first-layer products on ``test``, made from the record's
    float32 blocks as the round's scorer makes them (None where evaluate
    reads none)."""
    return first_layer_products(arch, round_vectors(record, weights), test,
                                [weights[i] for i in sorted(weights)])


# join orders over four players, each cut after the positions it reaches, as
# truncation cuts a walk: the game's cache then skips a prefix scored before
JOIN_ORDERS = [((1, 2, 3, 4), 4), ((2, 4, 1, 3), 1), ((1, 3, 4, 2), 3),
               ((4, 3, 1, 2), 2), ((3, 1, 2, 4), 1), ((3, 4, 2, 1), 3),
               ((1, 2, 4, 3), 3)]
STEPS = ("empty", "grown by one", "grown by more", "singleton",
         "one more, not a superset", "other")


def walked_coalitions(walks) -> list[tuple[int, ...]]:
    """The coalitions a walker scores along ``walks``, in order: each once,
    as the game's cache has them."""
    seen, scored = set(), []
    for order, reach in walks:
        for k in range(reach + 1):
            ids = tuple(sorted(order[:k]))
            if ids not in seen:
                seen.add(ids)
                scored.append(ids)
    return scored


def steps(scored) -> list[str]:
    """How each coalition of ``scored`` follows the last non-empty one
    before it (see :data:`STEPS`)."""
    kinds, last = [], ()
    for ids in scored:
        more = len(ids) - len(last)
        kinds.append("empty" if not ids else
                     "singleton" if len(ids) == 1 else
                     ("grown by one" if more == 1 else "grown by more")
                     if set(last) < set(ids) else
                     "one more, not a superset" if more == 1 else "other")
        last = ids or last
    return kinds
