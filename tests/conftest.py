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
    generate_source,
    partition,
    predict_logits,
    run_federation,
)
from fedshapley.federation import RoundRecord, round_vectors
from fedshapley import models
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


def float64_pass(arch: ModelArchitecture, params: np.ndarray,
                 test: LabeledDataset) -> float:
    """evaluate's accuracy where nothing is screened."""
    predictions = predict_logits(arch, params, test.features).argmax(axis=1)
    return int(np.count_nonzero(predictions == test.labels)) / len(test)


def round_products(record: RoundRecord, weights: dict[int, int],
                   arch: ModelArchitecture, test: LabeledDataset
                   ) -> FirstLayerProducts | None:
    """A round's first-layer products on ``test``, made from the record's
    float32 blocks as the round's scorer makes them (None where evaluate
    reads none)."""
    return first_layer_products(arch, round_vectors(record, weights), test,
                                [weights[i] for i in sorted(weights)])


def assert_products_match_the_float64_casts(record: RoundRecord,
                                            weights: dict[int, int],
                                            arch: ModelArchitecture,
                                            test: LabeledDataset) -> None:
    """The round's products made from the record's float32 blocks equal, bit
    for bit, those made from the blocks' float64 casts, and both equal the
    products of the first construction: every float64 block held at once,
    each chunk of rows multiplied by each block in turn.  Every coalition's
    first layer from them is the same too."""
    vectors = round_vectors(record, weights)
    shares = [weights[i] for i in sorted(weights)]
    got = first_layer_products(arch, vectors, test, shares)
    cast = first_layer_products(arch, [v.astype(np.float64) for v in vectors],
                                test, shares)
    assert got is not None and cast is not None
    # the first construction, on the float64 casts: blocks (W1; b1), each
    # chunk of rows times W1, unit-major, plus b1
    d, width = arch.input_dim, arch.hidden_dim or arch.class_count
    blocks = [v[:arch.first_layer_size].reshape(d + 1, width).astype(np.float64)
              for v in vectors]
    features = test.prepared[0]
    products = np.empty((len(blocks), width, len(features)))
    step = max(1, models.CHUNK_ELEMENTS // d)
    for start in range(0, len(features), step):
        rows = features[start:start + step].astype(np.float64)
        for block, out in zip(blocks, products):
            out[:, start:start + step] = np.dot(rows, block[:-1]).T
    for block, out in zip(blocks, products):
        out += block[-1][:, None]
    products[1:] += products[0]
    products[1:] *= np.array(shares, dtype=np.float64)[:, None, None]
    norms = np.sqrt([np.einsum("ij,ij->j", b, b) for b in blocks])
    max_abs = np.array([np.abs(v.astype(np.float64)).max() for v in vectors])
    for made in (got, cast):
        for name, want in [("_products", products.reshape(len(blocks), -1)),
                           ("_norms", norms), ("_max_abs", max_abs)]:
            have = getattr(made, name)
            assert have.dtype == np.float64 and have.tobytes() == want.tobytes(), name
    for mask in range(1 << len(weights)):
        ids = tuple(i for i in sorted(weights) if mask >> (i - 1) & 1)
        first, again = got.combine(ids), cast.combine(ids)
        assert (first is None) == (again is None)
        if first is not None:
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                       for a, b in zip(first, again))


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
