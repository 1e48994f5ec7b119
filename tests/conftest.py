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
                   seed: int, spread: float = 2.0) -> LabeledDataset:
    """Well-separated class blobs; spread scales the mean separation."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((class_count, input_dim)) * spread
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
    test = gaussian_blobs(8, input_dim, class_count, seed + 1)
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
