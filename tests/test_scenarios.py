"""Synthetic sources and the five partition schemes.

The partition contracts are all exact (row counts, class histograms, flip
counts), so the tests sweep several seeds rather than eyeballing one draw.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from fedshapley import (
    LabeledDataset,
    ModelArchitecture,
    ScenarioKind,
    ScenarioSpec,
    SyntheticSource,
    TrainConfig,
    default_noise_rates,
    default_size_ratios,
    evaluate,
    generate_source,
    init_params,
    pair_of,
    partition,
    train_local,
)
from fedshapley.scenarios import SCENARIO_PARAMS, deal_table

ALL_KINDS = list(ScenarioKind)


def default_pool(seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    src = SyntheticSource(input_dim=16, class_count=10, spread=1.0, seed=seed)
    return generate_source(src, train_per_class=100, test_per_class=10)


def row_keys(data: LabeledDataset) -> set[bytes]:
    return {row.tobytes() for row in data.features}


def label_lookup(pool: LabeledDataset) -> dict[bytes, int]:
    return {row.tobytes(): int(lab)
            for row, lab in zip(pool.features, pool.labels)}


def class_histogram(data: LabeledDataset, class_count: int = 10) -> np.ndarray:
    return np.bincount(data.labels, minlength=class_count)


# --- synthetic source ---------------------------------------------------------


def test_source_shapes_and_balance():
    pool, test = default_pool()
    assert len(pool) == 1000 and len(test) == 100
    assert pool.features.shape == (1000, 16) and pool.features.dtype == np.float32
    assert class_histogram(pool).tolist() == [100] * 10
    assert class_histogram(test).tolist() == [10] * 10


def test_source_determinism_and_split_disjointness():
    pool_a, test_a = default_pool(seed=3)
    pool_b, test_b = default_pool(seed=3)
    assert np.array_equal(pool_a.features, pool_b.features)
    assert np.array_equal(test_a.features, test_b.features)
    assert not row_keys(pool_a) & row_keys(test_a)
    pool_c, _ = default_pool(seed=4)
    assert not np.array_equal(pool_a.features, pool_c.features)


def test_tight_clusters_are_perfectly_learnable():
    src = SyntheticSource(input_dim=8, class_count=4, spread=0.01, seed=2)
    pool, test = generate_source(src, train_per_class=20, test_per_class=5)
    arch = ModelArchitecture(8, 0, 4)
    params = train_local(arch, init_params(arch, 0), pool,
                         TrainConfig(local_epochs=5, batch_size=16,
                                     learning_rate=0.5, seed=1))
    assert evaluate(arch, params, test) == 1.0


def test_source_validation():
    with pytest.raises(ValueError):
        generate_source(SyntheticSource(), train_per_class=0, test_per_class=1)
    with pytest.raises(ValueError):
        SyntheticSource(class_count=1)
    with pytest.raises(ValueError):
        SyntheticSource(spread=-1.0)
    # features are float32: a spread that overflows them is refused, not drawn
    with pytest.raises(ValueError, match=r"spread 1e\+308 draws features past"):
        generate_source(SyntheticSource(spread=1e308), 1, 1)
    # the class means come from the seed; none can be given
    with pytest.raises(TypeError, match="class_means"):
        SyntheticSource(input_dim=2, class_count=2, class_means=np.eye(2))
    for bad in ({"input_dim": 2.5}, {"spread": "1"}, {"seed": None}):
        with pytest.raises(ValueError, match="must be"):
            SyntheticSource(**bad)


# --- partition schemes ---------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("seed", range(10))
def test_every_row_assigned_exactly_once(kind, seed):
    pool, _ = default_pool(seed)
    parts = partition(pool, ScenarioSpec(kind=kind, n=10, seed=seed))
    assert len(parts) == 10
    assert sum(len(p) for p in parts) == len(pool)
    # distinct feature rows across all participants: nothing dealt twice
    combined: set[bytes] = set()
    for part in parts:
        combined |= row_keys(part)
    assert len(combined) == len(pool)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partition_is_deterministic(kind):
    pool, _ = default_pool(7)
    spec = ScenarioSpec(kind=kind, n=10, seed=7)
    a = partition(pool, spec)
    b = partition(pool, ScenarioSpec(kind=kind, n=10, seed=7))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)
        assert np.array_equal(pa.labels, pb.labels)
    c = partition(pool, ScenarioSpec(kind=kind, n=10, seed=8))
    assert any(not np.array_equal(pa.labels, pc.labels)
               or not np.array_equal(pa.features, pc.features)
               for pa, pc in zip(a, c))


@pytest.mark.parametrize("seed", range(10))
def test_equal_split_is_balanced(seed):
    pool, _ = default_pool(seed)
    parts = partition(pool, ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE,
                                         n=10, seed=seed))
    for part in parts:
        assert len(part) == 100
        assert class_histogram(part).tolist() == [10] * 10


@pytest.mark.parametrize("seed", range(10))
def test_skewed_split_histograms(seed):
    pool, _ = default_pool(seed)
    parts = partition(pool, ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE,
                                         n=10, seed=seed))
    for pid, part in enumerate(parts, start=1):
        assert len(part) == 100
        hist = class_histogram(part)
        pair = pair_of(pid)
        designated = (2 * pair - 2, 2 * pair - 1)
        # default skew 0.8 on 100 rows: the pair's two classes get 40 each
        assert hist[designated[0]] == 40 and hist[designated[1]] == 40
        others = np.delete(hist, designated)
        assert others.sum() == 20
        assert sorted(others.tolist()) == [2, 2, 2, 2, 3, 3, 3, 3]


def test_skew_strength_is_configurable():
    # skews whose remainder divides the 8 non-designated classes keep the
    # zero-slack pool feasible; 0.52 -> 26+26 designated, 6 everywhere else
    pool, _ = default_pool(1)
    parts = partition(pool, ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE,
                                         n=10, seed=1, params={"skew": 0.52}))
    hist = class_histogram(parts[0])
    assert hist[0] == 26 and hist[1] == 26
    assert np.delete(hist, (0, 1)).tolist() == [6] * 8
    mild = partition(pool, ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE,
                                        n=10, seed=1, params={"skew": 0.2}))
    assert class_histogram(mild[0])[0] == 10
    assert sum(len(p) for p in mild) == 1000


@pytest.mark.parametrize("classes, per_class, n, skew, match", [
    # participant 11's pair would need classes 10 and 11
    (10, 100, 12, 0.8, r"pair 6 needs classes \(10, 11\), but only 10 classes exist"),
    # 7 rows each: round(3.5) = 4 rows to each designated class, 8 in all
    (7, 2, 2, 1, "skew 1.0 with size 7 leaves negative remainder"),
    # 10 rows each: 4 to each of the 2 classes, both designated, leaves 2
    (2, 10, 2, 0.8, "skew 0.8 leaves 2 rows for non-designated classes, but "
                    "every class is designated"),
], ids=["pair-past-the-classes", "negative-remainder", "every-class-designated"])
def test_a_skew_the_pool_cannot_deal_is_refused(classes, per_class, n, skew, match):
    src = SyntheticSource(input_dim=4, class_count=classes, seed=0)
    pool, _ = generate_source(src, train_per_class=per_class, test_per_class=1)
    spec = ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE, n=n, params={"skew": skew})
    with pytest.raises(ValueError, match=match):
        partition(pool, spec)


def test_size_ramp_default_sizes():
    pool, _ = default_pool(2)
    parts = partition(pool, ScenarioSpec(ScenarioKind.SAME_DIST_DIFF_SIZE,
                                         n=10, seed=2))
    # default per-pair ratios .10,.10,.15,.15,... normalized over 1000 rows
    assert [len(p) for p in parts] == [50, 50, 75, 75, 100, 100, 125, 125, 150, 150]
    assert default_size_ratios(10) == pytest.approx(
        [0.10, 0.10, 0.15, 0.15, 0.20, 0.20, 0.25, 0.25, 0.30, 0.30])
    for part in parts:
        hist = class_histogram(part)
        assert hist.max() - hist.min() <= 1  # sizes split near-evenly by class


def test_size_ramp_custom_ratios_and_leftovers():
    pool, _ = default_pool(3)
    parts = partition(pool, ScenarioSpec(ScenarioKind.SAME_DIST_DIFF_SIZE, n=4,
                                         seed=3, params={"ratios": [1, 1, 1, 3]}))
    # floors are 166,166,166,500 summing to 998; leftovers go to low ids
    assert [len(p) for p in parts] == [167, 167, 166, 500]
    # refused when the spec is built, before any data is drawn
    for bad in ([1, 1], [1, 1, 1, 0.0]):
        with pytest.raises(ValueError, match="ratios must be 4 numbers > 0"):
            ScenarioSpec(ScenarioKind.SAME_DIST_DIFF_SIZE, n=4, seed=3,
                         params={"ratios": bad})


@pytest.mark.parametrize("seed", range(10))
def test_label_flip_counts_are_exact(seed):
    pool, _ = default_pool(seed)
    parts = partition(pool, ScenarioSpec(ScenarioKind.NOISY_LABELS,
                                         n=10, seed=seed))
    originals = label_lookup(pool)
    rates = default_noise_rates(10)
    assert rates == pytest.approx([0.0, 0.0, 0.05, 0.05, 0.10, 0.10,
                                   0.15, 0.15, 0.20, 0.20])
    for part, rate in zip(parts, rates):
        true_labels = np.array([originals[row.tobytes()] for row in part.features])
        mismatches = part.labels != true_labels
        assert mismatches.sum() == int(round(rate * len(part)))
        # a flip never maps a label onto itself
        assert np.all(part.labels[mismatches] != true_labels[mismatches])


@pytest.mark.parametrize("seed", range(10))
def test_feature_noise_scales_with_rate(seed):
    pool, _ = default_pool(seed)
    parts = partition(pool, ScenarioSpec(ScenarioKind.NOISY_FEATURES,
                                         n=10, seed=seed))
    pool_rows = row_keys(pool)
    originals = label_lookup(pool)
    pool_std = pool.features.astype(np.float64).std(axis=0)
    for pid, (part, rate) in enumerate(zip(parts, default_noise_rates(10)), 1):
        assert class_histogram(part).tolist() == [10] * 10
        if rate == 0.0:
            assert row_keys(part) <= pool_rows  # untouched rows, bit for bit
            continue
        assert not row_keys(part) & pool_rows
        # labels still belong to the pre-noise rows (nearest pool row)
        dists = np.linalg.norm(
            pool.features[None, :, :] - part.features[:, None, :], axis=2)
        nearest = dists.argmin(axis=1)
        recovered = pool.labels[nearest]
        assert np.mean(recovered == part.labels) > 0.95
        measured = np.std(part.features.astype(np.float64)
                          - pool.features[nearest], axis=0)
        assert np.abs(measured.mean() - rate * pool_std.mean()) < 0.05


def test_partition_errors():
    pool, _ = default_pool(0)
    tiny = LabeledDataset(pool.features[:5], pool.labels[:5])
    with pytest.raises(ValueError):
        partition(tiny, ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE, n=10))
    # class 0 cut to 5 rows: demand of 80 from the first pair cannot be met
    lopsided = LabeledDataset(
        np.concatenate([pool.features[:5], pool.features[100:]]),
        np.concatenate([pool.labels[:5], pool.labels[100:]]))
    with pytest.raises(ValueError, match="exhausted"):
        partition(lopsided, ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE, n=10))
    # a table made beforehand must deal the spec's participants from the pool
    spec = ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE, n=4)
    table = deal_table(spec, np.bincount(pool.labels))
    for bad in (table[:3], table[:, :-1], table * 2):
        with pytest.raises(ValueError, match="does not deal 4 participants"):
            partition(pool, spec, bad)


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(ScenarioKind.NOISY_LABELS, n=3)  # paired kind, odd n
    ScenarioSpec(ScenarioKind.NOISY_LABELS, n=3,
                 params={"flip_rates": [0.0, 0.0, 0.1]})  # schedule lifts it
    with pytest.raises(ValueError):
        ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE, n=1)
    # a log's header stores n as a u32
    ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE, n=2 ** 32 - 1)
    with pytest.raises(ValueError, match="^n must lie in 2..4294967295, "):
        ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE, n=2 ** 32)
    with pytest.raises(ValueError):
        ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE, n=4, params={"skew": 1.5})
    with pytest.raises(ValueError):
        ScenarioSpec(ScenarioKind.NOISY_LABELS, n=4,
                     params={"flip_rates": [0.0, 0.0, -0.1, 0.0]})
    for bad in ({"n": 4.0}, {"seed": True}):
        with pytest.raises(ValueError, match="must be int"):
            ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE, **bad)
    with pytest.raises(ValueError, match="params must be dict"):
        ScenarioSpec(ScenarioKind.NOISY_LABELS, n=4, params=[0.1] * 4)
    with pytest.raises(ValueError, match="unknown scenario kind 5;"):
        ScenarioSpec(5, n=4)
    for kind, params, match in (
            (ScenarioKind.SAME_DIST_SAME_SIZE, {"skew": 0.5}, "hold nothing, not skew"),
            (ScenarioKind.NOISY_LABELS, {"noise_rates": [0.1] * 4},
             "hold flip_rates, not noise_rates"),
            (ScenarioKind.DIFF_DIST_SAME_SIZE, {"skew": None}, "one number in"),
            (ScenarioKind.DIFF_DIST_SAME_SIZE, {"skew": [0.5]}, "one number in"),
            (ScenarioKind.NOISY_FEATURES, {"noise_rates": 0.1}, "4 numbers in"),
            (ScenarioKind.NOISY_FEATURES, {"noise_rates": [0.1, 0.1, True, 0.1]},
             "4 numbers in"),
            (ScenarioKind.SAME_DIST_DIFF_SIZE, {"ratios": "1234"}, "4 numbers > 0"),
            (ScenarioKind.SAME_DIST_DIFF_SIZE, {"ratios": [1, 1, math.inf, 1]},
             "4 numbers > 0")):
        with pytest.raises(ValueError, match=match):
            ScenarioSpec(kind, n=4, params=params)
    with pytest.raises(ValueError, match="odd"):  # a skew is no schedule
        ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE, n=3, params={"skew": 0.5})


def test_default_flip_rates_are_refused_past_one():
    # pair k's default rate is 0.05 (k - 1): 1.0 at n = 42, 1.05 at n = 44
    assert max(ScenarioSpec(ScenarioKind.NOISY_LABELS, n=42).param()) == 1.0
    with pytest.raises(ValueError, match="^the default flip_rates pass 1 at n=44; "
                                         "give explicit flip_rates$"):
        ScenarioSpec(ScenarioKind.NOISY_LABELS, n=44)
    ScenarioSpec(ScenarioKind.NOISY_LABELS, n=44, params={"flip_rates": [0.5] * 44})
    # feature noise scales may pass 1
    assert max(ScenarioSpec(ScenarioKind.NOISY_FEATURES, n=44).param()) == 0.05 * 21


def test_scenario_spec_resolves_its_one_entry():
    spec = ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE, n=4, params={"skew": 1})
    assert spec.param() == 1.0 and spec.params == {"skew": 1}  # kept as given
    assert ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE, n=4).param() == 0.8
    assert ScenarioSpec(ScenarioKind.SAME_DIST_SAME_SIZE, n=3).param() is None
    assert ScenarioSpec(ScenarioKind.NOISY_LABELS, n=4).param() == default_noise_rates(4)
    assert ScenarioSpec(ScenarioKind.SAME_DIST_DIFF_SIZE, n=3, params={
        "ratios": (1, 2, np.float32(0.5))}).param() == [1.0, 2.0, 0.5]
    assert set(SCENARIO_PARAMS) == set(ScenarioKind)


def test_kind_takes_only_its_five_values():
    for kind in ScenarioKind:
        assert ScenarioSpec(kind.value, n=4).kind is ScenarioSpec(kind, n=4).kind is kind
    assert ScenarioSpec().kind is ScenarioKind.SAME_DIST_SAME_SIZE
    # the spellings sidecars write, and no other
    for alias in ("SameDistSameSize", "Noisy-Features", "NOISY_LABELS",
                  "noisylabels", "dirichlet", None, ["noisy_labels"]):
        with pytest.raises(ValueError, match="known: same_dist_same_size, "):
            ScenarioSpec(alias, n=4)
    assert not hasattr(ScenarioKind, "parse")


def test_a_skewed_scenario_needs_two_classes_for_each_pair():
    spec = ScenarioSpec(ScenarioKind.DIFF_DIST_SAME_SIZE, n=12)
    spec.check_classes(12)
    message = r"pair 6 needs classes \(10, 11\), but only 10 classes exist"
    with pytest.raises(ValueError, match=message):
        spec.check_classes(10)
    # partition deals by the same rule
    with pytest.raises(ValueError, match=message):
        partition(default_pool(0)[0], spec)
    # the other kinds deal any classes there are
    for kind in set(ALL_KINDS) - {ScenarioKind.DIFF_DIST_SAME_SIZE}:
        ScenarioSpec(kind, n=12).check_classes(2)


def test_pair_layout():
    assert [pair_of(p) for p in range(1, 7)] == [1, 1, 2, 2, 3, 3]

