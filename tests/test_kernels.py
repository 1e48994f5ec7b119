"""Differential tests: the model kernels and the single-coalition rebuild
against test-local copies of their first implementations.

The references below allocate a fresh float64 copy of the test features on
every call, add biases and the ReLU into new temporaries, compute the loss on
every training batch and allocate one temporary per coalition member.  The
library's kernels skip that work, and evaluate screens wide test sets from
first-layer products; every result must still be bit-equal, not merely
close.
"""
from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import (JOIN_ORDERS, STEPS, assert_products_match_the_float64_casts,
                      float64_pass, gaussian_blobs, quick_log, round_products, steps,
                      walked_coalitions)

from fedshapley import (
    LabeledDataset,
    ModelArchitecture,
    TrainConfig,
    evaluate,
    init_params,
    loss_and_gradient,
    predict_logits,
    train_local,
)
from fedshapley import estimators, federation, models
from fedshapley.cli import CONFIG_SCHEMA, EXIT_OK, main
from fedshapley.federation import RoundStack
from fedshapley.games import players_of
from fedshapley.scenarios import ScenarioKind

pytestmark = pytest.mark.blas_order

# --- reference implementations --------------------------------------------------


def ref_check_params(arch, params):
    if params.shape != (arch.param_count,):
        raise ValueError(
            f"parameter vector has shape {params.shape}, architecture needs "
            f"({arch.param_count},)")


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


def ref_predict_logits(arch, params, features):
    ref_check_params(arch, params)
    flat = np.asarray(params, dtype=np.float64)
    x = np.asarray(features, dtype=np.float64)
    if arch.hidden_dim == 0:
        w, b = ref_unpack(arch, flat)
        return x @ w + b
    w1, b1, w2, b2 = ref_unpack(arch, flat)
    hidden = np.maximum(x @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def ref_evaluate(arch, params, test):
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    logits = ref_predict_logits(arch, params, test.features)
    predictions = logits.argmax(axis=1)
    return int(np.count_nonzero(predictions == test.labels)) / len(test)


def ref_loss_and_gradient(arch, params, features, labels):
    flat = np.asarray(params, dtype=np.float64)
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    rows = x.shape[0]
    if rows == 0:
        raise ValueError("empty batch")
    if arch.hidden_dim == 0:
        w, b = ref_unpack(arch, flat)
        logits = x @ w + b
        hidden = None
    else:
        w1, b1, w2, b2 = ref_unpack(arch, flat)
        pre = x @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(rows), y].mean())
    d_logits = np.exp(log_probs)
    d_logits[np.arange(rows), y] -= 1.0
    d_logits /= rows
    grad = np.empty_like(flat)
    if arch.hidden_dim == 0:
        gw = x.T @ d_logits
        gb = d_logits.sum(axis=0)
        grad[:gw.size] = gw.reshape(-1)
        grad[gw.size:] = gb
    else:
        gw2 = hidden.T @ d_logits
        gb2 = d_logits.sum(axis=0)
        d_hidden = d_logits @ w2.T
        d_hidden[pre <= 0.0] = 0.0
        gw1 = x.T @ d_hidden
        gb1 = d_hidden.sum(axis=0)
        grad[:] = np.concatenate([gw1.reshape(-1), gb1, gw2.reshape(-1), gb2])
    return loss, grad


def ref_train_local(arch, base, data, cfg):
    ref_check_params(arch, base)
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
            _, grad = ref_loss_and_gradient(
                arch, work, data.features[batch], data.labels[batch])
            work = work - cfg.learning_rate * grad
    return work.astype(np.float32)


def ref_train_stacked(arch, base, features, labels, cfg):
    """One :func:`ref_train_local` per stacked dataset, in order."""
    return [ref_train_local(arch, base, LabeledDataset(x, y), cfg)
            for x, y in zip(features, labels)]


def ref_rebuild(record, weights, ids):
    base = np.asarray(record.base_model, dtype=np.float64)
    updates = {i: np.asarray(record.updates[i], dtype=np.float64) for i in ids}
    total = float(sum(weights[i] for i in ids))
    acc = base.copy()
    for i in ids:
        acc += (weights[i] / total) * updates[i]
    return acc.astype(np.float32)


# --- cases --------------------------------------------------------------------------

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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_forward_and_evaluate_match_the_reference(arch):
    full = blobs(arch, 12, seed=1)
    one_row = LabeledDataset(full.features[-1:], full.labels[-1:])
    for test in (full, one_row):
        for params in param_cases(arch):
            want = ref_predict_logits(arch, params, test.features)
            assert same_bits(predict_logits(arch, params, test.features), want)
            accuracy = ref_evaluate(arch, params, test)
            assert same_bits(evaluate(arch, params, test), accuracy)
            # float64 parameters holding the same values score the same
            assert same_bits(evaluate(arch, params.astype(np.float64), test),
                             accuracy)
            # the prepared float64 features give the same logits
            assert same_bits(predict_logits(arch, params, test.prepared[0]), want)
        features, norms = test.prepared
        assert features.dtype == np.float64 and norms is None
    zeros = param_cases(arch)[-1]
    assert evaluate(arch, zeros, full) == float(np.mean(full.labels == 0))


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_loss_and_gradient_match_the_reference(arch):
    data = blobs(arch, 8, seed=2)
    for params in param_cases(arch):
        want_loss, want_grad = ref_loss_and_gradient(arch, params, data.features,
                                                     data.labels)
        loss, grad = loss_and_gradient(arch, params, data.features, data.labels)
        assert same_bits(loss, want_loss) and isinstance(loss, float)
        assert same_bits(grad, want_grad)


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_training_matches_the_reference(arch):
    data = blobs(arch, 6, seed=4)
    # batches of 7 rows, and batches that leave a single row at the end
    configs = [TrainConfig(local_epochs=2, batch_size=7, learning_rate=0.3, seed=5),
               TrainConfig(local_epochs=2, batch_size=len(data) - 1,
                           learning_rate=0.3, seed=6)]
    for cfg, base in itertools.product(configs, param_cases(arch)[:2]):
        before = base.copy()
        want = ref_train_local(arch, base, data, cfg)
        got = train_local(arch, base, data, cfg)
        assert same_bits(got, want)
        assert same_bits(base, before)  # training works on its own copy


def test_kernel_errors_are_unchanged():
    arch = ARCHS[2]
    params = init_params(arch, seed=0)
    empty = LabeledDataset(np.empty((0, arch.input_dim)), np.empty(0))
    for fn in (ref_evaluate, evaluate):
        with pytest.raises(ValueError) as err:
            fn(arch, params, empty)
        assert str(err.value) == "cannot evaluate on an empty test set"
    full = blobs(arch, 2, seed=0)
    messages = []
    # evaluate fails the same on a set it has already prepared
    for fn in (ref_evaluate, evaluate, evaluate):
        with pytest.raises(ValueError) as err:
            fn(arch, params[:-1], full)
        messages.append(str(err.value))
    with pytest.raises(ValueError) as err:
        predict_logits(arch, params[:-1], full.features)
    messages.append(str(err.value))
    assert messages == [f"parameter vector has shape ({arch.param_count - 1},), "
                        f"architecture needs ({arch.param_count},)"] * 4
    for fn in (ref_loss_and_gradient, loss_and_gradient):
        with pytest.raises(ValueError, match="^empty batch$"):
            fn(arch, params, np.empty((0, arch.input_dim)), np.empty(0, np.int64))


@pytest.mark.parametrize("hidden_dim", [0, 6])
def test_single_rebuilds_match_the_reference(hidden_dim):
    log, _, _ = quick_log(n=4, rounds=2, seed=3, hidden_dim=hidden_dim)
    # unequal weights, so w_i / W is no power of two and its rounding shows
    weights = {1: 7, 2: 13, 3: 3, 4: 101}
    for rec in log.rounds:
        stack = RoundStack(rec, weights)
        coalitions = [ids for k in range(1, log.n + 1)
                      for ids in itertools.combinations(range(1, log.n + 1), k)]
        # the scratch row is shared by every rebuild: visit the coalitions
        # forwards and backwards so no rebuild can lean on the previous one
        for ids in coalitions + coalitions[::-1]:
            assert same_bits(stack.rebuild(ids), ref_rebuild(rec, weights, ids))


def test_wide_rebuilds_match_the_reference():
    # the d=784, hidden 64 model: P = 50,890 parameters per update
    arch = ARCHS[-1]
    rng = np.random.default_rng(7)
    base = init_params(arch, seed=1)
    updates = {i: rng.normal(0.0, 1e-3, arch.param_count).astype(np.float32)
               for i in (1, 2, 3)}
    weights = {1: 30, 2: 70, 3: 11}
    rec = federation.RoundRecord(0, base, updates, base)
    stack = RoundStack(rec, weights)
    for ids in [(1,), (2, 3), (1, 2, 3), (1, 3)]:
        assert same_bits(stack.rebuild(ids), ref_rebuild(rec, weights, ids))


def simulate_bytes(tmp_path, name: str, hidden_dim: int, **sections) -> bytes:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({
        "schema": CONFIG_SCHEMA, "seed": 4, "rounds": 2,
        "source": {"input_dim": 7, "class_count": 3, "spread": 1.0},
        "scenario": {"kind": "same_dist_same_size", "n": 3},
        "model": {"hidden_dim": hidden_dim},
        "train": {"local_epochs": 2, "batch_size": 5, "learning_rate": 0.2},
        "data": {"train_per_class": 15, "test_per_class": 4},
        **sections,
    }))
    out = tmp_path / name
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    (log,) = out.glob("*.gtgl")
    return log.read_bytes()


@pytest.mark.parametrize("hidden_dim", [0, 5])
def test_simulate_writes_the_reference_log_bytes(tmp_path, monkeypatch, hidden_dim):
    got = simulate_bytes(tmp_path, "kernels", hidden_dim)
    # run_federation trains each group's stacked datasets in one pass: the
    # reference trains each participant alone
    monkeypatch.setattr(federation, "_train_stacked", ref_train_stacked)
    want = simulate_bytes(tmp_path, "reference", hidden_dim)
    assert got == want


@pytest.mark.parametrize("hidden_dim", [0, 5])
@pytest.mark.parametrize("kind", [kind.value for kind in ScenarioKind])
def test_simulate_trains_groups_as_each_participant_alone(tmp_path, monkeypatch,
                                                          kind, hidden_dim):
    # ten participants; the same-size kinds hold 20 rows each, and
    # same_dist_diff_size pairs 10, 10, 15, 15, .., 30, 30 (25 rows leave a
    # last batch of one); a budget of three models splits each group of one
    # length into groups of at most three
    sections = {"source": {"input_dim": 16, "class_count": 10, "spread": 1.0},
                "scenario": {"kind": kind, "n": 10},
                "train": {"local_epochs": 2, "batch_size": 8, "learning_rate": 0.2},
                "data": {"train_per_class": 20, "test_per_class": 4}}
    arch = ModelArchitecture(16, hidden_dim, 10)
    monkeypatch.setattr(federation, "CHUNK_ELEMENTS", 3 * arch.param_count + 2)
    groups = []
    train_stacked = federation._train_stacked

    def recorded(arch, base, features, labels, cfg):
        groups.append([len(rows) for rows in labels])
        return train_stacked(arch, base, features, labels, cfg)

    monkeypatch.setattr(federation, "_train_stacked", recorded)
    stacked = []
    stack_datasets = federation._stack_datasets

    def counted(datasets):
        stacked.append(len(datasets))
        return stack_datasets(datasets)

    monkeypatch.setattr(federation, "_stack_datasets", counted)
    got = simulate_bytes(tmp_path, "groups", hidden_dim, **sections)
    monkeypatch.setattr(federation, "_stack_datasets", stack_datasets)
    monkeypatch.setattr(federation, "_train_stacked", ref_train_stacked)
    want = simulate_bytes(tmp_path, "reference", hidden_dim, **sections)
    assert got == want
    # two rounds of ten participants, in groups of one length, of at most three
    assert sum(map(len, groups)) == 20
    assert all(len(set(lengths)) == 1 for lengths in groups)
    assert max(map(len, groups)) == (2 if kind == "same_dist_diff_size" else 3)
    # each group is stacked once, for both rounds
    assert stacked == [len(lengths) for lengths in groups[:len(groups) // 2]]


def equal_length_sets(arch: ModelArchitecture, rows: int,
                      count: int) -> list[LabeledDataset]:
    """``count`` datasets of ``rows`` rows each, drawn from one pool."""
    pool = blobs(arch, rows, seed=10)
    rng = np.random.default_rng(rows)
    picks = [rng.choice(len(pool), rows, replace=False) for _ in range(count)]
    return [LabeledDataset(pool.features[p], pool.labels[p]) for p in picks]


# (architecture, rows, batch size): each last batch holds one row, through
# softmax and hidden-layer models, and through a layer of one input (d = 1)
# and of one hidden unit (h = 1)
STACKED = [(ARCHS[0], 10, 3), (ModelArchitecture(1, 0, 3), 10, 3),
           (ModelArchitecture(3, 1, 2), 65, 8), (ARCHS[2], 33, 32),
           (ARCHS[3], 97, 32), (ARCHS[-1], 100, 33)]


@pytest.mark.parametrize("arch, rows, batch_size", STACKED,
                         ids=[f"d{a.input_dim}h{a.hidden_dim}c{a.class_count}-{r}rows"
                              for a, r, _ in STACKED])
def test_the_stacked_trainer_matches_the_reference(arch, rows, batch_size):
    assert rows % batch_size == 1
    datasets = equal_length_sets(arch, rows, 3)
    for epochs, base in itertools.product((1, 2), param_cases(arch)[:2]):
        cfg = TrainConfig(local_epochs=epochs, batch_size=batch_size,
                          learning_rate=0.3, seed=epochs)
        before = base.copy()
        trained = models._train_stacked(arch, base, *models._stack_datasets(datasets),
                                        cfg)
        assert trained.shape == (len(datasets), arch.param_count)
        for data, got in zip(datasets, trained):
            assert same_bits(got, ref_train_local(arch, base, data, cfg))
        assert same_bits(base, before)  # training works on its own copy


# --- the screen of wide test sets -----------------------------------------------


class ScreenBranches:
    """Counts which way each evaluation of a wide set went: "decided" (the
    first pass, from the caller's first layer, decided every row),
    "rescored" (some of its rows were scored again by the chunked float64
    pass), "chunked" (given no first layer, the chunked float64 pass decided
    every row) or "fallback" (the float64 pass scored the whole set at
    once)."""

    def __init__(self, monkeypatch):
        self.seen = collections.Counter()
        decide, screen = models._decide, models._screened_argmax
        whole = models.predict_logits
        stages = []

        def counted_decide(logits, margins):
            stages.append("decide")
            return decide(logits, margins)

        def counted_whole(arch, params, features):
            stages.append("fallback")
            return whole(arch, params, features)

        def counted_screen(arch, model, features, norms, first_layer):
            stages.clear()
            top = screen(arch, model, features, norms, first_layer)
            self.seen["fallback" if "fallback" in stages else
                      "chunked" if first_layer is None else
                      "rescored" if len(stages) > 1 else "decided"] += 1
            return top

        monkeypatch.setattr(models, "_decide", counted_decide)
        monkeypatch.setattr(models, "predict_logits", counted_whole)
        monkeypatch.setattr(models, "_screened_argmax", counted_screen)


def logits_path(arch, params, test) -> float:
    """Accuracy through :func:`predict_logits` on the prepared features, as
    evaluate scores a narrow set."""
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    full = params.params if isinstance(params, models.LazyModel) else params
    predictions = predict_logits(arch, full, test.prepared[0]).argmax(axis=1)
    return int(np.count_nonzero(predictions == test.labels)) / len(test)


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_a_narrow_set_scores_as_the_logits_path(arch):
    full = blobs(arch, 12, seed=1)
    one_row = LabeledDataset(full.features[-1:], full.labels[-1:])
    nan = init_params(arch, seed=3)
    nan[arch.param_count // 2] = np.nan
    builds = []

    def lazy(params):
        def build():
            builds.append(1)
            return params
        return models.LazyModel(params[arch.first_layer_size:], build)

    for test in (full, one_row):
        assert test.prepared[1] is None
        # all zeros tie every class and score class 0; a NaN picks its class
        for params in [*param_cases(arch), nan, nan.astype(np.float64)]:
            want = logits_path(arch, params, test)
            assert same_bits(evaluate(arch, params, test), want)
            # a LazyModel is read through params, built once
            del builds[:]
            assert same_bits(evaluate(arch, lazy(params), test), want)
            assert len(builds) == 1
    # the messages, an empty set's first, whatever the parameters
    empty = LabeledDataset(np.empty((0, arch.input_dim)), np.empty(0))
    short = init_params(arch, seed=0)[:-1]
    for params in (short, lazy(short)):
        for test, message in [(empty, "cannot evaluate on an empty test set"),
                              (full, f"parameter vector has shape "
                                     f"({arch.param_count - 1},), architecture "
                                     f"needs ({arch.param_count},)")]:
            for fn in (logits_path, evaluate):
                with pytest.raises(ValueError) as err:
                    fn(arch, params, test)
                assert str(err.value) == message


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_stacked_first_layers_are_the_float64_passs_own(arch):
    # one np.matmul over a stack gives each model the first layer, bias
    # included, that the float64 pass makes, bit for bit, and evaluate
    # scores the model from it and its tail alone
    full = blobs(arch, 12, seed=1)
    one_row = LabeledDataset(full.features[-1:], full.labels[-1:])
    cases = screen_param_cases(arch, full)
    builds = []

    def tail_only(params):
        return models.LazyModel(params[arch.first_layer_size:],
                                lambda: builds.append(1) or params)

    for test in (full, one_row):
        if arch.input_dim == 1:
            # a layer of one input keeps the per-model product
            assert models.first_layer_chunk(arch, test) == 0
            continue
        assert models.first_layer_chunk(arch, test) >= 1
        for stack in (np.stack(cases), np.stack(cases).astype(np.float64)):
            firsts = models.first_layers(arch, stack, test)
            assert firsts.shape == (len(cases), len(test),
                                    arch.hidden_dim or arch.class_count)
            for params, first in zip(stack, firsts):
                w1, b1 = ref_unpack(arch, params.astype(np.float64))[:2]
                assert same_bits(first, test.features.astype(np.float64) @ w1 + b1)
                want = logits_path(arch, params, test)
                for model in (params, tail_only(params)):
                    assert same_bits(evaluate(arch, model, test, first.copy()), want)
        assert builds == []
        with pytest.raises(ValueError, match="a narrow set's first layer is an "
                                             "array of shape"):
            evaluate(arch, cases[0], test, firsts[0][:, :1])


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


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_the_float32_screen_scores_like_the_float64_pass(monkeypatch, arch):
    # a model given no first layer is scored by the chunked float64 pass, here
    # 7 rows a chunk; every set is wide
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", 7 * arch.input_dim)
    branches = ScreenBranches(monkeypatch)
    full = blobs(arch, 12, seed=5)
    one_row = LabeledDataset(full.features[:1], full.labels[:1])
    cases = screen_param_cases(arch, full)
    nan, huge = cases[-3], cases[-1]
    for test in (full, one_row):
        for params in cases:
            want = float64_pass(arch, params, test)
            before = branches.seen.copy()
            assert same_bits(evaluate(arch, params, test), want)
            (branch,) = branches.seen - before
            # float64 parameters holding the same values go the same way
            assert same_bits(evaluate(arch, params.astype(np.float64), test), want)
            assert branches.seen - before == {branch: 2}
            # a NaN sends the set straight to the float64 pass
            assert branch == "fallback" or params is not nan
        assert test.prepared[1] is not None
        # a NaN gives no products; values near float32's largest give
        # products whose first layer combine refuses
        assert models.first_layer_products(
            arch, [nan.astype(np.float64)], test, ()) is None
        products = models.first_layer_products(
            arch, [huge.astype(np.float64)], test, ())
        assert products is not None and products.combine() is None
    # exact ties and the NaN leave the whole set to the float64 pass
    assert set(branches.seen) == {"chunked", "fallback"}


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_the_rescoring_first_layer_takes_the_contracts_bounds(monkeypatch, arch):
    # rows are scored again from the float64 pass's own product of them with
    # W1, plus b1, as a FirstLayer whose bounds the FirstLayer contract gives
    # from W1' = (W1; b1) alone: w_norms from _norm_bound, slope gamma_{d+1}
    # w_norms and a floor of 2d + 2 smallest normals.  Each such FirstLayer
    # is recorded as the screen receives it; the first layers made here are
    # not.
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", 5 * arch.input_dim)
    given, received = [], []
    screen = models._screen

    def recorded(arch, tail, first_layer, norms):
        if not any(first_layer is made for made in given):
            received.append((tail.copy(), first_layer._replace(
                values=first_layer.values.copy()), norms.copy()))
        return screen(arch, tail, first_layer, norms)

    monkeypatch.setattr(models, "_screen", recorded)
    test = blobs(arch, 12, seed=5)
    features, norms = test.prepared
    d, u, tiny = arch.input_dim, 2.0 ** -53, 2.0 ** -1022
    gamma = (d + 1) * u / (1 - (d + 1) * u)
    after_a_screen = 0
    for params in screen_param_cases(arch, test):
        if not np.isfinite(params).all():
            continue
        flat = params.astype(np.float64)
        w1, b1 = models._unpack(arch, flat)[:2]
        w_norms = models._norm_bound(np.vstack([w1, b1]))
        # given no first layer, every row; given one, the rows it leaves
        products = models.first_layer_products(arch, [params], test, [])
        first = None if products is None else products.combine()
        given.append(first)
        for layer in [None] if first is None else [None, first]:
            received.clear()
            assert same_bits(evaluate(arch, params, test, layer),
                             float64_pass(arch, params, test))
            if layer is not None and not received:
                continue  # the screen decided every row
            (tail, got, rows_norms), = received
            after_a_screen += layer is not None
            assert same_bits(got.w_norms, w_norms)
            assert same_bits(got.slope, gamma * w_norms)
            assert got.floor == (2 * d + 2) * tiny
            assert same_bits(tail, flat[arch.first_layer_size:])
            assert got.values.shape[1] == len(rows_norms) <= len(test)
            if layer is None:  # every row, each within the bound of x.W1 + b1
                assert same_bits(rows_norms, norms)
                error = np.abs(got.values.T - (features.astype(np.float64) @ w1 + b1))
                assert (error <= 2 * (got.slope * norms[:, None] + got.floor)).all()
    assert after_a_screen


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_the_rescoring_pass_slices_a_lone_models_rows_and_gathers_a_screens_once(
        monkeypatch, arch):
    # the prepared rows record the type of each index that reads them: a
    # lone model's rows are read as slices of the set, 5 rows a chunk; the
    # rows a first-layer screen leaves are gathered once, then sliced
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", 5 * arch.input_dim)
    keys = []

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            keys.append(type(key))
            return super().__getitem__(key)

    test = blobs(arch, 12, seed=5)
    features, norms = test.prepared
    test.__dict__["prepared"] = (features.view(Recorded), norms)
    params = screen_param_cases(arch, test)[3]  # trained
    want = float64_pass(arch, params, test)
    chunks = -(-len(test) // 5)
    assert same_bits(evaluate(arch, params, test), want)
    assert keys == [slice] * (1 + chunks)  # the set, then each chunk
    # a floor of 1e3 leaves every row to the rescoring pass
    first = models.first_layer_products(arch, [params], test, []).combine()
    keys.clear()
    assert same_bits(evaluate(arch, params, test, first._replace(floor=1e3)), want)
    assert keys == [np.ndarray] + [slice] * chunks


def fewest_wide_rows(arch: ModelArchitecture) -> LabeledDataset:
    """The wide set of fewest rows: WIDE_ELEMENTS / input_dim, rounded up."""
    rows = -(-models.WIDE_ELEMENTS // arch.input_dim)
    data = blobs(arch, rows // arch.class_count + 1, seed=6)
    return LabeledDataset(data.features[:rows], data.labels[:rows])


def test_a_set_is_wide_from_wide_elements_values():
    arch = ARCHS[-1]
    wide = fewest_wide_rows(arch)
    narrow = LabeledDataset(wide.features[:-1], wide.labels[:-1])
    assert narrow.features.size < models.WIDE_ELEMENTS <= wide.features.size
    features, norms = narrow.prepared
    assert features.dtype == np.float64 and norms is None
    # a wide set keeps its float32 features, uncopied, and no float64 copy
    features, norms = wide.prepared
    assert features.dtype == np.float32 and np.shares_memory(features, wide.features)
    assert norms.dtype == np.float64
    # each row's norm with a 1 appended, (x, 1)
    squares = np.linalg.norm(features.astype(np.float64), axis=1) ** 2
    assert np.allclose(norms, np.sqrt(squares + 1), rtol=1e-12)


def test_a_set_is_prepared_once():
    for arch, test in [(ARCHS[1], blobs(ARCHS[1], 3, seed=8)),  # narrow
                       (ARCHS[-1], fewest_wide_rows(ARCHS[-1]))]:  # wide
        params = init_params(arch, seed=2)
        evaluate(arch, params, test)
        features, norms = test.prepared
        evaluate(arch, params, test)
        assert test.prepared[0] is features and test.prepared[1] is norms


def test_a_wide_dataset_passed_straight_to_evaluate_is_screened(monkeypatch):
    branches = ScreenBranches(monkeypatch)
    arch = ARCHS[-1]
    test = fewest_wide_rows(arch)
    params = init_params(arch, seed=4)
    assert same_bits(evaluate(arch, params, test), ref_evaluate(arch, params, test))
    assert branches.seen == {"chunked": 1}
    # a vector of the wrong shape fails as on a narrow set
    with pytest.raises(ValueError, match=r"^parameter vector has shape \(50889,\)"):
        evaluate(arch, params[:-1], test)


def test_a_single_model_is_screened_without_a_float64_copy_of_the_set():
    arch = ARCHS[-1]
    test = blobs(arch, 100, seed=9)  # 1,000 rows of 784 values
    assert test.features.size >= models.WIDE_ELEMENTS
    params = init_params(arch, seed=4)
    tracemalloc.start()
    try:
        evaluate(arch, params, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below the float32 set's own size, let alone a float64 copy's
    assert peak < test.features.nbytes


def near_float32_max(arch: ModelArchitecture) -> np.ndarray:
    """Initial parameters scaled up to values near float32's largest, whose
    first layer :meth:`~models.FirstLayerProducts.combine` refuses."""
    params = (init_params(arch, seed=4).astype(np.float64) * 6e39).astype(np.float32)
    assert np.abs(params).max() > float(np.finfo(np.float32).max) / 2
    return params


SINGLE_MODELS = {
    "float64": (ARCHS[-1], lambda arch: init_params(arch, seed=4).astype(np.float64)),
    "narrow-first-layer": (ModelArchitecture(784, 4, 10),
                           lambda arch: init_params(arch, seed=4)),
    "near-float32-max": (ARCHS[-1], near_float32_max),
}


@pytest.mark.parametrize("case", SINGLE_MODELS.values(), ids=SINGLE_MODELS)
def test_every_single_model_is_scored_without_a_float64_copy_of_the_set(case):
    # a lone model, given no first layer, takes the chunked float64 pass
    arch, make = case
    test = blobs(arch, 100, seed=9)  # 1,000 rows of 784 values
    assert test.features.size >= models.WIDE_ELEMENTS
    params = make(arch)
    want = float64_pass(arch, params, test)
    tracemalloc.start()
    try:
        accuracy = evaluate(arch, params, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(accuracy, want)
    assert peak < test.features.nbytes


def test_a_single_models_column_norm_bound_covers_the_exact_norms():
    # squares of float32 values are exact in float64, and Fractions sum them
    # exactly.  In each tight column [s, t 2^-27 s], with s a power of two
    # and t^2 < 2, the float64 sum s^2 (1 + t^2 2^-54) rounds down to s^2, so
    # the plain root falls short of the exact norm; the loose ones are random
    scales = 2.0 ** np.arange(-60, 61, 20)
    tight = np.concatenate([np.array([[1.0], [t * 2.0 ** -27]]) * scales
                            for t in (1.0, 1.25, 1.4)], axis=1)
    rng = np.random.default_rng(0)
    loose = rng.normal(size=(784, 8)) * rng.choice([1e-20, 1.0, 1e20], 8)
    for w, rounds_down in ((tight, True), (loose, False)):
        w = w.astype(np.float32).astype(np.float64)
        exact = [sum(Fraction(v) ** 2 for v in column) for column in w.T]
        plain = np.sqrt(np.einsum("ij,ij->j", w, w))
        if rounds_down:
            assert all(Fraction(p) ** 2 < e for p, e in zip(plain, exact))
        bound = models._norm_bound(w)
        assert all(Fraction(b) ** 2 >= e for b, e in zip(bound, exact))


def test_a_dataset_is_frozen():
    data = blobs(ARCHS[1], 2, seed=0)
    for name in ("features", "labels"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, name, getattr(data, name))


def test_every_first_layer_on_a_wide_set_gets_products(monkeypatch):
    # every model on a wide set takes the screen's way, and first-layer
    # products, which screen a coalition, are made whatever the first
    # layer's width: 64 x 64 and 64 x 63 alike.  None for a negative weight,
    # or for products whose weighted sums could pass float64's range
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    branches = ScreenBranches(monkeypatch)
    for arch in ARCHS + [ModelArchitecture(64, 64, 2), ModelArchitecture(64, 63, 2)]:
        test = blobs(arch, 2, seed=7)
        params = init_params(arch, seed=1)
        evaluate(arch, params, test)
        assert branches.seen.total() == 1
        branches.seen.clear()
        vectors = [params.astype(np.float64), np.zeros(arch.param_count)]
        assert models.first_layer_products(arch, vectors, test, [1]) is not None
        assert models.first_layer_products(arch, vectors, test, [-1]) is None
        # a bound on |P_1|, 1 x (0 + reach) sqrt(d + 1) max ||(x, 1)||, of
        # half float64's largest value
        reach = models._F64_MAX / 2 / (math.sqrt(arch.input_dim + 1)
                                        * test.prepared[1].max())
        far = [np.zeros(arch.param_count), np.full(arch.param_count, reach)]
        assert models.first_layer_products(arch, far, test, [1]) is None


# --- the first layer from per-round products ------------------------------------


def first_layer_bound_holds(arch, params, test, first) -> bool:
    """Whether ``first`` bounds its distance from the float64 pass's first
    layer (before the ReLU, bias included) as its fields say, plus that
    pass's own error, and bounds the norms of the first layer's columns
    with their biases below them, (W1_j; b1_j)."""
    features, norms = test.prepared  # norms of the rows (x, 1)
    w, b = [a.astype(np.float64) for a in models._unpack(arch, params)[:2]]
    u, d = 2.0 ** -53, arch.input_dim
    gamma = (d + 1) * u / (1 - (d + 1) * u)
    reference = features.astype(np.float64) @ w + b
    margin = ((first.slope + gamma * first.w_norms) * norms[:, None]
              + first.floor + gamma * (2 * d + 2) * 2.0 ** -1022)
    return (np.all(np.abs(first.values.T - reference) <= margin * (1 + 1e-9))
            and np.all(np.linalg.norm(np.vstack([w, b]), axis=0) <= first.w_norms))


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_first_layer_products_score_like_the_float64_pass(monkeypatch, arch):
    # every set is wide; rows are rescored 5 a chunk
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", 5 * arch.input_dim)
    branches = ScreenBranches(monkeypatch)
    full = blobs(arch, 12, seed=5)
    # the row of largest norm: in the 1x1 model it keeps the hidden unit
    # alive, so that a one-ulp tie in the second layer shows
    top = int(np.argmax(np.linalg.norm(full.features, axis=1)))
    one_row = LabeledDataset(full.features[top:top + 1], full.labels[top:top + 1])
    # the walks' coalitions, then all 16 in ascending mask order, as mr
    # enumerates them: combine's running sum is grown by one member, or
    # summed anew after a singleton, the base or a skipped prefix
    scored = walked_coalitions(JOIN_ORDERS) + [players_of(m) for m in range(16)]
    kinds = steps(scored)
    assert set(kinds) == set(STEPS)
    rng = np.random.default_rng(arch.param_count)
    refused, from_coalitions = 0, collections.Counter()
    for base in screen_param_cases(arch, full):
        # a zero update; two that scale the base by powers of two, so that
        # every coalition's model keeps the base's exact ties and (up to
        # rounding) its one-ulp ones, its NaN and its scale; a random one
        updates = {1: np.zeros_like(base), 2: base * np.float32(0.125),
                   3: base * np.float32(-0.25),
                   4: rng.normal(0.0, 1e-2, arch.param_count).astype(np.float32)}
        # unequal weights, so w_i / W is no power of two and its rounding
        # shows; then one past 2^53, which rounds when cast to float64
        for weights in ({1: 7, 2: 13, 3: 3, 4: 101}, {1: 2 ** 53, 2: 13, 3: 3, 4: 101}):
            rec = federation.RoundRecord(0, base, updates, base)
            stack = RoundStack(rec, weights)
            for test in (full, one_row):
                products = round_products(rec, weights, arch, test)
                # a NaN anywhere in the round leaves it without products
                assert (products is None) == bool(np.isnan(base).any())
                for ids, kind in zip(scored, kinds):
                    params = stack.rebuild(ids) if ids else base
                    first = None if products is None else products.combine(ids)
                    if first is None:
                        refused += products is not None
                    else:
                        assert first_layer_bound_holds(arch, params, test,
                                                       first), (ids, kind)
                    want = float64_pass(arch, params, test)
                    # evaluate's screen works in a first layer's values
                    again = None if first is None else first._replace(
                        values=first.values.copy())
                    before = branches.seen.copy()
                    assert same_bits(evaluate(arch, params, test, first), want), (
                        ids, kind)
                    (branch,) = branches.seen - before
                    # float64 parameters holding the same values go the same way
                    assert same_bits(evaluate(arch, params.astype(np.float64), test,
                                              again), want)
                    assert branches.seen - before == {branch: 2}
                    # without a first layer, by the chunked float64 pass
                    assert (branch == "chunked") <= (first is None)
                    if first is not None:
                        from_coalitions[branch] += 1
    # values near float32's largest, whose models could overflow, are refused
    assert refused
    assert set(from_coalitions) == {"decided", "rescored", "fallback"}


def test_a_first_layer_serves_one_evaluation(monkeypatch):
    # evaluate's screen works in a first layer's values in place (the ReLU,
    # or the decision where they are the logits): scored again, the same
    # values would give the ReLU's output, or the logits plus the margins
    arch = ARCHS[1]
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    test = blobs(arch, 12, seed=5)
    rng = np.random.default_rng(2)
    base = init_params(arch, seed=3) * np.float32(20.0)
    updates = {i: rng.normal(0.0, 1.0, arch.param_count).astype(np.float32)
               for i in (1, 2, 3)}
    weights = {1: 7, 2: 13, 3: 3}
    rec = federation.RoundRecord(0, base, updates, base)
    stack = RoundStack(rec, weights)
    products = round_products(rec, weights, arch, test)
    for ids in [(), (1,), (1, 3), (1, 2, 3)]:
        params = stack.rebuild(ids) if ids else base
        first = products.combine(ids)
        want = float64_pass(arch, params, test)
        assert same_bits(evaluate(arch, params, test, first), want)
        for model in (params, params.astype(np.float64)):
            with pytest.raises(ValueError, match="^a first layer serves one evaluation$"):
                evaluate(arch, model, test, first)
        assert same_bits(evaluate(arch, params, test, products.combine(ids)), want)


def test_scoring_a_round_holds_one_running_sum():
    arch = ARCHS[-1]
    test = blobs(arch, 100, seed=9)  # 1,000 rows: 512,000 bytes a product
    test.prepared
    weights = {i: 10 + i for i in range(1, 7)}
    rng = np.random.default_rng(0)
    base = init_params(arch, seed=4)
    updates = {i: rng.normal(0.0, 1e-2, arch.param_count).astype(np.float32)
               for i in weights}
    rec = federation.RoundRecord(0, base, updates, base)
    row = len(test) * arch.hidden_dim * 8
    tracemalloc.start()
    try:
        products = round_products(rec, weights, arch, test)
        for mask in [*range(64), *rng.permutation(64).tolist()]:
            products.combine(players_of(mask))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 7 products, the running sum, one first layer and a chunk of rows
    assert peak <= (len(weights) + 1 + 3) * row


@pytest.mark.parametrize("weights", [{1: 7, 2: 13, 3: 3, 4: 101},
                                     {1: 2 ** 53 + 1, 2: 13, 3: 3, 4: 2 ** 64 + 3}],
                         ids=["small", "past-2^53"])
@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_products_from_float32_blocks_match_their_float64_casts(monkeypatch, arch,
                                                                weights):
    # every set is wide; 5 rows a chunk, so that the chunks' edges show;
    # past 2^53 the weights round when cast
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", 5 * arch.input_dim)
    full = blobs(arch, 12, seed=5)
    one_row = LabeledDataset(full.features[:1], full.labels[:1])
    rng = np.random.default_rng(arch.param_count)
    cases = screen_param_cases(arch, full)
    for base in cases[:-3] + cases[-2:]:  # a NaN makes no products
        updates = {1: np.zeros_like(base), 2: base * np.float32(0.125),
                   3: base * np.float32(-0.25),
                   4: rng.normal(0.0, 1e-2, arch.param_count).astype(np.float32)}
        rec = federation.RoundRecord(0, base, updates, base)
        for test in (full, one_row):
            assert_products_match_the_float64_casts(rec, weights, arch, test)


# --- the lazy full rebuild of a wide coalition -----------------------------------


def test_a_wide_round_holds_its_products_and_tails_not_a_float64_stack():
    arch = ARCHS[-1]  # d=784, hidden 64: P = 50,890
    test = fewest_wide_rows(arch)
    test.prepared
    n = 6
    rng = np.random.default_rng(0)
    base = init_params(arch, seed=4)
    updates = {i: rng.normal(0.0, 1e-2, arch.param_count).astype(np.float32)
               for i in range(1, n + 1)}
    weights = {i: 10 + i for i in updates}
    rec = federation.RoundRecord(0, base, updates, base)
    tracemalloc.start()
    try:
        rgame = estimators.RoundGame.from_round(rec, weights, arch, test)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = len(test) * arch.hidden_dim * 8  # one product, float64
    products = (n + 1) * row
    tails = (n + 1) * (arch.param_count - arch.first_layer_size) * 8
    stack = (n + 1) * arch.param_count * 8  # every vector in float64
    # the products, their running sum and the tails, and less than one
    # float64 parameter vector besides
    assert held < products + row + tails + arch.param_count * 8
    # no float64 stack beside the products, even while they are made
    assert peak < products + stack
    assert rgame.base_utility == float64_pass(arch, base, test)
    full = federation.reconstruct_submodel(rec, weights, weights)
    assert rgame.full_utility == float64_pass(arch, full, test)


@pytest.mark.parametrize("weights", [{1: 7, 2: 13, 3: 3, 4: 101},
                                     {1: 2 ** 53, 2: 13, 3: 3, 4: 101}],
                         ids=["chunked", "past-2^53"])
@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_a_wide_coalition_is_rebuilt_in_full_only_where_evaluate_reads_it(
        monkeypatch, arch, weights):
    # every set is wide; rebuild_masks rebuilds in chunks from exact integer
    # totals, also past a total weight of 2^53, where the weights' and
    # totals' casts to float64 round
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    branches = ScreenBranches(monkeypatch)
    start = arch.first_layer_size
    full_rebuilds = []
    reconstruct = estimators.reconstruct_submodel

    def counted_reconstruct(record, ids, weights):
        full_rebuilds.append(ids)
        return reconstruct(record, ids, weights)

    outcomes = collections.Counter()

    def checked_evaluate(arch, params, test, first_layer=None):
        seen, rebuilt = branches.seen.copy(), len(full_rebuilds)
        accuracy = models.evaluate(arch, params, test, first_layer)
        seen, rebuilt = branches.seen - seen, len(full_rebuilds) - rebuilt
        if isinstance(params, models.LazyModel):
            # rebuilt in full once, where a row was scored again, the
            # screen fell back, or combine refused the coalition, which the
            # chunked float64 pass then scores
            if first_layer is None:
                outcome = "refused"
                assert seen.total() == 1 and set(seen) <= {"chunked", "fallback"}
            else:
                (outcome,) = seen
            outcomes[outcome] += 1
            assert rebuilt == (outcome != "decided")
            # the tail is the model's, bit for bit
            assert same_bits(params.tail, params.params[start:])
            params = params.params
        else:
            assert rebuilt == 0
        assert same_bits(accuracy, float64_pass(arch, params, test))
        return accuracy

    monkeypatch.setattr(estimators, "reconstruct_submodel", counted_reconstruct)
    monkeypatch.setattr(estimators, "evaluate", checked_evaluate)
    full = blobs(arch, 12, seed=5)
    top = int(np.argmax(np.linalg.norm(full.features, axis=1)))
    one_row = LabeledDataset(full.features[top:top + 1], full.labels[top:top + 1])
    rng = np.random.default_rng(arch.param_count)
    for base in screen_param_cases(arch, full):
        zeros = np.zeros_like(base)
        # as in the products test above, and a round of zero updates, whose
        # every coalition is the base, with its ties
        mixed = {1: zeros, 2: base * np.float32(0.125), 3: base * np.float32(-0.25),
                 4: rng.normal(0.0, 1e-2, arch.param_count).astype(np.float32)}
        for updates in (mixed, dict.fromkeys(weights, zeros)):
            rec = federation.RoundRecord(0, base, updates, base)
            log = federation.GradientLog(arch, [rec], weights)
            stack = RoundStack(rec, weights)
            tails = RoundStack(rec, weights, start)
            masks = np.arange(1, 16)
            for mask, tail in zip(masks.tolist(), tails.rebuild_masks(masks)):
                model = stack.rebuild(players_of(mask))
                assert same_bits(tail, model[start:])
                assert same_bits(tails.rebuild(players_of(mask)), model[start:])
            for test in (full, one_row):
                lazy = outcomes.total()
                game = estimators.RoundGame.from_round(rec, weights, arch, test).game
                values = [game.value_mask(mask) for mask in range(16)]
                assert estimators.round_utilities(rec, log, test).tolist() == values
                # a NaN leaves the round without products: every model is
                # rebuilt in full before evaluate, as on a narrow set
                assert outcomes.total() - lazy == (0 if np.isnan(base).any() else 30)
    assert set(outcomes) == {"decided", "rescored", "fallback", "refused"}


def test_coefficients_are_the_rebuilds_shares(monkeypatch):
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    arch = ARCHS[1]
    weights = {1: 7, 2: 13, 3: 3, 4: 101}
    rng = np.random.default_rng(3)
    base = rng.normal(size=arch.param_count).astype(np.float32)
    updates = {i: rng.normal(size=arch.param_count).astype(np.float32)
               for i in weights}
    rec = federation.RoundRecord(0, base, updates, base)
    stack = RoundStack(rec, weights)
    products = round_products(rec, weights, arch, blobs(arch, 1, seed=0))
    for ids in [(), (2,), (1, 4), (1, 2, 3, 4)]:
        c = products.coefficients(ids)
        assert c.dtype == np.float64 and c[0] == 1.0
        total = sum(weights[i] for i in ids)
        assert c[1:].tolist() == [weights[i] / total if i in ids else 0.0
                                  for i in weights]
        if ids:  # one float64 term per member, summed in id order
            acc = base.astype(np.float64)
            for i in ids:
                acc = acc + c[i] * updates[i].astype(np.float64)
            assert same_bits(stack.rebuild(ids), acc.astype(np.float32))
