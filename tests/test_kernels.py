"""Differential tests: the model kernels against conftest's float64
reference, the test-local copies of their first implementations, where
test_fast_paths.py's harness does not reach: the loss, errors, which way
evaluate goes on a wide set and what it reads, the bounds of a first layer,
and memory.  (Every coalition's model, logits, first layer and score, and
the stacked trainer, are checked bit for bit in test_fast_paths.py.)

The reference allocates a fresh float64 copy of the test features on every
call, adds biases and the ReLU into new temporaries and computes the loss on
every training batch.  The library's kernels skip that work, and evaluate
screens wide test sets from first-layer products; every result must still be
bit-equal, not merely close.
"""
from __future__ import annotations

import collections
import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import (ARCH_IDS, ARCHS, BLOCK_ROWS, BLOCK_WEIGHTS, JOIN_ORDERS, STEPS,
                      blobs, block_rounds, float64_pass, param_cases, ref_forward,
                      ref_loss_and_gradient, ref_train_stacked, round_products,
                      same_bits, screen_param_cases, steps, walked_coalitions)

from fedshapley import (
    LabeledDataset,
    ModelArchitecture,
    evaluate,
    init_params,
    loss_and_gradient,
    predict_logits,
)
from fedshapley import estimators, federation, models
from fedshapley.cli import CONFIG_SCHEMA, EXIT_OK, main
from fedshapley.federation import RoundStack, round_vectors
from fedshapley.games import players_of
from fedshapley.scenarios import ScenarioKind

pytestmark = pytest.mark.blas_order


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_loss_and_gradient_match_the_reference(arch):
    data = blobs(arch, 8, seed=2)
    for params in param_cases(arch):
        want_loss, want_grad = ref_loss_and_gradient(arch, params, data.features,
                                                     data.labels)
        loss, grad = loss_and_gradient(arch, params, data.features, data.labels)
        assert same_bits(loss, want_loss) and isinstance(loss, float)
        assert same_bits(grad, want_grad)


def test_kernel_errors_are_unchanged():
    arch = ARCHS[2]
    params = init_params(arch, seed=0)
    empty = LabeledDataset(np.empty((0, arch.input_dim)), np.empty(0))
    for fn in (float64_pass, evaluate):
        with pytest.raises(ValueError) as err:
            fn(arch, params, empty)
        assert str(err.value) == "cannot evaluate on an empty test set"
    full = blobs(arch, 2, seed=0)
    messages = []
    # evaluate fails the same on a set it has already prepared
    for fn in (float64_pass, evaluate, evaluate):
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


def simulate_bytes(tmp_path, name: str, **sections) -> bytes:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"schema": CONFIG_SCHEMA, "seed": 4, "rounds": 2,
                                  **sections}))
    out = tmp_path / name
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    (log,) = out.glob("*.gtgl")
    return log.read_bytes()


@pytest.mark.parametrize("hidden_dim", [0, 5])
@pytest.mark.parametrize("kind", [kind.value for kind in ScenarioKind])
def test_simulate_trains_groups_as_each_participant_alone(tmp_path, monkeypatch,
                                                          kind, hidden_dim):
    # ten participants; the same-size kinds hold 20 rows each, and
    # same_dist_diff_size pairs 10, 10, 15, 15, .., 30, 30 (25 rows leave a
    # last batch of one); a budget of three models splits each group of one
    # length into groups of at most three
    sections = {"source": {"input_dim": 16, "class_count": 10, "spread": 1.0},
                "scenario": {"kind": kind, "n": 10}, "model": {"hidden_dim": hidden_dim},
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
    got = simulate_bytes(tmp_path, "groups", **sections)
    monkeypatch.setattr(federation, "_stack_datasets", stack_datasets)
    monkeypatch.setattr(federation, "_train_stacked", ref_train_stacked)
    want = simulate_bytes(tmp_path, "reference", **sections)
    assert got == want
    # two rounds of ten participants, in groups of one length, of at most three
    assert sum(map(len, groups)) == 20
    assert all(len(set(lengths)) == 1 for lengths in groups)
    assert max(map(len, groups)) == (2 if kind == "same_dist_diff_size" else 3)
    # each group is stacked once, for both rounds
    assert stacked == [len(lengths) for lengths in groups[:len(groups) // 2]]


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
        # all zeros tie every class and score class 0; a NaN picks its class.
        # A LazyModel is read through params, built once (the models
        # themselves are scored in test_fast_paths.py)
        for params in [*param_cases(arch), nan, nan.astype(np.float64)]:
            del builds[:]
            assert same_bits(evaluate(arch, lazy(params), test),
                             float64_pass(arch, params, test))
            assert len(builds) == 1
    # the messages, an empty set's first, whatever the parameters
    empty = LabeledDataset(np.empty((0, arch.input_dim)), np.empty(0))
    short = init_params(arch, seed=0)[:-1]
    for test, message in [(empty, "cannot evaluate on an empty test set"),
                          (full, f"parameter vector has shape "
                                 f"({arch.param_count - 1},), architecture "
                                 f"needs ({arch.param_count},)")]:
        for fn, params in [(float64_pass, short), (evaluate, short),
                           (evaluate, lazy(short))]:
            with pytest.raises(ValueError) as err:
                fn(arch, params, test)
            assert str(err.value) == message


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_stacked_first_layers_are_the_float64_passs_own(arch):
    # given the first layer of one product over a stack, evaluate scores a
    # model from its tail alone, and refuses a first layer of the wrong
    # shape (the layers themselves, and the models scored from them, are
    # checked in test_fast_paths.py; an infinite weight times a zero input
    # there too, in one_input_layer)
    full = blobs(arch, 12, seed=1)
    one_row = LabeledDataset(full.features[-1:], full.labels[-1:])
    cases = screen_param_cases(arch, full)
    builds = []

    def tail_only(params):
        return models.LazyModel(params[arch.first_layer_size:],
                                lambda: builds.append(1) or params)

    for test in (full, one_row):
        assert models.first_layer_chunk(arch, test) >= 1
        for stack in (np.stack(cases), np.stack(cases).astype(np.float64)):
            firsts = models.first_layers(arch, stack, test)
            for params, first in zip(stack, firsts):
                assert same_bits(evaluate(arch, tail_only(params), test, first),
                                 float64_pass(arch, params, test))
        assert builds == []
        with pytest.raises(ValueError, match="a narrow set's first layer is an "
                                             "array of shape"):
            evaluate(arch, cases[0], test, firsts[0][:, :0])


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_the_float32_screen_scores_like_the_float64_pass(monkeypatch, arch):
    # a model given no first layer is scored by the chunked float64 pass;
    # every set is wide.  The models are the bases of the float32-blocks
    # inputs, whose float32 scores test_fast_paths.py checks, as its -wide
    # tests; here, which way each goes
    records, tests = block_rounds(arch, BLOCK_WEIGHTS["small"])
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", BLOCK_ROWS * arch.input_dim)
    branches = ScreenBranches(monkeypatch)
    cases = [rec.base_model for rec in records]
    nan, huge = cases[-3], cases[-1]
    for test in tests:
        for params in cases:
            before = branches.seen.copy()
            accuracy = evaluate(arch, params, test)
            (branch,) = branches.seen - before
            # float64 parameters holding the same values go the same way, to
            # the same accuracy
            assert same_bits(evaluate(arch, params.astype(np.float64), test), accuracy)
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
            evaluate(arch, params, test, layer)  # scored as in test_fast_paths.py
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
                error = np.abs(got.values.T - ref_forward(arch, params, features)[0])
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
    assert same_bits(evaluate(arch, params, test), float64_pass(arch, params, test))
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
    reference = ref_forward(arch, params, features)[0]
    margin = ((first.slope + gamma * first.w_norms) * norms[:, None]
              + first.floor + gamma * (2 * d + 2) * 2.0 ** -1022)
    return (np.all(np.abs(first.values.T - reference) <= margin * (1 + 1e-9))
            and np.all(np.linalg.norm(np.vstack([w, b]), axis=0) <= first.w_norms))


@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_first_layer_products_score_like_the_float64_pass(monkeypatch, arch):
    # every set is wide.  Over the float32-blocks inputs, whose scores
    # test_fast_paths.py checks (along these walks, as its -wide tests),
    # each coalition's combined first layer keeps its bounds, and evaluate
    # takes the same way, and gives the same accuracy, from float32 and
    # float64 parameters
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", BLOCK_ROWS * arch.input_dim)
    branches = ScreenBranches(monkeypatch)
    # the walks' coalitions, then all 16 in ascending mask order, as mr
    # enumerates them: combine's running sum is grown by one member, or
    # summed anew after a singleton, the base or a skipped prefix
    scored = walked_coalitions(JOIN_ORDERS) + [players_of(m) for m in range(16)]
    kinds = steps(scored)
    assert set(kinds) == set(STEPS)
    refused, from_coalitions = 0, collections.Counter()
    for weights in (BLOCK_WEIGHTS["small"], BLOCK_WEIGHTS["2^53"]):
        records, tests = block_rounds(arch, weights)
        for rec in records:
            stack = RoundStack(round_vectors(rec, weights), weights)
            for test in tests:
                products = round_products(rec, weights, arch, test)
                # a NaN anywhere in the round leaves it without products
                assert (products is None) == bool(np.isnan(rec.base_model).any())
                for ids, kind in zip(scored, kinds):
                    params = stack.rebuild(ids)
                    first = None if products is None else products.combine(ids)
                    if first is None:
                        refused += products is not None
                    else:
                        assert first_layer_bound_holds(arch, params, test,
                                                       first), (ids, kind)
                    # evaluate's screen works in a first layer's values
                    again = None if first is None else first._replace(
                        values=first.values.copy())
                    before = branches.seen.copy()
                    accuracy = evaluate(arch, params, test, first)
                    (branch,) = branches.seen - before
                    assert same_bits(evaluate(arch, params.astype(np.float64), test,
                                              again), accuracy), (ids, kind)
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
    stack = RoundStack(round_vectors(rec, weights), weights)
    products = round_products(rec, weights, arch, test)
    for ids in [(), (1,), (1, 3), (1, 2, 3)]:
        params = stack.rebuild(ids)
        first = products.combine(ids)
        want = float64_pass(arch, params, test)
        # an array, the first layer a narrow set takes, is refused unspent
        with pytest.raises(ValueError, match="^a wide set's first layer is a First"):
            evaluate(arch, params, test, first.values)
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


@pytest.mark.parametrize("weights", [BLOCK_WEIGHTS["small"], BLOCK_WEIGHTS["2^53"]],
                         ids=["chunked", "past-2^53"])
@pytest.mark.parametrize("arch", ARCHS, ids=ARCH_IDS)
def test_a_wide_coalition_is_rebuilt_in_full_only_where_evaluate_reads_it(
        monkeypatch, arch, weights):
    # every set is wide.  Over the float32-blocks inputs, whose rebuilds and
    # scores test_fast_paths.py checks (as its -wide tests), a round's game
    # and round_utilities hand evaluate a lazy model of each coalition's
    # tail, rebuilt in full only where evaluate reads it
    records, tests = block_rounds(arch, weights)
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", BLOCK_ROWS * arch.input_dim)
    branches = ScreenBranches(monkeypatch)
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
            # the empty coalition's full model is the base itself, rebuilt by
            # nothing
            assert rebuilt == (outcome != "decided" and params.params is not base)
        else:
            assert rebuilt == 0
        return accuracy

    monkeypatch.setattr(estimators, "reconstruct_submodel", counted_reconstruct)
    monkeypatch.setattr(estimators, "evaluate", checked_evaluate)
    for rec in records:
        base, log = rec.base_model, federation.GradientLog(arch, [rec], weights)
        for test in tests:
            lazy = outcomes.total()
            game = estimators.RoundGame.from_round(rec, weights, arch, test).game
            for mask in range(16):
                game.value_mask(mask)
            estimators.round_utilities(rec, log, test)
            # a NaN leaves the round without products: every model is
            # rebuilt in full before evaluate, as on a narrow set; else
            # every model is lazy, the base's too
            assert outcomes.total() - lazy == (0 if np.isnan(base).any() else 32)
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
    stack = RoundStack(round_vectors(rec, weights), weights)
    products = round_products(rec, weights, arch, blobs(arch, 1, seed=0))
    for ids in [(), (2,), (1, 4), (1, 2, 3, 4)]:
        c, made = products.coefficients(ids)
        assert c.dtype == np.float64 and c[0] == 1.0
        total = sum(weights[i] for i in ids)
        assert made == (float(total) if ids else None)
        assert c[1:].tolist() == [weights[i] / total if i in ids else 0.0
                                  for i in weights]
        if ids:  # one float64 term per member, summed in id order
            acc = base.astype(np.float64)
            for i in ids:
                acc = acc + c[i] * updates[i].astype(np.float64)
            assert same_bits(stack.rebuild(ids), acc.astype(np.float32))
