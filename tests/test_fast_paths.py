"""Every fast route to a coalition's model and score, and the kernels under
them, checked bit for bit against reconstruct_submodel's model (the base,
for the empty coalition) and conftest's float64 reference: float64_pass's
accuracy, ref_forward's first layers and logits, and ref_train_local's
training of each set alone.

PATHS pairs each fast path with what it must give; a new path joins as one
line there.  Both sides of a pair take a Run, one round on one test set with
its reference, and yield (key, value) pairs: the path must yield every key
of the other side, each value with the same type, shape and bytes.  A path
that reads no test set, or trains on one, runs once a round, on the first;
every other runs on each of the round's test sets, in one test as it is and
in another (its id ending in -wide) with every set wide
(models.WIDE_ELEMENTS patched to 0).  INPUTS holds the rounds: hand-built
adversarial ones, whose own assertions run as they are built, and rounds
drawn from the constant SEEDS.
"""
from __future__ import annotations

import functools
import itertools
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from conftest import (ARCH_IDS, ARCHS, BLOCK_ROWS, BLOCK_WEIGHTS, JOIN_ORDERS, LOGS,
                      bits, blobs, block_rounds, float64_pass, gaussian_blobs,
                      narrow_layer_wide_set_log, quick_log, ref_accuracy, ref_forward,
                      ref_train_local, walked_coalitions)

from fedshapley import (GradientLog, LabeledDataset, ModelArchitecture, RoundGame,
                        RoundRecord, TrainConfig, evaluate, fedavg_aggregate, gtg_eval,
                        init_params, mr_eval, position_marginal_profile,
                        predict_logits, reconstruct_submodel, train_local)
from fedshapley import estimators, federation, models
from fedshapley.estimators import round_utilities
from fedshapley.federation import CHUNK_ELEMENTS, RoundStack, round_vectors
from fedshapley.games import mask_of, players_of

pytestmark = pytest.mark.blas_order


class Case(NamedTuple):
    arch: ModelArchitecture
    record: RoundRecord
    weights: dict[int, int]
    tests: tuple[LabeledDataset, ...]
    chunk: int | None = None  # models.CHUNK_ELEMENTS while the paths run


class Run(NamedTuple):
    arch: ModelArchitecture
    record: RoundRecord
    weights: dict[int, int]
    test: LabeledDataset
    models: dict[int, np.ndarray]  # bitmask -> reconstruct_submodel's model, or the base
    utilities: list[float]  # bitmask -> float64_pass's accuracy
    # bitmask -> ref_forward's first layer and logits; None in a -wide test
    # that reads the accuracies its twin as it is left
    forwards: list[tuple[np.ndarray, np.ndarray]] | None


def rebuilt_models(case: Case) -> dict[int, np.ndarray]:
    """Every coalition's model by mask: the empty one's is the base."""
    return {0: case.record.base_model,
            **{mask: reconstruct_submodel(case.record, players_of(mask), case.weights)
               for mask in range(1, 1 << len(case.weights))}}


def scores(case: Case, built: dict[int, np.ndarray], test: LabeledDataset) -> list[float]:
    return [float64_pass(case.arch, model, test) for model in built.values()]


# --- the fast paths and their references -------------------------------------------


def rebuilt(tail: bool, chunked: bool = False, buffer: int | None = None):
    """RoundStack's model of every coalition (from the first layer's end, for
    a ``tail``): a block of masks at a time, each model keyed by its place in
    mask order, each block summed under a ufunc ``buffer`` of that many values
    (None: the stack's own, federation.block_buffer's), or one at a time,
    forwards and then backwards, so that no rebuild can lean on the scratch
    row's last use."""
    def path(run):
        stack = RoundStack(round_vectors(run.record, run.weights), run.weights,
                           run.arch.first_layer_size * tail)
        if buffer is not None:
            stack._buffer = buffer
        if chunked:
            return enumerate(itertools.chain.from_iterable(
                stack.rebuild_chunks(len(run.weights))))
        masks = list(run.models)
        return ((mask, stack.rebuild(players_of(mask))) for mask in masks + masks[::-1])
    return path


def models_from(tail: bool):
    return lambda run: ((mask, model[run.arch.first_layer_size * tail:])
                        for mask, model in run.models.items())


def products_of(cast, combine: bool = True):
    """The round's first-layer products from ``cast`` of the record's float32
    blocks, then, if ``combine``, every coalition's first layer from them."""
    def path(run):
        made = models.first_layer_products(
            run.arch, [cast(v) for v in round_vectors(run.record, run.weights)],
            run.test, [run.weights[i] for i in sorted(run.weights)])
        yield "made", made is not None
        if made is not None:
            yield from ((name, getattr(made, name))
                        for name in ("_products", "_norms", "_max_abs"))
            if combine:
                yield from ((mask, made.combine(players_of(mask)))
                            for mask in range(1 << len(run.weights)))
    return path


def first_construction(run):
    """The products' first construction, on the float64 casts: every float64
    block held at once, each chunk of rows multiplied by each block in turn,
    unit-major, plus b1; made on a wide set whose blocks are all finite."""
    arch, vectors = run.arch, round_vectors(run.record, run.weights)
    features, row_norms = run.test.prepared
    made = row_norms is not None and all(np.isfinite(v).all() for v in vectors)
    yield "made", made
    if not made:
        return
    d, width = arch.input_dim, arch.hidden_dim or arch.class_count
    blocks = [v[:arch.first_layer_size].reshape(d + 1, width).astype(np.float64)
              for v in vectors]
    products = np.empty((len(blocks), width, len(features)))
    step = max(1, models.CHUNK_ELEMENTS // d)
    for begin in range(0, len(features), step):
        rows = features[begin:begin + step].astype(np.float64)
        for block, out in zip(blocks, products):
            out[:, begin:begin + step] = np.dot(rows, block[:-1]).T
    for block, out in zip(blocks, products):
        out += block[-1][:, None]
    products[1:] += products[0]
    shares = [run.weights[i] for i in sorted(run.weights)]
    products[1:] *= np.array(shares, dtype=np.float64)[:, None, None]
    yield "_products", products.reshape(len(blocks), -1)
    yield "_norms", np.sqrt([np.einsum("ij,ij->j", b, b) for b in blocks])
    yield "_max_abs", np.array([np.abs(v.astype(np.float64)).max() for v in vectors])


def walks(n: int) -> list[tuple[tuple[int, ...], int]]:
    """:data:`conftest.JOIN_ORDERS` over ``n`` players: those past n left
    out, 5..n appended, and a walk that reached all four reaching all n."""
    return [(tuple(p for p in order if p <= n) + tuple(range(5, n + 1)),
             n if reach == 4 else min(reach, n)) for order, reach in JOIN_ORDERS]


def walked(run):
    """The game's utilities along the walks, then in ascending mask order, as
    mr enumerates them; then its evaluation count."""
    n = len(run.weights)
    game = RoundGame.from_round(run.record, run.weights, run.arch, run.test).game
    for ids in walked_coalitions(walks(n)) + [players_of(m) for m in range(1 << n)]:
        yield mask_of(ids), game.value_mask(mask_of(ids))
    yield "evals", game.eval_count


def enumerated(run):
    log = GradientLog(run.arch, [run.record], run.weights)
    return enumerate(round_utilities(run.record, log, run.test))


def utilities(run):
    return enumerate(run.utilities)


def forwards(run):
    """evaluate of every coalition's model: cast to float64 on a narrow set,
    where the game scores the float32 model, and in float32 on a wide set,
    where the game screens a lazy one.  On a narrow set, also predict_logits
    of the float32 model on the set's prepared float64 features, and the
    model's first layer from one first_layers call over the stacked float64
    models, as mr makes them.  (predict_logits does not depend on the set's
    width, and on a wide set a float64 model takes the float32 one's way
    after one cast, which test_kernels.py checks.)"""
    arch, test = run.arch, run.test
    narrow = test.prepared[1] is None
    for mask, model in run.models.items():
        yield ("evaluate", mask), evaluate(arch, model.astype(np.float64) if narrow
                                           else model, test)
        if narrow:
            yield ("predict_logits", mask), predict_logits(arch, model, test.prepared[0])
    if narrow:
        stack = np.stack(list(run.models.values())).astype(np.float64)
        yield from ((("first_layers", mask), first)
                    for mask, first in enumerate(models.first_layers(arch, stack, test)))


def forwards_reference(run):
    narrow = run.test.prepared[1] is None
    for mask in run.models:
        yield ("evaluate", mask), run.utilities[mask]
        if narrow:
            first, logits = run.forwards[mask]
            yield ("predict_logits", mask), logits
            yield ("first_layers", mask), first


# two epochs of 4-row batches, over sets of at most 9 rows whose last batch
# holds one row
TRAINING = TrainConfig(local_epochs=2, batch_size=4, learning_rate=0.3, seed=5)


def training_sets(test: LabeledDataset) -> list[LabeledDataset]:
    """Two sets of one length from ``test``: its first rows, and its last
    rows in reverse, as many as leave a last batch of one row, up to 9."""
    rows = min(len(test) - 1, 8) // TRAINING.batch_size * TRAINING.batch_size + 1
    return [LabeledDataset(test.features[:rows], test.labels[:rows]),
            LabeledDataset(test.features[::-1][:rows], test.labels[::-1][:rows])]


def trained(run):
    """models._train_stacked of the round's base on the training_sets in one
    pass, then train_local of the first alone; or that training diverged.
    Either way, whether the base was left as it was."""
    base, sets = run.record.base_model, training_sets(run.test)
    kept = base.copy()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # as run_federation runs it
            stacked = models._train_stacked(run.arch, base, *models._stack_datasets(sets),
                                            TRAINING)
        alone = train_local(run.arch, base, sets[0], TRAINING)
    except ValueError as error:
        assert str(error) == "training diverged: a trained parameter is not finite"
        yield "diverged", True
    else:
        yield "diverged", False
        yield from enumerate(stacked)
        yield "train_local", alone
    yield "base kept", bits(base) == bits(kept)


def trained_alone(run):
    """ref_train_local of each of the training_sets alone: diverged where a
    trained parameter is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [ref_train_local(run.arch, run.record.base_model, data, TRAINING)
                 for data in training_sets(run.test)]
    diverged = not np.isfinite(alone).all()
    yield "diverged", diverged
    if not diverged:
        yield from enumerate(alone)
        yield "train_local", alone[0]
    yield "base kept", True


def through_first_layers(case: Case, test: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """round_utilities of the case's round on ``test``, and the models whose
    first layers it stacked, in the order it stacked them."""
    stacked, first_layers = [], models.first_layers
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(estimators, "first_layers",
                        lambda *args: stacked.append(args[1]) or first_layers(*args))
        got = round_utilities(case.record, GradientLog(case.arch, [case.record],
                                                       case.weights), test)
    return got, np.concatenate(stacked)


# the ufunc buffers, in values, that rebuild_chunks' blocks are summed under:
# the bits may not depend on it
BUFFERS = {"16": 16, "block_buffer's size": None, "2^20": 1 << 20}

PATHS = {  # name: (path, reference, whether the path runs on every test set)
    "RoundStack.rebuild": (rebuilt(False), models_from(False), False),
    "RoundStack.rebuild from first_layer_size": (rebuilt(True), models_from(True), False),
    **{f"RoundStack.rebuild_chunks{start} under a buffer of {name}": (
        rebuilt(tail, True, buffer), models_from(tail), False)
       for tail, start in ((False, ""), (True, " from first_layer_size"))
       for name, buffer in BUFFERS.items()},
    "first_layer_products of the float64 casts": (
        products_of(lambda v: v.astype(np.float64), combine=False), first_construction,
        True),
    "first_layer_products of the float32 blocks": (
        products_of(lambda v: v), products_of(lambda v: v.astype(np.float64)), True),
    "RoundGame.from_round along JOIN_ORDERS walks": (
        walked, lambda run: [*utilities(run), ("evals", len(run.utilities))], True),
    "round_utilities": (enumerated, utilities, True),
    "evaluate, predict_logits and first_layers": (forwards, forwards_reference, True),
    "_train_stacked and train_local": (trained, trained_alone, False),
}


def check_every_path(case: Case, built: dict[int, np.ndarray],
                     accuracies: dict[int, list[float]], wide: bool, monkeypatch) -> None:
    for index, test in enumerate(case.tests):
        # the reference's first layers and logits of every model: a -wide
        # test needs only their accuracies, which its twin as it is left
        forwards = None
        if not wide or index not in accuracies:
            forwards = [ref_forward(case.arch, model, test.features)
                        for model in built.values()]
            accuracies[index] = [ref_accuracy(logits, test) for _, logits in forwards]
        with monkeypatch.context() as patched:
            if wide:
                patched.setattr(models, "WIDE_ELEMENTS", 0)
            if case.chunk:
                patched.setattr(models, "CHUNK_ELEMENTS", case.chunk)
            # a set prepares itself for evaluate once: a fresh one per run
            run = Run(case.arch, case.record, case.weights,
                      LabeledDataset(test.features, test.labels), built,
                      accuracies[index], forwards)
            for name, (path, want_of, every_set) in PATHS.items():
                if not every_set and (wide or index):
                    continue
                want, got = dict(want_of(run)), list(path(run))
                where = (name, "wide" if wide else "as is", case.record.round, len(test))
                assert {key for key, _ in got} == set(want), where
                for key, value in got:
                    assert bits(value) == bits(want[key]), (*where, key)


# --- adversarial rounds -------------------------------------------------------------


def cases(log: GradientLog, *tests: LabeledDataset) -> list[Case]:
    return [Case(log.architecture, rec, log.participant_weights, tests)
            for rec in log.rounds]


def one_round(arch, base, updates, weights, *tests) -> list[Case]:
    rec = RoundRecord(0, base, updates, fedavg_aggregate(base, updates, weights))
    return [Case(arch, rec, weights, tests)]


def tie_past_two_to_the_53() -> list[Case]:
    # float64 sums of these weights round the {1, 2} total to 2^53, where
    # fedavg_aggregate's integer sum gives 2^53 + 2; the 3 * 2^29 update
    # puts that coalition's model on a float32 rounding tie, so the two
    # totals give different models (here, in every parameter)
    arch = ModelArchitecture(1, 0, 2)
    weights = {1: 2 ** 53 + 1, 2: 1}
    base = np.zeros(arch.param_count, dtype=np.float32)
    updates = {1: np.full(arch.param_count, 1.0, dtype=np.float32),
               2: np.full(arch.param_count, 3 * 2 ** 29, dtype=np.float32)}
    return one_round(arch, base, updates, weights, gaussian_blobs(3, 1, 2, seed=0))


def past_two_to_the_63() -> list[Case]:
    # the first weight and every total past it do not fit in int64, so the
    # chunks sum Python ints; participant 3's update is scaled up so that its
    # share, about 7 / 2^63, shows in every coalition's model
    arch = ModelArchitecture(1, 1, 2)  # 6 parameters, 2 of them the first layer's
    weights = {1: 2 ** 63 + 5, 2: 2 ** 62 + 3, 3: 7}
    rng = np.random.default_rng(3)
    base = rng.normal(size=6).astype(np.float32)
    updates = {1: rng.normal(size=6).astype(np.float32),
               2: rng.normal(size=6).astype(np.float32),
               3: (rng.normal(size=6) * 2.0 ** 62).astype(np.float32)}
    return one_round(arch, base, updates, weights, gaussian_blobs(3, 1, 2, seed=3))


# models of GATHER_PARAMS values and of one more, whose tails are a few values
GATHER_ARCHS = {federation.GATHER_PARAMS: ModelArchitecture(252, 2, 2),
                federation.GATHER_PARAMS + 1: ModelArchitecture(251, 2, 3)}
GATHER_WEIGHTS = {
    "small": {i: 10 + 3 * i for i in range(1, 9)},
    "past-2^53": {1: 2 ** 53 + 1, **{i: i for i in range(2, 9)}},
    "past-2^63": {1: 2 ** 63 + 5, 2: 2 ** 62 + 3, **{i: 7 * i for i in range(3, 9)}},
}


def gathered(size: int, weights: dict[int, int]) -> list[Case]:
    # coalitions on both sides of GATHER_MEMBERS, models on both sides of
    # GATHER_PARAMS, and tails that gather; each update is scaled by its
    # weight's inverse, so that every member's share shows
    arch = GATHER_ARCHS[size]
    assert arch.param_count == size
    rng = np.random.default_rng(size)
    top = max(weights.values())
    base = rng.normal(size=size).astype(np.float32)
    updates = {i: (rng.normal(size=size) * (top / w)).astype(np.float32)
               for i, w in weights.items()}
    # a -0.0 base whose every member adds -0.0 stays -0.0; and +0.0, +0.0
    base[1:5] = [-0.0, -0.0, 0.0, 0.0]
    for update in updates.values():
        update[1:5] = [-0.0, 0.0, -0.0, 0.0]
    (case,) = one_round(arch, base, updates, weights,
                        gaussian_blobs(2, arch.input_dim, arch.class_count, seed=size))
    built = rebuilt_models(case)
    assert np.signbit(built.pop(0)[1:5]).tolist() == [True, True, False, False]
    for model in built.values():
        assert np.signbit(model[1:5]).tolist() == [True, False, False, False]
    return [case]


def single_rebuilds(hidden_dim: int) -> list[Case]:
    log, test, _ = quick_log(n=4, rounds=2, seed=3, hidden_dim=hidden_dim)
    # unequal weights, so w_i / W is no power of two and its rounding shows
    log.participant_weights = {1: 7, 2: 13, 3: 3, 4: 101}
    return cases(log, test)


def wide_rebuilds() -> list[Case]:
    # the d=784, hidden 64 model: P = 50,890 parameters per update
    arch = ARCHS[-1]
    rng = np.random.default_rng(7)
    base = init_params(arch, seed=1)
    updates = {i: rng.normal(0.0, 1e-3, arch.param_count).astype(np.float32)
               for i in (1, 2, 3)}
    return one_round(arch, base, updates, {1: 30, 2: 70, 3: 11}, blobs(arch, 2, seed=7))


def float32_blocks(arch: ModelArchitecture, weights: dict[int, int]) -> list[Case]:
    records, tests = block_rounds(arch, weights)
    return [Case(arch, rec, weights, tests, BLOCK_ROWS * arch.input_dim)
            for rec in records]


def spanning_log() -> list[Case]:
    # chunked rebuilds of every coalition span four chunks
    log, test, _ = quick_log(n=5, rounds=2, seed=14, hidden_dim=1500)
    rows = CHUNK_ELEMENTS // log.architecture.param_count
    assert 1 <= rows and 2 ** log.n - 1 > 3 * rows
    return cases(log, test)


def heavy_log() -> list[Case]:
    # weights not representable in float64, so float and integer totals can
    # differ; every estimator still runs
    log, test, _ = quick_log(n=3, rounds=2, seed=0)
    log.participant_weights = {pid: (2 ** 55) * w + pid
                               for pid, w in log.participant_weights.items()}
    assert mr_eval(log, test).eval_count == 2 * 2 ** 3
    assert gtg_eval(log, test).eval_count > 0
    assert len(position_marginal_profile(log, test, samples_per_round=2)) == 3
    return cases(log, test)


def one_row_sets(hidden_dim: int) -> list[Case]:
    log, test, _ = quick_log(n=4, rounds=2, seed=21, hidden_dim=hidden_dim)
    singles = [LabeledDataset(test.features[row:row + 1], test.labels[row:row + 1])
               for row in (0, len(test) - 1)]
    assert all(models.first_layer_chunk(log.architecture, one) > 0 for one in singles)
    return cases(log, *singles)


def one_input_layer(hidden_dim: int) -> list[Case]:
    # d = 1 takes the stacked first layers, as every narrow round does; where
    # the infinite weight meets a lone row's exact-zero input, the product
    # is NaN and warns, stacked (as round_utilities makes it) and alone
    # alike, so that set is checked here
    arch = ModelArchitecture(1, hidden_dim, 3)
    rng = np.random.default_rng(7)
    weights = {1: 3, 2: 5, 3: 7}
    updates = {i: rng.normal(0.0, 0.1, arch.param_count).astype(np.float32)
               for i in weights}
    base, zero, nonzero = (init_params(arch, seed=5), LabeledDataset([[0.0]], [1]),
                           LabeledDataset([[1.5]], [0]))
    (finite,) = one_round(arch, base, updates, weights, zero, nonzero)
    updates = {**updates, 2: updates[2].copy()}
    updates[2][0] = np.inf  # W1[0, 0] of every coalition that holds 2
    (infinite,) = one_round(arch, base, updates, weights, nonzero)
    built = rebuilt_models(infinite)
    assert not np.isfinite(built[mask_of((2,))]).all()
    assert all(models.first_layer_chunk(arch, test) > 0 for test in (zero, nonzero))
    with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        want = scores(infinite, built, zero)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        got, stacked = through_first_layers(infinite, zero)
    assert bits(got) == bits(want)
    assert bits(stacked) == bits(np.stack([*built.values()]).astype(np.float64))
    with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        alone = [evaluate(arch, model, zero) for model in built.values()]
    assert bits(alone) == bits(want)
    return [finite, infinite]


def all_zero_parameters(hidden_dim: int) -> list[Case]:
    # every coalition's model is all zeros: the tie goes to class 0
    arch = ModelArchitecture(5, hidden_dim, 3)
    zeros = np.zeros(arch.param_count, dtype=np.float32)
    weights = {1: 2, 2: 3, 3: 4}
    test = gaussian_blobs(8, 5, 3, seed=22)
    (case,) = one_round(arch, zeros, dict.fromkeys(weights, zeros), weights, test)
    assert models.first_layer_chunk(arch, test) > 0
    class_0 = np.count_nonzero(test.labels == 0) / len(test)
    assert scores(case, rebuilt_models(case), test) == [class_0] * 8
    return [case]


def three_first_layer_chunks() -> list[Case]:
    log, _, _ = quick_log(n=5, rounds=2, seed=23, hidden_dim=64)
    arch = log.architecture
    test = gaussian_blobs(40, arch.input_dim, arch.class_count, seed=23, noise_seed=24)
    most = models.first_layer_chunk(arch, test)
    assert 1 <= most and 2 ** log.n - 1 > 2 * most  # at least three chunks
    return cases(log, test)


# --- drawn rounds -------------------------------------------------------------------

SEEDS = tuple(range(12))


def drawn_round(seed: int) -> list[Case]:
    """A round of 2 to 8 participants, a model of 1 to 800 inputs and 0 to 8
    hidden units, and 1 to 200 test rows of integer-valued features.  The
    weights are in turn equal, unequal, past 2^53 and past 2^63; an update is
    scaled by a power of two near its weight's inverse, so that every share
    shows.  Parameters are multiples of 1/8 of that power, so that logits
    often tie; a fifth of the entries are +-0.0; a round may hold an update
    of zeros, and may tie class 1 to class 0 in every model."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    arch = ModelArchitecture(int(rng.choice((1, 2, 7, 40, 256, 800))),
                             int(rng.integers(0, 9)), int(rng.integers(2, 5)))
    rows, small = int(rng.choice((1, 2, 13, 200))), rng.integers(1, 1000, n).tolist()
    weights = dict(enumerate([
        [small[0]] * n, small, [2 ** 53 + small[0], *small[1:]],
        [2 ** 63 + small[0], 2 ** 62 + small[1], *small[2:]]][seed % 4], start=1))
    top, size = max(weights.values()), arch.param_count
    vectors = [rng.integers(-3, 4, size) / 8 * 2.0 ** int(np.log2(top / w))
               for w in [top, *weights.values()]]
    zeros = rng.random(size) < 0.2
    for vector in vectors:
        vector[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, -0.0, 0.0)
    if rng.random() < 0.5:
        vectors[int(rng.integers(1, n + 1))][:] = rng.choice((0.0, -0.0))
    vectors = [vector.astype(np.float32) for vector in vectors]
    if rng.random() < 0.5:
        for vector in vectors:
            last_weights, last_bias = models._unpack(arch, vector)[-2:]
            last_weights[:, 1], last_bias[1] = last_weights[:, 0], last_bias[0]
    base, updates = vectors[0], dict(enumerate(vectors[1:], start=1))
    test = LabeledDataset(rng.integers(-2, 3, (rows, arch.input_dim)).astype(np.float32),
                          rng.integers(0, arch.class_count, rows))
    return one_round(arch, base, updates, weights, test)


def test_the_drawn_rounds_reach_every_corner():
    drawn = [drawn_round(seed)[0] for seed in SEEDS]
    assert {len(case.weights) for case in drawn} >= {2, 8}
    assert {case.arch.input_dim for case in drawn} >= {1, 800}
    assert {case.arch.hidden_dim for case in drawn} >= {0, 8}
    assert {len(case.tests[0]) for case in drawn} >= {1, 200}
    # a d = 1 round, one of a lone row among them, is scored through the
    # stacked first layers of reconstruct_submodel's models
    one_input = [case for case in drawn if case.arch.input_dim == 1]
    assert 1 in {len(case.tests[0]) for case in one_input}
    for case in one_input:
        built = rebuilt_models(case)
        got, stacked = through_first_layers(case, case.tests[0])
        assert bits(got) == bits(scores(case, built, case.tests[0]))
        assert bits(stacked) == bits(np.stack([*built.values()]).astype(np.float64))
    # every round trains two sets of one length whose last batch is one row,
    # among them d = 1 with h = 1, and d784h64 (float32-blocks inputs)
    for case in drawn:
        sets = training_sets(case.tests[0])
        assert len(sets) == 2 and len(sets[0]) == len(sets[1])
        assert len(sets[0]) % TRAINING.batch_size == 1
    blocks = {name.split("-")[2] for name in INPUTS if name.startswith("float32-blocks")}
    assert {"d1h1c2", "d784h64c10"} <= blocks


# --- every input through every path ------------------------------------------------

INPUTS = {
    "tie-past-2^53": tie_past_two_to_the_53,
    "past-2^63": past_two_to_the_63,
    **{f"gather-{size}-{name}": functools.partial(gathered, size, weights)
       for size in GATHER_ARCHS for name, weights in GATHER_WEIGHTS.items()},
    **{f"single-h{h}": functools.partial(single_rebuilds, h) for h in (0, 6)},
    "wide-rebuilds": wide_rebuilds,
    **{f"float32-blocks-{name}-{size}": functools.partial(float32_blocks, arch, weights)
       for arch, name in zip(ARCHS, ARCH_IDS) for size, weights in BLOCK_WEIGHTS.items()},
    **{name: lambda name=name: cases(*LOGS[name]()) for name in
       ("quick", "hidden", "unequal-weights", "acceptance-iid", "acceptance-skewed")},
    # d = 784, hidden 4, and 1,000 test rows: a wide set unpatched
    "narrow-layer-wide-set": lambda: cases(*narrow_layer_wide_set_log()),
    "spanning": spanning_log,
    "past-2^53": heavy_log,
    **{f"one-row-h{h}": functools.partial(one_row_sets, h) for h in (0, 4)},
    **{f"one-input-h{h}": functools.partial(one_input_layer, h) for h in (0, 2)},
    **{f"all-zero-h{h}": functools.partial(all_zero_parameters, h) for h in (0, 4)},
    "three-first-layer-chunks": three_first_layer_chunks,
    **{f"drawn-{seed}": functools.partial(drawn_round, seed) for seed in SEEDS},
}


@functools.lru_cache(maxsize=1)
def built_input(name: str) -> list[tuple[Case, dict[int, np.ndarray], dict]]:
    """INPUTS[name]'s rounds, each with its coalitions' models and room for
    their accuracies on each test set: made once for an input's test as it
    is and its -wide twin, which run one after the other."""
    return [(case, rebuilt_models(case), {}) for case in INPUTS[name]()]


@pytest.mark.parametrize("name, wide", [
    pytest.param(name, wide, id=f"{name}-wide" if wide else name)
    for name in INPUTS for wide in (False, True)])
def test_every_fast_path_gives_the_references_bits(monkeypatch, name, wide):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case, built, accuracies in built_input(name):
            check_every_path(case, built, accuracies, wide, monkeypatch)
