"""The wide-set screen's margins against exact arithmetic.

evaluate decides a row of a wide test set from a coalition's first-layer
products where its top logit beats every other by more than the margins of
``models._margins``.  Those margins claim to cover the screen's distance from
the exact logit plus the float64 pass's.  Float32 parameters and features are
dyadic rationals and the ReLU is exact, so every logit is computed here
without rounding, as an integer times a power of two, and the claim is
checked for every row and class: on small models (d <= 8, h <= 4, c <= 3,
tens of rows), near-ties, weights past 2^53, subnormal features, parameters
that round to float32's subnormals, the empty and the full coalition, and
running sums grown by one member or summed anew.  The same holds for the margins of the
chunked float64 pass that scores the rows the screen leaves.  A margin is one
per row, checked against each of the row's logits; it is also checked against
the per-class margins it replaced, which stay here as the reference.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import (JOIN_ORDERS, STEPS, float64_pass, gaussian_blobs,
                      quick_log, round_products, steps, walked_coalitions)

from fedshapley import (LabeledDataset, ModelArchitecture, TrainConfig, evaluate,
                        init_params, predict_logits, train_local)
from fedshapley import federation, models
from fedshapley.games import players_of

pytestmark = pytest.mark.blas_order

# float32 values are integers times 2^-149, float64 values times 2^-1074
F32_SCALE, F64_SCALE = 149, 1074

EXACT_ARCHS = [ModelArchitecture(8, 4, 3), ModelArchitecture(8, 0, 3),
               ModelArchitecture(1, 1, 2)]
EXACT_IDS = [f"d{a.input_dim}h{a.hidden_dim}c{a.class_count}" for a in EXACT_ARCHS]
WEIGHTS = {1: 7, 2: 13, 3: 3, 4: 101}
# the walks' coalitions, then all 16 in ascending mask order: running sums
# grown by one member, or summed anew
SCORED = walked_coalitions(JOIN_ORDERS) + [players_of(m) for m in range(16)]


def fixed(values, scale: int) -> list[int]:
    """Each of ``values`` (finite) as the integer k of value k 2^-scale."""
    out = []
    for v in np.asarray(values, dtype=np.float64).ravel().tolist():
        num, den = v.as_integer_ratio()
        out.append(num * ((1 << scale) // den))
    return out


def exact_logits(arch: ModelArchitecture, params: np.ndarray,
                 features: np.ndarray) -> list[list[int]]:
    """Every row's logits, exactly, as integers times 2^-1074."""
    d, h, c = arch.input_dim, arch.hidden_dim, arch.class_count
    layers = [fixed(a, F32_SCALE) for a in models._unpack(arch, params)]
    rows = [fixed(x, F32_SCALE) for x in features]
    if h == 0:
        w, b = layers
        return [[(sum(x[k] * w[k * c + j] for k in range(d)) + (b[j] << F32_SCALE))
                 << (F64_SCALE - 2 * F32_SCALE) for j in range(c)] for x in rows]
    w1, b1, w2, b2 = layers
    out = []
    for x in rows:
        hidden = [max(0, sum(x[k] * w1[k * h + j] for k in range(d))
                      + (b1[j] << F32_SCALE)) for j in range(h)]
        out.append([(sum(hidden[j] * w2[j * c + m] for j in range(h))
                     + (b2[m] << 2 * F32_SCALE)) << (F64_SCALE - 3 * F32_SCALE)
                    for m in range(c)])
    return out


class Decisions:
    """Records each ``models._decide`` call: its logits (rows x classes),
    its margins (one per row, before _decide pads them, broadcast to every
    class of the row) and its rows, and counts the rows scored again after
    the first call."""

    def __init__(self, monkeypatch):
        self.calls, self.rescored = [], 0
        decide = models._decide

        def recorded(logits, margins):
            # each row's margin, for each of its classes
            every_class = np.repeat(margins[:, None], logits.shape[1], axis=1)
            kept = (logits.copy(), every_class)
            top, undecided = decide(logits, margins)
            rows = (np.arange(len(logits)) if not self.calls
                    else self.calls[-1][2][self.calls[-1][3]])
            self.rescored += len(rows) if self.calls else 0
            self.calls.append((*kept, rows, undecided))
            return top, undecided

        monkeypatch.setattr(models, "_decide", recorded)

    def worst_ratio(self, arch: ModelArchitecture, params: np.ndarray,
                    test: LabeledDataset) -> float:
        """The largest (|logit - exact| + |float64 pass - exact|) / margin
        over every recorded row and class (inf where a margin of 0 has to
        cover an error)."""
        exact = exact_logits(arch, params, test.features)
        reference = [fixed(row, F64_SCALE)
                     for row in predict_logits(arch, params, test.features)]
        worst = 0.0
        for logits, margins, rows, _ in self.calls:
            assert margins.shape == logits.shape
            for got, bound, r in zip(logits, margins, rows.tolist()):
                for have, margin, want, ref in zip(fixed(got, F64_SCALE),
                                                   fixed(bound, F64_SCALE),
                                                   exact[r], reference[r]):
                    error = abs(have - want) + abs(ref - want)
                    worst = max(worst, error / margin if margin else
                                math.inf if error else 0.0)
        self.calls.clear()
        return worst


def trained(arch: ModelArchitecture, data: LabeledDataset) -> np.ndarray:
    return train_local(arch, init_params(arch, seed=3), data, TrainConfig(
        local_epochs=3, batch_size=8, learning_rate=0.3, seed=1))


def near_tie(arch: ModelArchitecture, data: LabeledDataset) -> np.ndarray:
    """Class 1 is class 0 but for one float32 ulp in its bias."""
    params = trained(arch, data)
    w, b = models._unpack(arch, params)[-2:]
    w[:, 1] = w[:, 0]
    b[1] = np.nextafter(b[0], np.float32(np.inf))
    return params


def cases(arch: ModelArchitecture, data: LabeledDataset) -> dict:
    """Rounds by name: (base, updates, weights, test set).  Updates: none,
    two that scale the base by powers of two, so that every coalition keeps
    its near-ties, and a random one."""
    rng = np.random.default_rng(arch.param_count)

    def round_of(base, weights=WEIGHTS, test=data, scale=1.0):
        noise = rng.normal(0.0, 1e-2, arch.param_count) * scale
        return (base, {1: np.zeros_like(base), 2: base * np.float32(0.125),
                       3: base * np.float32(-0.25), 4: noise.astype(np.float32)},
                weights, test)

    base = trained(arch, data)
    tiny = 2.0 ** -140
    # biases of 0 leave the subnormal set's products nothing to vanish into
    unbiased = base.copy()
    for bias in models._unpack(arch, unbiased)[1::2]:
        bias[...] = 0.0
    return {
        "trained": round_of(base),
        "near-tie": round_of(near_tie(arch, data)),
        "past-2^53": round_of(base, {1: 2 ** 53 + 1, 2: 13, 3: 3, 4: 2 ** 64 + 3}),
        # parameters whose coalitions' shares round to float32's subnormals
        "subnormal-weights": round_of(
            (base.astype(np.float64) * tiny).astype(np.float32), scale=tiny),
        "subnormal-features": round_of(unbiased, test=LabeledDataset(
            data.features * np.float32(tiny), data.labels)),
        "rounds-to-subnormal": subnormal_rounding(arch, data),
    }


def subnormal_rounding(arch: ModelArchitecture, data: LabeledDataset) -> tuple:
    """A round whose every coalition of member 1 with others rebuilds a
    first layer of zeros: member 1's update holds float32's smallest
    subnormal, 2^-149, and its share is 1/3, 1/5, ... , so w_1 / W 2^-149
    rounds to 0.  The products, made from the updates, see w_1 / W 2^-149.
    Biases are 0, so nothing absorbs it, and a hidden layer's W2 is random."""
    base = np.zeros(arch.param_count, dtype=np.float32)
    if arch.hidden_dim:
        w2 = models._unpack(arch, base)[2]
        w2[...] = np.random.default_rng(0).normal(size=w2.shape)
    first = np.zeros_like(base)
    first[:arch.first_layer_size] = 2.0 ** -149
    updates = {1: first, 2: np.zeros_like(base), 3: np.zeros_like(base),
               4: np.zeros_like(base)}
    return base, updates, {1: 1, 2: 2, 3: 4, 4: 8}, data


def screen_each(arch, case, coalitions=SCORED, drop_floors=False):
    """Evaluate each of ``coalitions`` in a round from its first layer,
    yielding its parameters, the test set and the accuracy; ``drop_floors``
    sets the products' subnormal term and floor to 0."""
    base, updates, weights, test = case
    rec = federation.RoundRecord(0, base, updates, base)
    products = round_products(rec, weights, arch, test)
    assert products is not None
    if drop_floors:
        products._subnormal = products._floor = 0.0
    for ids in coalitions:
        params = federation.reconstruct_submodel(rec, ids, weights) if ids else base
        first = products.combine(ids)
        assert first is not None
        yield params, test, evaluate(arch, params, test, first)


def worst_over(arch, case, decisions, drop_floors=False, same_accuracy=True) -> float:
    """The largest error-to-margin ratio over :data:`SCORED` in a round."""
    worst = 0.0
    for params, test, accuracy in screen_each(arch, case, drop_floors=drop_floors):
        assert accuracy == float64_pass(arch, params, test) or not same_accuracy
        worst = max(worst, decisions.worst_ratio(arch, params, test))
    return worst


@pytest.fixture()
def wide_sets(monkeypatch):
    # every set is wide; rows are scored again 5 a chunk at d = 8
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 0)
    monkeypatch.setattr(models, "CHUNK_ELEMENTS", 5 * 8)


@pytest.fixture()
def wide(wide_sets, monkeypatch):
    return Decisions(monkeypatch)


@pytest.mark.parametrize("arch", EXACT_ARCHS, ids=EXACT_IDS)
def test_the_screens_margins_cover_the_exact_logits(wide, arch):
    assert set(steps(SCORED)) == set(STEPS)
    data = gaussian_blobs(8, arch.input_dim, arch.class_count, seed=5, spread=0.5)
    worst = {name: worst_over(arch, case, wide)
             for name, case in cases(arch, data).items()}
    print(f"{arch}: largest error-to-margin ratio by case", worst)
    assert max(worst.values()) <= 1.0
    assert wide.rescored  # the chunked pass's margins were checked too


@pytest.mark.parametrize("arch", EXACT_ARCHS, ids=EXACT_IDS)
def test_the_exact_check_fails_without_the_margin_or_the_floor(wide, monkeypatch,
                                                              arch):
    data = gaussian_blobs(8, arch.input_dim, arch.class_count, seed=5, spread=0.5)
    with monkeypatch.context() as patched:
        patched.setattr(models, "_margins", lambda slope, offset, norms, hidden,
                        others: np.zeros(len(norms)))
        assert worst_over(arch, cases(arch, data)["trained"], wide,
                          same_accuracy=False) > 1.0
    # without the subnormal term and the smallest-normal floors, a first
    # layer rebuilt as zeros is not covered
    rounding = subnormal_rounding(arch, data)
    with monkeypatch.context() as patched:
        patched.setattr(models, "_F64", (2.0 ** -53, 0.0))
        assert worst_over(arch, rounding, wide, drop_floors=True,
                          same_accuracy=False) > 1.0


# --- one margin per row against the margins of every class -----------------------


def class_margins(slope, offset, norms, hidden, others) -> np.ndarray:
    """A margin per logit (classes x rows): the bound of ``models._margins``
    for each class on its own, as evaluate decided rows before it took one
    margin per row."""
    if hidden is None:
        err = np.multiply.outer(slope, norms)
        err += offset[:, None]
    else:
        abs_w2, abs_b2 = others[1:]
        h, tiny = abs_w2.shape[0], models._F64[1]
        gamma = models._gamma(h + 1)
        lift, both = 1 + gamma, 2 * gamma
        err = np.dot(abs_w2.T, hidden.T)
        err *= both / (1 - gamma)
        err += np.multiply.outer(lift * np.dot(slope, abs_w2), norms)
        err += (lift * np.dot(offset, abs_w2) + both * abs_b2
                + (2 * h + 2) * 2 * tiny
                + 2 * h * tiny * both / (1 - gamma))[:, None]
    err *= models._SAFETY
    return err


def decide_by_class(logits, margins):
    """``models._decide``'s rule under :func:`class_margins`: each margin
    padded by 2^-52 times its own logit's magnitude."""
    scores = np.array(logits.T, dtype=np.float64, order="C")
    margins = margins + np.abs(scores) * (2 * models._F64[0])
    low = scores - margins
    rivals = (scores + margins >= low.max(axis=0)).sum(axis=0)
    return logits.argmax(axis=1), np.flatnonzero(rivals != 1)


def test_decide_pads_each_margin_by_the_rows_largest_logit():
    # under margins of 0, the pad alone, 2^-52 |1e6| (about 1.9 ulps of 1e6),
    # leaves a top two of 1e6 and 2 ulps below it to the float64 pass, and
    # decides 8 ulps below it as class 0.  A pad by the row's smallest
    # |logit|, 0, would decide the first row too
    top = 1e6
    ulp = np.spacing(top)
    logits = np.array([[top, top - 2 * ulp, 0.0], [top, top - 8 * ulp, 0.0]])
    picked, left = models._decide(logits, np.zeros(2))
    assert left.tolist() == [0]
    assert picked[1] == 0


class AgainstClassMargins:
    """Checks each margin evaluate computes against :func:`class_margins` of
    the same inputs, and each decision against :func:`decide_by_class`:
    every row's margin is at least each of its classes', and every row
    decided is decided by the per-class rule too, as the same class.
    Counts the rows decided and left by both rules."""

    def __init__(self, monkeypatch):
        self.seen = {"decided": 0, "left": 0, "left by rows only": 0}
        margins, decide = models._margins, models._decide
        pending = []

        def checked_margins(*args):
            got, want = margins(*args), class_margins(*args)
            assert got.shape == want.shape[1:]
            assert (got >= want).all()
            pending.append(want)
            return got

        def checked_decide(logits, got):
            top, left = decide(logits, got)
            want_top, want_left = decide_by_class(logits, pending.pop())
            decided = np.setdiff1d(np.arange(len(logits)), left)
            assert not np.isin(decided, want_left).any()
            assert np.array_equal(top[decided], want_top[decided])
            self.seen["decided"] += len(decided)
            self.seen["left"] += len(left)
            self.seen["left by rows only"] += len(np.setdiff1d(left, want_left))
            return top, left

        monkeypatch.setattr(models, "_margins", checked_margins)
        monkeypatch.setattr(models, "_decide", checked_decide)


@pytest.mark.parametrize("arch", EXACT_ARCHS, ids=EXACT_IDS)
def test_a_rows_margin_covers_every_class_on_the_exact_cases(wide_sets, monkeypatch,
                                                            arch):
    against = AgainstClassMargins(monkeypatch)
    data = gaussian_blobs(8, arch.input_dim, arch.class_count, seed=5, spread=0.5)
    for case in cases(arch, data).values():
        for params, test, accuracy in screen_each(arch, case):
            assert accuracy == float64_pass(arch, params, test)
    print(arch, against.seen)
    # rows the screen leaves are decided again by the chunked pass, whose
    # margins are checked too
    assert against.seen["decided"] and against.seen["left"]


def test_a_rows_margin_covers_every_class_on_a_784_wide_round(monkeypatch):
    # a round shaped like the benchmark's (d = 784, hidden 64, ten classes,
    # n = 10, 1,000 test rows), scored on random coalitions
    against = AgainstClassMargins(monkeypatch)
    log, _, _ = quick_log(n=10, rounds=1, seed=1, lr=0.05, input_dim=784,
                          hidden_dim=64, class_count=10, rows_per_class=10)
    arch, rec = log.architecture, log.rounds[0]
    # in every coalition, class 1 is class 0 but for one float32 ulp in the
    # base's bias: rows of either class are near-ties no margin decides
    for vector in (rec.base_model, *rec.updates.values()):
        w2, b2 = models._unpack(arch, vector)[2:]
        w2[:, 1], b2[1] = w2[:, 0], b2[0]
    b2 = models._unpack(arch, rec.base_model)[3]
    b2[1] = np.nextafter(b2[0], np.float32(np.inf))
    test = gaussian_blobs(100, 784, 10, seed=1, noise_seed=2)
    rng = np.random.default_rng(7)
    coalitions = [()] + [players_of(int(m)) for m in rng.integers(1, 1 << 10, 40)]
    case = (rec.base_model, rec.updates, log.participant_weights, test)
    for params, _, accuracy in screen_each(arch, case, coalitions):
        assert accuracy == float64_pass(arch, params, test)
    print(against.seen)
    assert against.seen["decided"] > 0.5 * 1000 * len(coalitions)
    assert against.seen["left"]
