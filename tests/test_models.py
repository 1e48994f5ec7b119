"""Classifier tests: closed-form forward passes, gradient checks, SGD plumbing."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import gaussian_blobs

from fedshapley import models
from fedshapley import (
    LabeledDataset,
    ModelArchitecture,
    TrainConfig,
    evaluate,
    finite_difference_check,
    gradient_update,
    init_params,
    loss_and_gradient,
    predict_logits,
    train_local,
)

SOFTMAX = ModelArchitecture(input_dim=4, hidden_dim=0, class_count=3)
MLP = ModelArchitecture(input_dim=4, hidden_dim=5, class_count=3)


def probe_data(rows: int = 12, seed: int = 0,
               arch: ModelArchitecture = SOFTMAX) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        rng.standard_normal((rows, arch.input_dim)).astype(np.float32),
        rng.integers(0, arch.class_count, size=rows))


def test_param_count_layout():
    assert SOFTMAX.param_count == 4 * 3 + 3
    assert MLP.param_count == 4 * 5 + 5 + 5 * 3 + 3
    assert init_params(MLP, seed=0).shape == (MLP.param_count,)


def test_architecture_validation():
    with pytest.raises(ValueError):
        ModelArchitecture(input_dim=0)
    with pytest.raises(ValueError):
        ModelArchitecture(input_dim=3, hidden_dim=-1)
    with pytest.raises(ValueError):
        ModelArchitecture(input_dim=3, class_count=1)
    # each field holds its annotated type: a bool is no integer, nothing rounds
    for bad in ({"hidden_dim": 1.5}, {"input_dim": True}, {"class_count": None}):
        with pytest.raises(ValueError, match="must be"):
            ModelArchitecture(**{"input_dim": 3, **bad})
    assert ModelArchitecture(np.int64(3), class_count=2).param_count == 8


def test_train_config_validation():
    TrainConfig(learning_rate=0.0)  # zero step size is a legal no-op trainer
    with pytest.raises(ValueError):
        TrainConfig(local_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    for bad in ({"local_epochs": 2.5}, {"learning_rate": "0.1"}, {"seed": False}):
        with pytest.raises(ValueError, match="must be"):
            TrainConfig(**bad)
    assert TrainConfig(learning_rate=1).learning_rate == 1


def test_dataset_validation_and_dtypes():
    data = LabeledDataset(np.ones((3, 2), dtype=np.float64), np.array([0, 1, 2], dtype=np.int32))
    assert data.features.dtype == np.float32 and data.labels.dtype == np.int64
    assert len(data) == 3
    with pytest.raises(ValueError, match="features must be a 2-D matrix"):
        LabeledDataset(np.ones(3), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="labels must be a 1-D vector"):
        LabeledDataset(np.ones((3, 2)), np.array([[0], [1], [2]]))
    with pytest.raises(ValueError):
        LabeledDataset(np.ones((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        LabeledDataset(np.ones((2, 2)), np.array([0, -1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_feature_that_is_not_finite_is_refused(bad):
    features = np.ones((4, 3), dtype=np.float32)
    features[2, 1] = bad
    with pytest.raises(ValueError, match="^features must be finite"):
        LabeledDataset(features, np.zeros(4, dtype=np.int64))


def test_a_set_is_wide_by_size_alone(monkeypatch):
    # the float64 row norms of finite float32 rows are finite: a 784-wide
    # row of float32's largest value, 3.4e38, has a norm of 28 times that
    monkeypatch.setattr(models, "WIDE_ELEMENTS", 784)
    largest = np.finfo(np.float32).max
    data = LabeledDataset(np.full((2, 784), largest, dtype=np.float32), [0, 1])
    features, norms = data.prepared
    assert features is data.features
    assert np.isfinite(norms).all()
    assert norms == pytest.approx(28 * np.float64(largest), rel=1e-12)


def test_init_params_seeded_uniform():
    a = init_params(SOFTMAX, seed=5)
    b = init_params(SOFTMAX, seed=5)
    c = init_params(SOFTMAX, seed=6)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.dtype == np.float32
    assert np.all(np.abs(a) <= 0.05)


def test_logits_closed_form_softmax():
    # dyadic weights make the affine map exact in floating point
    arch = ModelArchitecture(input_dim=2, hidden_dim=0, class_count=2)
    params = np.array([0.5, -1.0,   # w[0, :]
                       0.25, 4.0,   # w[1, :]
                       0.5, 1.0],   # b
                      dtype=np.float32)
    x = np.array([[1.0, 2.0]], dtype=np.float32)
    logits = predict_logits(arch, params, x)
    assert logits.tolist() == [[1.5, 8.0]]


def test_logits_closed_form_relu():
    # one hidden unit dead (negative pre-activation), one alive
    arch = ModelArchitecture(input_dim=1, hidden_dim=2, class_count=2)
    params = np.array([1.0, -1.0,   # w1
                       0.0, 0.0,    # b1
                       2.0, 0.0,    # w2[0, :]
                       0.0, 2.0,    # w2[1, :]
                       0.25, 0.25], # b2
                      dtype=np.float32)
    x = np.array([[3.0]], dtype=np.float32)
    # hidden = relu([3, -3]) = [3, 0] -> logits = [6.25, 0.25]
    assert predict_logits(arch, params, x).tolist() == [[6.25, 0.25]]


def test_gradient_matches_direct_softmax_formula():
    rng = np.random.default_rng(2)
    params = rng.uniform(-1, 1, SOFTMAX.param_count)
    data = probe_data(rows=6, seed=3)
    loss, grad = loss_and_gradient(SOFTMAX, params, data.features, data.labels)

    x = data.features.astype(np.float64)
    w = params[:12].reshape(4, 3)
    b = params[12:]
    z = x @ w + b
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    want_loss = float(-np.log(p[np.arange(6), data.labels]).mean())
    dz = (p - np.eye(3)[data.labels]) / 6
    want = np.concatenate([(x.T @ dz).reshape(-1), dz.sum(axis=0)])

    assert loss == pytest.approx(want_loss, rel=1e-12)
    np.testing.assert_allclose(grad, want, rtol=1e-9, atol=1e-12)


def test_gradient_against_finite_differences():
    data = probe_data(rows=10, seed=1)
    params = init_params(SOFTMAX, seed=4).astype(np.float64) * 10
    assert finite_difference_check(SOFTMAX, params, data) < 1e-3

    mlp_data = probe_data(rows=10, seed=2, arch=MLP)
    mlp_params = init_params(MLP, seed=4).astype(np.float64) * 10
    assert finite_difference_check(MLP, mlp_params, mlp_data) < 1e-2


def test_finite_differences_guard_probe_size():
    with pytest.raises(ValueError):
        finite_difference_check(SOFTMAX, init_params(SOFTMAX, 0), probe_data(rows=65))


def test_gradient_vanishes_at_confident_optimum():
    # all labels 0 and a dominant class-0 bias: probabilities saturate
    params = np.zeros(SOFTMAX.param_count)
    params[12] = 30.0
    data = probe_data(rows=8, seed=5)
    data = LabeledDataset(data.features, np.zeros(8, dtype=np.int64))
    _, grad = loss_and_gradient(SOFTMAX, params, data.features, data.labels)
    assert np.linalg.norm(grad) < 1e-6


def test_loss_rejects_empty_batch():
    with pytest.raises(ValueError):
        loss_and_gradient(SOFTMAX, np.zeros(SOFTMAX.param_count),
                          np.empty((0, 4)), np.empty(0, dtype=np.int64))


def test_zero_learning_rate_is_identity():
    data = probe_data()
    base = init_params(SOFTMAX, seed=0)
    out = train_local(SOFTMAX, base, data, TrainConfig(learning_rate=0.0, seed=9))
    assert np.array_equal(out, base)


def test_training_is_bit_deterministic():
    data = probe_data(rows=20)
    base = init_params(SOFTMAX, seed=1)
    cfg = TrainConfig(local_epochs=3, batch_size=7, learning_rate=0.2, seed=5)
    assert np.array_equal(train_local(SOFTMAX, base, data, cfg),
                          train_local(SOFTMAX, base, data, cfg))


def test_single_row_step_matches_one_gradient_step():
    data = probe_data(rows=1, seed=6)
    base = init_params(SOFTMAX, seed=2)
    cfg = TrainConfig(local_epochs=1, batch_size=4, learning_rate=0.5, seed=0)
    out = train_local(SOFTMAX, base, data, cfg)
    _, grad = loss_and_gradient(SOFTMAX, base.astype(np.float64),
                                data.features, data.labels)
    want = (base.astype(np.float64) - 0.5 * grad).astype(np.float32)
    assert np.array_equal(out, want)


def test_minibatch_sequencing_matches_manual_steps():
    data = probe_data(rows=2, seed=7)
    base = init_params(SOFTMAX, seed=3)
    cfg = TrainConfig(local_epochs=1, batch_size=1, learning_rate=0.1, seed=11)
    out = train_local(SOFTMAX, base, data, cfg)

    order = np.random.default_rng(11).permutation(2)
    work = base.astype(np.float64)
    for row in order:
        _, grad = loss_and_gradient(SOFTMAX, work,
                                    data.features[[row]], data.labels[[row]])
        work = work - 0.1 * grad
    assert np.array_equal(out, work.astype(np.float32))


def test_training_reduces_loss_and_lifts_accuracy():
    arch = ModelArchitecture(input_dim=6, hidden_dim=0, class_count=4)
    # same seed -> same class means; the generator draws means first
    train = gaussian_blobs(25, 6, 4, seed=8)
    test = gaussian_blobs(10, 6, 4, seed=8)
    base = init_params(arch, seed=0)
    cfg = TrainConfig(local_epochs=5, batch_size=16, learning_rate=0.2, seed=1)
    out = train_local(arch, base, train, cfg)
    loss_before, _ = loss_and_gradient(arch, base, train.features, train.labels)
    loss_after, _ = loss_and_gradient(arch, out, train.features, train.labels)
    assert loss_after < loss_before
    assert evaluate(arch, out, test) > evaluate(arch, base, test) + 0.2


def test_train_input_validation():
    base = init_params(SOFTMAX, seed=0)
    with pytest.raises(ValueError):
        train_local(SOFTMAX, base, probe_data(rows=0), TrainConfig())
    wrong_width = LabeledDataset(np.ones((4, 3), dtype=np.float32),
                                 np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        train_local(SOFTMAX, base, wrong_width, TrainConfig())
    with pytest.raises(ValueError):
        train_local(SOFTMAX, base[:-1], probe_data(), TrainConfig())


def test_a_label_past_the_models_classes_cannot_train():
    # checked before training, not met as an IndexError inside it; the
    # retraining estimators, which train through train_local, are refused too
    base = init_params(SOFTMAX, seed=0)
    data = probe_data()
    past = LabeledDataset(data.features, np.where(data.labels == 2, 3, data.labels))
    with pytest.raises(ValueError, match=r"^label 3 is past the model's 3 classes$"):
        train_local(SOFTMAX, base, past, TrainConfig())
    # the same labels train a model of four classes
    wider = ModelArchitecture(SOFTMAX.input_dim, 0, 4)
    train_local(wider, init_params(wider, seed=0), past, TrainConfig())


# a RuntimeWarning fails this test (pyproject.toml): none is raised on the way
@pytest.mark.parametrize("arch", [SOFTMAX, MLP], ids=["softmax", "mlp"])
def test_training_that_diverges_is_refused(arch):
    data = gaussian_blobs(8, 4, 3, seed=1)
    with pytest.raises(ValueError, match="^training diverged: a trained parameter "
                                         "is not finite$"):
        train_local(arch, init_params(arch, seed=0), data,
                    TrainConfig(local_epochs=3, learning_rate=1e300))


def test_gradient_update_is_plain_difference():
    base = init_params(SOFTMAX, seed=0)
    local = init_params(SOFTMAX, seed=1)
    delta = gradient_update(local, base)
    assert delta.dtype == np.float32
    assert np.array_equal(delta, local - base)
    # float32 rounding makes base + (local - base) only approximately local
    np.testing.assert_allclose(base.astype(np.float64) + delta, local, atol=1e-6)
    assert np.array_equal(gradient_update(base, base), np.zeros_like(base))
    with pytest.raises(ValueError):
        gradient_update(local[:-1], base)


def test_evaluate_accuracy_and_tie_breaking():
    arch = ModelArchitecture(input_dim=2, hidden_dim=0, class_count=3)
    # weights route the first feature's sign: x=[t,0] scores [t,-t,0],
    # so t=2 predicts class 0 and t=-2 predicts class 1
    params = np.array([1.0, -1.0, 0.0,
                       0.0, 0.0, 0.0,
                       0.0, 0.0, 0.0], dtype=np.float32)
    feats = np.array([[2.0, 0.0], [-2.0, 0.0]], dtype=np.float32)
    assert evaluate(arch, params, LabeledDataset(feats, np.array([0, 1]))) == 1.0
    assert evaluate(arch, params, LabeledDataset(feats, np.array([1, 0]))) == 0.0
    assert evaluate(arch, params, LabeledDataset(feats, np.array([0, 0]))) == 0.5

    # zero parameters score every class equally; argmax resolves to class 0
    zeros = np.zeros(arch.param_count, dtype=np.float32)
    mixed = LabeledDataset(feats, np.array([0, 1]))
    assert evaluate(arch, zeros, mixed) == 0.5


def test_evaluate_is_row_order_invariant():
    data = probe_data(rows=30, seed=12)
    params = init_params(SOFTMAX, seed=6)
    shuffled = np.random.default_rng(0).permutation(30)
    reordered = LabeledDataset(data.features[shuffled], data.labels[shuffled])
    assert evaluate(SOFTMAX, params, data) == evaluate(SOFTMAX, params, reordered)
    with pytest.raises(ValueError):
        evaluate(SOFTMAX, params, probe_data(rows=0))
