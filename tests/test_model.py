import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import tracemalloc
import types
import typing
from collections.abc import Mapping

import numpy as np
import pytest

from ite_bench import model as model_module
from ite_bench.errors import ConfigError, DataError, NumericError, ShapeError, TrainingDiverged
from ite_bench.experiments import ExperimentConfig, RunRecord, SweepSpec
from ite_bench.metrics import EvalReport
from ite_bench.model import (
    Batch,
    ModelShape,
    OutcomeModel,
    TrainConfig,
    TrainHistory,
    TrainedModel,
    batch_loss,
    build_model,
    factual_predictions,
    load_checkpoint,
    predict_all_outcomes,
    save_checkpoint,
    train,
)
from ite_bench.nn import mlp_forward, sgd_step
from ite_bench.simulate import Dataset, SimConfig, simulate_dataset

from gradcheck import central_difference
from initial_model import initial_model
from per_head import fresh_column, head_pass, per_head_batch_loss


def identity_model(d=2, k=2, variant="joint"):
    """Single affine layers: representations pass inputs through, heads sum."""
    shape = ModelShape(
        cov_layers=1, cov_out=d, treat_layers=1, treat_out=d, head_layers=1,
        activation="tanh", dropout_rate=0.0,
    )
    model = build_model(d, k, shape, variant, rng=0)
    model.theta[:] = 0.0
    for net in (model.cov_net, model.treat_net):
        if net is not None:
            net.layers[0][0][...] = np.eye(d)
    model.head_stack.layers[0][0][...] = 1.0
    return model


def small_dataset(seed=1, n=400, k=3):
    return simulate_dataset(SimConfig(n=n, d=6, k=k, seed=seed))


def small_shape(**kw):
    base = dict(
        cov_layers=2, cov_width=8, cov_out=4,
        treat_layers=1, treat_width=4, treat_out=3,
        head_layers=1, head_width=4,
        activation="elu", dropout_rate=0.0,
    )
    base.update(kw)
    return ModelShape(**base)


def quick_train_cfg(**kw):
    base = dict(
        alpha=1.0, beta=0.5, batch_size=64, epochs_max=3, patience=10,
        base_lr=0.05, weight_decay=1e-4, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# --- forward predictions ---


def test_identity_model_sums_inputs():
    model = identity_model(d=2, k=2)
    t_emb = np.array([[0.1, -0.2], [5.0, 5.0]])
    value = predict_all_outcomes(model, np.array([[0.3, 0.7]]), t_emb)[0, 0]
    assert value == pytest.approx(0.9, abs=1e-15)


def test_predict_all_outcomes_identity_columns():
    model = identity_model(d=2, k=2)
    x = np.array([[1.0, 2.0], [0.5, -0.5]])
    t_emb = np.array([[1.0, 0.0], [3.0, 4.0]])
    yhat = predict_all_outcomes(model, x, t_emb)
    expected = x.sum(axis=1)[:, None] + t_emb.sum(axis=1)[None, :]
    np.testing.assert_allclose(yhat, expected, atol=1e-15)


def test_zero_initialized_model_predicts_zero():
    shape = small_shape()
    model = OutcomeModel(shape, 5, 3, "joint", np.zeros(shape.n_params(5, 3, "joint")))
    x = np.random.default_rng(0).normal(size=(7, 5))
    yhat = predict_all_outcomes(model, x, np.random.default_rng(1).normal(size=(3, 5)))
    np.testing.assert_array_equal(yhat, np.zeros((7, 3)))


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_untrained_head_column_is_mean_of_trained_heads(variant):
    raw = build_model(5, 3, small_shape(), variant, rng=4)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 5))
    t_emb = rng.normal(size=(3, 5))
    held_out = dataclasses.replace(raw, head_updates=(4, 0, 9))
    yhat = predict_all_outcomes(held_out, x, t_emb)
    # trained heads predict exactly as the bare heads do
    base = predict_all_outcomes(raw, x, t_emb)
    np.testing.assert_array_equal(yhat[:, [0, 2]], base[:, [0, 2]])
    # head 1's column: heads 0 and 2 at treatment 1's head input
    head_in = mlp_forward(raw.cov_net, x)[0]
    if variant == "joint":
        treat = mlp_forward(raw.treat_net, t_emb[1][None, :])[0]
        head_in = np.concatenate([head_in, np.repeat(treat, 7, axis=0)], axis=1)
    outs = [head_pass(raw, s, head_in)[0] for s in (0, 2)]
    np.testing.assert_allclose(yhat[:, 1], (outs[0] + outs[1]) / 2, rtol=0, atol=1e-14)
    assert not np.allclose(yhat[:, 1], base[:, 1])
    # a model with no trained head uses every head as is, as one with all trained does
    assert raw.head_updates == (0, 0, 0) and raw.head_trained(1) is False
    trained = dataclasses.replace(raw, head_updates=(1, 1, 1))
    np.testing.assert_array_equal(base, predict_all_outcomes(trained, x, t_emb))


@pytest.mark.parametrize(
    "variant, head_updates",
    [("joint", (1, 2, 1, 3)), ("tarnet", (1, 2, 1, 3)), ("joint", (4, 0, 9, 2))],
)
def test_predictions_through_one_buffer_set_equal_fresh_buffers(variant, head_updates):
    # the last case's column 1 averages three trained heads
    model = dataclasses.replace(
        build_model(5, 4, small_shape(dropout_rate=0.2), variant, rng=8),
        head_updates=head_updates,
    )
    rng = np.random.default_rng(3)
    x, t_emb, t_obs = rng.normal(size=(11, 5)), rng.normal(size=(4, 5)), rng.integers(0, 4, 11)
    cov_out = mlp_forward(model.cov_net, x)[0]
    fresh = np.column_stack([fresh_column(model, cov_out, t_emb, t) for t in range(4)])
    assert predict_all_outcomes(model, x, t_emb).tobytes() == fresh.tobytes()
    fresh_factual = np.empty(11)
    for t in range(4):
        rows = np.flatnonzero(t_obs == t)
        fresh_factual[rows] = fresh_column(model, cov_out[rows], t_emb, t)
    # validation's buffers: larger than x, and left dirty by a training batch
    buffers = model.fit_buffers(16)
    t = rng.integers(0, 4, 16)
    batch = Batch(rng.normal(size=(16, 5)), t, rng.normal(size=16))
    for _ in range(2):
        batch_loss(model, batch, t_emb, TrainConfig(), dropout_seed=1, buffers=buffers)
        shared = factual_predictions(model, x, t_obs, t_emb, buffers.caches)
        assert shared.tobytes() == fresh_factual.tobytes()


def test_variant_lays_out_the_networks_and_head_updates_is_keyword_only():
    joint, tarnet = identity_model(), identity_model(variant="tarnet")
    assert joint.treat_net is not None and tarnet.treat_net is None
    assert [m.head_stack.layers[0][0].shape for m in (joint, tarnet)] == [(2, 1, 4), (2, 1, 2)]
    treat_size = sum(w.size + b.size for w, b in joint.treat_net.layers)
    assert joint.theta.size == tarnet.theta.size + treat_size + 2 * 2
    assert tarnet.head_updates == (0, 0)
    # a positional sixth argument cannot be taken for the counts
    with pytest.raises(TypeError):
        OutcomeModel(tarnet.shape, 2, 2, "tarnet", tarnet.theta, (3, 0))
    counted = OutcomeModel(tarnet.shape, 2, 2, "tarnet", tarnet.theta, head_updates=(3, 0))
    assert counted.head_trained(0) and not counted.head_trained(1)


def test_baseline_ignores_treatment_features():
    model = build_model(4, 3, small_shape(), "tarnet", rng=5)
    x = np.random.default_rng(2).normal(size=(6, 4))
    a = predict_all_outcomes(model, x, np.zeros((3, 4)))
    b = predict_all_outcomes(model, x, np.full((3, 4), 100.0))
    np.testing.assert_array_equal(a, b)
    y1 = predict_all_outcomes(model, x, np.zeros((3, 4)))
    y2 = predict_all_outcomes(model, x, np.ones((3, 4)) * 9.0)
    np.testing.assert_array_equal(y1, y2)
    # without treatment information every head sees the same input, but the
    # heads themselves differ
    assert not np.array_equal(y1[:, 0], y1[:, 1])


def test_model_copies_its_theta_and_theta_drives_predictions():
    shape = small_shape(cov_layers=1, cov_out=3, head_layers=1, dropout_rate=0.25)
    vec = build_model(2, 2, shape, "tarnet", rng=1).theta
    given = vec.copy()
    model = OutcomeModel(shape, 2, 2, "tarnet", vec)
    assert not np.shares_memory(model.theta, vec)
    # each network is a view of its own slice of theta, with the shape's settings
    heads = model.head_stack.layers[0][0]
    assert np.shares_memory(heads, model.theta) and not np.shares_memory(heads[0], heads[1])
    nets = (model.cov_net, model.head_stack)
    assert {(net.hidden_activation, net.dropout_rate) for net in nets} == {("elu", 0.25)}
    copy = dataclasses.replace(model)
    assert not np.shares_memory(copy.theta, model.theta)
    x, t_emb = np.array([[0.3, -0.7], [1.1, 0.4]]), np.zeros((2, 2))
    before = predict_all_outcomes(model, x, t_emb)
    model.theta[-1] += 1.0  # the bias of the last head's output layer
    after = predict_all_outcomes(model, x, t_emb)
    np.testing.assert_array_equal(after[:, 0], before[:, 0])
    np.testing.assert_allclose(after[:, 1], before[:, 1] + 1.0, rtol=0, atol=1e-15)
    model.theta[:] = 0.0
    np.testing.assert_array_equal(vec, given)
    np.testing.assert_array_equal(predict_all_outcomes(copy, x, t_emb), before)
    np.testing.assert_array_equal(predict_all_outcomes(model, x, t_emb), np.zeros((2, 2)))


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_network_stacks_cover_every_entry_of_theta_once_and_share_its_memory(variant):
    model = build_model(5, 3, small_shape(head_layers=2), variant, rng=2)
    # each entry holds its own index, so the views together read each index once
    model.theta[:] = np.arange(model.theta.size)
    stacks = [net for net in (model.cov_net, model.treat_net, model.head_stack) if net is not None]
    arrays = [a for net in stacks for layer in net.layers for a in layer]
    views = [a for layers in model.views(model.theta) for layer in layers for a in layer]
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in views]
    assert all(np.shares_memory(a, model.theta) for a in arrays)
    seen = np.sort(np.concatenate([a.ravel() for a in arrays]))
    assert seen.tobytes() == model.theta.tobytes()
    # cov and treat are stacks of one network, the heads a stack of k
    assert [net.layers[0][0].shape[0] for net in stacks] == [1] * (len(stacks) - 1) + [3]


def test_model_validation():
    good = identity_model()
    # theta must be exactly the shape's float64 parameter count: the tarnet
    # layout is too short for a joint model
    tarnet_theta = identity_model(variant="tarnet").theta
    for bad in (tarnet_theta, good.theta[:-1], np.append(good.theta, 0.0),
                good.theta.astype(np.float32), good.theta.reshape(1, -1)):
        with pytest.raises(ConfigError, match="values"):
            dataclasses.replace(good, theta=bad)
    for value in (np.nan, np.inf):
        bad = good.theta.copy()
        bad[3] = value
        with pytest.raises(NumericError, match="non-finite"):
            dataclasses.replace(good, theta=bad)
    # k = 2 ints >= 0; a bool, a float or a string is not a count
    for bad in ((1,), (1, -1), (1.5, 2), (True, 1), ("2", 1), [], "00", None):
        with pytest.raises(ConfigError, match="head_updates"):
            dataclasses.replace(good, head_updates=bad)
    assert dataclasses.replace(good, head_updates=[3, 0]).head_updates == (3, 0)
    with pytest.raises(ConfigError, match="variant"):
        build_model(2, 2, small_shape(), "flavor", rng=0)
    # sizing theta once failed inside numpy with a TypeError
    for dims in ((4, 2.0), (4.0, 2), (4, True), ("4", 2)):
        with pytest.raises(ConfigError, match="input_dim and k must be ints"):
            build_model(*dims, small_shape(), rng=0)
    for k, input_dim in ((0, 2), (2, 0)):
        with pytest.raises(ConfigError):
            build_model(input_dim, k, small_shape(), "joint", rng=0)
    with pytest.raises(ConfigError, match="activation"):
        dataclasses.replace(good, shape=dataclasses.replace(good.shape, activation="relu"))


# --- batch loss ---


def perfect_batch(model, n=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    t = np.array([i % model.k for i in range(n)])
    t_emb = rng.normal(size=(model.k, 2))
    y = factual_predictions(model, x, t, t_emb)
    return Batch(x, t, y), t_emb


def test_perfect_predictor_has_zero_error_terms():
    model = identity_model(d=2, k=2)
    batch, t_emb = perfect_batch(model)
    res = batch_loss(model, batch, t_emb, TrainConfig(alpha=1.0, beta=0.5, bandwidth=1.0))
    assert res.mse == 0.0
    assert res.total == pytest.approx(0.5 * res.balance, abs=1e-15)
    assert res.balance > 0.0  # groups still differ in representation space
    assert res.head_rows == (3, 3)
    assert not any(gw.any() or gb.any() for gw, gb in model.views(res.grad)[-1])


def test_single_sample_loss_hand_case():
    # zero model predicts 0, target 2: L1 = 4, dL/db_head = 2*(0-2) = -4
    shape = small_shape(cov_layers=1, cov_out=4, treat_layers=1, treat_out=3, head_layers=1)
    model = build_model(2, 2, shape, "joint", rng=0)
    model.theta[:] = 0.0
    batch = Batch(np.array([[0.4, -0.1], [0.2, 0.3]]), np.array([0, 0]), np.array([2.0, 2.0]))
    res = batch_loss(model, batch, np.zeros((2, 2)), TrainConfig(alpha=1.0, beta=0.0))
    assert res.total == pytest.approx(4.0, abs=1e-15)
    assert res.mse == pytest.approx(4.0, abs=1e-15)
    # bias gradient of the lone active head: sum over rows of 2/n * resid
    heads = model.views(res.grad)[-1]
    assert heads[0][1][0, 0] == pytest.approx(-4.0, abs=1e-15)
    assert res.head_rows == (2, 0)
    assert not any(gw[1].any() or gb[1].any() for gw, gb in heads)


def test_loss_composition():
    model = build_model(3, 2, small_shape(head_layers=2), "joint", rng=4)
    rng = np.random.default_rng(0)
    batch = Batch(rng.normal(size=(8, 3)), rng.integers(0, 2, size=8), rng.normal(size=8))
    cfg = TrainConfig(alpha=0.7, beta=1.3, bandwidth=0.9)
    res = batch_loss(model, batch, rng.normal(size=(2, 3)), cfg)
    assert res.total == pytest.approx(0.7 * res.mse + 1.3 * res.balance, abs=1e-12)
    assert sum(n > 0 for n in res.head_rows) == 2


def test_balance_term_never_touches_head_gradients():
    model = build_model(3, 3, small_shape(), "joint", rng=9)
    rng = np.random.default_rng(3)
    batch = Batch(rng.normal(size=(9, 3)), np.array([0, 1, 2] * 3), rng.normal(size=9))
    t_emb = rng.normal(size=(3, 3))
    res_off = batch_loss(model, batch, t_emb, TrainConfig(alpha=1.0, beta=0.0, bandwidth=1.0))
    res_on = batch_loss(model, batch, t_emb, TrainConfig(alpha=1.0, beta=5.0, bandwidth=1.0))
    off, on = model.views(res_off.grad), model.views(res_on.grad)
    for (w0, b0), (w1, b1) in zip(off[-1], on[-1]):
        np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(b0, b1)
    # the representation networks do feel the balance term
    assert not np.array_equal(off[0][0][0], on[0][0][0])


def test_factual_weight_zero_silences_head_gradients():
    model = build_model(3, 2, small_shape(), "joint", rng=2)
    rng = np.random.default_rng(8)
    batch = Batch(rng.normal(size=(6, 3)), np.array([0, 1] * 3), rng.normal(size=6))
    t_emb = rng.normal(size=(2, 3))
    res = batch_loss(model, batch, t_emb, TrainConfig(alpha=0.0, beta=1.0, bandwidth=1.0))
    cov, treat, *heads = model.views(res.grad)
    for layers in heads:
        assert not any(gw.any() or gb.any() for gw, gb in layers)
    assert any(gw.any() for gw, _ in cov)
    assert any(gw.any() for gw, _ in treat)


def test_batch_loss_input_checks():
    model = identity_model()
    t_emb = np.zeros((2, 2))
    for batch in (
        Batch(np.zeros((0, 2)), np.zeros(0, int), np.zeros(0)),
        Batch(np.zeros((2, 2)), np.zeros(3, int), np.zeros(2)),
        Batch(np.zeros((2, 2)), np.zeros(2, int), np.zeros(3)),
        Batch(np.zeros((2, 2)), np.array([0, 5]), np.zeros(2)),
    ):
        with pytest.raises(ShapeError):
            batch_loss(model, batch, t_emb, TrainConfig())
    # one embedding per treatment: k rows, not one per sample
    with pytest.raises(ShapeError, match="t_emb"):
        batch_loss(model, Batch(np.zeros((3, 2)), np.array([0, 1, 0]), np.zeros(3)),
                   np.zeros((3, 2)), TrainConfig())


def test_batch_loss_refuses_a_loss_that_overflows():
    # outcomes of 1e200 square to infinity in the factual MSE
    batch = Batch(np.zeros((2, 2)), np.array([0, 1]), np.full(2, 1e200))
    with pytest.raises(NumericError, match="non-finite batch loss"):
        batch_loss(identity_model(), batch, np.zeros((2, 2)), TrainConfig())


def test_non_integer_treatments_are_refused():
    model, t_emb = identity_model(), np.zeros((2, 2))
    x = np.zeros((2, 2))
    for t in (np.array([0.0, 1.0]), np.array([False, True])):
        with pytest.raises(ShapeError, match="integers"):
            batch_loss(model, Batch(x, t, np.zeros(2)), t_emb, TrainConfig())
        with pytest.raises(ShapeError, match="integers"):
            factual_predictions(model, x, t, t_emb)


@pytest.mark.parametrize(
    "variant,activation,dropout,seed",
    [
        ("joint", "tanh", 0.0, None),
        ("joint", "elu", 0.0, None),
        ("joint", "elu", 0.15, 777),
        ("tarnet", "tanh", 0.0, None),
        ("tarnet", "elu", 0.15, 424),
    ],
)
def test_batch_loss_gradients_match_finite_differences(variant, activation, dropout, seed):
    shape = ModelShape(
        cov_layers=2, cov_width=4, cov_out=2,
        treat_layers=2, treat_width=3, treat_out=2,
        head_layers=2, head_width=3,
        activation=activation, dropout_rate=dropout,
    )
    model = build_model(3, 2, shape, variant, rng=31)
    rng = np.random.default_rng(6)
    t_emb = rng.normal(size=(2, 3))
    t = np.array([0, 1, 0, 1, 0])
    batch = Batch(rng.normal(size=(5, 3)), t, rng.normal(size=5))
    cfg = TrainConfig(alpha=1.0, beta=0.5, bandwidth=0.8)

    res = batch_loss(model, batch, t_emb, cfg, dropout_seed=seed)

    def total_from(vec):
        return batch_loss(
            dataclasses.replace(model, theta=vec), batch, t_emb, cfg, dropout_seed=seed
        ).total

    # fd perturbs theta itself, so agreement also checks that the gradient
    # vector has theta's layout
    fd = central_difference(total_from, model.theta)
    np.testing.assert_allclose(res.grad, fd, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_reused_buffers_write_every_gradient_entry(variant):
    model = build_model(3, 3, small_shape(dropout_rate=0.2), variant, rng=5)
    rng = np.random.default_rng(2)
    t_emb = rng.normal(size=(3, 3))
    buffers = model.fit_buffers(8)
    out = buffers.grad
    # a full batch without treatment 2, then a short last batch without treatment 0
    for t, missed in (([0, 1] * 4, 2), ([1, 2, 2], 0)):
        t = np.array(t)
        batch = Batch(rng.normal(size=(t.size, 3)), t, rng.normal(size=t.size))
        out.fill(np.nan)
        res = batch_loss(model, batch, t_emb, TrainConfig(), dropout_seed=9, buffers=buffers)
        fresh = batch_loss(model, batch, t_emb, TrainConfig(), dropout_seed=9)
        assert res.grad is out
        assert out.tobytes() == fresh.grad.tobytes()
        assert res.head_rows[missed] == 0
        for gw, gb in model.views(out)[-1]:
            assert not gw[missed].any() and not gb[missed].any()  # NaN would count as nonzero


def _unsorted_treatments(k, seed):
    """Treatments in shuffled order: head 1 gets no row, head 2 one row."""
    counts = np.random.default_rng(seed).integers(2, 9, size=k)
    counts[1], counts[2] = 0, 1
    return np.random.default_rng(seed + 1).permutation(np.repeat(np.arange(k), counts))


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
@pytest.mark.parametrize("k", [4, 16])
def test_batch_loss_equals_the_per_head_loop_bit_for_bit(variant, k):
    shape = small_shape(head_layers=3, head_width=5, dropout_rate=0.2)
    model = build_model(3, k, shape, variant, rng=k)
    rng = np.random.default_rng(k)
    t_emb = rng.normal(size=(k, 3))
    t = _unsorted_treatments(k, seed=k)
    assert not np.all(np.diff(t) >= 0)
    batch = Batch(rng.normal(size=(t.size, 3)), t, rng.normal(size=t.size))
    cfg = TrainConfig(alpha=0.7, beta=1.3)
    buffers = model.fit_buffers(t.size + 3)
    other = Batch(rng.normal(size=(t.size + 3, 3)), rng.integers(0, k, t.size + 3),
                  rng.normal(size=t.size + 3))
    # a small seed, and a 63-bit one as train draws them (integers(2**63))
    for dropout_seed in (11, 2**63 - 2**40 - 7):
        total, mse, balance, grad, head_rows = per_head_batch_loss(
            model, batch, t_emb, cfg, dropout_seed=dropout_seed
        )
        assert head_rows[1] == 0 and head_rows[2] == 1
        assert (balance > 0.0) == (variant == "joint")
        # through fresh buffers, and through fit buffers left dirty by another batch
        batch_loss(model, other, t_emb, cfg, dropout_seed=4, buffers=buffers)
        for res in (
            batch_loss(model, batch, t_emb, cfg, dropout_seed=dropout_seed),
            batch_loss(model, batch, t_emb, cfg, dropout_seed=dropout_seed, buffers=buffers),
        ):
            assert res.grad.tobytes() == grad.tobytes()
            assert (res.total, res.mse, res.balance) == (total, mse, balance)
            assert res.head_rows == head_rows


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
@pytest.mark.parametrize(
    "k, untrained", [(4, ()), (4, (1,)), (16, (0, 2, 5, 15)), (16, tuple(range(16)))]
)
def test_predictions_equal_the_per_head_loop_bit_for_bit(variant, k, untrained):
    # untrained heads while others are trained fall back to the trained
    # heads' mean; with none trained every head is used as is
    updates = tuple(0 if s in untrained else s + 1 for s in range(k))
    model = dataclasses.replace(
        build_model(5, k, small_shape(head_layers=2, dropout_rate=0.2), variant, rng=k),
        head_updates=updates,
    )
    rng = np.random.default_rng(k)
    t_emb = rng.normal(size=(k, 5))
    t_obs = _unsorted_treatments(k, seed=k + 7)
    x = rng.normal(size=(t_obs.size, 5))
    cov_out = mlp_forward(model.cov_net, x)[0]
    per_head = np.column_stack([fresh_column(model, cov_out, t_emb, s) for s in range(k)])
    assert predict_all_outcomes(model, x, t_emb).tobytes() == per_head.tobytes()
    per_head_factual = np.empty(t_obs.size)
    for s in range(k):
        rows = np.flatnonzero(t_obs == s)
        per_head_factual[rows] = fresh_column(model, cov_out[rows], t_emb, s)
    buffers = model.fit_buffers(t_obs.size)
    for caches in (None, buffers.caches):
        factual = factual_predictions(model, x, t_obs, t_emb, caches)
        assert factual.tobytes() == per_head_factual.tobytes()


def test_second_batch_with_fit_buffers_allocates_under_1_mb():
    # per-layer temporaries at width 200 and batch 128 are 0.2 MB each
    shape = ModelShape(
        cov_layers=3, cov_width=200, treat_layers=3, treat_width=200,
        head_layers=3, head_width=200,
    )
    model = build_model(8, 3, shape, "joint", rng=0)
    rng = np.random.default_rng(0)
    t = rng.integers(0, 3, 128)
    t_emb = rng.normal(size=(3, 8))
    batch = Batch(rng.normal(size=(128, 8)), t, rng.normal(size=128))
    buffers = model.fit_buffers(128)
    batch_loss(model, batch, t_emb, TrainConfig(), dropout_seed=1, buffers=buffers)
    tracemalloc.start()
    try:
        batch_loss(model, batch, t_emb, TrainConfig(), dropout_seed=2, buffers=buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _fit_buffer_bytes(k):
    """Traced peak of a 2-epoch joint fit at 3x200 widths, less its three
    theta-sized vectors (live, gradient and best snapshot)."""
    ds = small_dataset(n=400, k=k)
    shape = ModelShape(
        cov_layers=3, cov_width=200, treat_layers=3, treat_width=200,
        head_layers=3, head_width=200,
    )
    tracemalloc.start()
    try:
        trained = train(ds, shape, quick_train_cfg(batch_size=128, epochs_max=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - 3 * trained.model.theta.nbytes


def test_fit_buffers_do_not_grow_with_the_number_of_heads():
    # per-head buffers would add ~1.7 MB per head at these widths
    assert _fit_buffer_bytes(8) == pytest.approx(_fit_buffer_bytes(2), abs=500_000)


# --- training loop ---


def test_initial_model_is_the_model_a_fit_starts_from(monkeypatch):
    ds, cfg = small_dataset(), quick_train_cfg(epochs_max=1, seed=5)
    thetas = []
    build = model_module.build_model

    def spy(*args, **kwargs):
        built = build(*args, **kwargs)
        thetas.append(built.theta.copy())  # before the fit steps it
        return built

    monkeypatch.setattr(model_module, "build_model", spy)
    trained = train(ds, small_shape(), cfg, "tarnet")
    monkeypatch.undo()
    start = initial_model(ds, small_shape(), cfg, "tarnet")
    assert len(thetas) == 1
    np.testing.assert_array_equal(start.theta, thetas[0])
    assert start.head_updates == (0, 0, 0)
    assert not np.array_equal(trained.model.theta, start.theta)


@pytest.mark.parametrize("case", ["empty", "zero-shot"])
def test_train_refuses_an_empty_validation_split_before_any_epoch(monkeypatch, case):
    ds = small_dataset()
    val = ds.splits["val"]
    # the validation rows the fit may see move to training: all of them, or
    # with treatment 0 held out, all but treatment 0's
    keep = np.zeros(val.size, bool) if case == "empty" else ds.t_obs[val] == 0
    moved = np.concatenate([ds.splits["train"], val[~keep]])
    fit = dataclasses.replace(ds, splits={**ds.splits, "train": moved, "val": val[keep]})
    held_out = None if case == "empty" else 0
    assert (fit.splits["val"].size > 0) == (case == "zero-shot")

    def no_epoch(*_args, **_kwargs):
        raise AssertionError("an epoch ran without validation rows")

    monkeypatch.setattr(model_module, "batch_loss", no_epoch)
    with pytest.raises(ShapeError, match="validation split is empty"):
        train(fit, small_shape(), quick_train_cfg(), held_out=held_out)


def test_train_counts_updates_per_head_up_to_the_best_epoch():
    # one batch per epoch covering every treatment: each head steps once
    ds = small_dataset(n=120)
    cfg = quick_train_cfg(batch_size=512, epochs_max=4)
    trained = train(ds, small_shape(), cfg)
    assert trained.model.head_updates == (trained.best_epoch + 1,) * 3
    held_out = train(ds, small_shape(), cfg, held_out=1)
    assert held_out.model.head_updates[1] == 0
    assert held_out.model.head_updates[0] > 0 and held_out.model.head_updates[2] > 0


def _record_steps(monkeypatch):
    """Record, per training step, the live model, which heads the batch
    missed, and theta before and after the step."""
    steps = []
    real_loss, real_step = model_module.batch_loss, model_module.sgd_step

    def loss(model, batch, t_emb, cfg, **kw):
        res = real_loss(model, batch, t_emb, cfg, **kw)
        steps.append([model, [n == 0 for n in res.head_rows], None, None])
        return res

    def step(theta, grad, *args):
        before = theta.copy()
        real_step(theta, grad, *args)
        steps[-1][2:] = before, theta.copy()

    monkeypatch.setattr(model_module, "batch_loss", loss)
    monkeypatch.setattr(model_module, "sgd_step", step)
    return steps


def test_a_head_without_samples_is_untouched_by_the_step(monkeypatch):
    # batches of 4 over 3 treatments often miss a head; weight decay is on
    steps = _record_steps(monkeypatch)
    train(small_dataset(n=120), small_shape(), quick_train_cfg(batch_size=4, weight_decay=0.1))
    idle = 0
    for model, missed, before, after in steps:
        heads = zip(model.head_block(before), model.head_block(after))
        for t, (old, new) in enumerate(heads):
            old, new = old.tobytes(), new.tobytes()
            if missed[t]:
                idle += 1
                assert new == old  # bit for bit
            else:
                assert new != old
    assert idle > 0


def test_held_out_head_keeps_its_initialization():
    ds = small_dataset(n=200)
    cfg = quick_train_cfg(weight_decay=0.1)
    initial = initial_model(ds, small_shape(), cfg)
    trained = train(ds, small_shape(), cfg, held_out=1).model
    assert trained.head_updates[1] == 0
    before, after = initial.head_block(initial.theta), trained.head_block(trained.theta)
    np.testing.assert_array_equal(after[1], before[1])
    assert not np.array_equal(after[0], before[0])


def test_best_epoch_snapshot_is_a_copy(monkeypatch):
    steps = _record_steps(monkeypatch)
    ds = small_dataset()
    trained = train(ds, small_shape(), quick_train_cfg(base_lr=0.3, epochs_max=8, seed=2))
    live = steps[-1][0]
    assert trained.model is not live
    assert not np.shares_memory(trained.model.theta, live.theta)
    # a later epoch was worse, and the snapshot still scores the best one
    assert trained.best_epoch < trained.history.n_epochs() - 1
    x_val, t_val, y_val = ds.observed("val")
    val_hat = factual_predictions(trained.model, x_val, t_val, ds.T_emb)
    assert float(np.mean((val_hat - y_val) ** 2)) == trained.best_val_mse
    live_hat = factual_predictions(live, x_val, t_val, ds.T_emb)
    assert float(np.mean((live_hat - y_val) ** 2)) == trained.history.val_mse[-1]


def test_sgd_step_leaves_theta_unchanged_on_a_non_finite_gradient():
    model = build_model(3, 2, small_shape(), "joint", rng=3)
    rng = np.random.default_rng(1)
    x, t_emb, y = rng.normal(size=(6, 3)), rng.normal(size=(2, 3)), rng.normal(size=6)
    batch = Batch(x, np.array([0, 1] * 3), y)
    res = batch_loss(model, batch, t_emb, TrainConfig(bandwidth=1.0))
    before = model.theta.copy()
    res.grad[-1] = np.inf
    weights = [w for net in model.views(model.theta) for w, _ in net]
    with pytest.raises(NumericError):
        sgd_step(model.theta, res.grad, 0.1, 1e-4, weights)
    np.testing.assert_array_equal(model.theta, before)


def test_history_composition_and_best_tracking():
    cfg = quick_train_cfg(epochs_max=4, beta=0.5)
    trained = train(small_dataset(), small_shape(), cfg)
    h = trained.history
    assert h.n_epochs() == 4
    for loss, mse, bal in zip(h.loss, h.mse, h.balance):
        assert loss == pytest.approx(cfg.alpha * mse + cfg.beta * bal, abs=1e-12)
    assert trained.best_epoch == int(np.argmin(h.val_mse))
    assert trained.best_val_mse == min(h.val_mse)
    assert h.lr[0] == cfg.base_lr
    assert all(len(norms) == 3 for norms in h.head_grad_norms)


def test_training_is_deterministic():
    ds = small_dataset()
    cfg = quick_train_cfg(epochs_max=2, seed=7)
    shape = small_shape(dropout_rate=0.1)
    a = train(ds, shape, cfg)
    b = train(ds, shape, cfg)
    assert a.history.loss == b.history.loss
    assert a.history.val_mse == b.history.val_mse
    x_test = ds.covariates("test")
    np.testing.assert_array_equal(
        predict_all_outcomes(a.model, x_test, ds.T_emb),
        predict_all_outcomes(b.model, x_test, ds.T_emb),
    )


def test_early_stopping_counts_epochs_without_improvement(zero_init):
    # a zero model over zero-valued training targets never produces a
    # gradient, so validation error is flat: epoch 0 sets the best and the
    # run stops after exactly `patience` further epochs
    ds = small_dataset(n=80, k=2)
    samp = ds.Y_sampled.copy()
    samp[ds.splits["train"]] = 0.0
    ds = dataclasses.replace(ds, Y_sampled=samp)
    cfg = quick_train_cfg(alpha=1.0, beta=0.0, epochs_max=50, patience=3)
    trained = train(ds, small_shape(), cfg)
    assert trained.history.n_epochs() == 1 + 3
    assert trained.best_epoch == 0


def _scripted_val_mse(monkeypatch, ds, values):
    """Make epoch e's validation MSE values[e] (the last value repeats)."""
    _, _, y_val = ds.observed("val")
    epochs = itertools.count()

    def predictions(*_args):
        return y_val + math.sqrt(values[min(next(epochs), len(values) - 1)])

    monkeypatch.setattr(model_module, "factual_predictions", predictions)


@pytest.mark.parametrize(
    "values, epochs_max, patience, epochs, best",
    [
        # each decrease is under 1e-3 relative: only epoch 0 resets the count,
        # while the snapshot still follows the strict minimum
        ([1.0, 0.9998, 0.9996, 0.9994], 50, 3, 4, 3),
        # 0.9989 is 1.1e-3 below 1.0 and 0.9975 is 1.4e-3 below 0.9989
        ([1.0, 0.9995, 0.9989, 0.9985, 0.998, 0.9975], 50, 3, 6 + 3, 5),
        # patience == epochs_max never stops
        ([1.0], 7, 7, 7, 0),
    ],
)
def test_early_stopping_needs_a_relative_decrease(
    monkeypatch, values, epochs_max, patience, epochs, best
):
    assert model_module.EARLY_STOP_MIN_REL_DECREASE == 1e-3
    ds = small_dataset(n=120)
    _scripted_val_mse(monkeypatch, ds, values)
    trained = train(ds, small_shape(), quick_train_cfg(epochs_max=epochs_max, patience=patience))
    assert trained.history.n_epochs() == epochs
    assert trained.best_epoch == best
    assert trained.best_val_mse == pytest.approx(values[best], rel=1e-12)


def test_divergence_reports_position_and_history():
    cfg = quick_train_cfg(base_lr=1e6, epochs_max=20, patience=20, beta=0.0)
    with pytest.raises(TrainingDiverged) as excinfo:
        train(small_dataset(), small_shape(), cfg)
    err = excinfo.value
    assert err.epoch >= 0
    assert err.batch_index >= 0
    assert isinstance(err.history, TrainHistory)
    assert f"batch {err.batch_index} (batch step): non-finite" in str(err)


def test_divergence_in_the_validation_pass_names_its_stage_and_cause():
    # at base_lr 0.2 the last step's weights overflow the validation forward
    ds = simulate_dataset(SimConfig(n=300, d=6, k=3, seed=2))
    cfg = TrainConfig(epochs_max=3, batch_size=64, base_lr=0.2)
    with pytest.raises(TrainingDiverged) as excinfo:
        train(ds, ModelShape(), cfg)
    err = excinfo.value
    assert str(err) == (
        "training diverged at epoch 1, batch 3 (validation pass): non-finite network input"
    )
    assert (err.epoch, err.batch_index, err.history.n_epochs()) == (1, 3, 1)


@pytest.mark.parametrize(
    "variant, epochs_max, base_lr, epoch",
    [("joint", 1, 1.6, 0), ("tarnet", 1, 1.6, 0), ("tarnet", 2, 0.4065, 1)],
)
def test_a_validation_mse_that_overflows_is_a_divergence(variant, epochs_max, base_lr, epoch):
    # on this data and shape a fit at base_lr ~1.25-1.9 (joint) or ~1.45-1.8
    # (tarnet) for one epoch, or at ~0.404-0.409 for two tarnet epochs,
    # predicts finite validation outcomes whose squared errors overflow, with
    # no forward pass overflowing on the way
    ds = simulate_dataset(SimConfig(n=300, d=6, k=3, seed=2))
    shape = ModelShape(
        cov_width=8, cov_out=4, treat_width=4, treat_out=3, head_width=4, dropout_rate=0.0
    )
    cfg = TrainConfig(epochs_max=epochs_max, batch_size=64, weight_decay=0.0, base_lr=base_lr)
    with pytest.raises(TrainingDiverged) as excinfo:
        train(ds, shape, cfg, variant)
    err = excinfo.value
    assert str(err) == (
        f"training diverged at epoch {epoch}, batch 3 (validation pass): "
        "non-finite validation MSE"
    )
    assert (err.epoch, err.history.n_epochs()) == (epoch, epoch)


def test_a_step_that_overflows_theta_is_a_divergence(monkeypatch):
    # a step that leaves a first-layer weight infinite: its tanh unit
    # saturates at +-1, the predictions stay finite, and the unit's gradient
    # is 0, so only a check of theta itself sees it
    real_step = model_module.sgd_step

    def overflowing_step(theta, *args):
        real_step(theta, *args)
        theta[0] = np.inf

    monkeypatch.setattr(model_module, "sgd_step", overflowing_step)
    with pytest.raises(TrainingDiverged) as excinfo:
        train(small_dataset(), small_shape(activation="tanh"), quick_train_cfg(epochs_max=1))
    assert str(excinfo.value).endswith("batch 4 (validation pass): non-finite parameters")


def test_baseline_training_invariant_to_treatment_embeddings():
    ds = small_dataset(n=200)
    scaled = dataclasses.replace(ds, Z=ds.Z * 1000.0)
    cfg = quick_train_cfg(epochs_max=2)
    a = train(ds, small_shape(), cfg, variant="tarnet")
    b = train(scaled, small_shape(), cfg, variant="tarnet")
    assert a.history.loss == b.history.loss
    x = ds.covariates("test")
    np.testing.assert_array_equal(
        predict_all_outcomes(a.model, x, ds.T_emb),
        predict_all_outcomes(b.model, x, scaled.T_emb),
    )


def test_factual_predictions_gather_from_full_matrix():
    ds = small_dataset(n=100)
    model = build_model(6, 3, small_shape(), "joint", rng=1)
    x, t, _ = ds.observed("val")
    full = predict_all_outcomes(model, x, ds.T_emb)
    np.testing.assert_array_equal(
        factual_predictions(model, x, t, ds.T_emb),
        full[np.arange(x.shape[0]), t],
    )


@pytest.mark.parametrize("case", ["joint", "tarnet", "zero-shot"])
def test_factual_predictions_match_the_gathered_matrix_up_to_roundoff(case):
    ds = small_dataset(n=300)
    held_out = 1 if case == "zero-shot" else None
    variant = "tarnet" if case == "tarnet" else "joint"
    shape = small_shape(cov_width=40, head_layers=3, head_width=40)
    trained = train(ds, shape, quick_train_cfg(epochs_max=2), variant, held_out=held_out).model
    assert trained.head_trained(1) == (case != "zero-shot")
    x, t, _ = ds.observed("test")
    assert (t == 1).any()
    gathered = predict_all_outcomes(trained, x, ds.T_emb)[np.arange(x.shape[0]), t]
    factual = factual_predictions(trained, x, t, ds.T_emb)
    assert np.max(np.abs(factual - gathered)) <= 1e-15 * np.max(np.abs(gathered))


def test_factual_predictions_check_observed_treatments():
    model = build_model(6, 3, small_shape(), "joint", rng=1)
    x, t_emb = np.zeros((4, 6)), np.zeros((3, 6))
    # no rows: no head pass has a segment
    assert factual_predictions(model, x[:0], np.zeros(0, int), t_emb).shape == (0,)
    assert predict_all_outcomes(model, x[:0], t_emb).shape == (0, 3)
    with pytest.raises(ShapeError):
        factual_predictions(model, x, np.array([0, 1, 2, 3]), t_emb)
    with pytest.raises(ShapeError):
        factual_predictions(model, x, np.array([0, 1, 2]), t_emb)


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_each_column_is_the_factual_pass_under_one_treatment(variant):
    # head 1 is untrained, so column 1 is the mean of the trained heads
    model = dataclasses.replace(
        build_model(6, 4, small_shape(head_layers=2, dropout_rate=0.2), variant, rng=3),
        head_updates=(1, 0, 2, 3),
    )
    rng = np.random.default_rng(5)
    x, t_emb = rng.normal(size=(9, 6)), rng.normal(size=(4, 6))
    full = predict_all_outcomes(model, x, t_emb)
    for t in range(4):
        column = factual_predictions(model, x, np.full(9, t), t_emb)
        assert column.tobytes() == full[:, t].tobytes()


def test_validation_with_fewer_rows_than_treatments():
    # batches of 4 and 5 validation rows size the fit's buffers below k = 16,
    # and validation runs the treatment network on all 16 embeddings
    ds = small_dataset(k=16)
    val, test = ds.splits["val"], ds.splits["test"]
    ds = dataclasses.replace(
        ds, splits={**ds.splits, "val": val[:5], "test": np.concatenate([test, val[5:]])}
    )
    trained = train(ds, small_shape(), quick_train_cfg(batch_size=4, epochs_max=1), "joint")
    x, t, y = ds.observed("val")
    val_mse = float(np.mean((factual_predictions(trained.model, x, t, ds.T_emb) - y) ** 2))
    assert trained.history.val_mse == [val_mse]


# --- checkpointing ---


@pytest.mark.parametrize("variant", ["joint", "tarnet"])
def test_checkpoint_round_trip_preserves_predictions(tmp_path, variant):
    ds = small_dataset(n=120)
    trained = train(ds, small_shape(dropout_rate=0.1), quick_train_cfg(epochs_max=2), variant)
    path = tmp_path / "model.json"
    save_checkpoint(path, trained)
    loaded = load_checkpoint(path)
    assert loaded.model.variant == variant
    assert loaded.best_epoch == trained.best_epoch
    assert loaded.config == trained.config
    assert loaded.model.shape == trained.model.shape
    x = ds.covariates("test")
    np.testing.assert_array_equal(
        predict_all_outcomes(trained.model, x, ds.T_emb),
        predict_all_outcomes(loaded.model, x, ds.T_emb),
    )
    doc = json.loads(path.read_text())
    assert doc["variant"] == variant
    assert (loaded.model.treat_net is None) == (variant == "tarnet")


def test_checkpoint_keeps_head_update_record(tmp_path):
    ds = small_dataset(n=200)
    trained = train(ds, small_shape(), quick_train_cfg(), held_out=2)
    assert trained.model.head_updates[2] == 0
    path = tmp_path / "model.json"
    save_checkpoint(path, trained)
    loaded = load_checkpoint(path)
    assert loaded.model.head_updates == trained.model.head_updates
    x = ds.covariates("test")
    np.testing.assert_array_equal(
        predict_all_outcomes(trained.model, x, ds.T_emb),
        predict_all_outcomes(loaded.model, x, ds.T_emb),
    )
    # every header of this schema carries the record: one without it, or
    # with null, is refused
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({k: v for k, v in doc.items() if k != "head_updates"}))
    with pytest.raises(DataError, match="head_updates"):
        load_checkpoint(path)
    for bad in (None, 3, ["x", 1, 1], [1, 1]):
        path.write_text(json.dumps({**doc, "head_updates": bad}))
        with pytest.raises(DataError):
            load_checkpoint(path)


def test_checkpoint_rejects_unknown_schema(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": "99"}))
    with pytest.raises(DataError):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path, name="model.json"):
    ds = small_dataset(n=120)
    trained = train(ds, small_shape(), quick_train_cfg(epochs_max=1), "joint")
    path = tmp_path / name
    save_checkpoint(path, trained)
    return trained, path, tmp_path / (path.stem + ".npy")


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_checkpoint_is_a_header_plus_a_parameter_vector(tmp_path):
    trained, path, sidecar = _saved_checkpoint(tmp_path)
    doc = _strict_json(path.read_text())
    assert doc["schema_version"] == "5"
    # the networks' layers follow from shape, input_dim, k and variant, and are not stored
    assert set(doc) == {
        "schema_version", "variant", "k", "input_dim", "params_sha256",
        "head_updates", "train_config", "shape", "best_epoch", "best_val_mse",
    }
    assert doc["params_sha256"] == hashlib.sha256(sidecar.read_bytes()).hexdigest()
    # the header never names its sidecar, which is derived from its own path
    assert "model.npy" not in path.read_text()
    vec = np.load(sidecar, allow_pickle=False)
    model = trained.model
    stacks = [model.cov_net, model.treat_net, model.head_stack]
    assert vec.dtype == np.float64
    assert vec.shape == (sum(w.size + b.size for net in stacks for w, b in net.layers),)
    np.testing.assert_array_equal(vec, model.theta)
    # cov, treat, then heads; each layer's weight row-major, then its bias
    w0, b0 = (a[0] for a in model.cov_net.layers[0])
    np.testing.assert_array_equal(vec[: w0.size], w0.ravel())
    np.testing.assert_array_equal(vec[w0.size : w0.size + b0.size], b0)
    w_last, b_last = (a[-1] for a in model.head_stack.layers[-1])
    np.testing.assert_array_equal(vec[-b_last.size - w_last.size : -b_last.size], w_last.ravel())
    np.testing.assert_array_equal(vec[-b_last.size :], b_last)


def test_checkpoint_rejects_a_tampered_parameter_file(tmp_path):
    trained, path, sidecar = _saved_checkpoint(tmp_path)
    good = sidecar.read_bytes()
    flipped = bytearray(good)
    flipped[-3] ^= 0x01
    sidecar.write_bytes(bytes(flipped))
    with pytest.raises(DataError, match="sha256"):
        load_checkpoint(path)
    sidecar.write_bytes(good[:-8])
    with pytest.raises(DataError, match="sha256"):
        load_checkpoint(path)
    sidecar.unlink()
    with pytest.raises(DataError, match="model.npy"):
        load_checkpoint(path)
    # a well-formed file one value short or long, or float32, recorded under
    # its own sha256
    doc = json.loads(path.read_text())
    vec = np.load(io.BytesIO(good), allow_pickle=False)
    for bad in (vec[:-1], np.append(vec, 0.0), vec.astype(np.float32)):
        np.save(sidecar, bad)
        digest = hashlib.sha256(sidecar.read_bytes()).hexdigest()
        path.write_text(json.dumps({**doc, "params_sha256": digest}))
        with pytest.raises(DataError, match="values"):
            load_checkpoint(path)
    # bytes that are no .npy file, recorded under their own sha256
    sidecar.write_bytes(b"not an array")
    digest = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    path.write_text(json.dumps({**doc, "params_sha256": digest}))
    with pytest.raises(DataError, match="malformed array file"):
        load_checkpoint(path)
    # a NaN recorded under its own sha256: the file is intact, the model is not
    nan = vec.copy()
    nan[5] = np.nan
    np.save(sidecar, nan)
    digest = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    path.write_text(json.dumps({**doc, "params_sha256": digest}))
    with pytest.raises(NumericError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_networks_must_agree_with_its_shape(tmp_path):
    # the header's shape rebuilds the networks, whose size the vector must match
    _, path, _ = _saved_checkpoint(tmp_path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "shape": {**doc["shape"], "cov_width": 9}}))
    with pytest.raises(DataError, match="values"):
        load_checkpoint(path)


def test_checkpoint_refuses_npy_header_path_and_old_schema(tmp_path):
    trained, path, _ = _saved_checkpoint(tmp_path)
    with pytest.raises(ConfigError, match=".npy"):
        save_checkpoint(tmp_path / "other.npy", trained)
    assert not (tmp_path / "other.npy").exists()
    with pytest.raises(ConfigError, match=".npy"):
        load_checkpoint(tmp_path / "model.npy")
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "schema_version": "1"}))
    with pytest.raises(DataError, match="re-run"):
        load_checkpoint(path)
    # schema 2 recorded the shape's init, which schema 3 does not have
    old_shape = {**doc["shape"], "init": "glorot"}
    path.write_text(json.dumps({**doc, "schema_version": "2", "shape": old_shape}))
    with pytest.raises(DataError, match="re-run `ite-bench train`"):
        load_checkpoint(path)
    path.write_text(json.dumps({**doc, "shape": old_shape}))
    with pytest.raises(DataError, match="init"):
        load_checkpoint(path)


def test_checkpoint_header_refuses_non_finite_values(tmp_path):
    trained, _, _ = _saved_checkpoint(tmp_path)
    # a trained model with a non-finite header value cannot be built, so
    # none can be saved
    with pytest.raises(ConfigError, match="best_val_mse"):
        dataclasses.replace(trained, best_val_mse=math.nan)


@pytest.mark.parametrize(
    "epoch, mse",
    [(True, 0.5), (-1, 0.5), (1.0, 0.5), (0, None), (None, 0.5), (0, -0.5), (0, math.inf),
     (0, 1), (None, None)],
)
def test_trained_model_refuses_an_invalid_best_epoch_or_val_mse(tmp_path, epoch, mse):
    # every fit selects an epoch, so neither field is ever null
    trained, _, _ = _saved_checkpoint(tmp_path)
    dataclasses.replace(trained, best_epoch=0, best_val_mse=0.0)
    # the type check, which comes first, names the first field it refuses
    # and an infinite float as not finite
    match = "best_epoch" if epoch != 0 else "best_val_mse"
    if mse == math.inf:
        match = "best_val_mse must be finite"
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(trained, best_epoch=epoch, best_val_mse=mse)


# --- config validation ---


def test_train_config_validation():
    # the single-field bounds are test_each_field_refuses_a_value_out_of_its_bound's
    for bad, match in (
        ({"alpha": 0.0, "beta": 0.0}, r"alpha \+ beta"),
        ({"bandwidth": 0.0}, "bandwidth"),
        # 2 / bandwidth^2 overflows below ~1.0548e-154, and bandwidth^2 is 0 at 1e-200
        ({"bandwidth": 1e-155}, "bandwidth must be finite and above"),
        ({"bandwidth": 1e-200}, "bandwidth must be finite and above"),
    ):
        with pytest.raises(ConfigError, match=match):
            TrainConfig(**bad)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"alpha": 1.0, "momentum": 0.9})
    cfg = TrainConfig(alpha=0.5, beta=0.25, bandwidth=2.0)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    assert TrainConfig(bandwidth=1e-150).bandwidth == 1e-150


# every class that checks its field types when it is built
TYPE_CHECKED = [
    SimConfig, ModelShape, TrainConfig, ExperimentConfig, SweepSpec, Dataset, OutcomeModel,
    TrainedModel, EvalReport, RunRecord,
]


def _valid_instances() -> dict:
    """A valid instance of each class of TYPE_CHECKED, with the error its
    construction raises."""
    ds = simulate_dataset(SimConfig(n=60, d=3, k=2, seed=0))
    model = build_model(3, 2, small_shape(), rng=0)
    report = EvalReport("test", 10, {(1, 0): 0.25}, [1], zero_shot_z=1)
    return {
        SimConfig: (SimConfig(), ConfigError),
        ModelShape: (ModelShape(), ConfigError),
        TrainConfig: (TrainConfig(), ConfigError),
        ExperimentConfig: (ExperimentConfig(zero_shot=1), ConfigError),
        SweepSpec: (SweepSpec(ExperimentConfig(), {"variant": ["joint"]}), ConfigError),
        Dataset: (ds, ShapeError),
        OutcomeModel: (model, ConfigError),
        TrainedModel: (TrainedModel(model, TrainHistory(), 0, 0.5, TrainConfig()), ConfigError),
        EvalReport: (report, DataError),
        RunRecord: (RunRecord("joint", {}, [report], ["a.json"]), DataError),
    }


def _wrong_values(hint) -> list:
    """Values whose type the field declared hint does not admit: a bool and
    a numpy int, which JSON cannot write, for any field; a float for an
    int, a str, a dict for a section, a list for a tuple and None, each
    where no member of the hint takes that kind of value."""
    members = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    kinds = {typing.get_origin(m) or m for m in members}
    wrong = [True, np.int64(1)]
    if float not in kinds:
        wrong.append(1.5)
    if str not in kinds:
        wrong.append("1")
    if not kinds & {dict, Mapping}:
        wrong.append({"n": 1})
    if list not in kinds:
        wrong.append([1.0])
    if type(None) not in kinds:
        wrong.append(None)
    return wrong


@pytest.mark.parametrize("cls", TYPE_CHECKED, ids=lambda c: c.__name__)
def test_every_field_checks_its_type_at_construction(cls):
    # from Python as from JSON: each field of a value of the wrong type, or
    # a NaN or infinite float, is refused by the type check that comes first
    valid, error = _valid_instances()[cls]
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(cls)}
    cls(**fields)
    hints = typing.get_type_hints(cls)
    for name, hint in hints.items():
        for value in _wrong_values(hint):
            with pytest.raises(error, match=f"^{name} must be "):
                cls(**{**fields, name: value})
        if float in (hint, *typing.get_args(hint)):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(error, match=f"^{name} must be finite"):
                    cls(**{**fields, name: value})


# the float nearest 0 from above, and those nearest 1 from either side
TINY, BELOW_ONE, ABOVE_ONE = math.ulp(0.0), math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
LAYER_FIELDS = [
    "cov_layers", "cov_width", "cov_out", "treat_layers", "treat_width", "treat_out",
    "head_layers", "head_width",
]
# (class, field, declared bound): the value at its edge, which it accepts,
# and the nearest value it refuses; a list or tuple field's bound holds for
# each entry
BOUNDS = {
    **{(ModelShape, name, ">= 1"): (1, 0) for name in LAYER_FIELDS},
    (ModelShape, "activation", ("tanh", "elu")): ("tanh", "relu"),
    (ModelShape, "dropout_rate", ">= 0"): (0.0, -TINY),
    (ModelShape, "dropout_rate", "< 1"): (BELOW_ONE, 1.0),
    (OutcomeModel, "input_dim", ">= 1"): (1, 0),
    (OutcomeModel, "k", ">= 1"): (1, 0),
    (OutcomeModel, "variant", ("joint", "tarnet")): ("tarnet", "dragonnet"),
    (OutcomeModel, "head_updates", ">= 0"): ((0, 0), (3, -1)),
    (TrainConfig, "alpha", ">= 0"): (0.0, -TINY),
    (TrainConfig, "beta", ">= 0"): (0.0, -TINY),
    (TrainConfig, "batch_size", ">= 2"): (2, 1),
    (TrainConfig, "epochs_max", ">= 1"): (1, 0),
    (TrainConfig, "patience", ">= 1"): (1, 0),
    (TrainConfig, "base_lr", "> 0"): (TINY, 0.0),
    (TrainConfig, "lr_decay", "> 0"): (TINY, 0.0),
    (TrainConfig, "lr_decay", "<= 1"): (1.0, ABOVE_ONE),
    (TrainConfig, "scheduler_step", ">= 1"): (1, 0),
    (TrainConfig, "weight_decay", ">= 0"): (0.0, -TINY),
    (TrainConfig, "seed", ">= 0"): (0, -1),
    (TrainedModel, "best_epoch", ">= 0"): (0, -1),
    (TrainedModel, "best_val_mse", ">= 0"): (0.0, -TINY),
    (SimConfig, "d", ">= 1"): (1, 0),
    (SimConfig, "k", ">= 2"): (2, 1),
    (SimConfig, "centroid_method", ("random", "kmeans")): ("kmeans", "spectral"),
    (SimConfig, "c", "> 0"): (TINY, 0.0),
    (SimConfig, "kappa", "> 0"): ((10.0, 10.0, 10.0, TINY), (10.0, 10.0, 10.0, 0.0)),
    (SimConfig, "seed", ">= 0"): (0, -1),
    (ExperimentConfig, "variant", ("joint", "tarnet")): ("tarnet", "dragonnet"),
    (ExperimentConfig, "repeats", ">= 1"): (1, 0),
    (SweepSpec, "max_trials", ">= 1"): (1, 0),
    (EvalReport, "split", ("train", "val", "test")): ("train", "holdout"),
    (EvalReport, "n_eval", ">= 1"): (1, 0),
}


def test_bounds_table_covers_every_declared_bound():
    declared = {
        (cls, name, bound)
        for cls in TYPE_CHECKED
        for name, hint in typing.get_type_hints(cls, include_extras=True).items()
        if typing.get_origin(hint) is typing.Annotated
        for bound in hint.__metadata__
    }
    assert declared == set(BOUNDS)


@pytest.mark.parametrize(
    "cls, name, bound", BOUNDS, ids=lambda v: v.__name__ if isinstance(v, type) else str(v)
)
def test_each_field_refuses_a_value_out_of_its_bound(cls, name, bound):
    # construction checks each bound after the field's type, with the
    # class's own error: the edge value passes, the nearest one past it not
    ok, bad = BOUNDS[cls, name, bound]
    valid, error = _valid_instances()[cls]
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(cls)}

    def build(value):
        changed = {**fields, name: value}
        if cls is OutcomeModel and name != "head_updates":
            # theta's length and the head count follow input_dim, k and variant
            dims = (changed["input_dim"], changed["k"], changed["variant"])
            changed.update(theta=np.zeros(changed["shape"].n_params(*dims)), head_updates=())
        return cls(**changed)

    assert getattr(build(ok), name) == ok
    expect = f"one of {bound}" if isinstance(bound, tuple) else bound
    with pytest.raises(error, match=f"^{re.escape(f'{name} must be {expect}, got ')}"):
        build(bad)


def test_model_shape_validation():
    # the single-field bounds are test_each_field_refuses_a_value_out_of_its_bound's
    with pytest.raises(ConfigError):
        ModelShape.from_dict({"init": "glorot"})
    with pytest.raises(ConfigError):
        ModelShape.from_dict({"cov_layers": 2, "bogus": 3})
    shape = small_shape()
    assert ModelShape.from_dict(shape.to_dict()) == shape
    # cov 6 -> 8 -> 4, treat 6 -> 3, then heads on the 4 + 3 joint features
    assert shape.network_dims(6, 2, "joint") == [(1, [6, 8, 4]), (1, [6, 3]), (2, [7, 1])]
    assert shape.network_dims(6, 1, "tarnet") == [(1, [6, 8, 4]), (1, [4, 1])]


def test_desk_scale_training_halves_validation_error():
    ds = simulate_dataset(SimConfig(n=2000, d=32, k=4, c=5.0, kappa=10.0, seed=3))
    shape = ModelShape(
        cov_layers=2, cov_width=48, cov_out=24,
        treat_layers=2, treat_width=24, treat_out=12,
        head_layers=2, head_width=24, activation="elu", dropout_rate=0.1,
    )
    cfg = TrainConfig(
        alpha=1.0, beta=0.5, batch_size=256, epochs_max=15, patience=15,
        base_lr=0.1, lr_decay=0.5, scheduler_step=10, seed=9,
    )
    untrained = initial_model(ds, shape, cfg, "joint")
    x_val, t_val, y_val = ds.observed("val")
    initial = float(
        np.mean((factual_predictions(untrained, x_val, t_val, ds.T_emb) - y_val) ** 2)
    )
    trained = train(ds, shape, cfg, "joint")
    assert trained.best_val_mse <= 0.5 * initial
