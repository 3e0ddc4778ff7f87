import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ite_bench.errors import ConfigError, NumericError, ShapeError
from ite_bench.model import ModelShape, OutcomeModel, TrainConfig, build_model
from ite_bench.nn import (
    ForwardCache,
    MlpStack,
    _activate,
    _activate_grad,
    mlp_backward,
    mlp_forward,
    sgd_step,
    stack_backward,
    stack_forward,
)

from gradcheck import (
    assert_grads_close,
    central_difference,
    empty_grads,
    flatten_grads,
    flatten_params,
    glorot_mlp,
    unflatten_params,
)


def _params(layers, activation="tanh", dropout=0.0):
    """A one-network stack of the given (weight, bias) pairs."""
    arrays = tuple((np.asarray(w, dtype=float), np.asarray(b, dtype=float)) for w, b in layers)
    return MlpStack(tuple((w[None], b[None]) for w, b in arrays), activation, dropout)


def test_identity_single_layer_passes_input_through():
    params = _params([(np.eye(3), np.zeros(3))])
    x = np.array([[0.3, -1.7, 2.5]])
    out, _ = mlp_forward(params, x)
    np.testing.assert_array_equal(out, x)


def test_zero_weight_tanh_layer_emits_zero():
    params = _params([([[0.0]], [0.0])])
    out, _ = mlp_forward(params, np.array([[5.0]]))
    np.testing.assert_array_equal(out, [[0.0]])


def test_two_layer_tanh_matches_hand_computation():
    w1 = [[0.5, -0.25], [0.1, 0.3]]
    b1 = [0.1, -0.2]
    w2 = [[1.5, -2.0]]
    b2 = [0.25]
    params = _params([(w1, b1), (w2, b2)])
    x = [0.3, -0.8]
    # independent scalar-path computation
    h0 = math.tanh(0.5 * 0.3 + (-0.25) * (-0.8) + 0.1)
    h1 = math.tanh(0.1 * 0.3 + 0.3 * (-0.8) - 0.2)
    expected = 1.5 * h0 - 2.0 * h1 + 0.25
    out, _ = mlp_forward(params, np.array([x]))
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - expected) < 1e-15


def test_elu_negative_branch_matches_hand_computation():
    params = _params([([[1.0]], [0.0]), ([[2.0]], [0.5])], activation="elu")
    out, _ = mlp_forward(params, np.array([[-1.2]]))
    expected = 2.0 * (math.exp(-1.2) - 1.0) + 0.5
    assert abs(out[0, 0] - expected) < 1e-15


def test_forward_validates_input():
    params = glorot_mlp([3, 2], rng=0)
    with pytest.raises(ShapeError):
        mlp_forward(params, np.zeros((1, 4)))
    with pytest.raises(NumericError):
        mlp_forward(params, np.array([[1.0, np.nan, 0.0]]))
    # a batch only: one sample is a (1, in) matrix, never a bare vector
    with pytest.raises(ShapeError):
        mlp_forward(params, np.zeros(3))


def test_batch_forward_matches_per_row_forward():
    # BLAS may reorder the sums between a 5-row and a 1-row product, so the
    # agreement is up to a few ulps rather than bitwise
    params = glorot_mlp([4, 6, 3], "elu", rng=7)
    x = np.random.default_rng(1).normal(size=(5, 4))
    batch_out, _ = mlp_forward(params, x)
    for i in range(5):
        row_out, _ = mlp_forward(params, x[i : i + 1])
        np.testing.assert_allclose(batch_out[i : i + 1], row_out, rtol=1e-12, atol=1e-14)


def test_eval_forward_is_deterministic():
    params = glorot_mlp([3, 8, 2], "tanh", dropout_rate=0.4, rng=3)
    x = np.random.default_rng(2).normal(size=(6, 3))
    out1, _ = mlp_forward(params, x)
    out2, _ = mlp_forward(params, x)
    np.testing.assert_array_equal(out1, out2)


def test_train_mode_dropout_reproducible_per_seed():
    params = glorot_mlp([3, 16, 2], "tanh", dropout_rate=0.5, rng=3)
    x = np.random.default_rng(2).normal(size=(4, 3))
    out1, _ = mlp_forward(params, x, np.random.default_rng(11))
    out2, _ = mlp_forward(params, x, np.random.default_rng(11))
    out3, _ = mlp_forward(params, x, np.random.default_rng(12))
    np.testing.assert_array_equal(out1, out2)
    assert not np.array_equal(out1, out3)


def test_inverted_dropout_scales_kept_units():
    # one hidden layer, identity-ish weights so the mask is visible directly
    params = _params([(np.eye(4), np.zeros(4)), (np.eye(4), np.zeros(4))], dropout=0.5)
    x = np.ones((1, 4))
    out, cache = mlp_forward(params, x, np.random.default_rng(0))
    mask = cache.dropout_masks[0]
    assert mask.dtype == bool
    np.testing.assert_array_equal(out, np.tanh(1.0) * 2.0 * mask)


def test_dropout_expectation_approximates_eval_output():
    # linear output layer makes the expectation exact; 10k draws puts the
    # Monte Carlo error well inside 2% per unit
    w1 = np.array([[0.8, -0.3], [0.5, 0.4], [-0.6, 0.7], [0.2, 0.9]])
    b1 = np.array([0.1, -0.2, 0.3, 0.05])
    w2 = np.array([[1.2, 0.7, 0.5, 1.0], [0.3, 0.8, -1.1, -0.6]])
    b2 = np.array([0.4, -1.3])
    params = _params([(w1, b1), (w2, b2)], dropout=0.1)
    x = np.array([[0.7, -0.4]])
    eval_out, _ = mlp_forward(params, x)
    assert np.all(np.abs(eval_out) > 0.2)  # keeps the relative check meaningful
    total = np.zeros((1, 2))
    n_draws = 10_000
    rng = np.random.default_rng(123)
    for _ in range(n_draws):
        out, _ = mlp_forward(params, x, rng)
        total += out
    mc_mean = total / n_draws
    assert np.all(np.abs(mc_mean - eval_out) <= 0.02 * np.abs(eval_out))


def test_backward_zero_upstream_gives_zero_gradients():
    params = glorot_mlp([3, 5, 2], rng=0)
    x = np.random.default_rng(0).normal(size=(4, 3))
    _, cache = mlp_forward(params, x)
    grads = [(np.full_like(w, np.nan), np.full_like(b, np.nan)) for w, b in params.layers]
    d_x = mlp_backward(params, cache, np.zeros((4, 2)), grads)
    for gw, gb in grads:
        assert not gw.any()
        assert not gb.any()
    assert not d_x.any()


def test_backward_scalar_affine_layer():
    # y = w*x + b: dy/dw = x, dy/db = 1, dy/dx = w
    params = _params([([[1.7]], [0.3])])
    x = np.array([[2.5]])
    _, cache = mlp_forward(params, x)
    grads = empty_grads(params)
    d_x = mlp_backward(params, cache, np.array([[1.0]]), grads)
    assert grads[0][0][0, 0, 0] == 2.5
    assert grads[0][1][0, 0] == 1.0
    assert d_x[0, 0] == 1.7


def test_backward_rejects_mismatched_upstream():
    params = glorot_mlp([3, 2], rng=0)
    _, cache = mlp_forward(params, np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        mlp_backward(params, cache, np.zeros((4, 3)), empty_grads(params))


@pytest.mark.parametrize("activation", ["tanh", "elu"])
@pytest.mark.parametrize("dims", [[4, 5, 3], [3, 6, 6, 2], [2, 4, 1]])
def test_gradients_match_finite_differences(activation, dims):
    rng = np.random.default_rng(hash((activation, tuple(dims))) % 2**32)
    params = glorot_mlp(dims, activation, rng=rng)
    x = rng.normal(size=(3, dims[0]))
    v = rng.normal(size=dims[-1])  # fixed projection -> scalar functional

    def loss_from(vec):
        out, _ = mlp_forward(unflatten_params(params, vec), x)
        return float((out @ v).sum())

    out, cache = mlp_forward(params, x)
    grads = empty_grads(params)
    d_x = mlp_backward(params, cache, np.tile(v, (3, 1)), grads)
    fd = central_difference(loss_from, flatten_params(params))
    assert_grads_close(flatten_grads(grads), fd)

    def loss_from_input(flat_x):
        out, _ = mlp_forward(params, flat_x.reshape(x.shape))
        return float((out @ v).sum())

    fd_x = central_difference(loss_from_input, x.ravel())
    assert_grads_close(d_x.ravel(), fd_x)


def test_gradients_match_finite_differences_with_fixed_dropout():
    rng = np.random.default_rng(99)
    params = glorot_mlp([3, 8, 2], "elu", dropout_rate=0.3, rng=rng)
    x = rng.normal(size=(4, 3))
    v = rng.normal(size=2)

    def loss_from(vec):
        out, _ = mlp_forward(unflatten_params(params, vec), x, np.random.default_rng(5))
        return float((out @ v).sum())

    _, cache = mlp_forward(params, x, np.random.default_rng(5))
    grads = empty_grads(params)
    mlp_backward(params, cache, np.tile(v, (4, 1)), grads)
    fd = central_difference(loss_from, flatten_params(params))
    assert_grads_close(flatten_grads(grads), fd)


def _pass(params, x, upstream, dropout_seed, cache=None):
    """Forward and backward once; copies of everything the pass produced."""
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    out, cache = mlp_forward(params, x, rng, cache)
    out = out.copy()
    inputs = [a.copy() for a in cache.inputs]
    masks = [None if m is None else m.copy() for m in cache.dropout_masks]
    grads = empty_grads(params)
    d_x = mlp_backward(params, cache, upstream, grads).copy()
    return out, inputs, masks, grads, d_x, cache


@pytest.mark.parametrize("activation", ["tanh", "elu"])
@pytest.mark.parametrize("dropout_seed", [None, 21])
def test_reused_cache_matches_fresh_allocation_bit_for_bit(activation, dropout_seed):
    params = glorot_mlp([5, 9, 7, 3], activation, dropout_rate=0.3, rng=4)
    rng = np.random.default_rng(8)
    cache = ForwardCache(params, 6)
    # a full batch, then a shorter one through the same buffers
    for n in (6, 4):
        x, upstream = rng.normal(size=(n, 5)), rng.normal(size=(n, 3))
        fresh = _pass(params, x, upstream, dropout_seed)
        reused = _pass(params, x, upstream, dropout_seed, cache)
        assert reused[-1] is cache and fresh[-1] is not cache
        assert fresh[0].shape == reused[0].shape == (n, 3)
        assert fresh[0].tobytes() == reused[0].tobytes()
        assert [a.tobytes() for a in fresh[1]] == [a.tobytes() for a in reused[1]]
        assert [m is None for m in fresh[2]] == [m is None for m in reused[2]]
        assert [m.tobytes() for m in fresh[2] if m is not None] == [
            m.tobytes() for m in reused[2] if m is not None
        ]
        assert flatten_grads(fresh[3]).tobytes() == flatten_grads(reused[3]).tobytes()
        assert fresh[4].tobytes() == reused[4].tobytes()
    assert (dropout_seed is not None) == any(m is not None for m in reused[2])


@pytest.mark.parametrize("activation", ["tanh", "elu"])
@pytest.mark.parametrize("dropout_seed", [None, 5])
def test_stack_pass_equals_each_network_on_its_own_rows_bit_for_bit(activation, dropout_seed):
    nets = [glorot_mlp([4, 6, 5, 2], activation, dropout_rate=0.3, rng=s) for s in range(3)]
    layers = [zip(*(net.layers[l] for net in nets)) for l in range(3)]
    stack = MlpStack(tuple(tuple(map(np.concatenate, pair)) for pair in layers), activation, 0.3)
    rng = np.random.default_rng(2)
    # network 1 owns no rows and network 0 one row
    segments = [(0, 0, 1), (2, 1, 8)]
    x, upstream = rng.normal(size=(8, 4)), rng.normal(size=(8, 2))

    def gen(t):
        return None if dropout_seed is None else np.random.default_rng([dropout_seed, t])

    cache = ForwardCache(stack, 10)
    rngs = None if dropout_seed is None else [gen(t) for t, _, _ in segments]
    out = stack_forward(stack, x, segments, cache, rngs)[0]
    grads = tuple((np.full_like(w, np.nan), np.full_like(b, np.nan)) for w, b in stack.layers)
    d_x = stack_backward(stack, cache, upstream, grads)
    for t, start, stop in segments:
        own_out, own_cache = mlp_forward(nets[t], x[start:stop], gen(t))
        own_grads = empty_grads(nets[t])
        own_d_x = mlp_backward(nets[t], own_cache, upstream[start:stop], own_grads)
        assert out[start:stop].tobytes() == own_out.tobytes()
        assert d_x[start:stop].tobytes() == own_d_x.tobytes()
        for (gw, gb), (own_gw, own_gb) in zip(grads, own_grads):
            assert gw[t].tobytes() == own_gw[0].tobytes() and gb[t].tobytes() == own_gb[0].tobytes()
    # a network without rows is not written
    assert all(np.isnan(gw[1]).all() and np.isnan(gb[1]).all() for gw, gb in grads)
    # in eval mode a network may own several segments, as if each were its own batch
    split = stack_forward(stack, x, [(2, 0, 3), (0, 3, 5), (2, 5, 8)], cache)[0]
    assert split[5:].tobytes() == mlp_forward(nets[2], x[5:])[0].tobytes()
    with pytest.raises(ShapeError):
        stack_forward(stack, x, segments, ForwardCache(stack, 7))
    # segments that leave a row out, or overlap, are refused
    for bad in ([(0, 0, 1), (2, 1, 7)], [(0, 0, 1), (2, 2, 8)], [(0, 0, 3), (2, 2, 8)], []):
        with pytest.raises(ShapeError, match="tile"):
            stack_forward(stack, x, bad, cache)


def test_a_search_grid_stack_cache_holds_only_what_backward_reads():
    # a 6x400 covariate network at 300 rows, per row: x and the input
    # gradient (32 + 32 doubles), the pre-activations (5 x 400 + 24 doubles),
    # the activations and boolean masks (5 x 400 doubles and bytes) and one
    # scratch layer (400 doubles)
    cache = ForwardCache(glorot_mlp([32] + [400] * 5 + [24], "tanh", 0.1, rng=0), 300)
    buffers = {}
    for value in vars(cache).values():
        for a in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(a, np.ndarray):
                base = a if a.base is None else a.base
                buffers[id(base)] = base.nbytes
    assert sum(buffers.values()) == 300 * (2 * 32 * 8 + 2024 * 8 + 2000 * 9 + 400 * 8)


def test_a_second_backward_through_one_forward_pass_is_refused():
    params = glorot_mlp([3, 5, 4, 2], "elu", dropout_rate=0.3, rng=0)
    x = np.random.default_rng(1).normal(size=(4, 3))
    _, cache = mlp_forward(params, x, np.random.default_rng(2))
    mlp_backward(params, cache, np.ones((4, 2)), empty_grads(params))
    with pytest.raises(ShapeError, match="spends"):
        mlp_backward(params, cache, np.ones((4, 2)), empty_grads(params))


def test_forward_refuses_a_cache_that_does_not_fit():
    params = glorot_mlp([3, 4, 2], rng=0)
    with pytest.raises(ShapeError):
        mlp_forward(params, np.zeros((5, 3)), cache=ForwardCache(params, 4))
    with pytest.raises(ShapeError):
        mlp_forward(params, np.zeros((2, 3)), cache=ForwardCache(glorot_mlp([3, 5, 2], rng=0), 4))


def test_in_place_elu_and_its_slope_equal_the_where_forms():
    z = np.array([-0.0, 0.0, 1e-300, -1e-300, -745.0, 30.0, -2.5, 0.7])
    act, slope = np.empty_like(z), np.empty_like(z)
    _activate(z, "elu", act)
    _activate_grad(z, "elu", slope)
    # bytes, so the sign of a zero counts too
    assert act.tobytes() == np.where(z > 0.0, z, np.expm1(z)).tobytes()
    assert slope.tobytes() == np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0))).tobytes()
    t = np.tanh(z)
    _activate_grad(z, "tanh", slope)
    assert slope.tobytes() == (1.0 - t * t).tobytes()


def _flat(params):
    """One network's theta (each layer's weight row-major, then its bias) and
    the slices of its weights."""
    slices, pos = [], 0
    for w, b in params.layers:
        slices.append(slice(pos, pos + w.size))
        pos += w.size + b.size
    return flatten_params(params), slices


def _step(theta, grad, lr, weight_decay, weights):
    sgd_step(theta, grad, lr, weight_decay, [theta[s] for s in weights])


def test_sgd_step_hand_case():
    theta = np.array([1.0, 0.5])  # weight [[1.0]], bias [0.5]
    _step(theta, np.array([0.0, 0.25]), lr=0.1, weight_decay=0.5, weights=[slice(0, 1)])
    # weight decays even with zero gradient; bias never decays
    assert theta[0] == pytest.approx(0.95, abs=1e-15)
    assert theta[1] == pytest.approx(0.5 - 0.1 * 0.25, abs=1e-15)


def test_sgd_zero_lr_is_identity():
    theta, weights = _flat(glorot_mlp([3, 4, 2], rng=0))
    before = theta.copy()
    _step(theta, np.ones_like(theta), lr=0.0, weight_decay=0.3, weights=weights)
    np.testing.assert_array_equal(theta, before)


def test_weight_decay_strictly_shrinks_nonzero_weights():
    theta, weights = _flat(glorot_mlp([4, 6, 3], rng=42))
    is_weight = np.zeros(theta.size, dtype=bool)
    for s in weights:
        is_weight[s] = True
    theta[~is_weight] = 0.3  # nonzero biases, which must not decay
    before = theta.copy()
    _step(theta, np.zeros_like(theta), lr=0.05, weight_decay=0.1, weights=weights)
    nz = is_weight & (before != 0.0)
    assert nz.sum() == 4 * 6 + 6 * 3
    assert np.all(np.abs(theta[nz]) < np.abs(before[nz]))
    np.testing.assert_array_equal(theta[~is_weight], before[~is_weight])


def test_sgd_rejects_nonfinite_gradients():
    theta, weights = _flat(glorot_mlp([2, 2], rng=0))
    before = theta.copy()
    for value, where in itertools.product((np.nan, np.inf, -np.inf), (0, -1)):
        bad = np.full_like(theta, 0.5)
        bad[where] = value
        with pytest.raises(NumericError):
            _step(theta, bad, lr=0.1, weight_decay=0.1, weights=weights)
        assert theta.tobytes() == before.tobytes()


def test_sgd_step_refuses_invalid_arguments():
    theta, weights = _flat(glorot_mlp([2, 2], rng=0))
    before = theta.copy()
    for lr, weight_decay, grad, error, match in (
        (-0.1, 0.1, np.zeros_like(theta), ConfigError, "lr"),
        (0.1, -0.1, np.zeros_like(theta), ConfigError, "weight_decay"),
        (0.1, 0.1, np.zeros(theta.size + 1), ShapeError, "gradient shape"),
    ):
        with pytest.raises(error, match=match):
            _step(theta, grad, lr=lr, weight_decay=weight_decay, weights=weights)
        assert theta.tobytes() == before.tobytes()


def test_sgd_step_takes_huge_finite_gradients_like_the_unfused_update():
    # squares of 1e200 overflow the finiteness dot; the entries are finite
    theta, weights = _flat(glorot_mlp([3, 4, 2], rng=0))
    grad = np.full_like(theta, 1e200)
    grad[1::2] *= -1.0
    lr, wd = 0.1, 0.01
    decayed = grad.copy()
    for s in weights:
        decayed[s] += wd * theta[s]
    expect = theta - lr * decayed
    _step(theta, grad, lr=lr, weight_decay=wd, weights=weights)
    np.testing.assert_allclose(theta, expect, rtol=1e-15, atol=0.0)


def test_sgd_step_allocates_nothing():
    rng = np.random.default_rng(0)
    theta, grad = rng.normal(size=1_000_000), rng.normal(size=1_000_000)
    # ten layers of a 99x1000 weight and a 1000-entry bias
    weights = [theta[i : i + 99_000].reshape(99, 1000) for i in range(0, theta.size, 100_000)]
    tracemalloc.start()
    try:
        sgd_step(theta, grad, 0.1, 1e-4, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_lr_schedule():
    cfg = TrainConfig(base_lr=0.1, lr_decay=0.1, scheduler_step=10)
    assert cfg.lr_at(0) == 0.1
    assert cfg.lr_at(9) == 0.1
    assert cfg.lr_at(10) == pytest.approx(0.01, rel=1e-15)
    assert TrainConfig(base_lr=0.1, lr_decay=0.1, scheduler_step=15).lr_at(31) == pytest.approx(
        0.001, rel=1e-12
    )
    assert TrainConfig(base_lr=0.3, lr_decay=1.0, scheduler_step=5).lr_at(1000) == 0.3
    with pytest.raises(ConfigError):
        cfg.lr_at(-1)
    with pytest.raises(ConfigError):
        TrainConfig(base_lr=0.0)


def test_glorot_init_bounds_and_zero_biases():
    shape = ModelShape(
        cov_layers=2, cov_width=20, cov_out=5, treat_layers=1, treat_out=3,
        head_layers=2, head_width=6,
    )
    model = build_model(10, 3, shape, "joint", rng=0)
    # cov 10 -> 20 -> 5, treat 10 -> 3, three heads 8 -> 6 -> 1
    fans = [[(10, 20), (20, 5)], [(10, 3)], [(8, 6), (6, 1)]]
    stacks = (model.cov_net, model.treat_net, model.head_stack)
    for stack, layer_fans in zip(stacks, fans, strict=True):
        for (w, b), (fan_in, fan_out) in zip(stack.layers, layer_fans, strict=True):
            assert w.shape[1:] == (fan_out, fan_in)
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            for w_t in w:
                assert np.all(np.abs(w_t) <= bound)
                assert w_t.std() > 0.1 * bound
            assert not b.any()


def test_init_seed_reproducible():
    shape = ModelShape(cov_layers=2, cov_width=4, cov_out=2, head_layers=1)
    a, b = (build_model(6, 2, shape, "joint", rng=17) for _ in range(2))
    assert a.theta.tobytes() == b.theta.tobytes()
    assert build_model(6, 2, shape, "joint", rng=18).theta.tobytes() != a.theta.tobytes()


def test_checkpoint_round_trip_is_exact():
    shape = ModelShape(
        cov_layers=2, cov_width=7, cov_out=3, treat_layers=1, treat_out=2,
        head_layers=2, head_width=4, activation="elu", dropout_rate=0.25,
    )
    for variant, dims in (
        ("tarnet", [[5, 7, 3], [3, 4, 1], [3, 4, 1]]),
        ("joint", [[5, 7, 3], [5, 2], [5, 4, 1], [5, 4, 1]]),
    ):
        model = build_model(5, 2, shape, variant, rng=8)
        # theta: cov, treat (joint), then heads, each layer's weight row-major,
        # then its bias; the weights drawn in that order from one generator
        gen = np.random.default_rng(8)
        nets = [glorot_mlp(d, rng=gen) for d in dims]
        assert model.theta.tobytes() == np.concatenate([flatten_params(n) for n in nets]).tobytes()
        # a model built from the vector takes it back exactly, with the
        # shape's activation and dropout rate in every network
        back = OutcomeModel(shape, 5, 2, variant, model.theta)
        assert back.theta.tobytes() == model.theta.tobytes()
        stacks = [s for s in (back.cov_net, back.treat_net, back.head_stack) if s is not None]
        built = [(s, t) for s in stacks for t in range(s.layers[0][0].shape[0])]
        for net, (stack, t) in zip(nets, built, strict=True):
            assert (stack.hidden_activation, stack.dropout_rate) == ("elu", 0.25)
            for (w0, b0), (w1, b1) in zip(net.layers, stack.layers, strict=True):
                np.testing.assert_array_equal(w0[0], w1[t])
                np.testing.assert_array_equal(b0[0], b1[t])
