"""Central finite-difference oracles shared by the gradient tests, the
one-network stacks they differentiate, and the brute-force PEHE reference
that the metric tests compare against."""

from dataclasses import replace

import numpy as np

from ite_bench.nn import MlpStack, glorot_uniform


def glorot_mlp(dims, activation="tanh", dropout_rate=0.0, *, rng):
    """A one-network stack with layer widths dims = [in, h1, ..., out]:
    glorot_uniform weights drawn layer by layer from one generator, and zero
    biases. That is build_model's draw order for each of its networks."""
    gen = np.random.default_rng(rng)
    layers = tuple(
        (np.empty((1, fan_out, fan_in)), np.zeros((1, fan_out)))
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    )
    for w, _ in layers:
        glorot_uniform(w[0], gen)
    return MlpStack(layers, activation, dropout_rate)


def brute_force_pehe(y_hat, y_true):
    """Triple-loop reference implementation in plain Python floats."""
    n = len(y_hat)
    k = len(y_hat[0])
    pair_errors = []
    for a in range(k):
        for b in range(a):
            total = 0.0
            for i in range(n):
                diff = (y_hat[i][a] - y_hat[i][b]) - (y_true[i][a] - y_true[i][b])
                total += diff * diff
            pair_errors.append(total / n)
    return sum(pair_errors) / len(pair_errors)


def central_difference(f, x0, h=1e-4):
    """Elementwise (f(x+h) - f(x-h)) / 2h for a scalar-valued f."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step.flat[i] = h
        grad.flat[i] = (f(x0 + step) - f(x0 - step)) / (2.0 * h)
    return grad


def flatten_params(stack):
    """A stack's parameters, each layer's weights and then its biases; for a
    one-network stack that is a model's theta layout."""
    return flatten_grads(stack.layers)


def unflatten_params(stack, vec):
    layers = []
    pos = 0
    for w, b in stack.layers:
        new_w = vec[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        new_b = vec[pos : pos + b.size].reshape(b.shape).copy()
        pos += b.size
        layers.append((new_w, new_b))
    return replace(stack, layers=tuple(layers))


def empty_grads(stack):
    """(dW, db) arrays shaped like stack.layers, for the out of
    stack_backward and mlp_backward."""
    return [(np.empty_like(w), np.empty_like(b)) for w, b in stack.layers]


def flatten_grads(layers):
    return np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in layers])


def assert_grads_close(analytic, fd, rtol=1e-4, atol=1e-7):
    np.testing.assert_allclose(analytic, fd, rtol=rtol, atol=atol)
