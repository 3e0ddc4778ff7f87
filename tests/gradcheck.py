"""Central finite-difference oracles shared by the gradient tests."""

from dataclasses import replace

import numpy as np


def central_difference(f, x0, h=1e-4):
    """Elementwise (f(x+h) - f(x-h)) / 2h for a scalar-valued f."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step.flat[i] = h
        grad.flat[i] = (f(x0 + step) - f(x0 - step)) / (2.0 * h)
    return grad


def flatten_params(params):
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params.layers])


def unflatten_params(params, vec):
    layers = []
    pos = 0
    for w, b in params.layers:
        new_w = vec[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        new_b = vec[pos : pos + b.size].copy()
        pos += b.size
        layers.append((new_w, new_b))
    return replace(params, layers=tuple(layers))


def empty_grads(params):
    """(dW, db) arrays shaped like params.layers, for mlp_backward's out."""
    return [(np.empty_like(w), np.empty_like(b)) for w, b in params.layers]


def flatten_grads(layers):
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in layers])


def assert_grads_close(analytic, fd, rtol=1e-4, atol=1e-7):
    np.testing.assert_allclose(analytic, fd, rtol=rtol, atol=atol)
