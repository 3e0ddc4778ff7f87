"""Dense feedforward networks with exact backpropagation.

Deliberately small engine: linear layers, tanh/ELU hidden activations,
inverted dropout, and plain SGD with weight decay (biases exempt).
Everything runs in float64 so analytic gradients can be checked against
central finite differences to tight tolerances.

In a model the networks' arrays are views into one flat parameter vector
(OutcomeModel.theta), and sgd_step updates that vector in place.

Conventions:
  * a network with L layers applies the hidden activation (and dropout,
    in train mode) after layers 1..L-1; the final layer is affine,
  * weight matrices are stored [out x in], biases [out],
  * forward takes a batch only, a matrix [B x in]; one sample is [1 x in],
  * forward and backward write every intermediate into a ForwardCache's
    preallocated buffers, and a call without one allocates a fresh cache.
    A cache fits every network of its layer shapes, so a model's heads
    share one; training keeps one cache per representation network and
    one for all heads for the whole fit, validation included,
  * sgd_step updates theta in place and allocates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("tanh", "elu")


def _activate(z: np.ndarray, kind: str, out: np.ndarray) -> None:
    if kind == "tanh":
        np.tanh(z, out=out)
        return
    # ELU with alpha = 1, bit for bit where(z > 0, z, expm1(z)): expm1 keeps
    # precision near zero, and expm1(min(z, 0)) >= z, so the maximum picks z
    # only where z > 0
    np.minimum(z, 0.0, out=out)
    np.expm1(out, out=out)
    np.maximum(out, z, out=out)


def _activate_grad(z: np.ndarray, kind: str, out: np.ndarray) -> None:
    if kind == "tanh":
        np.tanh(z, out=out)
        out *= out
        np.subtract(1.0, out, out=out)
        return
    # exp(0) == 1 gives the slope 1 where z > 0
    np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)


@dataclass(frozen=True)
class MlpParams:
    """Parameters of one fully connected network.

    layers holds (weight, bias) pairs ordered input -> output. Inside an
    OutcomeModel they are views into the model's theta, which sgd_step
    updates in place.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    hidden_activation: str = "tanh"
    dropout_rate: float = 0.0

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)

    def validate(self) -> "MlpParams":
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        if self.hidden_activation not in ACTIVATIONS:
            raise ConfigError(
                f"hidden_activation must be one of {ACTIVATIONS}, "
                f"got {self.hidden_activation!r}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        prev_out = None
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(
                    f"layer {i}: weight shape {w.shape} does not match bias shape {b.shape}"
                )
            if prev_out is not None and w.shape[1] != prev_out:
                raise ShapeError(
                    f"layer {i}: expects input width {w.shape[1]}, "
                    f"previous layer emits {prev_out}"
                )
            prev_out = w.shape[0]
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericError(f"layer {i}: non-finite parameters")
        return self


class ForwardCache:
    """Per-layer buffers for passes of up to `rows` samples through one
    network, and views of their first n rows holding what the backward pass
    needs from the last forward pass: each layer's input, pre-activation and
    dropout mask (None without dropout).

    A pass through a cache overwrites what the previous pass left in it, so
    one cache serves every batch of a fit without allocating, for any
    network whose layers have these shapes.
    """

    def __init__(self, params: MlpParams, rows: int) -> None:
        outs = [w.shape[0] for w, _ in params.layers]
        self.rows = rows
        self.shapes = tuple(w.shape for w, _ in params.layers)
        self._z = [np.empty((rows, m)) for m in outs]
        self._act = [np.empty((rows, m)) for m in outs[:-1]]
        self._mask = [np.empty((rows, m)) for m in outs[:-1]]
        # gradients w.r.t. layer inputs: the backward pass alternates between
        # the two, since each layer's becomes the previous layer's
        # pre-activation gradient in place and is read by the next GEMM
        width = max(w.shape[1] for w, _ in params.layers)
        self._d_in = (np.empty(rows * width), np.empty(rows * width))
        self._scratch = np.empty(rows * max(outs[:-1], default=0))
        self.inputs: list[np.ndarray] = []
        self.pre_activations: list[np.ndarray] = []
        self.dropout_masks: list[np.ndarray | None] = []


def init_mlp(
    dims: Sequence[int],
    hidden_activation: str = "tanh",
    dropout_rate: float = 0.0,
    *,
    rng: np.random.Generator | int | None = None,
    scheme: str = "glorot",
) -> MlpParams:
    """Build an MLP with the given layer widths.

    dims = [in, h1, ..., out]; "glorot" draws weights from
    U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))), "zeros" sets
    everything to zero. Biases start at zero either way.
    """
    if len(dims) < 2:
        raise ConfigError("dims must list at least input and output widths")
    if any(d < 1 for d in dims):
        raise ConfigError("layer widths must be >= 1")
    if scheme not in ("glorot", "zeros"):
        raise ConfigError(f"unknown init scheme {scheme!r}")
    gen = np.random.default_rng(rng)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        if scheme == "glorot":
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w = gen.uniform(-bound, bound, size=(fan_out, fan_in))
        else:
            w = np.zeros((fan_out, fan_in))
        layers.append((w, np.zeros(fan_out)))
    return MlpParams(tuple(layers), hidden_activation, dropout_rate).validate()


def mlp_forward(
    params: MlpParams,
    x: np.ndarray,
    rng: np.random.Generator | None = None,
    cache: ForwardCache | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on the batch x, shaped [B x in].

    rng=None means eval mode (no dropout). Passing a generator enables
    inverted dropout on hidden activations: kept units are divided by
    (1 - dropout_rate) so eval needs no rescaling. Identical generator
    state yields identical masks.

    The pass writes into cache, a ForwardCache of this network with at least
    B rows, or into a new one. The returned output is a view of the cache,
    valid until the next pass through it.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"input must be a matrix [B x in], got ndim={a.ndim}")
    if a.shape[1] != params.input_dim:
        raise ShapeError(
            f"input width {a.shape[1]} does not match network input {params.input_dim}"
        )
    if not np.isfinite(a).all():
        raise NumericError("non-finite network input")
    n = a.shape[0]
    if cache is None:
        cache = ForwardCache(params, n)
    elif cache.rows < n or cache.shapes != tuple(w.shape for w, _ in params.layers):
        raise ShapeError(f"cache does not fit a pass of {n} rows through this network")

    keep = 1.0 - params.dropout_rate
    dropout = rng is not None and params.dropout_rate > 0.0
    last = len(params.layers) - 1
    cache.inputs, cache.pre_activations, cache.dropout_masks = [], [], []
    for l, (w, b) in enumerate(params.layers):
        cache.inputs.append(a)
        z = np.matmul(a, w.T, out=cache._z[l][:n])
        z += b
        cache.pre_activations.append(z)
        mask = None
        if l == last:
            a = z
        else:
            a = cache._act[l][:n]
            _activate(z, params.hidden_activation, a)
            if dropout:
                mask = cache._mask[l][:n]
                rng.random(out=mask)
                np.less(mask, keep, out=mask)
                mask /= keep
                a *= mask
        cache.dropout_masks.append(mask)
    return a, cache


def mlp_backward(
    params: MlpParams,
    cache: ForwardCache,
    upstream_grad: np.ndarray,
    out: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Exact gradients of sum(upstream_grad * output) w.r.t. parameters and input.

    upstream_grad carries one row per sample of the forward batch, and
    parameter gradients sum over rows. They are written into out, (dW, db)
    arrays shaped like params.layers (in a model, views of its gradient
    vector). Returns the gradient w.r.t. the input batch, a view of the
    cache valid until the next backward pass through it.
    """
    n_layers = len(params.layers)
    if len(cache.inputs) != n_layers or len(cache.pre_activations) != n_layers:
        raise ShapeError("cache does not match network depth")
    g = np.asarray(upstream_grad, dtype=np.float64)
    n = cache.inputs[0].shape[0]
    if g.shape != (n, params.output_dim):
        raise ShapeError(
            f"upstream gradient shape {g.shape} does not match output "
            f"({n}, {params.output_dim})"
        )

    delta = g  # gradient w.r.t. the current layer's pre-activation
    for l in range(n_layers - 1, -1, -1):
        w, _ = params.layers[l]
        gw, gb = out[l]
        np.matmul(delta.T, cache.inputs[l], out=gw)
        delta.sum(axis=0, out=gb)
        d_buf = cache._d_in[l % 2][: n * w.shape[1]].reshape(n, w.shape[1])
        d_input = np.matmul(delta, w, out=d_buf)
        if l > 0:
            mask = cache.dropout_masks[l - 1]
            if mask is not None:
                d_input *= mask
            slope = cache._scratch[: d_input.size].reshape(d_input.shape)
            _activate_grad(cache.pre_activations[l - 1], params.hidden_activation, slope)
            d_input *= slope
            delta = d_input
    return d_input


def sgd_step(
    theta: np.ndarray,
    grad: np.ndarray,
    lr: float,
    weight_decay: float,
    weights: Sequence[np.ndarray],
) -> None:
    """One in-place SGD update, theta -= lr * grad after each weight view of
    theta in weights shrinks by the factor 1 - lr * weight_decay. Biases
    never decay, and a zero gradient outside weights leaves theta bit for
    bit as it was. grad is overwritten; a non-finite gradient raises
    NumericError before anything is written. Nothing is allocated."""
    if lr < 0.0:
        raise ConfigError("lr must be >= 0")
    if weight_decay < 0.0:
        raise ConfigError("weight_decay must be >= 0")
    if grad.shape != theta.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match parameters {theta.shape}")
    # a finite sum of squares proves every entry finite; it overflows for
    # huge finite entries too, so only then does the exact check run
    with np.errstate(over="ignore"):
        sum_sq = np.dot(grad, grad)
    if not np.isfinite(sum_sq) and not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    grad *= lr
    shrink = 1.0 - lr * weight_decay
    for w in weights:
        w *= shrink
    theta -= grad
