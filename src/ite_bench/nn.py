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
  * forward takes a batch only, a matrix [B x in]; one sample is [1 x in].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("tanh", "elu")


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    # ELU with alpha = 1; expm1 keeps precision near zero
    return np.where(z > 0.0, z, np.expm1(z))


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0)))


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


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward pass."""

    inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]


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
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on the batch x, shaped [B x in].

    rng=None means eval mode (no dropout). Passing a generator enables
    inverted dropout on hidden activations: kept units are divided by
    (1 - dropout_rate) so eval needs no rescaling. Identical generator
    state yields identical masks.
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

    keep = 1.0 - params.dropout_rate
    last = len(params.layers) - 1
    inputs: list[np.ndarray] = []
    pre_acts: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    for l, (w, b) in enumerate(params.layers):
        inputs.append(a)
        z = a @ w.T + b
        pre_acts.append(z)
        if l == last:
            a = z
            masks.append(None)
        else:
            a = _activate(z, params.hidden_activation)
            if rng is not None and params.dropout_rate > 0.0:
                mask = (rng.random(a.shape) < keep) / keep
                a = a * mask
                masks.append(mask)
            else:
                masks.append(None)
    return a, ForwardCache(inputs, pre_acts, masks)


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
    vector). Returns the gradient w.r.t. the input batch.
    """
    n_layers = len(params.layers)
    if len(cache.inputs) != n_layers or len(cache.pre_activations) != n_layers:
        raise ShapeError("cache does not match network depth")
    g = np.asarray(upstream_grad, dtype=np.float64)
    batch = cache.inputs[0].shape[0]
    if g.shape != (batch, params.output_dim):
        raise ShapeError(
            f"upstream gradient shape {g.shape} does not match output "
            f"({batch}, {params.output_dim})"
        )

    delta = g  # gradient w.r.t. the current layer's pre-activation
    d_input = None
    for l in range(n_layers - 1, -1, -1):
        w, _ = params.layers[l]
        gw, gb = out[l]
        np.matmul(delta.T, cache.inputs[l], out=gw)
        delta.sum(axis=0, out=gb)
        d_input = delta @ w
        if l > 0:
            mask = cache.dropout_masks[l - 1]
            if mask is not None:
                d_input = d_input * mask
            delta = d_input * _activate_grad(
                cache.pre_activations[l - 1], params.hidden_activation
            )
    assert d_input is not None
    return d_input


def sgd_step(
    theta: np.ndarray,
    grad: np.ndarray,
    lr: float,
    weight_decay: float,
    decayed: Sequence[tuple[np.ndarray, np.ndarray]],
) -> None:
    """One in-place SGD update: theta -= lr * grad, after each (w, gw) pair of
    weight views into theta and grad in decayed adds weight_decay * w to gw.
    Biases never decay, and a zero gradient outside decayed leaves theta
    bit-for-bit as it was. grad is overwritten; a non-finite gradient raises
    NumericError before anything is written."""
    if lr < 0.0:
        raise ConfigError("lr must be >= 0")
    if weight_decay < 0.0:
        raise ConfigError("weight_decay must be >= 0")
    if grad.shape != theta.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match parameters {theta.shape}")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    for w, gw in decayed:
        gw += weight_decay * w
    grad *= lr
    theta -= grad


def params_to_dict(params: MlpParams) -> dict:
    """JSON-ready description: activation, dropout and each layer's [out, in]
    weight shape. The values live in the model's theta; the bias of a layer
    has the weight's out size."""
    return {
        "layers": [list(w.shape) for w, _ in params.layers],
        "activation": params.hidden_activation,
        "dropout_rate": params.dropout_rate,
    }
