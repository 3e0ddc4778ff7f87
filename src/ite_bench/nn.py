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
    A cache fits every network of its layer shapes; training keeps one per
    representation network and one for the heads for the whole fit,
    validation included,
  * a model's k heads form one MlpStack, and stack_forward/stack_backward
    run them in one pass over rows sorted by head: one GEMM per head and
    layer on the head's contiguous rows, every elementwise step once over
    all rows,
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
        """Check the layers from loose arrays (init_mlp). Not run at
        construction: a model's networks are views that its shape lays out."""
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


@dataclass(frozen=True)
class MlpStack:
    """k fully connected networks of one layer shape, stacked.

    layers holds (weights [k x out x in], biases [k x out]) pairs ordered
    input -> output; network t's layers are the pairs' index-t slices. An
    OutcomeModel's heads are a stack of views into its theta.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    hidden_activation: str = "tanh"
    dropout_rate: float = 0.0


class ForwardCache:
    """Per-layer buffers for passes of up to `rows` samples through one
    network, or one stack of networks, and views of their first n rows
    holding what the backward pass needs from the last forward pass: each
    layer's input, pre-activation and dropout mask (None without dropout),
    and a stack pass's segments.

    A pass through a cache overwrites what the previous pass left in it, so
    one cache serves every batch of a fit without allocating, for any
    network or stack whose layers have these shapes. x is a [rows x in]
    buffer that a caller may assemble a pass's input in; passes only read it.
    """

    def __init__(self, params: MlpParams | MlpStack, rows: int) -> None:
        self.shapes = tuple(w.shape[-2:] for w, _ in params.layers)
        outs = [m for m, _ in self.shapes]
        self.rows = rows
        self.x = np.empty((rows, self.shapes[0][1]))
        self._z = [np.empty((rows, m)) for m in outs]
        self._act = [np.empty((rows, m)) for m in outs[:-1]]
        self._mask = [np.empty((rows, m)) for m in outs[:-1]]
        # gradients w.r.t. layer inputs: the backward pass alternates between
        # the two, since each layer's becomes the previous layer's
        # pre-activation gradient in place and is read by the next GEMM
        width = max(fan_in for _, fan_in in self.shapes)
        self._d_in = (np.empty(rows * width), np.empty(rows * width))
        # activation slopes in backward; a stack pass's bias rows in forward
        self._scratch = np.empty(rows * max(outs))
        self.inputs: list[np.ndarray] = []
        self.pre_activations: list[np.ndarray] = []
        self.dropout_masks: list[np.ndarray | None] = []
        self.segments: list[tuple[int, int, int]] = []


def glorot_uniform(w: np.ndarray, gen: np.random.Generator) -> None:
    """Fill the weight matrix w, shaped [out x in], in place with draws from
    U(-sqrt(6/(in+out)), +sqrt(6/(in+out)))."""
    fan_out, fan_in = w.shape
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    w[...] = gen.uniform(-bound, bound, size=w.shape)


def init_mlp(
    dims: Sequence[int],
    hidden_activation: str = "tanh",
    dropout_rate: float = 0.0,
    *,
    rng: np.random.Generator | int | None = None,
) -> MlpParams:
    """Build an MLP with the given layer widths, dims = [in, h1, ..., out]:
    glorot_uniform weights, drawn layer by layer from one generator, and
    zero biases."""
    if len(dims) < 2:
        raise ConfigError("dims must list at least input and output widths")
    if any(d < 1 for d in dims):
        raise ConfigError("layer widths must be >= 1")
    gen = np.random.default_rng(rng)
    layers = tuple(
        (np.empty((fan_out, fan_in)), np.zeros(fan_out))
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    )
    for w, _ in layers:
        glorot_uniform(w, gen)
    return MlpParams(layers, hidden_activation, dropout_rate).validate()


def _pass_input(x: np.ndarray, input_dim: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"input must be a matrix [B x in], got ndim={a.ndim}")
    if a.shape[1] != input_dim:
        raise ShapeError(f"input width {a.shape[1]} does not match network input {input_dim}")
    if not np.isfinite(a).all():
        raise NumericError("non-finite network input")
    return a


def _pass_cache(
    params: MlpParams | MlpStack, n: int, cache: ForwardCache | None
) -> ForwardCache:
    if cache is None:
        return ForwardCache(params, n)
    if cache.rows < n or cache.shapes != tuple(w.shape[-2:] for w, _ in params.layers):
        raise ShapeError(f"cache does not fit a pass of {n} rows through this network")
    return cache


def _hidden(
    cache: ForwardCache,
    l: int,
    z: np.ndarray,
    params: MlpParams | MlpStack,
    draws: Sequence[tuple[np.random.Generator, int, int]],
) -> tuple[np.ndarray, np.ndarray | None]:
    """Layer l's activation of z, with inverted dropout when draws is not
    empty: each (generator, start, stop) draws the mask of rows start:stop."""
    a = cache._act[l][: z.shape[0]]
    _activate(z, params.hidden_activation, a)
    if not draws:
        return a, None
    keep = 1.0 - params.dropout_rate
    mask = cache._mask[l][: z.shape[0]]
    for rng, start, stop in draws:
        rng.random(out=mask[start:stop])
    np.less(mask, keep, out=mask)
    mask /= keep
    a *= mask
    return a, mask


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
    a = _pass_input(x, params.input_dim)
    n = a.shape[0]
    cache = _pass_cache(params, n, cache)
    draws = [(rng, 0, n)] if rng is not None and params.dropout_rate > 0.0 else []
    last = len(params.layers) - 1
    cache.inputs, cache.pre_activations, cache.dropout_masks = [], [], []
    for l, (w, b) in enumerate(params.layers):
        cache.inputs.append(a)
        z = np.matmul(a, w.T, out=cache._z[l][:n])
        z += b
        cache.pre_activations.append(z)
        a, mask = (z, None) if l == last else _hidden(cache, l, z, params, draws)
        cache.dropout_masks.append(mask)
    return a, cache


def stack_forward(
    stack: MlpStack,
    x: np.ndarray,
    segments: Sequence[tuple[int, int, int]],
    cache: ForwardCache,
    rngs: Sequence[np.random.Generator] | None = None,
) -> np.ndarray:
    """Run rows start:stop of x, shaped [B x in], through network t of the
    stack for each segment (t, start, stop); the segments tile 0..B in
    order, and a network may own several.

    Each layer makes one GEMM per segment, on its contiguous rows; the bias
    add, the activation and the dropout multiply run once over all rows.
    rngs=None means eval mode; otherwise segment i draws its dropout masks
    from rngs[i], layer by layer, into its own rows. A segment's rows then
    get exactly what mlp_forward gives them as a batch of their own, through
    network t, with that generator.

    The pass writes into cache, a ForwardCache of the stack's layer shapes
    with at least B rows, and records the segments there for
    stack_backward. The returned output is a view of the cache, valid until
    the next pass through it.
    """
    a = _pass_input(x, stack.layers[0][0].shape[2])
    n = a.shape[0]
    cache = _pass_cache(stack, n, cache)
    draws = []
    if rngs is not None and stack.dropout_rate > 0.0:
        draws = [(rng, start, stop) for rng, (_, start, stop) in zip(rngs, segments)]
    # each row's network, for the bias rows; intp also without segments
    nets = np.array([t for t, _, _ in segments], dtype=np.intp)
    owner = np.repeat(nets, [stop - start for _, start, stop in segments])
    last = len(stack.layers) - 1
    cache.inputs, cache.pre_activations, cache.dropout_masks = [], [], []
    cache.segments = list(segments)
    for l, (w, b) in enumerate(stack.layers):
        cache.inputs.append(a)
        z = cache._z[l][:n]
        for t, start, stop in segments:
            np.matmul(a[start:stop], w[t].T, out=z[start:stop])
        bias = cache._scratch[: z.size].reshape(z.shape)
        # mode="clip" skips the copy that the default mode makes of out
        b.take(owner, axis=0, out=bias, mode="clip")
        z += bias
        cache.pre_activations.append(z)
        a, mask = (z, None) if l == last else _hidden(cache, l, z, stack, draws)
        cache.dropout_masks.append(mask)
    return a


def _upstream(
    layers: Sequence[tuple[np.ndarray, np.ndarray]], cache: ForwardCache, upstream_grad: np.ndarray
) -> np.ndarray:
    if len(cache.inputs) != len(layers) or len(cache.pre_activations) != len(layers):
        raise ShapeError("cache does not match network depth")
    g = np.asarray(upstream_grad, dtype=np.float64)
    shape = (cache.inputs[0].shape[0], layers[-1][0].shape[-2])
    if g.shape != shape:
        raise ShapeError(f"upstream gradient shape {g.shape} does not match output {shape}")
    return g


def _hidden_grad(cache: ForwardCache, l: int, d_input: np.ndarray, activation: str) -> None:
    """Turn d_input, the gradient w.r.t. layer l's input, in place into the
    gradient w.r.t. layer l - 1's pre-activation."""
    mask = cache.dropout_masks[l - 1]
    if mask is not None:
        d_input *= mask
    slope = cache._scratch[: d_input.size].reshape(d_input.shape)
    _activate_grad(cache.pre_activations[l - 1], activation, slope)
    d_input *= slope


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
    delta = _upstream(params.layers, cache, upstream_grad)
    n = delta.shape[0]
    for l in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[l]
        gw, gb = out[l]
        np.matmul(delta.T, cache.inputs[l], out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        d_input = cache._d_in[l % 2][: n * w.shape[1]].reshape(n, w.shape[1])
        np.matmul(delta, w, out=d_input)
        if l > 0:
            _hidden_grad(cache, l, d_input, params.hidden_activation)
            delta = d_input
    return d_input


def stack_backward(
    stack: MlpStack,
    cache: ForwardCache,
    upstream_grad: np.ndarray,
    out: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """mlp_backward through the last stack_forward pass in cache: each
    segment's network gets the parameter gradient of its own rows, written
    into out, (dW [k x out x in], db [k x out]) arrays shaped like
    stack.layers. A network owns at most one segment, and a network without
    one is not written. Returns the gradient w.r.t. the input rows, a view of
    the cache valid until the next backward pass through it.
    """
    delta = _upstream(stack.layers, cache, upstream_grad)
    n = delta.shape[0]
    for l in range(len(stack.layers) - 1, -1, -1):
        w, _ = stack.layers[l]
        gw, gb = out[l]
        d_input = cache._d_in[l % 2][: n * w.shape[2]].reshape(n, w.shape[2])
        for t, start, stop in cache.segments:
            rows = delta[start:stop]
            np.matmul(rows.T, cache.inputs[l][start:stop], out=gw[t])
            np.add.reduce(rows, axis=0, out=gb[t])
            np.matmul(rows, w[t], out=d_input[start:stop])
        if l > 0:
            _hidden_grad(cache, l, d_input, stack.hidden_activation)
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
