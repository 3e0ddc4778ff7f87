"""Dense feedforward networks with exact backpropagation.

Deliberately small engine: linear layers, tanh/ELU hidden activations,
inverted dropout, and plain SGD with weight decay (biases exempt).
Everything runs in float64 so analytic gradients can be checked against
central finite differences to tight tolerances.

Every network is a stack (MlpStack): k networks of one layer shape, and a
single network is a stack of one. One pass runs a stack, stack_forward
forward and stack_backward backward, over rows grouped into segments, each
owned by one network of the stack. In a model the stacks' arrays are views
into one flat parameter vector (OutcomeModel.theta), and sgd_step updates
that vector in place.

Conventions:
  * a network with L layers applies the hidden activation (and dropout,
    in train mode) after layers 1..L-1; the final layer is affine,
  * a stack's weights are stored [k x out x in], its biases [k x out],
  * forward takes a batch only, a matrix [B x in]; one sample is [1 x in],
  * a pass makes one GEMM per segment and layer, on the segment's
    contiguous rows, and every elementwise step once over all rows,
  * forward and backward write every intermediate into a ForwardCache's
    preallocated buffers, and a call without one allocates a fresh cache.
    A cache keeps only what backward reads: dropout masks are booleans,
    and backward writes each hidden layer's input gradient over that
    layer's input, so one forward pass serves one backward pass.
    A cache fits every stack of its layer shapes; training keeps one per
    stack of the model for the whole fit, validation included,
  * mlp_forward/mlp_backward are the one-segment pass of a one-network
    stack,
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
class MlpStack:
    """k fully connected networks of one layer shape, stacked; a single
    network is a stack of one.

    layers holds (weights [k x out x in], biases [k x out]) pairs ordered
    input -> output; network t's layers are the pairs' index-t slices. An
    OutcomeModel's networks are stacks of views into its theta.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    hidden_activation: str
    dropout_rate: float


class ForwardCache:
    """Per-layer buffers for passes of up to `rows` samples through one
    stack of networks, and views of their first n rows holding what the
    backward pass reads from the last forward pass: each layer's input,
    pre-activation and boolean dropout mask (None without dropout), and the
    pass's segments.

    A pass through a cache overwrites what the previous pass left in it, so
    one cache serves every batch of a fit without allocating, for any stack
    whose layers have these shapes. x is a [rows x in] buffer that a caller
    may assemble a pass's input in; passes only read it. The backward pass
    writes each hidden layer's input gradient over that layer's input, an
    activation no later step reads, so one forward pass serves one backward
    pass.
    """

    def __init__(self, stack: MlpStack, rows: int) -> None:
        self.shapes = tuple(w.shape[-2:] for w, _ in stack.layers)
        outs = [m for m, _ in self.shapes]
        self.rows = rows
        self.x = np.empty((rows, self.shapes[0][1]))
        self._z = [np.empty((rows, m)) for m in outs]
        self._act = [np.empty((rows, m)) for m in outs[:-1]]
        self._mask = [np.empty((rows, m), dtype=bool) for m in outs[:-1]]
        # the gradient w.r.t. the first layer's input, which is the caller's
        self._d_x = np.empty_like(self.x)
        # the bias rows and then the dropout draws in forward, the
        # activation slopes in backward: per layer a [rows x out] view of
        # one buffer
        scratch = np.empty(rows * max(outs))
        self._scratch = [scratch[: rows * m].reshape(rows, m) for m in outs]
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


def _pass_input(x: np.ndarray, input_dim: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"input must be a matrix [B x in], got ndim={a.ndim}")
    if a.shape[1] != input_dim:
        raise ShapeError(f"input width {a.shape[1]} does not match network input {input_dim}")
    if not np.isfinite(a).all():
        raise NumericError("non-finite network input")
    return a


def _pass_cache(stack: MlpStack, n: int, cache: ForwardCache | None) -> ForwardCache:
    if cache is None:
        return ForwardCache(stack, n)
    if cache.rows < n or cache.shapes != tuple(w.shape[-2:] for w, _ in stack.layers):
        raise ShapeError(f"cache does not fit a pass of {n} rows through this network")
    return cache


def _hidden(
    cache: ForwardCache,
    l: int,
    z: np.ndarray,
    stack: MlpStack,
    draws: Sequence[tuple[np.random.Generator, int, int]],
) -> tuple[np.ndarray, np.ndarray | None]:
    """Layer l's activation of z, with inverted dropout when draws is not
    empty: each (generator, start, stop) draws the uniforms of rows
    start:stop, and a unit is kept where its draw lies below 1 - rate."""
    a = cache._act[l][: z.shape[0]]
    _activate(z, stack.hidden_activation, a)
    if not draws:
        return a, None
    keep = 1.0 - stack.dropout_rate
    # the bias rows in this view have been added to z
    draw = cache._scratch[l][: z.shape[0]]
    for rng, start, stop in draws:
        rng.random(out=draw[start:stop])
    mask = cache._mask[l][: z.shape[0]]
    np.less(draw, keep, out=mask)
    a *= mask
    a *= 1.0 / keep
    return a, mask


def stack_forward(
    stack: MlpStack,
    x: np.ndarray,
    segments: Sequence[tuple[int, int, int]],
    cache: ForwardCache | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run rows start:stop of x, shaped [B x in], through network t of the
    stack for each segment (t, start, stop); the segments must tile 0..B
    in order (ShapeError otherwise), and a network may own several.

    Each layer makes one GEMM per segment, on its contiguous rows; the bias
    add, the activation and the dropout multiply run once over all rows.
    rngs=None means eval mode (no dropout). Otherwise segment i draws its
    inverted-dropout masks from rngs[i], layer by layer, into its own rows:
    kept units are divided by (1 - dropout_rate), so eval needs no
    rescaling, and identical generator state yields identical masks. A
    segment's rows then get exactly what a one-segment pass over them alone
    gives them, through network t, with that generator.

    The pass writes into cache, a ForwardCache of the stack's layer shapes
    with at least B rows, or into a new one, and records the segments there
    for stack_backward. Returns the output, a view of the cache valid until
    the next pass through it, and the cache.
    """
    a = _pass_input(x, stack.layers[0][0].shape[2])
    n = a.shape[0]
    cache = _pass_cache(stack, n, cache)
    draws = []
    if rngs is not None and stack.dropout_rate > 0.0:
        draws = [(rng, start, stop) for rng, (_, start, stop) in zip(rngs, segments)]
    # each row's network, for the bias rows; a row outside every segment
    # would keep what the cache last held
    owner = np.empty(n, dtype=np.intp)
    end = 0
    for t, start, stop in segments:
        if start != end or stop < start:
            end = -1
            break
        owner[start:stop] = t
        end = stop
    if end != n:
        raise ShapeError(f"segments must tile rows 0..{n} in order")
    last = len(stack.layers) - 1
    cache.inputs, cache.pre_activations, cache.dropout_masks = [], [], []
    cache.segments = list(segments)
    for l, (w, b) in enumerate(stack.layers):
        cache.inputs.append(a)
        z = cache._z[l][:n]
        for t, start, stop in segments:
            np.matmul(a[start:stop], w[t].T, out=z[start:stop])
        bias = cache._scratch[l][:n]
        # mode="clip" skips the copy that the default mode makes of out
        b.take(owner, axis=0, out=bias, mode="clip")
        z += bias
        cache.pre_activations.append(z)
        a, mask = (z, None) if l == last else _hidden(cache, l, z, stack, draws)
        cache.dropout_masks.append(mask)
    return a, cache


def _upstream(
    layers: Sequence[tuple[np.ndarray, np.ndarray]], cache: ForwardCache, upstream_grad: np.ndarray
) -> np.ndarray:
    if len(cache.inputs) != len(layers) or len(cache.pre_activations) != len(layers):
        raise ShapeError(
            "cache holds no forward pass of this network's depth (a backward pass spends it)"
        )
    g = np.asarray(upstream_grad, dtype=np.float64)
    shape = (cache.inputs[0].shape[0], layers[-1][0].shape[-2])
    if g.shape != shape:
        raise ShapeError(f"upstream gradient shape {g.shape} does not match output {shape}")
    return g


def _hidden_grad(cache: ForwardCache, l: int, d_input: np.ndarray, stack: MlpStack) -> None:
    """Turn d_input, the gradient w.r.t. layer l's input, in place into the
    gradient w.r.t. layer l - 1's pre-activation."""
    mask = cache.dropout_masks[l - 1]
    if mask is not None:
        d_input *= mask
        d_input *= 1.0 / (1.0 - stack.dropout_rate)
    slope = cache._scratch[l - 1][: d_input.shape[0]]
    _activate_grad(cache.pre_activations[l - 1], stack.hidden_activation, slope)
    d_input *= slope


def stack_backward(
    stack: MlpStack,
    cache: ForwardCache,
    upstream_grad: np.ndarray,
    out: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Exact gradients of sum(upstream_grad * output) w.r.t. parameters and
    input, through the last stack_forward pass in cache.

    upstream_grad carries one row per row of the forward input. Each
    segment's network gets the parameter gradient of its own rows, summed
    over them and written into out, (dW [k x out x in], db [k x out])
    arrays shaped like stack.layers (in a model, views of its gradient
    vector). A network owns at most one segment, and a network without one
    is not written. Returns the gradient w.r.t. the input rows, a view of
    the cache valid until the next backward pass through it.

    Once a segment's weight gradient has read a hidden layer's input rows,
    their gradient is written over them. So the pass empties cache.inputs,
    and a second backward pass through the same forward pass raises
    ShapeError instead of reading gradients as activations.
    """
    delta = _upstream(stack.layers, cache, upstream_grad)
    n = delta.shape[0]
    inputs, cache.inputs = cache.inputs, []
    for l in range(len(stack.layers) - 1, -1, -1):
        w, _ = stack.layers[l]
        gw, gb = out[l]
        a = inputs[l]
        d_input = a if l > 0 else cache._d_x[:n]
        for t, start, stop in cache.segments:
            rows = delta[start:stop]
            np.matmul(rows.T, a[start:stop], out=gw[t])
            np.add.reduce(rows, axis=0, out=gb[t])
            np.matmul(rows, w[t], out=d_input[start:stop])
        if l > 0:
            _hidden_grad(cache, l, d_input, stack)
            delta = d_input
    return d_input


# perfbench/tracing.py binds ite_bench.model.mlp_forward/mlp_backward: the names stay
def mlp_forward(
    net: MlpStack,
    x: np.ndarray,
    rng: np.random.Generator | None = None,
    cache: ForwardCache | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """stack_forward of the one-network stack net over every row of the
    batch x, with rng as its dropout generator (None: eval mode)."""
    # stack_forward refuses any x but a matrix
    n = np.shape(x)[0] if np.ndim(x) else 0
    return stack_forward(net, x, [(0, 0, n)], cache, None if rng is None else [rng])


# stack_backward through the last mlp_forward pass of a one-network stack
mlp_backward = stack_backward


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
