"""Outcome models: a joint covariate/treatment representation network with
per-treatment heads, and a treatment-blind baseline.

The "joint" variant encodes user covariates with one network and the
observed treatment's embedding with another, concatenates the two
representations, and routes the result through one scalar head per
treatment. Its loss is

    L = alpha * L1 + beta * L2,

where L1 is the factual mean squared error through the observed heads and
L2 is the mean squared MMD between the per-treatment groups of joint
representations (a distribution-balancing regularizer). L2 gradients flow
into the two representation networks only, never into the heads.

The "tarnet" variant drops the treatment network: heads consume the
covariate representation alone, and L2 is identically zero. It cannot use
treatment embeddings, so it serves as the no-treatment-information
baseline.

Every network is a stack (nn.MlpStack) of views of one parameter vector,
laid out stack by stack (ModelShape.network_dims). The k heads are one
stack, run in one pass over the rows sorted by treatment (_head_pass) that
training (batch_loss), validation and prediction share.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    JsonConfig,
    NumericError,
    ShapeError,
    TrainingDiverged,
    _matches,
    check_artifact,
    check_types,
    load_json_object,
    read_array,
    write_array,
    write_json_atomic,
)
from .mmd import treatment_regularization_loss
from .nn import (
    ACTIVATIONS,
    ForwardCache,
    MlpStack,
    glorot_uniform,
    mlp_backward,
    mlp_forward,
    sgd_step,
    stack_backward,
    stack_forward,
)
from .simulate import Dataset

CHECKPOINT_SCHEMA_VERSION = "5"
CHECKPOINT_KEYS = {
    "schema_version", "variant", "k", "input_dim", "params_sha256", "head_updates",
    "train_config", "shape", "best_epoch", "best_val_mse",
}
VARIANTS = ("joint", "tarnet")
# the relative val-MSE decrease that resets early stopping's patience count
# (see train); with any decrease counting, the decayed learning rate's tiny
# steps kept resetting it, and no fit at the default schedule ever stopped
EARLY_STOP_MIN_REL_DECREASE = 1e-3


@dataclass(frozen=True)
class ModelShape(JsonConfig):
    """Layer counts and widths for the three sub-networks.

    *_layers counts weight matrices (so 1 means a single affine map);
    *_width is the hidden width; cov_out/treat_out are the representation
    dimensions fed to the heads.
    """

    cov_layers: int = 2
    cov_width: int = 48
    cov_out: int = 24
    treat_layers: int = 2
    treat_width: int = 32
    treat_out: int = 12
    head_layers: int = 2
    head_width: int = 32
    activation: str = "elu"
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        check_types(self, ConfigError)
        for name in (
            "cov_layers",
            "cov_width",
            "cov_out",
            "treat_layers",
            "treat_width",
            "treat_out",
            "head_layers",
            "head_width",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")

    def network_dims(self, input_dim: int, k: int, variant: str) -> list[tuple[int, list[int]]]:
        """Each network stack's (networks, widths [in, hidden..., out]) in
        theta's order: cov and treat (joint only), each a stack of one, then
        the k heads. The treatment network also reads input_dim features:
        the simulator's treatment embeddings live in covariate space."""
        joint = variant == "joint"
        stacks = [(1, self.cov_layers, self.cov_width, input_dim, self.cov_out)]
        if joint:
            stacks.append((1, self.treat_layers, self.treat_width, input_dim, self.treat_out))
        head_input = self.cov_out + (self.treat_out if joint else 0)
        stacks.append((k, self.head_layers, self.head_width, head_input, 1))
        return [
            (nets, [d_in] + [width] * (layers - 1) + [d_out])
            for nets, layers, width, d_in, d_out in stacks
        ]

    def n_params(self, input_dim: int, k: int, variant: str) -> int:
        """The length of theta for this shape."""
        dims = self.network_dims(input_dim, k, variant)
        return sum(nets * _n_params(widths) for nets, widths in dims)


def _n_params(dims: list[int]) -> int:
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _layer_views(block: np.ndarray, dims: list[int]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (weight, bias) pairs of a network with widths dims, laid out
    along block's last axis layer by layer, each weight row-major and then
    its bias, as views of block. Leading axes, one per network of a stack,
    are kept."""
    lead = block.shape[:-1]
    layers, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        mid, end = pos + fan_out * fan_in, pos + fan_out * (fan_in + 1)
        layers.append((block[..., pos:mid].reshape(*lead, fan_out, fan_in), block[..., mid:end]))
        pos = end
    return tuple(layers)


@dataclass(eq=False)
class OutcomeModel:
    """Representation networks plus one regression head per treatment.

    A model is its shape, input_dim, k, variant and theta, one float64
    vector that holds every parameter: cov, treat ("joint" only), then the
    k heads, each layer's weight row-major and then its bias (the
    checkpoint's parameter file). Construction checks theta against the
    shape and copies it, so no two models share parameters and
    dataclasses.replace(model) is an independent copy. Every network is a
    stack (nn.MlpStack) whose (weights, biases) pairs are views of theta,
    with the shape's activation and dropout rate: cov_net and treat_net
    (None for "tarnet") are one-network stacks, and head_stack stacks the k
    heads, which are theta's last k equal blocks.

    head_updates counts the SGD steps each head has received, all zero
    unless given: k ints >= 0 (a bool is not one), stored as a tuple. A
    head with zero updates still holds its random initialization.
    """

    shape: ModelShape
    input_dim: int
    k: int
    variant: str
    theta: np.ndarray = field(repr=False)
    head_updates: tuple[int, ...] | list[int] = field(default=(), kw_only=True)

    def __post_init__(self) -> None:
        check_types(self, ConfigError)
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        # per network stack: its slice of theta, its [networks x parameters]
        # block shape and its widths; theta holds n values
        self._layout, n = [], 0
        for nets, dims in self.shape.network_dims(self.input_dim, self.k, self.variant):
            size = _n_params(dims)
            self._layout.append((slice(n, n + nets * size), (nets, size), dims))
            n += nets * size
        if self.theta.dtype != np.float64 or self.theta.shape != (n,):
            raise ConfigError(
                f"the parameter vector holds {self.theta.dtype} values of shape "
                f"{self.theta.shape}; the model needs {n} float64 values"
            )
        if not np.isfinite(self.theta).all():
            raise NumericError("non-finite parameters")
        # only the default (), not an empty list, stands for zero counts
        counts = (0,) * self.k if self.head_updates == () else self.head_updates
        if len(counts) != self.k or any(n < 0 for n in counts):
            raise ConfigError(
                f"head_updates must hold {self.k} non-negative int counts, got {counts!r}"
            )
        self.theta = self.theta.copy()
        self.head_updates = tuple(counts)
        act, rate = self.shape.activation, self.shape.dropout_rate
        self._stacks = tuple(MlpStack(layers, act, rate) for layers in self.views(self.theta))

    @property
    def cov_net(self) -> MlpStack:
        return self._stacks[0]

    @property
    def treat_net(self) -> MlpStack | None:
        return self._stacks[1] if self.variant == "joint" else None

    @property
    def head_stack(self) -> MlpStack:
        return self._stacks[-1]

    def views(self, vec: np.ndarray) -> list[tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Each network stack's (weights [k x out x in], biases [k x out])
        pairs as views of vec, a vector in theta's layout: cov and treat
        (joint only), each a stack of one, then the k heads (see
        nn.MlpStack)."""
        return [_layer_views(vec[span].reshape(block), dims) for span, block, dims in self._layout]

    def head_block(self, vec: np.ndarray) -> np.ndarray:
        """The heads' part of vec as a [k x head parameters] view: row t
        is head t's parameters."""
        span, block, _ = self._layout[-1]
        return vec[span].reshape(block)

    def forward_caches(self, rows: int) -> list[ForwardCache]:
        """ForwardCaches for passes of up to max(rows, k) samples, one per
        network stack in views' order: the treatment network's eval pass
        runs on the k embeddings, and the head stack's x buffer holds a head
        pass's input."""
        return [ForwardCache(stack, max(rows, self.k)) for stack in self._stacks]

    def fit_buffers(self, rows: int) -> "FitBuffers":
        """A gradient vector, its stack views and forward_caches(rows), for
        batches of up to rows samples."""
        grad = np.empty_like(self.theta)
        return FitBuffers(grad, self.views(grad), self.forward_caches(rows))

    def head_trained(self, t: int) -> bool:
        """Whether head t received an update."""
        return self.head_updates[t] > 0


def build_model(
    input_dim: int,
    k: int,
    shape: ModelShape,
    variant: str = "joint",
    *,
    rng: np.random.Generator | int,
) -> OutcomeModel:
    """A model with zero biases and glorot_uniform weights, drawn from one
    generator network by network and layer by layer in theta's order."""
    # sizing theta would fail inside numpy before OutcomeModel checks these
    if not (_matches(input_dim, int) and _matches(k, int)):
        raise ConfigError(f"input_dim and k must be ints, got {input_dim!r} and {k!r}")
    theta = np.zeros(shape.n_params(input_dim, k, variant))
    model = OutcomeModel(shape, input_dim, k, variant, theta)
    gen = np.random.default_rng(rng)
    for layers in model.views(model.theta):
        for t in range(layers[0][0].shape[0]):
            for w, _ in layers:
                glorot_uniform(w[t], gen)
    return model


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    alpha: float = 1.0
    beta: float = 0.5
    batch_size: int = 128
    epochs_max: int = 100
    patience: int = 10
    base_lr: float = 0.1
    lr_decay: float = 0.1
    scheduler_step: int = 10
    weight_decay: float = 1e-4
    bandwidth: float | None = None  # None -> per-batch median heuristic
    seed: int = 0

    def lr_at(self, epoch: int) -> float:
        """Step-decay schedule: base_lr * lr_decay ** floor(epoch / scheduler_step)."""
        if epoch < 0:
            raise ConfigError("epoch must be >= 0")
        return self.base_lr * self.lr_decay ** (epoch // self.scheduler_step)

    def __post_init__(self) -> None:
        check_types(self, ConfigError)
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigError("alpha and beta must be >= 0")
        if self.alpha + self.beta <= 0.0:
            raise ConfigError("alpha + beta must be positive")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs_max < 0:
            raise ConfigError("epochs_max must be >= 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.base_lr <= 0.0:
            raise ConfigError("base_lr must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("lr_decay must lie in (0, 1]")
        if self.scheduler_step < 1:
            raise ConfigError("scheduler_step must be >= 1")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be >= 0")
        if self.bandwidth is not None and not self.bandwidth > 0.0:
            raise ConfigError("kernel bandwidth must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


class Batch(NamedTuple):
    x: np.ndarray  # (B, d)
    t: np.ndarray  # (B,) ints
    y: np.ndarray  # (B,)


class FitBuffers(NamedTuple):
    """Every buffer batch_loss writes (OutcomeModel.fit_buffers): the
    gradient, and per network stack its views of the gradient and its
    ForwardCache."""

    grad: np.ndarray  # in the layout of model.theta
    grad_views: list[tuple[tuple[np.ndarray, np.ndarray], ...]]  # model.views(grad)
    caches: list[ForwardCache]  # model.forward_caches


@dataclass
class BatchLossResult:
    total: float
    mse: float
    balance: float
    grad: np.ndarray  # every parameter's gradient, in the layout of model.theta
    # samples per head; a head without samples has a zero gradient
    head_rows: tuple[int, ...]


def _dropout_rng(dropout_seed: int | None, i: int) -> np.random.Generator | None:
    """Network i's dropout generator (cov 0, treat 1, head t 2 + t): child i
    of SeedSequence(dropout_seed), or None, no dropout, without a seed."""
    if dropout_seed is None:
        return None
    return np.random.default_rng(np.random.SeedSequence(dropout_seed, spawn_key=(i,)))


def batch_loss(
    model: OutcomeModel,
    batch: Batch,
    t_emb: np.ndarray,
    cfg: TrainConfig,
    *,
    dropout_seed: int | None = None,
    buffers: FitBuffers | None = None,
) -> BatchLossResult:
    """Loss and exact parameter gradients for one mini-batch; t_emb holds
    the k treatment embeddings, and joint's treatment network sees row
    t_emb[t] for a sample of treatment t.

    dropout_seed=None disables dropout; the same seed reproduces the same
    masks, which is what makes finite-difference checks of this function
    possible with dropout active. The gradient and the networks'
    intermediates go into buffers (model.fit_buffers), or into new ones;
    every gradient entry is written.
    """
    xb = np.asarray(batch.x, dtype=np.float64)
    yb = np.asarray(batch.y, dtype=np.float64)
    n = xb.shape[0]
    if n == 0:
        raise ShapeError("empty batch")
    if yb.shape != (n,):
        raise ShapeError("batch arrays disagree on length")
    tb = _check_treatments(model, batch.t, n)
    t_emb = _check_t_emb(model, t_emb)

    joint = model.variant == "joint"
    if buffers is None:
        buffers = model.fit_buffers(n)
    caches = buffers.caches
    cov_out, cov_cache = mlp_forward(model.cov_net, xb, _dropout_rng(dropout_seed, 0), caches[0])
    treat_out = None
    if joint:
        treat_out, treat_cache = mlp_forward(
            model.treat_net, t_emb[tb], _dropout_rng(dropout_seed, 1), caches[1]
        )
    out, order, head_rows, segments = _head_pass(
        model, tb, cov_out, treat_out, np.arange(n), caches[-1], dropout_seed
    )
    head_in = caches[-1].x[:n]

    # factual loss path: alpha * L1 through the observed heads only, its
    # mean taken in batch order
    resid_sorted = out - yb[order]
    resid = np.empty(n)
    resid[order] = resid_sorted
    mse = float(np.mean(resid * resid))
    upstream = (cfg.alpha * ((2.0 / n) * resid_sorted))[:, None]
    # the backward passes write every gradient entry but those of the heads
    # without samples
    model.head_block(buffers.grad)[head_rows == 0] = 0.0
    d_head_in = stack_backward(model.head_stack, caches[-1], upstream, buffers.grad_views[-1])

    # balancing path: beta * L2 into the representations, never the heads
    balance = 0.0
    if joint:
        groups = {t: head_in[start:stop] for t, start, stop in segments}
        balance, bal_grads = treatment_regularization_loss(groups, cfg.bandwidth)
        # the groups are read, so head_in takes their gradients, which come
        # stacked in key order, the order of the sorted rows
        bal = np.concatenate(list(bal_grads.values()), out=head_in)
        bal *= cfg.beta
        d_head_in += bal
    # one scatter back to batch order, again into head_in
    d_batch = head_in
    d_batch[order] = d_head_in

    width = cov_out.shape[1]
    mlp_backward(model.cov_net, cov_cache, d_batch[:, :width], buffers.grad_views[0])
    if joint:
        mlp_backward(model.treat_net, treat_cache, d_batch[:, width:], buffers.grad_views[1])

    total = cfg.alpha * mse + cfg.beta * balance
    if not np.isfinite(total):
        raise NumericError("non-finite batch loss")
    return BatchLossResult(
        total=total, mse=mse, balance=balance, grad=buffers.grad,
        head_rows=tuple(head_rows.tolist()),
    )


def _head_pass(
    model: OutcomeModel, t: np.ndarray, phi: np.ndarray, psi: np.ndarray | None,
    psi_rows: np.ndarray, cache: ForwardCache, dropout_seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """One pass of the head stack, through its ForwardCache cache, over the
    rows sorted stably by treatment t. Row i's input, phi[i] joined for
    joint by psi[psi_rows[i]], is gathered into cache.x in sorted order.
    Head t draws its masks from _dropout_rng(dropout_seed, 2 + t), so each
    head's GEMMs and masks are bit for bit those of a pass over its own rows
    alone. Returns the sorted outputs (a view of cache), the permutation,
    the rows per treatment and the segments (t, start, stop) of those present."""
    n = t.shape[0]
    order = np.argsort(t, kind="stable")
    counts = np.bincount(t, minlength=model.k)
    stops = np.cumsum(counts).tolist()
    segments = [(s, stop - m, stop) for s, (m, stop) in enumerate(zip(counts.tolist(), stops)) if m]
    head_in = cache.x[:n]
    width = phi.shape[1]
    # mode="clip" skips the copy that the default mode makes of out; the
    # indices are valid
    phi.take(order, axis=0, out=head_in[:, :width], mode="clip")
    if psi is not None:
        psi.take(psi_rows[order], axis=0, out=head_in[:, width:], mode="clip")
    rngs = None
    if dropout_seed is not None:
        rngs = [_dropout_rng(dropout_seed, 2 + s) for s, _, _ in segments]
    out = stack_forward(model.head_stack, head_in, segments, cache, rngs)[0][:, 0]
    return out, order, counts, segments


@dataclass
class TrainHistory:
    """Per-epoch means over batches, plus validation error and diagnostics."""

    loss: list[float] = field(default_factory=list)
    mse: list[float] = field(default_factory=list)
    balance: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    head_grad_norms: list[list[float]] = field(default_factory=list)
    degenerate_batches: list[int] = field(default_factory=list)

    def n_epochs(self) -> int:
        return len(self.loss)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainedModel:
    model: OutcomeModel
    history: TrainHistory
    best_epoch: int | None
    best_val_mse: float | None
    config: TrainConfig

    def __post_init__(self) -> None:
        check_types(self, ConfigError)
        epoch, mse = self.best_epoch, self.best_val_mse
        # an int best_val_mse, which a float field admits, is refused here
        if (epoch, mse) != (None, None) and not (
            epoch is not None and epoch >= 0 and isinstance(mse, float) and mse >= 0.0
        ):
            raise ConfigError(
                "best_epoch must be an int >= 0 and best_val_mse a finite float >= 0, "
                f"or both null; got {epoch!r} and {mse!r}"
            )


def _eval_heads(
    model: OutcomeModel, t: np.ndarray, phi: np.ndarray, psi: np.ndarray | None, cache: ForwardCache
) -> np.ndarray:
    """Eval-mode predictions under treatments t, in row order, through
    _head_pass; psi has one row per treatment. A head that training never
    updated while it updated others (a treatment held out of fitting) holds
    only its random initialization, so its rows get the mean of the trained
    heads at their head input. A non-finite prediction raises NumericError."""
    out, order, _, segments = _head_pass(model, t, phi, psi, t, cache)
    y_hat = np.empty(t.shape[0])
    y_hat[order] = out
    trained = np.flatnonzero(model.head_updates).tolist()
    for s, start, stop in segments:
        if trained and not model.head_trained(s):
            # np.mean over a [trained x rows] array, whose order of
            # summation depends on its shape
            outs = np.empty((len(trained), stop - start))
            for j, r in enumerate(trained):
                outs[j] = stack_forward(
                    model.head_stack, cache.x[start:stop], [(r, 0, stop - start)], cache
                )[0][:, 0]
            y_hat[order[start:stop]] = np.mean(outs, axis=0)
    if not np.isfinite(y_hat).all():
        raise NumericError("non-finite predictions")
    return y_hat


def _check_treatments(model: OutcomeModel, t: np.ndarray, n: int) -> np.ndarray:
    """t as n integer treatments in 0..k-1, or ShapeError."""
    t = np.asarray(t)
    if t.shape != (n,) or t.dtype.kind not in "iu":
        raise ShapeError(f"treatments must be {n} integers, got {t.dtype} of shape {t.shape}")
    if n and (t.min() < 0 or t.max() >= model.k):
        raise ShapeError(f"treatments must lie in 0..{model.k - 1}")
    return t


def _check_t_emb(model: OutcomeModel, t_emb: np.ndarray) -> np.ndarray:
    t_emb = np.asarray(t_emb, dtype=np.float64)
    if t_emb.shape[0] != model.k:
        raise ShapeError(
            f"t_emb provides {t_emb.shape[0]} treatments, model has {model.k} heads"
        )
    return t_emb


def _eval_representations(
    model: OutcomeModel, x: np.ndarray, t_emb: np.ndarray, caches: list[ForwardCache] | None
) -> tuple[np.ndarray, np.ndarray | None, list[ForwardCache]]:
    """Eval-mode phi(x) and, for joint, psi of the k embeddings, each from
    one pass of its network through caches (model.forward_caches, for at
    least len(x) rows) or new ones; returns phi, psi and the caches."""
    t_emb = _check_t_emb(model, t_emb)
    x = np.asarray(x, dtype=np.float64)
    if caches is None:
        caches = model.forward_caches(x.shape[0])
    phi = mlp_forward(model.cov_net, x, cache=caches[0])[0]
    psi = None
    if model.variant == "joint":
        psi = mlp_forward(model.treat_net, t_emb, cache=caches[1])[0]
    return phi, psi, caches


def predict_all_outcomes(
    model: OutcomeModel, x: np.ndarray, t_emb: np.ndarray
) -> np.ndarray:
    """Eval-mode predictions for every user under every treatment, (n, k).

    Column t comes from head t. The exception is a head that training never
    updated while other heads were (a treatment held out of fitting): it
    holds only its random initialization, so column t is instead the mean
    of the trained heads evaluated at treatment t's head input,
    [phi(x), psi(t_emb[t])] for joint and phi(x) for tarnet. A model
    with no trained head uses every head as is. phi(x) and psi are computed
    once, then each column is factual_predictions' head pass with every row
    under treatment t.
    """
    phi, psi, caches = _eval_representations(model, x, t_emb, None)
    n = phi.shape[0]
    y_hat = np.empty((n, model.k))
    for t in range(model.k):
        y_hat[:, t] = _eval_heads(model, np.full(n, t), phi, psi, caches[-1])
    return y_hat


def factual_predictions(
    model: OutcomeModel,
    x: np.ndarray,
    t_obs: np.ndarray,
    t_emb: np.ndarray,
    caches: list[ForwardCache] | None = None,
) -> np.ndarray:
    """Eval-mode prediction at each user's observed treatment: the column
    t_obs of predict_all_outcomes, computed in one head pass over the rows
    sorted by treatment, each head on its own rows only. A head's GEMMs then
    see fewer rows, so the two agree up to roundoff, not bit for bit. The
    passes run through caches (model.forward_caches, for at least len(x)
    rows), or through new ones.
    """
    phi, psi, caches = _eval_representations(model, x, t_emb, caches)
    t_obs = _check_treatments(model, t_obs, phi.shape[0])
    return _eval_heads(model, t_obs, phi, psi, caches[-1])


def train(
    dataset: Dataset,
    shape: ModelShape,
    cfg: TrainConfig,
    variant: str = "joint",
    *,
    held_out: int | None = None,
) -> TrainedModel:
    """Mini-batch SGD with per-epoch validation and early stopping.

    With held_out set, that treatment's training and validation rows are
    dropped, so neither the gradient steps nor model selection see it (the
    zero-shot protocol); its head then receives no update.

    Every epoch reshuffles the training split (the last short batch is
    kept), steps with the scheduled learning rate, then measures factual
    MSE on the validation split in eval mode. The returned model is the
    best-validation snapshot; ties keep the earliest epoch. Training stops
    after cfg.patience epochs in a row without a decrease of more than
    EARLY_STOP_MIN_REL_DECREASE (relative) below the validation MSE at the
    last reset of that count; patience == epochs_max never stops. Heads that
    receive no samples in a batch are left untouched by that step, and the
    snapshot's head_updates counts the steps each head received.
    """
    x_tr, t_tr, y_tr = dataset.observed("train")
    x_val, t_val, y_val = dataset.observed("val")
    if held_out is not None:
        if not _matches(held_out, int):
            raise ConfigError(f"held_out must be an int treatment index, got {held_out!r}")
        if not 0 <= held_out < dataset.k:
            raise ConfigError(f"treatment index {held_out} out of range 0..{dataset.k - 1}")
        keep_tr, keep_val = t_tr != held_out, t_val != held_out
        if keep_tr.all() and keep_val.all():
            raise DataError(
                f"treatment {held_out} has no fitted samples to exclude; nothing is held out"
            )
        x_tr, t_tr, y_tr = x_tr[keep_tr], t_tr[keep_tr], y_tr[keep_tr]
        x_val, t_val, y_val = x_val[keep_val], t_val[keep_val], y_val[keep_val]
    if x_tr.shape[0] == 0:
        raise ShapeError("training split is empty")
    # without validation rows no epoch could be selected, and the fit would
    # return its untrained initialization
    if x_val.shape[0] == 0:
        raise ShapeError("validation split is empty")
    t_emb = dataset.T_emb

    ss = np.random.SeedSequence(cfg.seed)
    s_init, s_order, s_drop = ss.spawn(3)
    model = build_model(dataset.d, dataset.k, shape, variant, rng=np.random.default_rng(s_init))
    order_rng = np.random.default_rng(s_order)
    drop_rng = np.random.default_rng(s_drop)

    history = TrainHistory()
    # one gradient and one set of network buffers per fit, shared by the
    # batches and the validation passes: a new gradient per batch raised
    # peak RSS ~10% at search-grid width, where numpy backs large arrays
    # with huge pages, and per-batch activations cost more time than the
    # GEMMs that fill them
    n_tr = x_tr.shape[0]
    buffers = model.fit_buffers(max(min(cfg.batch_size, n_tr), x_val.shape[0]))
    grad = buffers.grad
    # theta's weight views, for weight decay: every representation weight,
    # and per head its slices of the head stack's weights
    *reps, heads = model.views(model.theta)
    rep_weights = [w for layers in reps for w, _ in layers]
    head_weights = [[w[t] for w, _ in heads] for t in range(dataset.k)]
    head_grad_rows = model.head_block(grad)
    # the improving epochs are copied into this one snapshot's theta
    best_model = dataclasses.replace(model)
    best_epoch: int | None = None
    best_val = np.inf
    reset_val = np.inf
    epochs_since_reset = 0

    for epoch in range(cfg.epochs_max):
        lr = cfg.lr_at(epoch)
        order = order_rng.permutation(n_tr)
        sums = np.zeros(3)
        head_norms = np.zeros(dataset.k)
        degenerate = 0
        n_batches = 0
        for batch_index, start in enumerate(range(0, n_tr, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            batch = Batch(x_tr[idx], t_tr[idx], y_tr[idx])
            seed = int(drop_rng.integers(2**63))
            try:
                res = batch_loss(model, batch, t_emb, cfg, dropout_seed=seed, buffers=buffers)
                hit = [n > 0 for n in res.head_rows]
                # before the step, which overwrites the gradient; each head's
                # dot product is np.dot's, and a head without samples adds 0
                dots = np.matmul(head_grad_rows[:, None, :], head_grad_rows[:, :, None])
                head_norms += np.sqrt(dots[:, 0, 0])
                decayed = rep_weights + [w for ws, h in zip(head_weights, hit) if h for w in ws]
                sgd_step(model.theta, grad, lr, cfg.weight_decay, decayed)
            except NumericError as exc:
                raise TrainingDiverged(epoch, batch_index, history, "batch step", exc) from exc
            model.head_updates = tuple(
                n + h for n, h in zip(model.head_updates, hit)
            )
            sums += (res.total, res.mse, res.balance)
            if variant == "joint" and sum(hit) < 2:
                degenerate += 1
            n_batches += 1

        try:
            # the last step's weights can overflow the validation forward
            val_hat = factual_predictions(model, x_val, t_val, t_emb, buffers.caches)
        except NumericError as exc:
            raise TrainingDiverged(epoch, batch_index, history, "validation pass", exc) from exc
        val_mse = float(np.mean((val_hat - y_val) ** 2))
        history.loss.append(float(sums[0] / n_batches))
        history.mse.append(float(sums[1] / n_batches))
        history.balance.append(float(sums[2] / n_batches))
        history.val_mse.append(val_mse)
        history.lr.append(lr)
        history.head_grad_norms.append([float(v) for v in head_norms])
        history.degenerate_batches.append(degenerate)

        if val_mse < best_val:
            best_val = val_mse
            np.copyto(best_model.theta, model.theta)
            best_model.head_updates = model.head_updates
            best_epoch = epoch
        if val_mse < reset_val * (1.0 - EARLY_STOP_MIN_REL_DECREASE):
            reset_val = val_mse
            epochs_since_reset = 0
        else:
            epochs_since_reset += 1
            if epochs_since_reset >= cfg.patience:
                break

    return TrainedModel(
        model=best_model,
        history=history,
        best_epoch=best_epoch,
        best_val_mse=None if best_epoch is None else float(best_val),
        config=cfg,
    )


def params_path(path) -> str:
    """The .npy sidecar that holds the parameter vector of the checkpoint
    whose JSON header is at path."""
    path = os.fspath(path)
    if path.endswith(".npy"):
        raise ConfigError(
            f"checkpoint path {path} ends in .npy, the extension of its parameter file"
        )
    return os.path.splitext(path)[0] + ".npy"


def save_checkpoint(path, trained: TrainedModel) -> None:
    """Write the model's theta to params_path(path), then the JSON header,
    which records the vector's sha256, to path. The header names no file,
    so identical runs under different paths write identical headers. The
    networks' layers follow from shape, input_dim, k and variant."""
    model = trained.model
    digest = write_array(params_path(path), model.theta)
    write_json_atomic(path, {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "variant": model.variant,
        "k": model.k,
        "input_dim": model.input_dim,
        "params_sha256": digest,
        "head_updates": list(model.head_updates),
        "train_config": trained.config.to_dict(),
        "shape": model.shape.to_dict(),
        "best_epoch": trained.best_epoch,
        "best_val_mse": trained.best_val_mse,
    })


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint into a model built from the header's shape, dims, k
    and variant; the parameter file must hold exactly that model's theta."""
    sidecar = params_path(path)
    doc = load_json_object(path, ConfigError)
    check_artifact(
        doc, f"checkpoint {path}", CHECKPOINT_SCHEMA_VERSION, CHECKPOINT_KEYS,
        "`ite-bench train`", ConfigError,
    )
    vec = read_array(sidecar, doc["params_sha256"], ConfigError)
    try:
        shape = ModelShape.from_dict(doc["shape"], path="checkpoint.shape")
        model = OutcomeModel(
            shape, doc["input_dim"], doc["k"], doc["variant"], vec,
            head_updates=doc["head_updates"],
        )
        cfg = TrainConfig.from_dict(doc["train_config"], path="checkpoint.train_config")
        return TrainedModel(model, TrainHistory(), doc["best_epoch"], doc["best_val_mse"], cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed checkpoint: {exc}") from exc
