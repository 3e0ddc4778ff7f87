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
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    NumericError,
    ShapeError,
    TrainingDiverged,
    config_from_dict,
    load_json_object,
)
from .mmd import treatment_regularization_loss
from .nn import (
    ACTIVATIONS,
    ForwardCache,
    MlpParams,
    init_mlp,
    mlp_backward,
    mlp_forward,
    sgd_step,
)
from .simulate import Dataset

CHECKPOINT_SCHEMA_VERSION = "5"
VARIANTS = ("joint", "tarnet")
# the relative val-MSE decrease that resets early stopping's patience count
# (see train); with any decrease counting, the decayed learning rate's tiny
# steps kept resetting it, and no fit at the default schedule ever stopped
EARLY_STOP_MIN_REL_DECREASE = 1e-3


@dataclass(frozen=True)
class ModelShape:
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

    def validate(self) -> "ModelShape":
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
        return self

    def _dims(self, n_layers: int, width: int, d_in: int, d_out: int) -> list[int]:
        return [d_in] + [width] * (n_layers - 1) + [d_out]

    def cov_dims(self, d: int) -> list[int]:
        return self._dims(self.cov_layers, self.cov_width, d, self.cov_out)

    def treat_dims(self, m: int) -> list[int]:
        return self._dims(self.treat_layers, self.treat_width, m, self.treat_out)

    def head_dims(self, head_input: int) -> list[int]:
        return self._dims(self.head_layers, self.head_width, head_input, 1)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict, path: str = "model") -> "ModelShape":
        return config_from_dict(ModelShape, doc, path).validate()


@dataclass(eq=False)
class OutcomeModel:
    """Representation networks plus one regression head per treatment.

    theta holds every parameter in one float64 vector: cov, treat, then the
    heads, each layer's weight row-major and then its bias (the checkpoint's
    parameter file). Construction copies the networks into a new theta and
    makes their (weight, bias) pairs views of it, so no two models share
    parameters and dataclasses.replace(model) is an independent copy.

    The variant follows from the networks: "joint" with a treatment network,
    "tarnet" without. head_updates counts the SGD steps each head has
    received, all zero unless given. A head with zero updates still holds
    its random initialization.
    """

    cov_net: MlpParams
    treat_net: MlpParams | None
    heads: tuple[MlpParams, ...]
    head_updates: tuple[int, ...] = field(default=(), kw_only=True)
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.head_updates = self.head_updates or (0,) * self.k
        nets = self._nets()
        arrays = [np.ravel(a) for net in nets for layer in net.layers for a in layer]
        self.theta = np.concatenate(arrays, dtype=np.float64)
        views = self.views(self.theta)
        nets = [dataclasses.replace(net, layers=v) for net, v in zip(nets, views)]
        self.cov_net, self.heads = nets[0], tuple(nets[len(nets) - self.k :])
        if self.treat_net is not None:
            self.treat_net = nets[1]

    def _nets(self) -> list[MlpParams]:
        treat = [self.treat_net] if self.treat_net is not None else []
        return [self.cov_net, *treat, *self.heads]

    def views(self, vec: np.ndarray) -> list[tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Each network's (weight, bias) pairs as views of vec, a vector in
        theta's layout: cov, treat (joint only), then the heads."""
        nets, pos = [], 0
        for net in self._nets():
            layers = []
            for w, b in net.layers:
                mid, end = pos + w.size, pos + w.size + b.size
                layers.append((vec[pos:mid].reshape(w.shape), vec[mid:end].reshape(b.shape)))
                pos = end
            nets.append(tuple(layers))
        return nets

    def forward_caches(self, rows: int) -> list[ForwardCache]:
        """ForwardCaches for passes of up to rows samples: one per
        representation network (cov, then treat for joint), and last one
        that all heads share, since they have the same layer shapes."""
        nets = self._nets()
        return [ForwardCache(net, rows) for net in nets[: len(nets) - self.k + 1]]

    def fit_buffers(self, rows: int) -> "FitBuffers":
        """A gradient vector, its per-network views and forward_caches(rows),
        for batches of up to rows samples."""
        grad = np.empty_like(self.theta)
        return FitBuffers(grad, self.views(grad), self.forward_caches(rows))

    @property
    def variant(self) -> str:
        return "joint" if self.treat_net is not None else "tarnet"

    @property
    def k(self) -> int:
        return len(self.heads)

    def head_trained(self, t: int) -> bool:
        """Whether head t received an update."""
        return self.head_updates[t] > 0

    @property
    def head_input_dim(self) -> int:
        return self.cov_net.output_dim + (
            self.treat_net.output_dim if self.treat_net is not None else 0
        )

    def validate(self) -> "OutcomeModel":
        if not self.heads:
            raise ConfigError("model needs at least one head")
        self.cov_net.validate()
        if self.treat_net is not None:
            self.treat_net.validate()
        expect = self.head_input_dim
        for t, head in enumerate(self.heads):
            head.validate()
            if head.input_dim != expect:
                raise ShapeError(
                    f"head {t} expects input {head.input_dim}, representations emit {expect}"
                )
            if head.output_dim != 1:
                raise ShapeError(f"head {t} must emit a scalar")
        if len(self.head_updates) != self.k or min(self.head_updates) < 0:
            raise ConfigError(
                f"head_updates must hold {self.k} non-negative counts, "
                f"got {list(self.head_updates)}"
            )
        return self


def build_model(
    input_dim: int,
    k: int,
    shape: ModelShape,
    variant: str = "joint",
    *,
    rng: np.random.Generator | int | None = None,
    scheme: str = "glorot",
) -> OutcomeModel:
    """Initialize all sub-networks. The treatment network also reads
    input_dim features: the simulator's treatment embeddings live in
    covariate space."""
    shape.validate()
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if k < 1:
        raise ConfigError("k must be >= 1")
    gen = np.random.default_rng(rng)
    cov_net = init_mlp(
        shape.cov_dims(input_dim), shape.activation, shape.dropout_rate,
        rng=gen, scheme=scheme,
    )
    treat_net = None
    if variant == "joint":
        treat_net = init_mlp(
            shape.treat_dims(input_dim),
            shape.activation, shape.dropout_rate, rng=gen, scheme=scheme,
        )
    head_input = shape.cov_out + (shape.treat_out if variant == "joint" else 0)
    heads = tuple(
        init_mlp(
            shape.head_dims(head_input), shape.activation, shape.dropout_rate,
            rng=gen, scheme=scheme,
        )
        for _ in range(k)
    )
    return OutcomeModel(cov_net, treat_net, heads).validate()


@dataclass(frozen=True)
class TrainConfig:
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

    def validate(self) -> "TrainConfig":
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
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict, path: str = "train") -> "TrainConfig":
        return config_from_dict(TrainConfig, doc, path).validate()


class Batch(NamedTuple):
    x: np.ndarray  # (B, d)
    t: np.ndarray  # (B,) ints
    t_features: np.ndarray  # (B, m) feature vector of the observed treatment
    y: np.ndarray  # (B,)


class FitBuffers(NamedTuple):
    """Every buffer batch_loss writes (OutcomeModel.fit_buffers)."""

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
    predictions: np.ndarray


def _dropout_rng(dropout_seed: int | None, i: int) -> np.random.Generator | None:
    """Network i's dropout generator (cov 0, treat 1, head t 2 + t): child i
    of SeedSequence(dropout_seed), or None, no dropout, without a seed."""
    if dropout_seed is None:
        return None
    return np.random.default_rng(np.random.SeedSequence(dropout_seed, spawn_key=(i,)))


def batch_loss(
    model: OutcomeModel,
    batch: Batch,
    cfg: TrainConfig,
    *,
    dropout_seed: int | None = None,
    buffers: FitBuffers | None = None,
) -> BatchLossResult:
    """Loss and exact parameter gradients for one mini-batch.

    dropout_seed=None disables dropout; the same seed reproduces the same
    masks, which is what makes finite-difference checks of this function
    possible with dropout active. The gradient and the networks'
    intermediates go into buffers (model.fit_buffers), or into new ones;
    every gradient entry is written.
    """
    xb = np.asarray(batch.x, dtype=np.float64)
    tb = np.asarray(batch.t)
    yb = np.asarray(batch.y, dtype=np.float64)
    n = xb.shape[0]
    if n == 0:
        raise ShapeError("empty batch")
    if tb.shape != (n,) or yb.shape != (n,):
        raise ShapeError("batch arrays disagree on length")
    if tb.min() < 0 or tb.max() >= model.k:
        raise ShapeError(f"batch treatments must lie in 0..{model.k - 1}")

    joint = model.variant == "joint"
    grad, grad_views, caches = buffers if buffers is not None else model.fit_buffers(n)
    cov_out, cov_cache = mlp_forward(model.cov_net, xb, _dropout_rng(dropout_seed, 0), caches[0])
    if joint:
        treat_out, treat_cache = mlp_forward(
            model.treat_net, batch.t_features, _dropout_rng(dropout_seed, 1), caches[1]
        )
        head_in = np.concatenate([cov_out, treat_out], axis=1)
    else:
        head_in = cov_out

    # factual loss path: alpha * L1 through the observed heads only. A
    # head's upstream gradient needs only its own rows' residuals, so each
    # head runs backward right after forward, and all share one cache.
    yhat = np.empty(n)
    resid = np.empty(n)
    d_head_in = np.zeros_like(head_in)
    rows_by_t = [np.flatnonzero(tb == t) for t in range(model.k)]
    for t, rows in enumerate(rows_by_t):
        head_grad = grad_views[t - model.k]
        if rows.size == 0:
            # the backward passes write every other gradient entry
            for gw, gb in head_grad:
                gw.fill(0.0)
                gb.fill(0.0)
            continue
        out, head_cache = mlp_forward(
            model.heads[t], head_in[rows], _dropout_rng(dropout_seed, 2 + t), caches[-1]
        )
        yhat[rows] = out[:, 0]
        resid[rows] = yhat[rows] - yb[rows]
        upstream = (cfg.alpha * ((2.0 / n) * resid[rows]))[:, None]
        d_head_in[rows] += mlp_backward(model.heads[t], head_cache, upstream, head_grad)
    mse = float(np.mean(resid * resid))

    # balancing path: beta * L2 into the representations, never the heads
    balance = 0.0
    if joint:
        groups = {t: head_in[rows] for t, rows in enumerate(rows_by_t) if rows.size > 0}
        balance, bal_grads = treatment_regularization_loss(groups, cfg.bandwidth)
        for t, rows in enumerate(rows_by_t):
            if rows.size > 0:
                d_head_in[rows] += cfg.beta * bal_grads[t]

    d_cov = d_head_in[:, : cov_out.shape[1]]
    mlp_backward(model.cov_net, cov_cache, d_cov, grad_views[0])
    if joint:
        d_treat = d_head_in[:, cov_out.shape[1] :]
        mlp_backward(model.treat_net, treat_cache, d_treat, grad_views[1])

    total = cfg.alpha * mse + cfg.beta * balance
    if not np.isfinite(total):
        raise NumericError("non-finite batch loss")
    return BatchLossResult(
        total=total,
        mse=mse,
        balance=balance,
        grad=grad,
        head_rows=tuple(rows.size for rows in rows_by_t),
        predictions=yhat,
    )


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
    shape: ModelShape


def _head_column(
    model: OutcomeModel,
    cov_out: np.ndarray,
    t_emb: np.ndarray,
    t: int,
    trained: list[int],
    caches: list[ForwardCache],
) -> np.ndarray:
    """Eval-mode predictions under treatment t for the rows whose covariate
    representation is cov_out; see predict_all_outcomes. The passes run
    through the treatment network's and the heads' caches of
    model.forward_caches, and the result may be a view of the heads' cache,
    valid until the next pass through it."""
    if model.variant == "joint":
        treat_row, _ = mlp_forward(model.treat_net, t_emb[t : t + 1], cache=caches[1])
        head_in = np.concatenate(
            [cov_out, np.broadcast_to(treat_row, (cov_out.shape[0], treat_row.shape[1]))],
            axis=1,
        )
    else:
        head_in = cov_out
    if t in trained or not trained:
        return mlp_forward(model.heads[t], head_in, cache=caches[-1])[0][:, 0]
    # copies: each pass overwrites the shared cache
    outs = [
        mlp_forward(model.heads[s], head_in, cache=caches[-1])[0][:, 0].copy() for s in trained
    ]
    return np.mean(outs, axis=0)


def _check_t_emb(model: OutcomeModel, t_emb: np.ndarray) -> np.ndarray:
    t_emb = np.asarray(t_emb, dtype=np.float64)
    if t_emb.shape[0] != model.k:
        raise ShapeError(
            f"t_emb provides {t_emb.shape[0]} treatments, model has {model.k} heads"
        )
    return t_emb


def predict_all_outcomes(
    model: OutcomeModel, x: np.ndarray, t_emb: np.ndarray
) -> np.ndarray:
    """Eval-mode predictions for every user under every treatment, (n, k).

    Column t comes from head t. The exception is a head that training never
    updated while other heads were (a treatment held out of fitting): it
    holds only its random initialization, so column t is instead the mean
    of the trained heads evaluated at treatment t's head input,
    [phi(x), psi(t_emb[t])] for joint and phi(x) for tarnet. A model
    with no trained head uses every head as is. All k columns pass through
    one set of buffers.
    """
    t_emb = _check_t_emb(model, t_emb)
    x = np.asarray(x, dtype=np.float64)
    trained = [t for t in range(model.k) if model.head_trained(t)]
    # at least one row: the treatment network runs on one embedding
    caches = model.forward_caches(max(x.shape[0], 1))
    cov_out, _ = mlp_forward(model.cov_net, x, cache=caches[0])
    y_hat = np.empty((x.shape[0], model.k))
    for t in range(model.k):
        y_hat[:, t] = _head_column(model, cov_out, t_emb, t, trained, caches)
    return y_hat


def factual_predictions(
    model: OutcomeModel,
    x: np.ndarray,
    t_obs: np.ndarray,
    t_emb: np.ndarray,
    caches: list[ForwardCache] | None = None,
) -> np.ndarray:
    """Eval-mode prediction at each user's observed treatment: the column
    t_obs of predict_all_outcomes, computed by running each head on its own
    rows only. A head's GEMMs then see fewer rows, so the two agree up to
    roundoff, not bit for bit. The passes run through caches
    (model.forward_caches, for at least len(x) rows), or through new ones.
    """
    t_emb = _check_t_emb(model, t_emb)
    x = np.asarray(x, dtype=np.float64)
    t_obs = np.asarray(t_obs)
    if t_obs.shape != (x.shape[0],):
        raise ShapeError(f"t_obs has shape {t_obs.shape}, expected ({x.shape[0]},)")
    if t_obs.size and (t_obs.min() < 0 or t_obs.max() >= model.k):
        raise ShapeError(f"observed treatments must lie in 0..{model.k - 1}")
    trained = [t for t in range(model.k) if model.head_trained(t)]
    if caches is None:
        caches = model.forward_caches(x.shape[0])
    cov_out, _ = mlp_forward(model.cov_net, x, cache=caches[0])
    yhat = np.empty(x.shape[0])
    for t in range(model.k):
        rows = np.flatnonzero(t_obs == t)
        if rows.size:
            yhat[rows] = _head_column(model, cov_out[rows], t_emb, t, trained, caches)
    return yhat


def train(
    dataset: Dataset,
    shape: ModelShape,
    cfg: TrainConfig,
    variant: str = "joint",
) -> TrainedModel:
    """Mini-batch SGD with per-epoch validation and early stopping.

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
    cfg.validate()
    shape.validate()
    x_tr, t_tr, y_tr = dataset.observed("train")
    x_val, t_val, y_val = dataset.observed("val")
    if x_tr.shape[0] == 0:
        raise ShapeError("training split is empty")
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
    # each network's weight views of theta, for weight decay
    weights = [[w for w, _ in net] for net in model.views(model.theta)]
    n_rep = len(weights) - dataset.k  # cov, and treat for joint
    # the heads' gradients are grad's last k contiguous slices
    head_sizes = [head.n_params for head in model.heads]
    head_grads = np.split(grad[grad.size - sum(head_sizes) :], np.cumsum(head_sizes)[:-1])
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
            batch = Batch(x_tr[idx], t_tr[idx], t_emb[t_tr[idx]], y_tr[idx])
            seed = int(drop_rng.integers(2**63))
            try:
                res = batch_loss(model, batch, cfg, dropout_seed=seed, buffers=buffers)
                hit = [n > 0 for n in res.head_rows]
                reached = [True] * n_rep + hit
                # before the step, which overwrites the gradient
                for t in np.flatnonzero(hit):
                    head_norms[t] += np.sqrt(np.dot(head_grads[t], head_grads[t]))
                decayed = [w for net, r in zip(weights, reached) if r for w in net]
                sgd_step(model.theta, grad, lr, cfg.weight_decay, decayed)
            except TrainingDiverged:
                raise
            except NumericError as exc:
                raise TrainingDiverged(epoch, batch_index, history) from exc
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
            raise TrainingDiverged(epoch, batch_index, history) from exc
        val_mse = float(np.mean((val_hat - y_val) ** 2)) if y_val.size else np.inf
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
        shape=shape,
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


def checkpoint_dict(trained: TrainedModel, params_sha256: str) -> dict:
    """The checkpoint header. It names no file, so identical runs under
    different paths write identical headers. The networks' layers follow
    from shape, input_dim, k and variant."""
    model = trained.model
    return {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "variant": model.variant,
        "k": model.k,
        "input_dim": model.cov_net.input_dim,
        "params_sha256": params_sha256,
        "head_updates": list(model.head_updates),
        "train_config": trained.config.to_dict(),
        "shape": trained.shape.to_dict(),
        "best_epoch": trained.best_epoch,
        "best_val_mse": trained.best_val_mse,
    }


def save_checkpoint(path, trained: TrainedModel) -> None:
    """Write the model's theta to params_path(path), then the JSON header,
    which records the vector's sha256, to path."""
    sidecar = params_path(path)
    buf = io.BytesIO()
    np.save(buf, trained.model.theta)
    data = buf.getvalue()
    doc = checkpoint_dict(trained, hashlib.sha256(data).hexdigest())
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"checkpoint header: {exc}") from exc
    with open(sidecar, "wb") as fh:
        fh.write(data)
    with open(path, "w") as fh:
        fh.write(text)


def _load_params(sidecar: str, doc: dict) -> np.ndarray:
    if not os.path.exists(sidecar):
        raise DataError(
            f"checkpoint parameter file missing: {sidecar}; copy it together "
            "with its header"
        )
    with open(sidecar, "rb") as fh:
        data = fh.read()
    if hashlib.sha256(data).hexdigest() != doc.get("params_sha256"):
        raise ConfigError(f"{sidecar} does not match the sha256 its header records")
    try:
        vec = np.load(io.BytesIO(data), allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"malformed checkpoint parameter file {sidecar}: {exc}") from exc
    return vec


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint into a model built from the header's shape, dims, k
    and variant; the parameter file must hold exactly that model's theta."""
    sidecar = params_path(path)
    doc = load_json_object(path, ConfigError)
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported checkpoint schema_version {doc.get('schema_version')!r} "
            f"(this version reads {CHECKPOINT_SCHEMA_VERSION!r}); re-run `ite-bench train`"
        )
    vec = _load_params(sidecar, doc)
    try:
        shape = ModelShape.from_dict(doc["shape"], path="checkpoint.shape")
        model = build_model(doc["input_dim"], doc["k"], shape, doc["variant"], scheme="zeros")
        if vec.dtype != np.float64 or vec.shape != model.theta.shape:
            raise ConfigError(
                f"{sidecar} holds {vec.dtype} values of shape {vec.shape}; the model "
                f"needs {model.theta.size} float64 values"
            )
        model.theta[:] = vec
        counts = doc["head_updates"]
        if not isinstance(counts, list):
            raise ConfigError(f"checkpoint head_updates must be a list, got {counts!r}")
        model.head_updates = tuple(int(n) for n in counts)
        model.validate()
        cfg = TrainConfig.from_dict(doc["train_config"], path="checkpoint.train_config")
    except KeyError as exc:
        raise ConfigError(f"malformed checkpoint: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint: {exc}") from exc
    return TrainedModel(
        model=model,
        history=TrainHistory(),
        best_epoch=doc.get("best_epoch"),
        best_val_mse=doc.get("best_val_mse"),
        config=cfg,
        shape=shape,
    )
