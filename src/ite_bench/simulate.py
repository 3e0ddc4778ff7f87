"""Semi-synthetic data generation for treatment effect benchmarks.

Covariates are unit-norm user vectors: rows read from an embedding file
when one is configured, fresh Gaussian draws otherwise. k+1 centroids
z_1..z_{k+1} are picked from the covariates; the first k double as the
treatment feature vectors and the last acts as a shared population taste
vector. Potential outcomes are

    y_i^t = c * ytilde_i^t * (x_i . z_t + x_i . z_{k+1}),

with ytilde_i^t ~ N(mu_t, sigma_t^2), mu_t ~ N(0.45, 0.15^2) and
sigma_t ~ N(0.1, 0.05^2) clamped below at 1e-3: fixed priors, MU_PRIOR and
SIGMA_PRIOR, that no config changes. Expected outcomes replace
ytilde with mu_t. Observed treatments are drawn from a per-user softmax
over kappa_t * y_i^t, so larger kappa skews assignment toward treatments
with larger sampled outcomes.

A dataset stores only what was drawn; the treatment embeddings, factual
outcomes and expected outcomes are derived from it. Datasets round-trip
through a directory of .npy arrays plus a JSON manifest that records their sha256.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Annotated

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    JsonConfig,
    NumericError,
    ShapeError,
    _matches,
    check_artifact,
    check_types,
    check_out_dir,
    load_json_object,
    read_array,
    write_array,
    write_json_atomic,
)

DATASET_SCHEMA_VERSION = "7"
MANIFEST_KEYS = {"schema_version", "config", "splits", "sha256"}
SPLIT_NAMES = ("train", "val", "test")
SPLIT_FRACTIONS = (0.7, 0.15)  # train, val; test takes the remainder
# (mean, sd) of the per-treatment outcome priors; sigma_t is clamped below
MU_PRIOR = (0.45, 0.15)
SIGMA_PRIOR = (0.10, 0.05)
SIGMA_FLOOR = 1e-3
# kmeans' iteration cap, and the largest centroid move that ends it earlier
KMEANS_ITERS = 50
KMEANS_TOL = 1e-6


def _dataset_layout(cfg: SimConfig) -> dict[str, tuple[str, type, tuple]]:
    """name -> (Dataset field, dtype, shape) of every array a dataset stores,
    each as <name>.npy."""
    n, d, k = cfg.n, cfg.d, cfg.k
    return {
        "covariates": ("X", np.float64, (n, d)),
        "centroids": ("Z", np.float64, (k + 1, d)),
        "mu_sigma": ("mu_sigma", np.float64, (k, 2)),
        "y_sampled": ("Y_sampled", np.float64, (n, k)),
        "t_obs": ("t_obs", np.int64, (n,)),
    }


@dataclass(frozen=True)
class SimConfig(JsonConfig):
    """Knobs of the simulation. Treatments are indexed 0..k-1 throughout."""

    n: int = 2000
    d: Annotated[int, ">= 1"] = 32
    k: Annotated[int, ">= 2"] = 4  # at least two treatments
    centroid_method: Annotated[str, ("random", "kmeans")] = "random"
    c: Annotated[float, "> 0"] = 5.0
    kappa: Annotated[float | tuple[float, ...], "> 0"] = 10.0
    embedding_file: str | None = None  # CSV of covariate rows; None draws them
    seed: Annotated[int, ">= 0"] = 0

    def kappa_vector(self) -> np.ndarray:
        if np.isscalar(self.kappa):
            return np.full(self.k, float(self.kappa))
        kap = np.asarray(self.kappa, dtype=np.float64)
        if kap.shape != (self.k,):
            raise ConfigError(f"kappa must be a scalar or length-{self.k} vector")
        return kap

    def __post_init__(self) -> None:
        check_types(self, ConfigError)
        if self.n < self.k + 1:
            raise ConfigError("n must be >= k + 1 so that k+1 centroids exist")
        self.kappa_vector()  # refuses a tuple whose length is not k


@dataclass(frozen=True, eq=False)
class Dataset:
    """A fully materialized simulation with train/val/test splits. It checks
    itself when built: every array has the dtype and shape its config
    implies and is finite, t_obs lies in 0..k-1, and the splits hold each
    row of 0..n-1 exactly once. Once checked, the arrays, the split vectors
    and the splits mapping are read-only, and no field can be rebound, so
    the dataset stays as checked; the arrays given are marked in place.

    truth_reads counts accesses to ground-truth outcome matrices per split;
    model-selection code uses it to prove it never touched test-set truth.
    """

    X: np.ndarray  # (n, d) unit-norm covariates
    Z: np.ndarray  # (k+1, d) centroids
    mu_sigma: np.ndarray  # (k, 2) per-treatment prior draws (mu_t, sigma_t)
    Y_sampled: np.ndarray  # (n, k)
    t_obs: np.ndarray  # (n,) ints in 0..k-1
    splits: Mapping[str, np.ndarray]
    config: SimConfig  # the one source of n, d, k and the outcome scale c
    truth_reads: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_types(self, ShapeError)
        layout = _dataset_layout(self.config)
        for name, (attr, dtype, shape) in layout.items():
            arr = getattr(self, attr)
            got = (arr.dtype, arr.shape)
            if got != (dtype, shape):
                raise ShapeError(
                    f"{attr} ({name}.npy) must be {np.dtype(dtype)} {shape}, got {got}"
                )
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite values in {attr} ({name}.npy)")
        if self.t_obs.min() < 0 or self.t_obs.max() >= self.k:
            raise DataError("t_obs entries must lie in 0..k-1")
        if set(self.splits) != set(SPLIT_NAMES):
            raise DataError(f"splits must be exactly {list(SPLIT_NAMES)}")
        for name, idx in self.splits.items():
            if idx.ndim != 1 or idx.dtype.kind != "i" or not np.all((idx >= 0) & (idx < self.n)):
                raise DataError(f"split {name!r} must be a vector of row indices in 0..n-1")
        rows = np.concatenate([self.splits[name] for name in SPLIT_NAMES])
        if not (np.bincount(rows, minlength=self.n) == 1).all():
            raise DataError(f"splits must hold each of the {self.n} rows exactly once")
        object.__setattr__(self, "splits", MappingProxyType(dict(self.splits)))
        arrays = [getattr(self, attr) for attr, _, _ in layout.values()]
        for arr in [*arrays, *self.splits.values()]:
            arr.flags.writeable = False

    def __reduce__(self):
        """Pickle and copy rebuild the dataset through its constructor, which
        checks the arrays and marks them read-only again; pickle cannot copy
        the read-only splits mapping itself."""
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return Dataset, tuple({**fields, "splits": dict(self.splits)}.values())

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def d(self) -> int:
        return self.config.d

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def mu(self) -> np.ndarray:
        return self.mu_sigma[:, 0]

    @property
    def sigma(self) -> np.ndarray:
        return self.mu_sigma[:, 1]

    @property
    def T_emb(self) -> np.ndarray:
        """(k, d) treatment feature vectors: a read-only view of the first k
        centroids."""
        return self.Z[:-1]

    def split_indices(self, split: str) -> np.ndarray:
        if split not in self.splits:
            raise ConfigError(f"unknown split {split!r}; expected one of {SPLIT_NAMES}")
        return self.splits[split]

    def covariates(self, split: str) -> np.ndarray:
        return self.X[self.split_indices(split)]

    def observed(self, split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx = self.split_indices(split)
        t = self.t_obs[idx]
        return self.X[idx], t, self.Y_sampled[idx, t]

    def expected_outcomes(self, split: str) -> np.ndarray:
        """Ground-truth expected potential outcomes; access is audited. The
        whole (n, k) matrix is computed and then indexed: a split's rows
        alone may differ from it in the last bit."""
        idx = self.split_indices(split)
        self.truth_reads[split] = self.truth_reads.get(split, 0) + 1
        return expected_outcomes(self.X, self.Z, self.mu, self.config.c)[idx]


@dataclass
class KMeansResult:
    centroids: np.ndarray
    objective_history: list[float]


def _sq_dists(xt: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances [clusters x rows] from each center to each row of
    x, given xt = x.T and x_sq, the rows' squared norms."""
    d2 = np.add.outer(np.sum(centers * centers, axis=1), x_sq) - 2.0 * (centers @ xt)
    return np.maximum(d2, 0.0, out=d2)


def kmeans(
    x: np.ndarray, n_clusters: int, *, rng: np.random.Generator | int
) -> KMeansResult:
    """Lloyd's algorithm with kmeans++ seeding, for at most KMEANS_ITERS
    iterations, ending when no centroid moves by KMEANS_TOL or more.

    Each iteration is whole-array work: one [clusters x rows] distance
    matrix, whose first minimum per row is the row's label, and one product
    of the labels' one-hot matrix with x for every cluster's sum.

    An empty cluster is re-seeded to the point currently farthest from its
    assigned centroid, which keeps the within-cluster sum of squares
    non-increasing across iterations.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("kmeans expects a matrix of sample rows")
    n = x.shape[0]
    if n_clusters < 1:
        raise ConfigError("n_clusters must be >= 1")
    if n < n_clusters:
        raise InsufficientDataError(
            f"kmeans needs at least {n_clusters} rows, got {n}"
        )
    gen = np.random.default_rng(rng)
    xt = np.ascontiguousarray(x.T)
    x_sq = np.sum(x * x, axis=1)

    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[gen.integers(n)]
    closest = _sq_dists(xt, x_sq, centers[:1])[0]
    for j in range(1, n_clusters):
        total = closest.sum()
        if total > 0.0:
            idx = gen.choice(n, p=closest / total)
        else:
            idx = gen.integers(n)
        centers[j] = x[idx]
        np.minimum(closest, _sq_dists(xt, x_sq, centers[j : j + 1])[0], out=closest)

    history: list[float] = []
    clusters = np.arange(n_clusters)[:, None]
    for _ in range(KMEANS_ITERS):
        d2 = _sq_dists(xt, x_sq, centers)
        labels = d2.argmin(axis=0)
        assigned = d2.min(axis=0)
        history.append(float(assigned.sum()))
        one_hot = (labels == clusters).astype(np.float64)
        new_centers = one_hot @ x
        counts = np.bincount(labels, minlength=n_clusters)
        filled = counts > 0
        new_centers[filled] /= counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            new_centers[empty] = x[np.argsort(-assigned)[: empty.size]]
        movement = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if movement < KMEANS_TOL:
            break
    history.append(float(_sq_dists(xt, x_sq, centers).min(axis=0).sum()))
    return KMeansResult(centers, history)


def generate_covariates(
    cfg: SimConfig, rng: np.random.Generator | int
) -> np.ndarray:
    """Unit-norm covariate rows: the first cfg.n rows of cfg.embedding_file
    when it is set, Gaussian draws otherwise. A file without rows, and a row
    whose float64 norm is zero or infinite (its squares underflow or
    overflow), is a DataError."""
    if cfg.embedding_file is not None:
        if not os.path.exists(cfg.embedding_file):
            raise DataError(f"embedding file not found: {cfg.embedding_file}")
        try:
            with open(cfg.embedding_file) as fh:
                lines = fh.readlines()
            # loadtxt warns on a file without data rows and reads it as width 1
            has_rows = any(line.split("#", 1)[0].strip() for line in lines)
            rows = np.loadtxt(lines, delimiter=",", ndmin=2, dtype=np.float64) if has_rows else None
        except ValueError as exc:  # also bytes that do not decode
            raise DataError(f"malformed embedding file {cfg.embedding_file}: {exc}") from exc
        if rows is None:
            raise DataError(f"embedding file {cfg.embedding_file} holds no rows")
        if rows.shape[1] != cfg.d:
            raise DataError(
                f"embedding file has width {rows.shape[1]}, config expects d={cfg.d}"
            )
        if rows.shape[0] < cfg.n:
            raise DataError(
                f"embedding file has {rows.shape[0]} rows, config expects n={cfg.n}"
            )
        x = rows[: cfg.n].copy()
        if not np.isfinite(x).all():
            raise NumericError("non-finite values in embedding file")
    else:
        gen = np.random.default_rng(rng)
        x = gen.standard_normal((cfg.n, cfg.d))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if bad.size:
        raise DataError(
            f"covariate row {bad[0]} has norm {norms[bad[0]]} in float64; a row needs "
            "a finite, nonzero norm to scale to unit norm"
        )
    return x / norms[:, None]


def select_centroids(
    x: np.ndarray,
    k: int,
    method: str = "random",
    *,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """Pick k+1 centroids: distinct covariate rows or kmeans cluster means."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < k + 1:
        raise InsufficientDataError(f"need at least k+1={k + 1} rows, got {n}")
    gen = np.random.default_rng(rng)
    if method == "random":
        idx = gen.choice(n, size=k + 1, replace=False)
        return x[idx].copy()
    if method == "kmeans":
        return kmeans(x, k + 1, rng=gen).centroids
    raise ConfigError(f"centroid_method must be 'random' or 'kmeans', got {method!r}")


def sample_outcome_params(
    cfg: SimConfig, rng: np.random.Generator | int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw per-treatment (mu, sigma) from MU_PRIOR and SIGMA_PRIOR; sigma is
    clamped below at SIGMA_FLOOR."""
    gen = np.random.default_rng(rng)
    mu = gen.normal(*MU_PRIOR, size=cfg.k)
    sigma = np.maximum(gen.normal(*SIGMA_PRIOR, size=cfg.k), SIGMA_FLOOR)
    return mu, sigma


def expected_outcomes(x: np.ndarray, z: np.ndarray, mu: np.ndarray, c: float) -> np.ndarray:
    """The (n, k) outcomes c * mu_t * (x_i . z_t + x_i . z_{k+1}), where z
    stacks the k treatment centroids and the shared one. mu holds the k
    means; an (n, k) matrix of per-user draws ytilde in its place gives the
    sampled outcomes."""
    return c * mu * (x @ (z[:-1] + z[-1]).T)


def potential_outcomes(
    x: np.ndarray,
    z: np.ndarray,
    mu: np.ndarray,
    sigma: np.ndarray,
    c: float,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """The (n, k) matrix of sampled outcomes; a non-finite one raises
    NumericError."""
    if not c > 0.0:
        raise ConfigError("outcome scale c must be positive")
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    k = z.shape[0] - 1
    if k < 1 or mu.shape != (k,) or sigma.shape != (k,):
        raise ShapeError("z must stack k treatment centroids plus one shared centroid")
    if z.shape[1] != x.shape[1]:
        raise ShapeError("centroid dimension does not match covariates")
    gen = np.random.default_rng(rng)
    with np.errstate(over="ignore", invalid="ignore"):
        ytilde = mu[None, :] + sigma[None, :] * gen.standard_normal((x.shape[0], k))
        y_sampled = expected_outcomes(x, z, ytilde, c)
    if not np.isfinite(y_sampled).all():
        raise NumericError("non-finite potential outcomes")
    return y_sampled


def assignment_probabilities(y_sampled: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Rowwise softmax over kappa_t * y_i^t with max subtraction for
    stability; a non-finite logit (an outcome that is not finite, or a
    product that overflows) raises NumericError."""
    y = np.asarray(y_sampled, dtype=np.float64)
    kap = np.asarray(kappa, dtype=np.float64)
    if y.ndim != 2 or kap.shape != (y.shape[1],):
        raise ShapeError("kappa must have one entry per treatment column")
    if not np.all(kap > 0.0):
        raise ConfigError("kappa entries must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        logits = y * kap[None, :]
        if not np.isfinite(logits).all():
            raise NumericError("non-finite assignment logits")
        # a logit far below its row's maximum can overflow to -inf here,
        # whose probability is then exactly 0
        logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def assign_treatments(
    y_sampled: np.ndarray,
    kappa: np.ndarray,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """Draw one observed treatment per user from the softmax probabilities."""
    p = assignment_probabilities(y_sampled, kappa)
    gen = np.random.default_rng(rng)
    cum = np.cumsum(p, axis=1)
    u = gen.random(p.shape[0])
    t_obs = (cum < u[:, None]).sum(axis=1)
    return np.minimum(t_obs, p.shape[1] - 1).astype(np.int64)


def _draw_splits(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    order = rng.permutation(n)
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_val = int(round(SPLIT_FRACTIONS[1] * n))
    return {
        "train": order[:n_train],
        "val": order[n_train : n_train + n_val],
        "test": order[n_train + n_val :],
    }


def simulate_dataset(cfg: SimConfig) -> Dataset:
    """Run the full generative recipe; deterministic given cfg (incl. seed)."""
    ss = np.random.SeedSequence(cfg.seed)
    s_cov, s_cent, s_prior, s_noise, s_assign, s_split = ss.spawn(6)

    x = generate_covariates(cfg, np.random.default_rng(s_cov))
    z = select_centroids(x, cfg.k, cfg.centroid_method, rng=np.random.default_rng(s_cent))
    mu, sigma = sample_outcome_params(cfg, np.random.default_rng(s_prior))
    y_sampled = potential_outcomes(x, z, mu, sigma, cfg.c, np.random.default_rng(s_noise))
    t_obs = assign_treatments(y_sampled, cfg.kappa_vector(), np.random.default_rng(s_assign))
    splits = _draw_splits(cfg.n, np.random.default_rng(s_split))
    return Dataset(
        X=x, Z=z, mu_sigma=np.column_stack([mu, sigma]), Y_sampled=y_sampled, t_obs=t_obs,
        splits=splits, config=cfg,
    )


def save_dataset(ds: Dataset, out_dir, force: bool = False) -> None:
    """Write the dataset directory: one .npy file per array, then
    manifest.json, which records their sha256, so a directory without a
    manifest was never completed.
    A rewrite removes the old manifest first, so one that stops part way
    leaves no manifest over a mix of old and new arrays."""
    check_out_dir(out_dir, force)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    digests = {}
    for name, (attr, _, _) in _dataset_layout(ds.config).items():
        digests[name] = write_array(os.path.join(out_dir, name + ".npy"), getattr(ds, attr))
    manifest = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "config": ds.config.to_dict(),
        "splits": {name: ds.splits[name].tolist() for name in SPLIT_NAMES},
        "sha256": digests,
    }
    write_json_atomic(manifest_path, manifest)


def load_dataset(dataset_dir) -> Dataset:
    """Read a dataset directory: exactly the manifest's fields, and every
    array the schema names, under the sha256 the manifest records, which the
    Dataset checks against the manifest's config; nothing is unpickled."""
    manifest_path = os.path.join(dataset_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"not a dataset directory (no manifest.json): {dataset_dir}")
    manifest = load_json_object(manifest_path, DataError)
    check_artifact(
        manifest, f"dataset {manifest_path}", DATASET_SCHEMA_VERSION, MANIFEST_KEYS,
        "`ite-bench simulate`",
    )
    try:
        cfg = SimConfig.from_dict(manifest["config"], path="manifest.config")
    except ConfigError as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    splits = manifest["splits"]
    # each split a list of ints (not bools) that int64 holds; one type() test
    # per index, where _matches would walk its type hint for each of them
    malformed = DataError(f"{manifest_path}: splits must map split names to lists of ints")
    if not _matches(splits, dict[str, list]) or not all(
        type(i) is int for idx in splits.values() for i in idx
    ):
        raise malformed
    try:
        splits = {name: np.array(idx, dtype=np.int64) for name, idx in splits.items()}
    except OverflowError as exc:  # an index that int64 cannot hold
        raise malformed from exc

    layout = _dataset_layout(cfg)
    digests = manifest["sha256"]
    if not _matches(digests, dict[str, str]) or set(digests) != set(layout):
        raise DataError(f"{manifest_path}: sha256 must map {sorted(layout)} to strings")
    arrays = {
        attr: read_array(os.path.join(dataset_dir, name + ".npy"), digests[name])
        for name, (attr, _, _) in layout.items()
    }
    try:
        return Dataset(**arrays, splits=splits, config=cfg)
    except DataError as exc:  # the arrays and splits are checked against its config
        raise type(exc)(f"{manifest_path}: {exc}") from exc
