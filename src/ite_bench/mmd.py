"""Squared maximum mean discrepancy between treatment groups.

Uses the biased V-statistic estimator with an RBF Gaussian kernel
k(u, v) = exp(-||u - v||^2 / (2 * bandwidth^2)). The bandwidth is either
fixed or set by the median heuristic over the data at hand; in the latter
case gradients treat it as a constant (straight-through).

Every call evaluates one Gram matrix K over all of its samples, stacked
group by group into Z. With W the one-hot group matrix whose columns are
divided by the group sizes, the block means M = W^T K W give each pair's
MMD^2 as M_aa + M_bb - 2 M_ab, and the gradient of a weighted sum of pairs
is (2 / bandwidth^2) * ((K o S) Z - rowsum(K o S) Z) with S = W C W^T,
where C holds the pair coefficients.

Clamp rule: MMD^2 is never negative, so a pair whose value lies within the
estimator's rounding error of zero (identical or row-permuted groups)
counts as exactly 0, in the loss and in the gradient alike.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


def _sqdist(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x, clamped at zero."""
    sq = np.einsum("ij,ij->i", x, x)
    # the transposed copy makes numpy call gemm rather than syrk, which
    # OpenBLAS runs two to three times slower at training batch sizes
    d2 = x @ np.ascontiguousarray(x.T)
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += sq[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _median_distance(d2: np.ndarray) -> float:
    """Median heuristic from a square matrix of squared distances."""
    upper = np.take(d2, _upper_flat_index(d2.shape[0]))
    # equals np.median(np.sqrt(upper)), since sqrt is monotone; a partition
    # at one index plus a max is several times cheaper than np.median's
    # partition at both middle indices
    half = upper.size // 2
    part = np.partition(upper, half)
    med = float(np.sqrt(part[half]))
    if upper.size % 2 == 0:
        med = (float(np.sqrt(part[:half].max())) + med) / 2.0
    # a median too small (or zero) to be a kernel width falls back to 1.0
    return med if _usable_width(med) else 1.0


@lru_cache(maxsize=16)
def _upper_flat_index(n: int) -> np.ndarray:
    rows, cols = np.triu_indices(n, k=1)
    index = rows * n + cols
    index.flags.writeable = False
    return index


_EPS = float(np.finfo(np.float64).eps)


def _usable_width(bandwidth: float) -> bool:
    """Whether the kernel's factors 0.5 / bandwidth^2 and 2 / bandwidth^2
    are finite floats: bandwidth finite and above about 1.0548e-154. An
    infinite bandwidth makes every kernel value 1 and the loss 0; a smaller
    one makes the factors infinite, and the loss NaN."""
    s2 = bandwidth * bandwidth
    return 0.0 < bandwidth < math.inf and s2 > 0.0 and math.isfinite(2.0 / s2)


def check_bandwidth(bandwidth: float) -> None:
    """ConfigError unless bandwidth is a usable kernel width (_usable_width)."""
    if not _usable_width(bandwidth):
        raise ConfigError(
            "kernel bandwidth must be finite and above about 1.0548e-154, so that "
            f"2 / bandwidth**2 is a finite float; got {bandwidth!r}"
        )


def _balance(blocks: list[np.ndarray], bandwidth: float | None) -> tuple[float, np.ndarray]:
    """Mean clamped MMD^2 over all pairs of non-empty sample blocks.

    Returns the loss and its gradient with respect to the stacked samples.
    """
    z = np.vstack(blocks)
    sizes = [blk.shape[0] for blk in blocks]
    gram = _sqdist(z)
    bw = bandwidth if bandwidth is not None else _median_distance(gram)
    s2 = bw * bw
    gram *= -0.5 / s2
    np.exp(gram, out=gram)
    # w: one-hot group columns divided by the group size, so that
    # w.T @ gram @ w holds the kernel mean of every pair of blocks
    w = np.repeat(np.diag(1.0 / np.array(sizes, dtype=np.float64)), sizes, axis=0)
    means = w.T @ (gram @ w)
    within = np.diag(means)[:, None] + np.diag(means)[None, :]
    cross = means + means.T
    values = within - cross
    # a value within the estimator's rounding error of zero counts as zero
    # for the loss and the gradient alike
    tol = _EPS * z.shape[0] * (within + np.abs(cross))
    live = (values > tol) / float(len(blocks) * (len(blocks) - 1) // 2)
    loss = float(np.sum(live * values)) / 2.0
    # d loss / d gram = w @ coef @ w.T: each live pair weighs its own blocks
    # by +1 and the blocks between its groups by -1
    coef = np.diag(live.sum(axis=1)) - live
    gram *= w @ coef @ w.T
    grad = gram @ z
    grad -= gram.sum(axis=1)[:, None] * z
    grad *= 2.0 / s2
    return loss, grad


def treatment_regularization_loss(
    groups: Mapping[int, np.ndarray],
    bandwidth: float | None = None,
) -> tuple[float, dict[int, np.ndarray]]:
    """Mean MMD^2 over all unordered pairs of non-empty groups, each a
    matrix of sample rows.

    Returns (loss, gradients keyed like groups). Fewer than two non-empty
    groups is a degenerate batch, not an error: loss 0 with zero gradients.
    bandwidth None means the median heuristic, computed once over the
    union of all non-empty groups. A given bandwidth must pass
    check_bandwidth.
    """
    if bandwidth is not None:
        check_bandwidth(bandwidth)
    arrays = {key: np.asarray(groups[key], dtype=np.float64) for key in sorted(groups)}
    for key, arr in arrays.items():
        if arr.ndim != 2:
            raise ShapeError(f"group {key} must be a matrix [n x dim], got ndim={arr.ndim}")
    present = [key for key, arr in arrays.items() if arr.shape[0] > 0]
    if len(present) < 2:
        return 0.0, {key: np.zeros_like(arr) for key, arr in arrays.items()}
    dims = {arrays[key].shape[1] for key in present}
    if len(dims) != 1:
        raise ShapeError(f"groups differ in embedding dimension: {sorted(dims)}")
    for key in present:
        if not np.isfinite(arrays[key]).all():
            raise NumericError(f"non-finite values in group {key}")

    loss, grad = _balance([arrays[key] for key in present], bandwidth)
    grads = {}
    start = 0
    for key, arr in arrays.items():
        n = arr.shape[0]
        grads[key] = grad[start : start + n] if n else np.zeros_like(arr)
        start += n
    return loss, grads
