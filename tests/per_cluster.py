"""The per-cluster reference that kmeans is compared against: Lloyd's
algorithm with each row's distances to the centers computed as one
[rows x clusters] matrix, and each cluster's mean gathered through a boolean
mask of its members."""

import numpy as np

from ite_bench.simulate import KMEANS_ITERS, KMEANS_TOL, KMeansResult


def _closest_sq(x, centers):
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * (x @ centers.T)
    )
    return np.maximum(d2, 0.0)


def per_cluster_kmeans(x, n_clusters, rng):
    """kmeans(x, n_clusters, rng=rng) one cluster at a time, with the same
    kmeans++ draws. Returns the result and whether an empty cluster was
    re-seeded."""
    n = x.shape[0]
    gen = np.random.default_rng(rng)
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[gen.integers(n)]
    closest = _closest_sq(x, centers[:1])[:, 0]
    for j in range(1, n_clusters):
        total = closest.sum()
        idx = gen.choice(n, p=closest / total) if total > 0.0 else gen.integers(n)
        centers[j] = x[idx]
        closest = np.minimum(closest, _closest_sq(x, centers[j : j + 1])[:, 0])

    history, reseeded = [], False
    for _ in range(KMEANS_ITERS):
        d2 = _closest_sq(x, centers)
        labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), labels]
        history.append(float(assigned.sum()))
        new_centers = centers.copy()
        empty = []
        for j in range(n_clusters):
            members = labels == j
            if members.any():
                new_centers[j] = x[members].mean(axis=0)
            else:
                empty.append(j)
        far_order = np.argsort(-assigned)
        for pos, j in enumerate(empty):
            new_centers[j] = x[far_order[pos]]
            reseeded = True
        movement = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if movement < KMEANS_TOL:
            break
    history.append(float(_closest_sq(x, centers).min(axis=1).sum()))
    return KMeansResult(centers, history), reseeded
