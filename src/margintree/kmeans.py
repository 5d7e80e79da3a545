"""Lloyd's k-means with k-means++ style seeding.

Deterministic given the seed; empty clusters are repaired by promoting the
point farthest from its assigned centroid. Labels are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Lloyd iterations stop after MAX_ITERS, or once the inertia falls by less than TOL
MAX_ITERS = 300
TOL = 1e-6


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a centroid; pick uniformly
            chosen.append(int(rng.integers(n)))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            chosen.append(min(idx, n - 1))
        d2 = np.minimum(d2, ((x - x[chosen[-1]]) ** 2).sum(axis=1))
    return x[chosen].copy()


def squared_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """n x K squared Euclidean distances of the n x P rows x to the K x P
    centroids."""
    return ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return squared_distances(x, centroids).argmin(axis=1)


def kmeans(x: np.ndarray, k: int, seed: int) -> KMeansResult:
    n = x.shape[0]
    if n < k:
        raise ValidationError(f"cannot fit {k} clusters to {n} instances")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(x, k, rng)
    labels = _assign(x, centroids)
    prev_inertia = np.inf
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = x[members].mean(axis=0)
            else:
                # repair: promote the point farthest from its centroid
                far = int(np.argmax(((x - centroids[labels]) ** 2).sum(axis=1)))
                centroids[j] = x[far]
                labels[far] = j
        new_labels = _assign(x, centroids)
        inertia = float(((x - centroids[new_labels]) ** 2).sum())
        converged = np.array_equal(new_labels, labels) or prev_inertia - inertia < TOL
        labels = new_labels
        prev_inertia = inertia
        if converged:
            break
    inertia = float(((x - centroids[labels]) ** 2).sum())
    return KMeansResult(centroids=centroids, labels=labels + 1, inertia=inertia, iterations=iterations)
