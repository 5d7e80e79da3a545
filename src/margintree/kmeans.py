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


def squared_norms(x: np.ndarray) -> np.ndarray:
    """The squared Euclidean norms of the rows of x."""
    return np.einsum("ij,ij->i", x, x)


def squared_distances(x: np.ndarray, centroids: np.ndarray, x_norms: np.ndarray) -> np.ndarray:
    """n x K squared Euclidean distances of the n x P rows x to the K x P
    centroids, |x|^2 - 2 x.c + |c|^2 clamped at 0, given x_norms =
    squared_norms(x): no array larger than n x K."""
    distances = x @ centroids.T
    distances *= -2.0
    distances += x_norms[:, None]
    distances += squared_norms(centroids)
    return np.maximum(distances, 0.0, out=distances)


def kmeans(x: np.ndarray, k: int, seed: int) -> KMeansResult:
    n = x.shape[0]
    if n < k:
        raise ValidationError(f"cannot fit {k} clusters to {n} instances")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(x, k, rng)
    x_norms = squared_norms(x)
    distances = squared_distances(x, centroids, x_norms)
    labels, inertia = distances.argmin(axis=1), float(distances.min(axis=1).sum())
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
        distances = squared_distances(x, centroids, x_norms)
        new_labels, inertia = distances.argmin(axis=1), float(distances.min(axis=1).sum())
        converged = np.array_equal(new_labels, labels) or prev_inertia - inertia < TOL
        labels = new_labels
        prev_inertia = inertia
        if converged:
            break
    return KMeansResult(centroids=centroids, labels=labels + 1, inertia=inertia, iterations=iterations)
