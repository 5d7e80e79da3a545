"""Hierarchical k-means baselines sharing the greedy top-down builder.

HKM scores a leaf by how compact its candidate clusters are (negated average
within-cluster distance, so argmax picks the most compact). HKM-D instead
grows the leaf with the most scattered data, independent of the candidate
split, so its score is also its bound: k-means never splits a leaf that
cannot win a round. Both split a node with plain seeded k-means; the
fitted centroids are the weights of the node's Split.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import Dataset, Hierarchy, Split, TreeNode
from .hier import BuildConfig, grow_tree, node_seed
from .kmeans import KMeansResult, kmeans


def hkm_split_score(result: KMeansResult, x: np.ndarray) -> float:
    """Negated average distance of a node's n x P features to their assigned
    centroid in a fitted k-means split."""
    dists = np.linalg.norm(x - result.centroids[result.labels - 1], axis=1)
    return -float(dists.mean())


def hkm_d_split_score(x: np.ndarray) -> float:
    """Total distance of a node's n x P features to their mean (scatter)."""
    center = x.mean(axis=0)
    return float(np.linalg.norm(x - center, axis=1).sum())


def _build(
    dataset: Dataset,
    config: BuildConfig,
    score: Callable[[KMeansResult, np.ndarray], float],
    bound: Callable[[np.ndarray], float] = lambda x: math.inf,
) -> Hierarchy:
    """The greedy builder with a k-means split per leaf, ranked by score of
    the split and the leaf's features (read once per leaf); bound(x) is an
    upper bound on that score (none by default)."""

    def candidate(hierarchy: Hierarchy, leaf: TreeNode) -> tuple[float, Callable[[], Split]]:
        x = leaf.data.features

        def split() -> Split:
            result = kmeans(x, config.k, node_seed(config.seed, leaf.id))
            return Split(result.labels, result.centroids, score(result, x))

        return bound(x), split

    return grow_tree(dataset, config.k, config.stop, candidate)


def build_hkm(dataset: Dataset, config: BuildConfig) -> Hierarchy:
    """Top-down k-means, growing the leaf whose split is most compact."""
    return _build(dataset, config, hkm_split_score)


def build_hkm_d(dataset: Dataset, config: BuildConfig) -> Hierarchy:
    """Top-down k-means, growing the leaf with the most scattered data. The
    score does not depend on the split, so it is its own bound."""
    return _build(dataset, config, lambda result, x: hkm_d_split_score(x), hkm_d_split_score)
