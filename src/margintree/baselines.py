"""Hierarchical k-means baselines sharing the greedy top-down builder.

HKM scores a leaf by how compact its candidate clusters are (negated average
within-cluster distance, so argmax picks the most compact). HKM-D instead
grows the leaf with the most scattered data, independent of the candidate
split. Both split a node with plain seeded k-means; the fitted centroids are
the weights of the node's Split.
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


def _build(dataset: Dataset, config: BuildConfig, score: Callable[[KMeansResult, np.ndarray], float]) -> Hierarchy:
    """The greedy builder with a k-means split per leaf, ranked by score of
    the split and the leaf's features (read once per leaf); no score bound."""

    def split(leaf: TreeNode) -> Split:
        x = leaf.data.features
        result = kmeans(x, config.k, node_seed(config.seed, leaf.id))
        return Split(result.labels, result.centroids, score(result, x))

    return grow_tree(dataset, config.k, config.stop, lambda hierarchy, leaf: (math.inf, lambda: split(leaf)))


def build_hkm(dataset: Dataset, config: BuildConfig) -> Hierarchy:
    """Top-down k-means, growing the leaf whose split is most compact."""
    return _build(dataset, config, hkm_split_score)


def build_hkm_d(dataset: Dataset, config: BuildConfig) -> Hierarchy:
    """Top-down k-means, growing the leaf with the most scattered data."""
    return _build(dataset, config, lambda result, x: hkm_d_split_score(x))
