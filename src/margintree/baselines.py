"""Hierarchical k-means baselines sharing the greedy top-down builder.

HKM scores a leaf by how compact its candidate clusters are (negated average
within-cluster distance, so argmax picks the most compact). HKM-D instead
grows the leaf with the most scattered data, independent of the candidate
split. Both split a node with plain seeded k-means; the fitted centroids are
stored in the node's model slot.
"""

from __future__ import annotations

import numpy as np

from .core import ClusterModels, Dataset, Hierarchy, NodeData, TreeNode
from .hier import BuildConfig, Candidate, grow_tree, node_seed
from .kmeans import KMeansResult, kmeans


def hkm_split_score(result: KMeansResult, data: NodeData) -> float:
    """Negated average distance of a node's instances to their assigned
    centroid in a fitted k-means split."""
    x = data.features
    dists = np.linalg.norm(x - result.centroids[result.labels - 1], axis=1)
    return -float(dists.mean())


def hkm_d_split_score(data: NodeData) -> float:
    """Total distance of a node's instances to their mean (scatter)."""
    x = data.features
    center = x.mean(axis=0)
    return float(np.linalg.norm(x - center, axis=1).sum())


def _candidate(result: KMeansResult, score: float) -> Candidate:
    return Candidate(labels=result.labels, models=ClusterModels(weights=result.centroids), score=score)


def build_hkm(dataset: Dataset, config: BuildConfig) -> Hierarchy:
    """Top-down k-means, growing the leaf whose split is most compact."""

    def evaluate(hierarchy: Hierarchy, leaf: TreeNode, node_id: int) -> Candidate:
        result = kmeans(leaf.data, config.k, node_seed(config.seed, node_id))
        return _candidate(result, hkm_split_score(result, leaf.data))

    return grow_tree(dataset, config.k, config.stop, evaluate)


def build_hkm_d(dataset: Dataset, config: BuildConfig) -> Hierarchy:
    """Top-down k-means, growing the leaf with the most scattered data."""

    def evaluate(hierarchy: Hierarchy, leaf: TreeNode, node_id: int) -> Candidate:
        result = kmeans(leaf.data, config.k, node_seed(config.seed, node_id))
        return _candidate(result, hkm_d_split_score(leaf.data))

    return grow_tree(dataset, config.k, config.stop, evaluate)
