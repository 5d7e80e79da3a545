"""Shared constructors for tests."""

from __future__ import annotations

import numpy as np

from margintree.core import Dataset, Hierarchy, Split
from margintree.objective import Regularizer, RegularizerConfig
from margintree.split import split_node


def blob_dataset(seed: int, centers, per_blob: int = 10, spread: float = 0.3) -> Dataset:
    """Gaussian blobs around the given centers, labels = blob index."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    rows = [rng.normal(c, spread, size=(per_blob, centers.shape[1])) for c in centers]
    features = np.vstack(rows)
    labels = np.repeat(np.arange(len(centers)), per_blob)
    return Dataset(features=features, ids=np.arange(features.shape[0]), labels=labels)


def split_rows(x: np.ndarray, chain, k: int, reg: RegularizerConfig, seed: int) -> Split:
    """split_node on the n x P rows x under the Regularizer that reg and the
    ancestor chain give the split, as build_hierarchy makes it."""
    return split_node(x, Regularizer(reg, chain, k, x.shape[1]), k, seed)


def random_problem(rng: np.random.Generator, n_max=20, p_max=10, k_max=4):
    n = int(rng.integers(3, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    k = int(rng.integers(2, k_max + 1))
    x = rng.normal(size=(n, p))
    labels = rng.integers(1, k + 1, size=n)
    w = rng.normal(size=(k, p))
    return w, x, labels


def manual_hierarchy(dataset: Dataset, structure: dict[int, list[list[int]]]) -> Hierarchy:
    """Build a hierarchy by hand from {node_id: list of child member-index
    lists}; node 1 is the root owning all rows. Each split gets placeholder
    weights and the labels of its groups, and Hierarchy.add_children makes
    the children, as the builders do."""
    hierarchy = Hierarchy.with_root(dataset)
    pending = [1]
    while pending:
        node_id = pending.pop(0)
        if node_id not in structure:
            continue
        node = hierarchy.nodes[node_id]
        groups = structure[node_id]
        labels = np.zeros(node.data.size, dtype=np.int64)
        position = {int(idx): pos for pos, idx in enumerate(node.data.indices)}
        for cluster, members in enumerate(groups, start=1):
            for m in members:
                labels[position[m]] = cluster
        assert labels.min() >= 1, "structure must cover every member"
        hierarchy.add_children(node, Split(labels, np.eye(len(groups), dataset.p)))
        pending.extend(node.child_ids)
    return hierarchy
