"""Domain types shared by all modules: datasets, node data, a node's split,
tree nodes and the hierarchy, plus subsetting and ancestor-chain extraction.

Cluster labels are 1-based everywhere ({1..K}); node ids are assigned in
creation order starting at 1 (root = 1). Models carry no bias term: scores
are plain inner products w.x, so callers should center their features.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError, ValidationError

logger = logging.getLogger(__name__)


def distinct(values) -> np.ndarray:
    """np.unique(values) from one sort and a neighbour compare, NaNs kept as
    one value. It exists because numpy 2's plain np.unique imports the
    masked-array module (about 1.3 MB and 10 ms), which nothing here uses."""
    ordered = np.sort(np.asarray(values), axis=None)
    keep = np.ones(ordered.shape, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    if ordered.dtype.kind in "cfmM":  # the NaNs sort last: drop each one after the first
        keep[1:] &= ~np.isnan(ordered[:-1])
    return ordered[keep]


@dataclass(frozen=True, eq=False)
class Dataset:
    """An N x P feature matrix with stable instance ids and optional labels.

    labels are ground-truth class identifiers used for evaluation only; they
    never influence clustering.
    """

    features: np.ndarray
    ids: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValidationError(f"features must be a non-empty 2-D matrix, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValidationError("features contain NaN or Inf")
        ids = np.asarray(self.ids)
        if ids.shape != (feats.shape[0],):
            raise ValidationError("ids must have one entry per instance")
        if len(distinct(ids)) != len(ids):
            raise ValidationError("instance ids must be unique")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (feats.shape[0],):
                raise ValidationError("labels must have one entry per instance")
            object.__setattr__(self, "labels", labels)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class NodeData:
    """The slice of a Dataset owned by one tree node.

    Stores row positions rather than copies, so memory stays proportional to
    N per tree level.
    """

    parent: Dataset
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValidationError("indices must be 1-D")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.parent.n:
                raise ValidationError("index out of range")
            if len(distinct(idx)) != len(idx):
                raise ValidationError("duplicate index")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return int(self.indices.size)

    @property
    def features(self) -> np.ndarray:
        """The node's rows, copied on every access; hot loops should read
        this once and pass the array on."""
        return self.parent.features[self.indices]

    @property
    def ids(self) -> np.ndarray:
        return self.parent.ids[self.indices]


@dataclass(frozen=True, eq=False)
class Split:
    """A node's split, from split_node to export: labels[i] in {1..K} gives
    the cluster of the node's i-th member (aligned with data.indices), row k
    of the K x P weights is the linear model of cluster k (a centroid in a
    k-means-built tree), and score is what the builder ranked the leaf by
    (None when nothing ranked it). trace holds split_node's objective at the
    start and after each half-step; iterations counts its alternations."""

    labels: np.ndarray
    weights: np.ndarray
    score: float | None = None
    trace: tuple[float, ...] = ()

    @property
    def iterations(self) -> int:
        return max(0, (len(self.trace) - 1) // 2)


@dataclass
class TreeNode:
    """One node of the hierarchy; split is set when the node is split."""

    id: int
    data: NodeData
    depth: int = 0
    parent_id: int | None = None
    child_ids: list[int] = field(default_factory=list)
    split: Split | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.child_ids


@dataclass
class Hierarchy:
    """Rooted tree of TreeNodes, mutated only by the single-threaded builder.

    incomplete is set when building stopped because no leaf was splittable
    before the stopping criterion was reached.
    """

    nodes: dict[int, TreeNode]
    root_id: int = 1
    incomplete: bool = False

    @classmethod
    def with_root(cls, dataset: Dataset) -> "Hierarchy":
        root = TreeNode(id=1, data=subset(dataset, np.arange(dataset.n)))
        return cls(nodes={1: root})

    def node(self, node_id: int) -> TreeNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise StructureError(f"unknown node id {node_id}") from None

    @property
    def root(self) -> TreeNode:
        return self.node(self.root_id)

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes.values() if n.is_leaf]

    def height(self) -> int:
        return max(n.depth for n in self.nodes.values())

    def non_leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes.values() if not n.is_leaf]

    def add_children(self, node: TreeNode, split: Split) -> None:
        """Record the node's split and create its K children, cluster k's
        members as child k, with ids in creation order."""
        node.split = split
        for cluster in range(1, split.weights.shape[0] + 1):
            child = TreeNode(
                id=max(self.nodes) + 1,
                data=subset(node.data.parent, node.data.indices[split.labels == cluster]),
                depth=node.depth + 1,
                parent_id=node.id,
            )
            self.nodes[child.id] = child
            node.child_ids.append(child.id)


def flat_hierarchy(dataset: Dataset, labels: np.ndarray, centroids: np.ndarray) -> Hierarchy:
    """Wrap a flat partition (labels in {1..K}, one centroid row per
    cluster) as a depth-1 hierarchy, so it exports and scores like a tree.
    An empty cluster would be an empty leaf: the root is then the only leaf
    and the hierarchy is incomplete, as when the builder finds no splittable
    leaf."""
    hierarchy = Hierarchy.with_root(dataset)
    if distinct(labels).size < centroids.shape[0]:
        hierarchy.incomplete = True
        logger.warning("no splittable leaf remains before the stopping criterion was met")
        return hierarchy
    hierarchy.add_children(hierarchy.root, Split(labels, centroids))
    return hierarchy


def subset(dataset: Dataset, indices) -> NodeData:
    """Select rows of a dataset by position (unique, in-range)."""
    return NodeData(parent=dataset, indices=np.asarray(indices, dtype=np.int64))


def ancestor_chain(hierarchy: Hierarchy, node_id: int) -> tuple[np.ndarray, ...]:
    """The ancestors' weight rows on the path from the root down to the
    node: each ancestor's row of the child the path takes. Empty for the
    root."""
    rows = []
    child = hierarchy.node(node_id)
    while child.parent_id is not None:
        parent = hierarchy.node(child.parent_id)
        if parent.split is None:
            raise StructureError(f"ancestor {parent.id} of node {node_id} has no fitted split")
        rows.append(parent.split.weights[parent.child_ids.index(child.id)])
        child = parent
    return tuple(reversed(rows))
