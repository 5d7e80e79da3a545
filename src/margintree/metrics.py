"""Evaluation: tree-based semantic similarities and the Rand index.

Two leaf classes of a rooted class tree are compared either by shortest-path
distance (1 - d/d_max over the tree's leaf pairs) or by path sharing (length
of the common root prefix of their branches over the longer branch, with
branches including the leaf itself). A clustering is scored against ground
truth by 1 - MSE between learned and true pairwise similarities over
instance pairs; flat clusterings use the convention that two instances have
similarity 1 when co-clustered and 0 otherwise.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import Dataset, Hierarchy, leaf_partition
from .errors import StructureError, ValidationError


class ClassTree:
    """Rooted tree whose leaves carry class identifiers (each class at
    exactly one leaf). Similarity tables over classes are precomputed."""

    def __init__(self, root, children: dict, leaf_classes: dict):
        self.root = root
        self.children = {node: tuple(kids) for node, kids in children.items()}
        self.leaf_classes = dict(leaf_classes)

        reachable = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in reachable:
                raise StructureError("class tree contains a cycle or repeated node")
            reachable.add(node)
            stack.extend(self.children.get(node, ()))
        for node in self.children:
            if node not in reachable:
                raise StructureError(f"node {node!r} is not reachable from the root")
        classes = list(self.leaf_classes.values())
        if len(set(classes)) != len(classes):
            raise StructureError("each class must appear at exactly one leaf")
        for leaf in self.leaf_classes:
            if leaf not in reachable:
                raise StructureError(f"leaf {leaf!r} is not in the tree")
            if self.children.get(leaf):
                raise StructureError(f"class node {leaf!r} is not a leaf")

        self._branches = {}
        def walk(node, prefix):
            branch = prefix + (node,)
            if node in self.leaf_classes:
                self._branches[self.leaf_classes[node]] = branch
            for kid in self.children.get(node, ()):
                walk(kid, branch)
        walk(root, ())

        self.class_ids = sorted(self._branches, key=repr)
        self._index = {c: i for i, c in enumerate(self.class_ids)}
        n = len(self.class_ids)
        self._dist = np.zeros((n, n))
        for (i, a), (j, b) in itertools.combinations(enumerate(self.class_ids), 2):
            d = self._path_distance(self._branches[a], self._branches[b])
            self._dist[i, j] = self._dist[j, i] = d
        self.max_distance = float(self._dist.max()) if n > 1 else 0.0

    @staticmethod
    def _path_distance(branch_a, branch_b) -> int:
        shared = 0
        for x, y in zip(branch_a, branch_b):
            if x != y:
                break
            shared += 1
        return (len(branch_a) - shared) + (len(branch_b) - shared)

    def sp_table(self) -> np.ndarray:
        if self.max_distance == 0.0:
            return np.ones_like(self._dist)
        return 1.0 - self._dist / self.max_distance

    def ps_table(self) -> np.ndarray:
        n = len(self.class_ids)
        table = np.ones((n, n))
        for (i, a), (j, b) in itertools.combinations(enumerate(self.class_ids), 2):
            table[i, j] = table[j, i] = self._ps(self._branches[a], self._branches[b])
        return table

    @staticmethod
    def _ps(branch_a, branch_b) -> float:
        shared = 0
        for x, y in zip(branch_a, branch_b):
            if x != y:
                break
            shared += 1
        return shared / max(len(branch_a), len(branch_b))

    def class_index(self, class_id) -> int:
        try:
            return self._index[class_id]
        except KeyError:
            raise ValidationError(f"unknown class {class_id!r}") from None


def flat_class_tree(classes) -> ClassTree:
    """Depth-1 tree: a root whose children are the given classes."""
    classes = list(classes)
    children = {"__root__": [("__leaf__", c) for c in classes]}
    leaf_classes = {("__leaf__", c): c for c in classes}
    return ClassTree(root="__root__", children=children, leaf_classes=leaf_classes)


def rand_index(pred, truth) -> float:
    """Fraction of instance pairs on which the two partitions agree."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValidationError("partitions must be equal-length 1-D label arrays")
    n = pred.size
    if n < 2:
        return 1.0
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    contingency = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(contingency, (pi, ti), 1)
    same_both = (contingency * (contingency - 1) // 2).sum()
    same_pred = (np.bincount(pi) * (np.bincount(pi) - 1) // 2).sum()
    same_truth = (np.bincount(ti) * (np.bincount(ti) - 1) // 2).sum()
    total = n * (n - 1) // 2
    agreements = total + 2 * same_both - same_pred - same_truth
    return float(agreements / total)


def _class_codes(tree: ClassTree, classes) -> np.ndarray:
    """Map class identifiers to the tree's class indices. When they are not
    all class ids as given, they are matched by str(), which tolerates
    int-vs-string round trips through files."""
    unique, inverse = np.unique(np.asarray(classes), return_inverse=True)
    unique = unique.tolist()
    try:
        codes = [tree.class_index(c) for c in unique]
    except ValidationError:
        by_str = {str(c): i for i, c in enumerate(tree.class_ids)}
        try:
            codes = [by_str[str(c)] for c in unique]
        except KeyError as err:
            raise ValidationError(f"class {err.args[0]!r} is not in the tree") from None
    return np.asarray(codes, dtype=np.int64)[inverse]


def _similarity_table(tree: ClassTree, metric: str) -> np.ndarray:
    return tree.sp_table() if metric == "SP" else tree.ps_table()


def _pair_score(learned_codes, learned_table, truth_codes, truth_table) -> float:
    """1 - mean over instance pairs of (learned - true similarity)^2, from
    the learned x true class count matrix C alone. For each distinct learned
    similarity v, C'[L == v]C counts the ordered instance pairs per pair of
    true classes, and each contributes (v - T)^2. Self-pairs are counted too
    but add nothing: every class has similarity 1 to itself in both tables."""
    if learned_codes.shape != truth_codes.shape:
        raise ValidationError("one learned and one true class per instance required")
    n = learned_codes.size
    if n < 2:
        return 1.0
    n_truth = truth_table.shape[0]
    counts = np.bincount(learned_codes * n_truth + truth_codes, minlength=learned_table.shape[0] * n_truth)
    counts = counts.reshape(-1, n_truth).astype(float)
    total = 0.0
    for value in np.unique(learned_table):
        pairs = counts.T @ (learned_table == value) @ counts
        total += float(np.sum(pairs * (value - truth_table) ** 2))
    return 1.0 - total / (n * (n - 1))


def semantic_score_partition(
    cluster_codes: np.ndarray,
    learned_tree: ClassTree | None,
    truth: ClassTree,
    truth_labels,
    metric: str = "SP",
) -> float:
    """1 - MSE between learned and ground-truth pairwise similarities.

    cluster_codes maps each instance to a learned class index; learned_tree
    gives the learned class similarities, or None for the flat convention
    (same cluster -> 1, else 0). Exact over all instance pairs, in time
    linear in the number of instances and memory independent of it.
    """
    if metric not in ("SP", "PS"):
        raise ValidationError(f"metric must be SP or PS, got {metric!r}")
    if learned_tree is None:
        clusters, codes = np.unique(cluster_codes, return_inverse=True)
        learned_table = np.eye(clusters.size)
    else:
        codes = np.asarray(cluster_codes, dtype=np.int64)
        learned_table = _similarity_table(learned_tree, metric)
    truth_table = _similarity_table(truth, metric)
    return _pair_score(codes, learned_table, _class_codes(truth, truth_labels), truth_table)


def score_leaves(leaf_ids, root, children: dict, labels, truth: ClassTree | None = None) -> dict:
    """Rand index, SP and PS of a learned tree's leaf assignment.

    leaf_ids[i] is the leaf holding instance i, and root with children (node
    id -> child ids) is the learned tree. A flat tree (every leaf a child of
    the root) is scored with the same-cluster/else-0 convention. truth
    defaults to a flat class tree over the labels' string forms.
    """
    leaf_ids = np.asarray(leaf_ids)
    if truth is None:
        truth = flat_class_tree(sorted({str(c) for c in labels}))
    learned_tree, codes = None, leaf_ids
    if any(children.get(kid) for kid in children.get(root, ())):
        leaves = {kid for kids in children.values() for kid in kids if not children.get(kid)}
        learned_tree = ClassTree(root, children, {leaf: leaf for leaf in leaves})
        codes = _class_codes(learned_tree, leaf_ids)
    scores = {"rand_index": rand_index(leaf_ids, labels)}
    for metric in ("SP", "PS"):
        scores[metric.lower()] = semantic_score_partition(codes, learned_tree, truth, labels, metric)
    return scores


def score_hierarchy(hierarchy, dataset: Dataset, truth: ClassTree | None = None) -> dict:
    """score_leaves of the leaf holding each of the dataset's instances, in
    dataset order. hierarchy is a built Hierarchy, or an exported one reloaded
    by export.load_hierarchy_json, whose leaves must list the instances
    0..n-1 (the loaders' ids)."""
    if dataset.labels is None:
        raise ValidationError("scoring requires ground-truth labels")
    if isinstance(hierarchy, Hierarchy):
        partition = leaf_partition(hierarchy)
        leaf_ids, root = [partition[i] for i in dataset.ids.tolist()], hierarchy.root_id
    else:
        leaf_ids, root = hierarchy.leaf_of(dataset.n), hierarchy.root
    return score_leaves(leaf_ids, root, hierarchy.children_map(), dataset.labels, truth)
