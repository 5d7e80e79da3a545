"""Evaluation: tree-based semantic similarities and the Rand index.

Two leaf classes of a rooted class tree are compared either by shortest-path
distance (1 - d/d_max over the tree's leaf pairs) or by path sharing (length
of the common root prefix of their branches over the longer branch, with
branches including the leaf itself). A clustering is scored against ground
truth by 1 - MSE between learned and true pairwise similarities over
instance pairs; flat clusterings use the convention that two instances have
similarity 1 when co-clustered and 0 otherwise.

A built hierarchy and a reloaded one are scored through the same view, the
payload of export.hierarchy_to_dict: `leaf_of` maps each instance to its
leaf from the payload's leaf members, and `score_hierarchy` scores that map.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import Dataset, Hierarchy
from .errors import StructureError, ValidationError
from .export import hierarchy_to_dict


class ClassTree:
    """Rooted tree whose leaves carry class identifiers (each class at
    exactly one leaf). Similarity tables over classes are precomputed."""

    def __init__(self, root, children: dict, leaf_classes: dict):
        self.root = root
        self.children = {node: tuple(kids) for node, kids in children.items()}
        self.leaf_classes = dict(leaf_classes)
        try:
            hash((root, *self.leaf_classes.values(), *itertools.chain(*self.children.values())))
        except TypeError:
            raise StructureError("class tree nodes and classes must be hashable") from None

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

        branch_of = {}
        def walk(node, prefix):
            branch = prefix + (node,)
            if node in self.leaf_classes:
                branch_of[self.leaf_classes[node]] = branch
            for kid in self.children.get(node, ()):
                walk(kid, branch)
        walk(root, ())

        self.class_ids = sorted(branch_of, key=repr)
        self._index = {c: i for i, c in enumerate(self.class_ids)}
        branches = [branch_of[c] for c in self.class_ids]
        lengths = np.array([len(b) for b in branches], dtype=np.int64)
        # shared[i, j]: length of the common root prefix of branches i and j
        shared = np.diag(lengths)
        for (i, a), (j, b) in itertools.combinations(enumerate(branches), 2):
            prefix = 0
            while prefix < min(len(a), len(b)) and a[prefix] == b[prefix]:
                prefix += 1
            shared[i, j] = shared[j, i] = prefix
        distance = lengths[:, None] + lengths[None, :] - 2 * shared
        max_distance = float(distance.max()) if len(branches) > 1 else 0.0
        self._sp = np.ones(distance.shape) if max_distance == 0.0 else 1.0 - distance / max_distance
        self._ps = shared / np.maximum.outer(lengths, lengths)
        for table in (self._sp, self._ps):
            table.setflags(write=False)

    def sp_table(self) -> np.ndarray:
        """Shortest-path similarity of each pair of classes (read-only)."""
        return self._sp

    def ps_table(self) -> np.ndarray:
        """Path-sharing similarity of each pair of classes (read-only)."""
        return self._ps

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
    table = ClassTree.sp_table if metric == "SP" else ClassTree.ps_table
    if learned_tree is None:
        clusters, codes = np.unique(cluster_codes, return_inverse=True)
        learned_table = np.eye(clusters.size)
    else:
        codes = np.asarray(cluster_codes, dtype=np.int64)
        learned_table = table(learned_tree)
    return _pair_score(codes, learned_table, _class_codes(truth, truth_labels), table(truth))


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


def leaf_of(payload: dict, ids) -> np.ndarray:
    """The leaf holding each of ids (the loaders' 0..n-1 or a Dataset's own
    ids), read from the leaf members of a hierarchy payload: the leaves must
    list each of the ids once and no other id."""
    leaves = [record for record in payload["nodes"] if not record["children"]]
    members = np.asarray([m for record in leaves for m in record.get("members", [])])
    owners = np.repeat([record["id"] for record in leaves], [len(record.get("members", [])) for record in leaves])
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    pos = np.minimum(np.searchsorted(sorted_ids, members), ids.size - 1)
    outside = sorted_ids[pos] != members
    if outside.any():
        raise ValidationError(f"instance {members[outside.argmax()]} of the hierarchy's leaves is not in the input")
    counts = np.bincount(pos, minlength=ids.size)
    if counts.max(initial=0) > 1:
        raise ValidationError(f"instance {members[(counts[pos] > 1).argmax()]} is in more than one leaf")
    if counts.min(initial=1) == 0:
        raise ValidationError(f"instance {sorted_ids[counts.argmin()]} missing from the hierarchy's leaves")
    leaf = np.empty(ids.size, dtype=np.int64)
    leaf[order[pos]] = owners
    return leaf


def score_hierarchy(hierarchy, dataset: Dataset, truth: ClassTree | None = None) -> dict:
    """score_leaves of the leaf holding each of the dataset's instances, in
    dataset order (see leaf_of). hierarchy is a built Hierarchy or a payload
    of one: export.hierarchy_to_dict, or load_hierarchy_json of its file."""
    if dataset.labels is None:
        raise ValidationError("scoring requires ground-truth labels")
    payload = hierarchy_to_dict(hierarchy, 0) if isinstance(hierarchy, Hierarchy) else hierarchy
    children = {record["id"]: record["children"] for record in payload["nodes"] if record["children"]}
    return score_leaves(leaf_of(payload, dataset.ids), payload["root"], children, dataset.labels, truth)
