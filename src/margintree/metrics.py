"""Evaluation: tree-based semantic similarities and the Rand index.

Two leaf classes of a rooted class tree are compared either by shortest-path
distance (1 - d/d_max over the tree's leaf pairs) or by path sharing (length
of the common root prefix of their branches over the longer branch, with
branches including the leaf itself). A clustering is scored against ground
truth by 1 - MSE between learned and true pairwise similarities over
instance pairs. One flat rule holds for the learned tree and the truth
alike: in a tree whose classes are all children of the root, two instances
have similarity 1 when they share a class and 0 otherwise. One learned x true
count matrix gives the Rand index, SP and PS.

A built hierarchy and a reloaded one are scored through the same view, the
payload of export.hierarchy_to_dict: `leaf_of` maps each instance to its
leaf from the payload's leaf members, and `score_hierarchy` scores that map.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import Dataset, Hierarchy, distinct
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


def _count_matrix(row_codes, col_codes, n_rows: int, n_cols: int) -> np.ndarray:
    """C[a, b]: the number of instances with row code a and column code b."""
    return np.bincount(row_codes * n_cols + col_codes, minlength=n_rows * n_cols).reshape(n_rows, n_cols)


def _rand_from_counts(counts: np.ndarray) -> float:
    """Fraction of instance pairs on which the rows' and the columns'
    partitions agree, from their count matrix."""
    n = int(counts.sum())
    if n < 2:
        return 1.0
    both, rows, cols = (int((c * (c - 1) // 2).sum()) for c in (counts, counts.sum(axis=1), counts.sum(axis=0)))
    total = n * (n - 1) // 2
    return (total + 2 * both - rows - cols) / total


def rand_index(pred, truth) -> float:
    """Fraction of instance pairs on which the two partitions agree."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValidationError("partitions must be equal-length 1-D label arrays")
    pred_ids, pi = np.unique(pred, return_inverse=True)
    truth_ids, ti = np.unique(truth, return_inverse=True)
    return _rand_from_counts(_count_matrix(pi, ti, pred_ids.size, truth_ids.size))


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


def _side(tree: ClassTree, classes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each instance's class code in tree, and the tree's SP and PS tables.
    The flat rule: when every class is a child of the root, both tables are
    the identity (same class -> 1, else 0)."""
    codes = _class_codes(tree, classes)
    if set(tree.leaf_classes) <= {tree.root, *tree.children.get(tree.root, ())}:
        identity = np.eye(len(tree.class_ids))
        return codes, identity, identity
    return codes, tree.sp_table(), tree.ps_table()


def _pair_score(counts: np.ndarray, learned_table, truth_table) -> float:
    """1 - mean over instance pairs of (learned - true similarity)^2, from
    the learned x true class count matrix C alone. For each distinct learned
    similarity v, C'[L == v]C counts the ordered instance pairs per pair of
    true classes, and each contributes (v - T)^2. Self-pairs are counted too
    but add nothing: every class has similarity 1 to itself in both tables."""
    n = int(counts.sum())
    if n < 2:
        return 1.0
    counts = counts.astype(float)
    total = 0.0
    for value in distinct(learned_table):
        pairs = counts.T @ (learned_table == value) @ counts
        total += float(np.sum(pairs * (value - truth_table) ** 2))
    return 1.0 - total / (n * (n - 1))


def score_leaves(leaf_ids, root, children: dict, labels, truth: ClassTree | None = None) -> dict:
    """Rand index, SP and PS of a learned tree's leaf assignment.

    leaf_ids[i] is the leaf holding instance i, and root with children (node
    id -> child ids) is the learned tree; truth defaults to a flat class tree
    over the labels' string forms. Both sides follow one flat rule (see
    _side), so a flat clustering scored against a flat truth gets
    SP = PS = RI. One learned x true count matrix gives all three scores,
    exactly over all instance pairs, in time linear in the number of
    instances and memory independent of it.
    """
    if np.shape(leaf_ids) != np.shape(labels) or np.ndim(leaf_ids) != 1:
        raise ValidationError("one learned leaf and one label per instance required")
    if truth is None:
        truth = flat_class_tree(sorted({str(c) for c in labels}))
    leaves = {kid for kids in children.values() for kid in kids if not children.get(kid)} or {root}
    learned = ClassTree(root, children, {leaf: leaf for leaf in leaves})
    learned_codes, learned_sp, learned_ps = _side(learned, leaf_ids)
    truth_codes, truth_sp, truth_ps = _side(truth, labels)
    counts = _count_matrix(learned_codes, truth_codes, len(learned.class_ids), len(truth.class_ids))
    return {
        "rand_index": _rand_from_counts(counts),
        "sp": _pair_score(counts, learned_sp, truth_sp),
        "ps": _pair_score(counts, learned_ps, truth_ps),
    }


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
