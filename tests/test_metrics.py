import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margintree import ClassTree, Dataset, ValidationError, export_hierarchy, load_hierarchy_json, rand_index
from margintree.errors import StructureError
from margintree.export import hierarchy_to_dict
from margintree.metrics import flat_class_tree, score_hierarchy, score_leaves
from helpers import manual_hierarchy
from oracles import exhaustive_pair_score


def balanced_tree():
    """root -> {n1, n2}; n1 -> {c1, c2}; n2 -> {c3, c4}."""
    return ClassTree(
        root="root",
        children={"root": ["n1", "n2"], "n1": ["c1", "c2"], "n2": ["c3", "c4"]},
        leaf_classes={"c1": "c1", "c2": "c2", "c3": "c3", "c4": "c4"},
    )


def sp(tree, a, b):
    """Shortest-path similarity of classes a and b, read from the tree's table."""
    return tree.sp_table()[tree.class_index(a), tree.class_index(b)]


def ps(tree, a, b):
    """Path-sharing similarity of classes a and b, read from the tree's table."""
    return tree.ps_table()[tree.class_index(a), tree.class_index(b)]


class TestClassTreeStructure:
    @pytest.mark.parametrize(
        "root, children, leaf_classes",
        [
            (["r"], {}, {}),
            ("r", {"r": [["a"]]}, {}),
            ("r", {"r": ["a"]}, {"a": {"c": 1}}),
        ],
        ids=["root", "child", "class"],
    )
    def test_unhashable_node_or_class(self, root, children, leaf_classes):
        # a json list or object as a node or class is invalid input, not a TypeError
        with pytest.raises(StructureError, match="must be hashable"):
            ClassTree(root=root, children=children, leaf_classes=leaf_classes)


class TestShortestPath:
    def test_siblings(self):
        assert sp(balanced_tree(), "c1", "c2") == pytest.approx(0.5)

    def test_diameter_pair(self):
        assert sp(balanced_tree(), "c1", "c3") == 0.0

    def test_identity(self):
        assert sp(balanced_tree(), "c1", "c1") == 1.0

    def test_unknown_class(self):
        with pytest.raises(ValidationError):
            balanced_tree().class_index("zz")

    def test_monotone_in_distance(self):
        tree = balanced_tree()
        assert sp(tree, "c1", "c1") > sp(tree, "c1", "c2") > sp(tree, "c1", "c3")


class TestPathSharing:
    def test_siblings(self):
        assert ps(balanced_tree(), "c1", "c2") == pytest.approx(2 / 3)

    def test_cross_pair(self):
        assert ps(balanced_tree(), "c1", "c3") == pytest.approx(1 / 3)

    def test_identity(self):
        assert ps(balanced_tree(), "c1", "c1") == 1.0

    def test_symmetry_and_bounds(self):
        tree = balanced_tree()
        for table in (tree.sp_table(), tree.ps_table()):
            assert np.all((0.0 <= table) & (table <= 1.0))
            assert np.array_equal(table, table.T)


class TestRandIndex:
    def test_identical(self):
        assert rand_index([1, 1, 2, 2], [5, 5, 9, 9]) == 1.0

    def test_hand_value(self):
        assert rand_index([1, 2, 1, 2], [1, 1, 2, 2]) == pytest.approx(1 / 3)

    def test_singletons_vs_lump(self):
        assert rand_index([1, 2, 3], [1, 1, 1]) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            rand_index([1, 2], [1, 2, 3])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        pred = rng.integers(0, 4, n)
        truth = rng.integers(0, 4, n)
        remap = rng.permutation(4)
        assert rand_index(pred, truth) == pytest.approx(rand_index(remap[pred], truth))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_flat_clustering_against_flat_truth(self, seed):
        # the flat rule on both sides: SP and PS of a flat clustering against a flat truth are its Rand index
        rng = np.random.default_rng(seed)
        n, n_clusters = int(rng.integers(2, 60)), int(rng.integers(1, 6))
        pred = rng.integers(0, n_clusters, n)
        truth = rng.integers(0, int(rng.integers(1, 6)), n)
        scores = score_leaves(pred, -1, {-1: list(range(n_clusters))}, truth)
        ri = rand_index(pred, truth)
        assert abs(scores["sp"] - ri) <= 1e-12 and abs(scores["ps"] - ri) <= 1e-12
        assert scores["rand_index"] == ri


def eight_instance_case(misplaced=True, ids=range(8)):
    """Fixed 8-instance / 4-class example; instance 3 (class c2) lands in the
    first learned leaf when misplaced."""
    truth = balanced_tree()
    labels = np.array(["c1", "c1", "c2", "c2", "c3", "c3", "c4", "c4"])
    ds = Dataset(features=np.zeros((8, 2)), ids=ids, labels=labels)
    first = [0, 1, 3] if misplaced else [0, 1]
    second = [2] if misplaced else [2, 3]
    learned = manual_hierarchy(
        ds,
        {1: [[0, 1, 2, 3], [4, 5, 6, 7]], 2: [first, second], 3: [[4, 5], [6, 7]]},
    )
    return ds, truth, learned


class TestSemanticScore:
    def test_perfect_hierarchy_scores_one(self):
        ds, truth, learned = eight_instance_case(misplaced=False)
        scores = score_hierarchy(learned, ds, truth)
        assert scores["sp"] == pytest.approx(1.0, abs=1e-12)
        assert scores["ps"] == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_misplacement(self):
        ds, truth, learned = eight_instance_case(misplaced=True)
        scores = score_hierarchy(learned, ds, truth)
        assert scores["sp"] == pytest.approx(109 / 112, abs=1e-12)
        assert scores["ps"] == pytest.approx(83 / 84, abs=1e-12)

    def test_flat_convention(self):
        ds, truth, _ = eight_instance_case()
        flat_labels = np.array([1, 1, 2, 2, 3, 3, 4, 4])
        scores = score_leaves(flat_labels, 0, {0: [1, 2, 3, 4]}, ds.labels, truth)
        assert scores["sp"] == pytest.approx(13 / 14, abs=1e-12)
        assert scores["ps"] == pytest.approx(17 / 21, abs=1e-12)

    def test_flat_hierarchy_uses_convention(self):
        ds, truth, _ = eight_instance_case()
        flat = manual_hierarchy(ds, {1: [[0, 1], [2, 3], [4, 5], [6, 7]]})
        scores = score_hierarchy(flat, ds, truth)
        assert scores["sp"] == pytest.approx(13 / 14, abs=1e-12)
        assert scores["ps"] == pytest.approx(17 / 21, abs=1e-12)

    def test_missing_labels_rejected(self):
        ds, truth, learned = eight_instance_case()
        unlabeled = Dataset(features=ds.features, ids=ds.ids)
        with pytest.raises(ValidationError):
            score_hierarchy(learned, unlabeled, truth)


class TestFlatClassTree:
    def test_structure(self):
        tree = flat_class_tree(["a", "b", "c"])
        assert sp(tree, "a", "a") == 1.0
        assert sp(tree, "a", "b") == 0.0
        assert ps(tree, "a", "b") == 0.5


def random_class_tree(rng, classes) -> ClassTree:
    """Random rooted tree over the given classes: each internal node splits
    its classes into 2 or 3 non-empty groups, so leaf depths vary."""
    children, leaf_classes = {}, {}
    counter = itertools.count()

    def grow(group):
        node = ("node", next(counter))
        if len(group) == 1:
            leaf_classes[node] = group[0]
            return node
        parts = int(rng.integers(2, min(3, len(group)) + 1))
        cuts = np.sort(rng.choice(np.arange(1, len(group)), size=parts - 1, replace=False))
        children[node] = [grow(part) for part in np.split(np.asarray(group, dtype=object), cuts)]
        return node

    root = grow(list(rng.permutation(np.asarray(classes, dtype=object))))
    return ClassTree(root=root, children=children, leaf_classes=leaf_classes)


def is_flat(tree: ClassTree) -> bool:
    """No child of the root has children of its own."""
    return not any(tree.children.get(kid) for kid in tree.children.get(tree.root, ()))


def numbered(tree: ClassTree):
    """tree's root and children map over integer node ids, and the leaf id of
    each of its classes."""
    number = {}
    def num(node):
        return number.setdefault(node, len(number))
    children = {num(node): [num(kid) for kid in kids] for node, kids in tree.children.items()}
    return num(tree.root), children, {c: num(node) for node, c in tree.leaf_classes.items()}


def check_against_exhaustive(rng, n, n_learned, n_truth):
    truth = random_class_tree(rng, [f"t{c}" for c in range(n_truth)])
    learned = random_class_tree(rng, list(range(n_learned)))
    labels = np.asarray(truth.class_ids, dtype=object)[rng.integers(0, n_truth, n)]
    truth_codes = np.asarray([truth.class_index(c) for c in labels])
    codes = rng.integers(0, n_learned, n)
    root, children, leaf_of_class = numbered(learned)
    leaf_ids = np.asarray([leaf_of_class[learned.class_ids[c]] for c in codes])
    flat_codes = rng.integers(0, n_learned, n) * 7 - 3  # arbitrary cluster labels
    flat_children = {"root": [c * 7 - 3 for c in range(n_learned)]}
    scores = score_leaves(leaf_ids, root, children, labels, truth)
    flat_scores = score_leaves(flat_codes, "root", flat_children, labels, truth)
    # a flat side, learned or true, takes the same-class/else-0 convention (None)
    for metric in ("sp", "ps"):
        table = None if is_flat(learned) else getattr(learned, f"{metric}_table")()
        truth_table = None if is_flat(truth) else getattr(truth, f"{metric}_table")()
        assert abs(scores[metric] - exhaustive_pair_score(codes, table, truth_codes, truth_table)) <= 1e-12
        assert abs(flat_scores[metric] - exhaustive_pair_score(flat_codes, None, truth_codes, truth_table)) <= 1e-12
    for got, cluster_codes in ((scores, codes), (flat_scores, flat_codes)):
        assert abs(got["rand_index"] - exhaustive_pair_score(cluster_codes, None, truth_codes, None)) <= 1e-12


class TestExactPairScore:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        check_against_exhaustive(rng, int(rng.integers(2, 80)), int(rng.integers(1, 9)), int(rng.integers(1, 9)))

    @pytest.mark.parametrize("n, n_learned, n_truth", [(2, 3, 4), (2, 1, 1), (40, 1, 5), (40, 6, 1)])
    def test_edge_shapes(self, n, n_learned, n_truth):
        check_against_exhaustive(np.random.default_rng(n * 100 + n_learned * 10 + n_truth), n, n_learned, n_truth)

    def test_memory_independent_of_n(self):
        rng = np.random.default_rng(0)
        n = 3000
        truth = balanced_tree()
        labels = np.asarray(truth.class_ids)[rng.integers(0, 4, n)]
        tree = {1: [2, 3], 2: [4, 5], 3: [6, 7]}
        flat = {1: [2, 3, 4, 5]}
        leaf_ids = rng.integers(4, 8, n)
        tracemalloc.start()
        try:
            tree_scores = score_leaves(leaf_ids, 1, tree, labels, truth)
            flat_scores = score_leaves(leaf_ids - 2, 1, flat, labels, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert 0.0 < tree_scores["sp"] < 1.0 and 0.0 < flat_scores["sp"] < 1.0


class TestScoreLeaves:
    def test_matches_score_hierarchy(self):
        ds, truth, learned = eight_instance_case()
        leaf_ids = [4, 4, 5, 4, 6, 6, 7, 7]
        children = {r["id"]: r["children"] for r in hierarchy_to_dict(learned)["nodes"] if r["children"]}
        scores = score_leaves(leaf_ids, 1, children, ds.labels, truth)
        assert scores == score_hierarchy(learned, ds, truth)
        assert scores["rand_index"] == rand_index(leaf_ids, ds.labels)

    def test_reloaded_hierarchy_scores_the_same(self, tmp_path):
        ds, truth, learned = eight_instance_case()
        expected = score_hierarchy(learned, ds, truth)
        # the loaders' ids, a library Dataset's string ids and permuted integer ids
        for ids in (np.arange(8), np.array([f"x{i}" for i in "hgfedcba"]), np.array([5, 2, 7, 0, 3, 6, 1, 4]) * 10):
            ds, truth, learned = eight_instance_case(ids=ids)
            path = str(tmp_path / "h.json")
            export_hierarchy(learned, path)
            for hierarchy in (learned, hierarchy_to_dict(learned), load_hierarchy_json(path)):
                assert score_hierarchy(hierarchy, ds, truth) == expected

    def test_labels_matched_by_string(self):
        truth = flat_class_tree(["0", "1"])
        leaf_ids, children = [2, 3, 3, 3], {1: [2, 3]}
        assert score_leaves(leaf_ids, 1, children, np.array([0, 0, 1, 1]), truth) == score_leaves(
            leaf_ids, 1, children, np.array(["0", "0", "1", "1"]), truth
        )

    def test_default_truth_is_flat_over_labels(self):
        labels = np.array([0, 0, 1, 1])
        assert score_leaves([2, 2, 3, 3], 1, {1: [2, 3]}, labels) == score_leaves(
            [2, 2, 3, 3], 1, {1: [2, 3]}, labels, flat_class_tree(["0", "1"])
        )

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            score_leaves([2, 3], 1, {1: [2, 3]}, np.array(["a", "zz"]), flat_class_tree(["a", "b"]))
