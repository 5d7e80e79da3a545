import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margintree import Dataset, ValidationError
from margintree.core import ancestor_chain, distinct, subset
from margintree.errors import StructureError
from margintree.export import hierarchy_to_dict
from margintree.metrics import leaf_of
from helpers import blob_dataset, manual_hierarchy


def small_dataset(n=4, p=2):
    return Dataset(features=np.arange(n * p, dtype=float).reshape(n, p), ids=np.arange(n))


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Dataset(features=np.array([[1.0, np.nan]]), ids=np.array([0]))

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            Dataset(features=np.array([[1.0, np.inf]]), ids=np.array([0]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            Dataset(features=np.ones((2, 1)), ids=np.array([3, 3]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Dataset(features=np.ones((0, 2)), ids=np.array([]))


class TestDistinct:
    """core.distinct is np.unique(values) on every input its callers give it."""

    CASES = {
        "ints": np.array([3, 1, 2, 3, 1, -7]),
        "permuted ids": np.random.default_rng(0).permutation(50),
        "labels 1..K": np.array([[2, 1], [2, 2]]),
        "floats": np.array([0.5, 1.0, 0.0, 0.5, 1.0 / 3.0]),
        "NaNs": np.array([np.nan, 1.0, np.nan, 0.0, 1.0, np.nan]),
        "only NaN": np.array([np.nan, np.nan]),
        "complex NaNs": np.array([complex(np.nan, 0), 1j, complex(0, np.nan), 1j]),
        "NaT": np.array(["NaT", "2020-01-01", "NaT", "2019-01-01"], dtype="datetime64[D]"),
        "strings": np.array(["b", "a", "10", "b", "a"]),
        "object strings": np.array(["b", "a", "b"], dtype=object),
        "object ints": np.array([3, 1, 3], dtype=object),
        "empty floats": np.array([]),
        "empty ints": np.array([], dtype=np.int64),
        "empty strings": np.array([], dtype=str),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_np_unique(self, name):
        values = self.CASES[name]
        ours, theirs = distinct(values), np.unique(values)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tolist() == theirs.tolist() or np.array_equal(ours, theirs, equal_nan=True)

    def test_mixed_object_types_raise(self):
        values = np.array([1, "a", 2], dtype=object)
        with pytest.raises(TypeError):
            np.unique(values)
        with pytest.raises(TypeError):
            distinct(values)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, -2.5, 1e300, np.nan, np.inf, -np.inf]), max_size=12))
    def test_random_floats(self, values):
        values = np.asarray(values, dtype=float)
        assert np.array_equal(distinct(values), np.unique(values), equal_nan=True)


class TestSubset:
    def test_selects_rows(self):
        nd = subset(small_dataset(), [0, 2])
        assert nd.size == 2
        assert np.array_equal(nd.features, small_dataset().features[[0, 2]])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValidationError):
            subset(small_dataset(), [0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            subset(small_dataset(), [0, 4])

    def test_identity_subset(self):
        ds = small_dataset()
        nd = subset(ds, [0, 1, 2, 3])
        assert np.array_equal(nd.features, ds.features)
        assert np.array_equal(nd.ids, ds.ids)


class TestAncestorChain:
    def make_two_level(self):
        ds = blob_dataset(0, [[0, 0]], per_blob=8)
        return manual_hierarchy(ds, {1: [[0, 1, 2, 3], [4, 5, 6, 7]], 2: [[0, 1], [2, 3]]})

    def test_root_chain_empty(self):
        h = self.make_two_level()
        assert len(ancestor_chain(h, 1)) == 0

    def test_depth_two_chain(self):
        h = self.make_two_level()
        # distinct weights at the two ancestors, so a reversed chain or one
        # read from the wrong ancestor fails
        h.nodes[2].split = dataclasses.replace(h.nodes[2].split, weights=2 * np.eye(2))
        # node 4 is the first child of node 2, which is the first child of root
        chain = ancestor_chain(h, 4)
        assert len(chain) == 2
        assert np.shares_memory(chain[0], h.nodes[1].split.weights)
        assert np.shares_memory(chain[1], h.nodes[2].split.weights)
        assert np.array_equal(chain[0], [1, 0]) and np.array_equal(chain[1], [2, 0])

    def test_chosen_child_tracks_route(self):
        h = self.make_two_level()
        chain = ancestor_chain(h, 3)  # second child of root
        assert len(chain) == 1
        assert np.array_equal(chain[0], h.nodes[1].split.weights[1])
        assert not np.array_equal(chain[0], h.nodes[1].split.weights[0])

    def test_chain_length_equals_depth(self):
        h = self.make_two_level()
        for node in h.nodes.values():
            assert len(ancestor_chain(h, node.id)) == node.depth

    def test_unknown_node(self):
        h = self.make_two_level()
        with pytest.raises(StructureError):
            ancestor_chain(h, 99)

    def test_missing_models(self):
        h = self.make_two_level()
        h.nodes[1].split = None
        with pytest.raises(StructureError):
            ancestor_chain(h, 2)


class TestLeafPartition:
    def test_single_node(self):
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=5)
        from margintree import Hierarchy

        h = Hierarchy.with_root(ds)
        part = leaf_of(hierarchy_to_dict(h), ds.ids)
        assert part.tolist() == [1] * 5

    def test_binary_split(self):
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=4)
        h = manual_hierarchy(ds, {1: [[0, 1], [2, 3]]})
        part = leaf_of(hierarchy_to_dict(h), ds.ids)
        assert part[0] == part[1] == 2
        assert part[2] == part[3] == 3

    def test_two_splits_partition(self):
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=8)
        h = manual_hierarchy(ds, {1: [[0, 1, 2, 3], [4, 5, 6, 7]], 2: [[0, 1], [2, 3]]})
        payload = hierarchy_to_dict(h)
        part = leaf_of(payload, ds.ids)
        leaves = {n.id for n in h.leaves()}
        assert set(part.tolist()) <= leaves
        assert len(part) == 8
        member_sets = [set(n.data.ids.tolist()) for n in h.leaves()]
        assert sum(len(s) for s in member_sets) == 8
        union = set().union(*member_sets)
        assert union == set(range(8))
        # hand-broken payloads: an id the input lacks, an id in two leaves, an id in no leaf
        damages = [
            (lambda first, second: first["members"].append(99), "instance 99 of the hierarchy's leaves is not in the input"),
            (lambda first, second: second["members"].append(4), "instance 4 is in more than one leaf"),
            (lambda first, second: first["members"].remove(5), "instance 5 missing from the hierarchy's leaves"),
        ]
        for damage, message in damages:
            broken = copy.deepcopy(payload)
            damage(*[record for record in broken["nodes"] if not record["children"]][:2])  # leaves 3 and 4
            with pytest.raises(ValidationError, match=message):
                leaf_of(broken, ds.ids)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(1, 5), st.data())
def test_subset_size_matches_indices(n, p, data):
    ds = Dataset(features=np.zeros((n, p)), ids=np.arange(n))
    k = data.draw(st.integers(1, n))
    idx = data.draw(st.permutations(range(n))).copy()[:k]
    nd = subset(ds, idx)
    assert nd.size == k
    assert np.array_equal(nd.ids, np.asarray(idx))
