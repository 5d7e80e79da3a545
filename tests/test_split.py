import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margintree import RegularizerConfig, SolverConfig, rand_index
from margintree.core import EMPTY_CHAIN, NodeData, subset
from margintree.errors import UnsplittableNodeError
from margintree.objective import Regularizer, group_reg, hinge_loss
from margintree.split import _score, balance_bounds, init_assignment, split_node
from helpers import blob_dataset
from test_objective import chain_of, exclusive_terms


class TestBalanceBounds:
    def test_nominal_factors(self):
        b = balance_bounds(100, 2)
        assert (b.lower, b.upper) == (45, 55)

    def test_small_n(self):
        b = balance_bounds(3, 2)
        assert (b.lower, b.upper) == (1, 2)

    def test_degenerate_two(self):
        b = balance_bounds(2, 2)
        assert (b.lower, b.upper) == (0, 2)

    def test_unsplittable(self):
        with pytest.raises(UnsplittableNodeError):
            balance_bounds(1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5000), st.integers(2, 12))
    def test_always_feasible(self, n, k):
        if n < k:
            with pytest.raises(UnsplittableNodeError):
                balance_bounds(n, k)
            return
        b = balance_bounds(n, k)
        assert b.lower >= 0
        assert k * b.lower <= n <= k * b.upper


class TestInitAssignment:
    def test_separated_blobs_split_exactly(self):
        ds = blob_dataset(1, [[6.0, 0.0], [-6.0, 0.0]], per_blob=10, spread=0.4)
        labels = init_assignment(ds.features, 2, balance_bounds(20, 2), seed=0)
        assert rand_index(labels, ds.labels) == 1.0
        assert np.bincount(labels - 1).tolist() == [10, 10]

    def test_degenerate_points_balanced(self):
        from margintree import Dataset

        ds = Dataset(features=np.ones((20, 3)), ids=np.arange(20))
        labels = init_assignment(ds.features, 2, balance_bounds(20, 2), seed=0)
        sizes = np.bincount(labels - 1, minlength=2)
        assert sizes.min() >= 9 and sizes.max() <= 11

    def test_deterministic(self):
        ds = blob_dataset(2, [[3.0, 1.0], [-3.0, -1.0]], per_blob=12, spread=1.0)
        b = balance_bounds(24, 2)
        first = init_assignment(ds.features, 2, b, seed=5)
        second = init_assignment(ds.features, 2, b, seed=5)
        assert np.array_equal(first, second)


class TestSplitNode:
    def test_recovers_blobs(self):
        ds = blob_dataset(3, [[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0]], per_blob=15, spread=0.5)
        nd = subset(ds, np.arange(30))
        res = split_node(nd, EMPTY_CHAIN, 2, RegularizerConfig(1e-4, 1e-4), SolverConfig(), seed=0)
        assert rand_index(res.labels, ds.labels) == 1.0
        assert hinge_loss(res.models.weights, nd.features, res.labels) <= 1e-4

    def test_zero_alternations(self):
        ds = blob_dataset(4, [[4.0, 0.0], [-4.0, 0.0]], per_blob=8, spread=0.5)
        nd = subset(ds, np.arange(16))
        res = split_node(nd, EMPTY_CHAIN, 2, RegularizerConfig(0.01, 0.01), SolverConfig(), seed=0, max_alternations=0)
        init = init_assignment(nd.features, 2, balance_bounds(16, 2), seed=0)
        assert np.array_equal(res.labels, init)
        assert res.iterations == 0
        assert np.isfinite(res.objective)

    def test_monotone_trace_over_seeds(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            if trial % 2 == 0:
                ds = blob_dataset(trial, [[3.0, 0.0], [-3.0, 0.0]], per_blob=10, spread=1.0)
            else:
                from margintree import Dataset

                ds = Dataset(features=rng.normal(size=(20, 4)), ids=np.arange(20))
            nd = subset(ds, np.arange(20))
            res = split_node(nd, EMPTY_CHAIN, 2, RegularizerConfig(0.01, 0.01), SolverConfig(), seed=trial)
            assert res.iterations <= 50
            for a, b in zip(res.trace, res.trace[1:]):
                assert b <= a + 1e-8 * max(1.0, abs(a))

    def test_cluster_sizes_within_bounds(self):
        ds = blob_dataset(6, [[2.0, 0.0], [-2.0, 0.0]], per_blob=11, spread=1.5)
        nd = subset(ds, np.arange(22))
        res = split_node(nd, EMPTY_CHAIN, 2, RegularizerConfig(0.01, 0.01), SolverConfig(), seed=1)
        b = balance_bounds(22, 2)
        sizes = np.bincount(res.labels - 1, minlength=2)
        assert sizes.min() >= b.lower and sizes.max() <= b.upper

    def test_deterministic(self):
        ds = blob_dataset(7, [[2.0, 1.0], [-2.0, -1.0]], per_blob=10, spread=1.0)
        nd = subset(ds, np.arange(20))
        a = split_node(nd, EMPTY_CHAIN, 2, RegularizerConfig(0.01, 0.01), SolverConfig(), seed=9)
        b = split_node(nd, EMPTY_CHAIN, 2, RegularizerConfig(0.01, 0.01), SolverConfig(), seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.models.weights, b.models.weights)
        assert a.objective == b.objective

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_at_rounding_level_does_not_raise(self, seed):
        # the exclusive term is zero at the root, so separable data leave an
        # objective of about 0; the relative checks must not raise on it
        ds = blob_dataset(seed, [[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0]], per_blob=15, spread=0.5)
        nd = subset(ds, np.arange(30))
        reg = RegularizerConfig(0.01, 0.01, variant="exclusive_only")
        res = split_node(nd, EMPTY_CHAIN, 2, reg, SolverConfig(), seed=seed)
        assert 0.0 <= res.objective <= 1e-12
        assert rand_index(res.labels, ds.labels) == 1.0

    def test_reads_node_features_once(self, monkeypatch):
        from margintree import Dataset

        ds = Dataset(features=np.random.default_rng(3).normal(size=(20, 4)), ids=np.arange(20))
        nd = subset(ds, np.arange(20))
        reads = []
        original = NodeData.features

        def counting(node):
            reads.append(node)
            return original.fget(node)

        monkeypatch.setattr(NodeData, "features", property(counting))
        res = split_node(nd, EMPTY_CHAIN, 2, RegularizerConfig(0.01, 0.01), SolverConfig(), seed=3)
        assert res.iterations >= 1
        assert len(reads) == 1

    def test_too_small_node(self):
        ds = blob_dataset(8, [[0.0, 0.0]], per_blob=1)
        nd = subset(ds, [0])
        with pytest.raises(UnsplittableNodeError):
            split_node(nd, EMPTY_CHAIN, 2, RegularizerConfig(), SolverConfig(), seed=0)


class TestSplittingScore:
    def test_hand_value(self):
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert _score(w, np.array([1, 2]), x, Regularizer(RegularizerConfig(), EMPTY_CHAIN, 2, 2)) == pytest.approx(8.0)

    def test_zero_models_sentinel(self):
        regularizer = Regularizer(RegularizerConfig(), EMPTY_CHAIN, 2, 2)
        assert _score(np.zeros((2, 2)), np.array([1, 2, 1]), np.ones((3, 2)), regularizer) == float("-inf")

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 3))
        w = rng.normal(size=(2, 3))
        labels = rng.integers(1, 3, size=6)
        regularizer = Regularizer(RegularizerConfig(), EMPTY_CHAIN, 2, 3)
        s1 = _score(w, labels, x, regularizer)
        s2 = _score(3.0 * w, labels, x, regularizer)
        assert s1 == pytest.approx(s2, rel=1e-9)

    def test_equals_split_node_score_under_a_chain(self):
        ds = blob_dataset(10, [[3.0, 0.0, 1.0], [-3.0, 0.0, -1.0]], per_blob=12)
        nd = subset(ds, np.arange(ds.n))
        chain = chain_of([0.5, -1.0, 2.0], [1.0, 0.0, -0.5])
        reg = RegularizerConfig(alpha=0.05, beta=0.05)
        result = split_node(nd, chain, 2, reg, SolverConfig(), seed=0)
        w = result.models.weights
        numer = float((nd.features @ w.T)[np.arange(nd.size), result.labels - 1].sum())
        assert _score(w, result.labels, nd.features, Regularizer(reg, chain, *w.shape)) == result.score
        assert result.score == numer / (group_reg(w) + exclusive_terms(w, chain)[1])
