import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margintree.split
from margintree import Dataset, RegularizerConfig, SyntheticSpec, generate_synthetic, rand_index
from margintree.core import NodeData, ancestor_chain, subset
from margintree.errors import ConfigError, ValidationError
from margintree.hier import BuildConfig, StoppingCriterion, grow_tree, node_seed
from margintree.objective import VARIANTS, Regularizer, group_reg, hinge_loss
from margintree.split import _score, balance_bounds, init_assignment, score_bound, split_node
from helpers import blob_dataset, split_rows
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
        assert (b.lower, b.upper) == (1, 2)

    def test_unsplittable(self):
        with pytest.raises(ConfigError) as err:
            balance_bounds(1, 2)
        assert isinstance(err.value, ValidationError)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5000), st.integers(2, 12))
    def test_always_feasible(self, n, k):
        if n < k:
            with pytest.raises(ConfigError):
                balance_bounds(n, k)
            return
        b = balance_bounds(n, k)
        assert b.lower >= 1
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
        res = split_rows(nd.features, (), 2, RegularizerConfig(1e-4, 1e-4), seed=0)
        assert rand_index(res.labels, ds.labels) == 1.0
        assert hinge_loss(res.weights, nd.features, res.labels) <= 1e-4

    def test_zero_alternations(self, monkeypatch):
        monkeypatch.setattr(margintree.split, "MAX_ALTERNATIONS", 0)
        ds = blob_dataset(4, [[4.0, 0.0], [-4.0, 0.0]], per_blob=8, spread=0.5)
        nd = subset(ds, np.arange(16))
        res = split_rows(nd.features, (), 2, RegularizerConfig(0.01, 0.01), seed=0)
        init = init_assignment(nd.features, 2, balance_bounds(16, 2), seed=0)
        assert np.array_equal(res.labels, init)
        assert res.iterations == 0
        assert np.isfinite(res.trace[-1])

    def test_alternation_budget_caps_iterations(self, monkeypatch):
        ds = Dataset(features=np.random.default_rng(4).normal(size=(30, 4)), ids=np.arange(30))
        nd = subset(ds, np.arange(30))
        assert split_rows(nd.features, (), 2, RegularizerConfig(1.0, 1.0), seed=0).iterations > 1
        monkeypatch.setattr(margintree.split, "MAX_ALTERNATIONS", 1)
        res = split_rows(nd.features, (), 2, RegularizerConfig(1.0, 1.0), seed=0)
        assert res.iterations == 1 and len(res.trace) == 3
        assert np.isfinite(res.trace[-1])

    def test_monotone_trace_over_seeds(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            if trial % 2 == 0:
                ds = blob_dataset(trial, [[3.0, 0.0], [-3.0, 0.0]], per_blob=10, spread=1.0)
            else:
                from margintree import Dataset

                ds = Dataset(features=rng.normal(size=(20, 4)), ids=np.arange(20))
            nd = subset(ds, np.arange(20))
            res = split_rows(nd.features, (), 2, RegularizerConfig(0.01, 0.01), seed=trial)
            assert res.iterations <= 50
            for a, b in zip(res.trace, res.trace[1:]):
                assert b <= a + 1e-8 * max(1.0, abs(a))

    def test_cluster_sizes_within_bounds(self):
        ds = blob_dataset(6, [[2.0, 0.0], [-2.0, 0.0]], per_blob=11, spread=1.5)
        nd = subset(ds, np.arange(22))
        res = split_rows(nd.features, (), 2, RegularizerConfig(0.01, 0.01), seed=1)
        b = balance_bounds(22, 2)
        sizes = np.bincount(res.labels - 1, minlength=2)
        assert sizes.min() >= b.lower and sizes.max() <= b.upper

    def test_deterministic(self):
        ds = blob_dataset(7, [[2.0, 1.0], [-2.0, -1.0]], per_blob=10, spread=1.0)
        nd = subset(ds, np.arange(20))
        a = split_rows(nd.features, (), 2, RegularizerConfig(0.01, 0.01), seed=9)
        b = split_rows(nd.features, (), 2, RegularizerConfig(0.01, 0.01), seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.weights, b.weights)
        assert a.trace[-1] == b.trace[-1]

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_at_rounding_level_does_not_raise(self, seed):
        # the exclusive term is zero at the root, so separable data leave an
        # objective of about 0; the relative checks must not raise on it
        ds = blob_dataset(seed, [[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0]], per_blob=15, spread=0.5)
        nd = subset(ds, np.arange(30))
        reg = RegularizerConfig(0.01, 0.01, variant="exclusive_only")
        res = split_rows(nd.features, (), 2, reg, seed=seed)
        assert 0.0 <= res.trace[-1] <= 1e-12
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
        res = split_rows(nd.features, (), 2, RegularizerConfig(0.01, 0.01), seed=3)
        assert res.iterations >= 1
        assert len(reads) == 1

    def test_too_small_node(self):
        ds = blob_dataset(8, [[0.0, 0.0]], per_blob=1)
        nd = subset(ds, [0])
        with pytest.raises(ConfigError) as err:
            split_rows(nd.features, (), 2, RegularizerConfig(), seed=0)
        assert isinstance(err.value, ValidationError)
        with pytest.raises(ConfigError):
            score_bound(nd.features, Regularizer(RegularizerConfig(), (), 2, 2), 2)


class TestSplittingScore:
    def test_hand_value(self):
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert _score(w, np.array([1, 2]), x, Regularizer(RegularizerConfig(), (), 2, 2)) == pytest.approx(8.0)

    def test_zero_models_sentinel(self):
        regularizer = Regularizer(RegularizerConfig(), (), 2, 2)
        assert _score(np.zeros((2, 2)), np.array([1, 2, 1]), np.ones((3, 2)), regularizer) == float("-inf")

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 3))
        w = rng.normal(size=(2, 3))
        labels = rng.integers(1, 3, size=6)
        regularizer = Regularizer(RegularizerConfig(), (), 2, 3)
        s1 = _score(w, labels, x, regularizer)
        s2 = _score(3.0 * w, labels, x, regularizer)
        assert s1 == pytest.approx(s2, rel=1e-9)

    def test_equals_split_node_score_under_a_chain(self):
        ds = blob_dataset(10, [[3.0, 0.0, 1.0], [-3.0, 0.0, -1.0]], per_blob=12)
        nd = subset(ds, np.arange(ds.n))
        chain = chain_of([0.5, -1.0, 2.0], [1.0, 0.0, -0.5])
        reg = RegularizerConfig(alpha=0.05, beta=0.05)
        result = split_rows(nd.features, chain, 2, reg, seed=0)
        w = result.weights
        numer = float((nd.features @ w.T)[np.arange(nd.size), result.labels - 1].sum())
        assert _score(w, result.labels, nd.features, Regularizer(reg, chain, *w.shape)) == result.score
        assert result.score == numer / (group_reg(w) + exclusive_terms(w, chain)[1])


def balanced_sizes(n, k, rng):
    """Cluster sizes within the balance bounds: at K = 2 every |C_1|; at K >= 3
    the remainder over L spread evenly, piled on the first clusters (cluster 1
    at U where the others leave room) and spread at random."""
    bounds = balance_bounds(n, k)
    if k == 2:
        yield from ([size, n - size] for size in range(bounds.lower, bounds.upper + 1))
        return
    extra = n - k * bounds.lower
    even = [bounds.lower + extra // k + (c < extra % k) for c in range(k)]
    room = bounds.upper - bounds.lower
    piled = [bounds.lower + min(room, max(extra - c * room, 0)) for c in range(k)]
    spread = [bounds.lower] * k
    for _ in range(extra):
        spread[rng.choice([c for c in range(k) if spread[c] < bounds.upper])] += 1
    yield from (even, piled, spread)


def balanced_labelings(x, k, rng):
    """Labelings for cluster sizes within the balance bounds: for each, a
    random one, and for each column the sorted (adversarial) ones that put its
    largest or its smallest entries in cluster 1, the next in cluster 2, and
    so on."""
    n, p = x.shape
    for sizes in balanced_sizes(n, k, rng):
        assert sum(sizes) == n
        for order in [rng.permutation(n)] + [np.argsort(-x[:, col], kind="stable") for col in range(p)] + [
            np.argsort(x[:, col], kind="stable") for col in range(p)
        ]:
            labels = np.empty(n, dtype=np.int64)
            labels[order] = np.repeat(np.arange(1, k + 1), sizes)
            yield labels


def antisymmetric_weights(p, rng):
    """w = (v, -v): random dense and sparse v, and each signed unit vector,
    at which the bound is tight for a sorted labeling."""
    vs = [rng.normal(size=p), rng.normal(size=p) * (rng.random(p) < 0.3)]
    for col in range(p):
        for sign in (1.0, -1.0):
            v = np.zeros(p)
            v[col] = sign * rng.uniform(0.1, 10.0)
            vs.append(v)
    return [np.stack((v, -v)) for v in vs if v.any()]


def general_weights(x, labels, k, rng):
    """K x P weights: random dense and sparse ones, each signed unit vector
    of cluster 1, and for each column the clusters' sums of that column S_p
    alone, the weights that score highest under the labeling on one column."""
    p = x.shape[1]
    ws = [rng.normal(size=(k, p)), rng.normal(size=(k, p)) * (rng.random((k, p)) < 0.3)]
    for col in range(p):
        for sign in (1.0, -1.0):
            w = np.zeros((k, p))
            w[0, col] = sign * rng.uniform(0.1, 10.0)
            ws.append(w)
        w = np.zeros((k, p))
        w[:, col] = np.bincount(labels - 1, weights=x[:, col], minlength=k)
        ws.append(w)
    return [w for w in ws if w.any()]


CHAINS = {"root": (), "two_ancestors": chain_of([0.5, -1.0, 0.0, 2.0], [1.0, 0.0, -0.25, 0.3])}


class TestScoreBound:
    """_score <= score_bound for every labeling within the balance bounds and
    the weights split_node can return (antisymmetric at K = 2, any at K >= 3),
    the computed values included."""

    @staticmethod
    def check(x, chain, reg, rng, k=2):
        regularizer = Regularizer(reg, chain, k, x.shape[1])
        bound = score_bound(x, regularizer, k)
        ws = antisymmetric_weights(x.shape[1], rng) if k == 2 else None
        tightest = 0.0
        for labels in balanced_labelings(x, k, rng):
            for w in ws or general_weights(x, labels, k, rng):
                score = _score(w, labels, x, regularizer)
                assert score <= bound
                tightest = max(tightest, score)
        return bound, tightest

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e7])
    def test_random_and_sorted_labelings(self, k, chain, variant, scale):
        rng = np.random.default_rng(7)
        for n in sorted({k, k + 1, 9, 40}):
            x = scale * (rng.normal(size=(n, 4)) + rng.normal(size=4))
            bound, tightest = self.check(x, CHAINS[chain], RegularizerConfig(0.01, 0.01, variant), rng, k)
            # at K = 2 a unit vector on the bound's column with the sorted labeling
            # at the size that attains it reaches the bound up to rounding; at K >= 3
            # the column's sums S_p on the piled sorted labeling come within 2x of it
            assert tightest >= bound * (1.0 - 1e-9) / (1.0 if k == 2 else 2.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e7])
    def test_duplicate_and_identical_rows(self, k, chain, scale):
        rng = np.random.default_rng(11)
        rows = scale * rng.normal(size=(6, 4))
        duplicates = np.vstack([rows, rows])
        regularizer = Regularizer(RegularizerConfig(), CHAINS[chain], k, 4)
        bound = score_bound(duplicates, regularizer, k)
        # each row and its copy in different clusters: at K = 2 d = 0, the score is rounding
        labels = np.concatenate([np.arange(6) % k + 1, (np.arange(6) + 1) % k + 1])
        for w in antisymmetric_weights(4, rng) if k == 2 else general_weights(duplicates, labels, k, rng):
            assert abs(_score(w, labels, duplicates, regularizer)) <= bound
        self.check(duplicates, CHAINS[chain], RegularizerConfig(), rng, k)
        # identical rows: at K = 2 the balanced labeling at n/2 has d = 0 exactly,
        # and the unit vectors reach the bound at the bounds' sizes
        identical = np.tile(scale * rng.normal(size=4), (12, 1))
        bound, tightest = self.check(identical, CHAINS[chain], RegularizerConfig(), rng, k)
        assert tightest >= bound * (1.0 - 1e-9) / (1.0 if k == 2 else 2.0)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e7])
    def test_column_within_one_cluster_attains_the_bound(self, k, chain, scale):
        # U positive entries in a column, the rest 0: the sorted labeling puts them in
        # cluster 1, so S_p = t_p e_1 and t_p = A_p, and a unit weight on them scores
        # the bound up to rounding, which only the rounding allowance covers (at n = K
        # every cluster holds one row, fewer than U)
        rng = np.random.default_rng(5)
        for n in (k + 1, 9, 40):
            upper = balance_bounds(n, k).upper
            for _ in range(5):
                x = scale * 1e-6 * rng.normal(size=(n, 4))
                x[:, 0] = 0.0
                x[rng.choice(n, upper, replace=False), 0] = scale * rng.uniform(1.0, 2.0, size=upper)
                bound, tightest = self.check(x, CHAINS[chain], RegularizerConfig(), rng, k)
                assert tightest >= bound * (1.0 - 1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_zero_rows_bound_only_the_rounding(self, k):
        x = np.zeros((6, 3))
        assert score_bound(x, Regularizer(RegularizerConfig(), (), k, 3), k) == 0.0
        x[0, 0] = 1e-300
        assert 0.0 < score_bound(x, Regularizer(RegularizerConfig(), (), k, 3), k) < 1e-290

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_overflowing_column_is_no_bound(self, k):
        # the column sums overflow: inf - inf at K = 2, inf at K >= 3; an
        # infinite bound keeps the leaf evaluated
        x = np.array([[1e308], [1e308], [-1e308], [-1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert score_bound(x, Regularizer(RegularizerConfig(), (), k, 1), k) == float("inf")

    SHAPES = {"planted-small": (2, 50), "planted-large": (2, 400), "planted-wide": (4, 50)}

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_split_of_a_build(self, shape, k):
        # every leaf's candidate, the ones a bounded build skips included
        branching, per_class = self.SHAPES[shape]
        ds, _ = generate_synthetic(SyntheticSpec(branching=branching, per_class=per_class, seed=1))
        config = BuildConfig(k=k, stop=StoppingCriterion(max_leaves=3 * k - 1), reg=RegularizerConfig())
        checked = []

        def candidate(hierarchy, leaf):
            x = leaf.data.features
            regularizer = Regularizer(config.reg, ancestor_chain(hierarchy, leaf.id), k, x.shape[1])

            def split():
                result = split_node(x, regularizer, k, node_seed(config.seed, leaf.id))
                assert result.score <= score_bound(x, regularizer, k)
                checked.append(leaf.id)
                return result

            return math.inf, split

        grow_tree(ds, k, config.stop, candidate)
        # four rounds, each evaluating the K children of the last
        assert len(checked) == 1 + 3 * k
