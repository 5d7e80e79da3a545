import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margintree import (
    ClusterModels,
    Regularizer,
    RegularizerConfig,
    SolverConfig,
    SyntheticSpec,
    generate_synthetic,
    hinge_loss,
    node_objective,
    prox_group,
    prox_sparse_group,
    prox_weighted_l1,
    solve_w,
    subset,
)
from margintree.optim import make_prox_spec, prox_jacobian
from margintree.core import EMPTY_CHAIN
from margintree.objective import VARIANTS
import margintree.objective
from helpers import blob_dataset
from test_objective import chain_of
from oracles import (
    finite_difference_grad,
    gradient_descent_smooth_oracle,
    prox_objective,
    prox_optimality_residual,
    reference_prox_group,
    reference_prox_sparse_group,
    reference_solve_w,
    subgradient_prox_oracle,
    weight_update_residual,
)


class TestProxWeightedL1:
    def test_below_threshold(self):
        assert prox_weighted_l1(np.array([[0.5]]), 1.0) == 0.0

    def test_shrinks_both_signs(self):
        out = prox_weighted_l1(np.array([[3.0, -3.0]]), 1.0)
        assert np.allclose(out, [[2.0, -2.0]])

    def test_zero_threshold_identity(self):
        w = np.random.default_rng(0).normal(size=(3, 4))
        assert np.array_equal(prox_weighted_l1(w, 0.0), w)

    def test_per_feature_thresholds(self):
        w = np.array([[2.0, 2.0], [2.0, 2.0]])
        out = prox_weighted_l1(w, np.array([0.5, 3.0]))
        assert np.allclose(out, [[1.5, 0.0], [1.5, 0.0]])


class TestProxGroup:
    def test_hand_column(self):
        out = prox_group(np.array([[3.0], [4.0]]), 1.0)
        assert np.allclose(out, [[2.4], [3.2]])

    def test_small_column_zeroed(self):
        out = prox_group(np.array([[0.3], [0.4]]), 1.0)
        assert np.array_equal(out, [[0.0], [0.0]])

    def test_zero_threshold_identity(self):
        w = np.random.default_rng(1).normal(size=(2, 5))
        assert np.array_equal(prox_group(w, 0.0), w)

    def test_zero_column_stays_zero(self):
        w = np.zeros((3, 2))
        w[:, 1] = [1.0, 2.0, 2.0]
        out = prox_group(w, 0.5)
        assert np.array_equal(out[:, 0], np.zeros(3))

    @pytest.mark.parametrize("t", [0.0, 0.5, 10.0])
    def test_zero_columns_raise_no_float_warning(self, t):
        w = np.zeros((3, 4))
        w[:, 2] = [1.0, 2.0, 2.0]
        with np.errstate(all="raise"):
            out = prox_group(w, t)
        assert np.array_equal(out[:, [0, 1, 3]], np.zeros((3, 3)))
        assert np.allclose(out[:, 2], w[:, 2] * max(3.0 - t, 0.0) / 3.0)


def random_prox_instance(rng):
    k = int(rng.integers(2, 5))
    p = int(rng.integers(2, 9))
    w = rng.normal(size=(k, p)) * rng.uniform(0.5, 2.0)
    alpha = float(rng.uniform(0.0, 2.0))
    beta = float(rng.uniform(0.0, 2.0))
    lam_e = rng.uniform(0.0, 1.0, size=p)
    s = float(rng.uniform(0.05, 2.0))
    return w, alpha, beta, lam_e, s


def spec_for(alpha, beta, lam_e, k, p):
    chain = chain_of(lam_e * (k * 1 * p))  # ancestor row chosen so lambda_e reproduces exactly
    reg = RegularizerConfig(alpha=alpha, beta=beta, variant="sparse_group")
    return make_prox_spec(reg, chain, k, p)


class TestProxSparseGroup:
    def test_zero_thresholds_identity(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        spec = spec_for(0.0, 0.0, np.zeros(4), 3, 4)
        assert np.allclose(prox_sparse_group(w, spec, 1.0), w)

    def test_lambda_e_reconstruction(self):
        # the helper chain must reproduce the requested lambda_e exactly
        rng = np.random.default_rng(3)
        lam_e = rng.uniform(0, 1, size=6)
        spec = spec_for(1.0, 1.0, lam_e, 2, 6)
        assert np.allclose(spec.l1_thresholds, lam_e)

    def test_two_step_composition_on_2x2(self):
        w = np.array([[10.0, 0.1], [10.0, 0.1]])
        spec = spec_for(60.0, 0.0, np.zeros(2), 2, 2)  # group threshold = 60/(2*2) = 15
        out = prox_sparse_group(w, spec, 1.0)
        # column norms: ~14.14 and ~0.14, both below 15 -> all zero
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_matches_subgradient_descent(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            w, alpha, beta, lam_e, s = random_prox_instance(rng)
            k, p = w.shape
            spec = spec_for(alpha, beta, lam_e, k, p)
            ours = prox_sparse_group(w, spec, s)
            _, oracle_val = subgradient_prox_oracle(w, s, alpha, beta, lam_e, iters=8000)
            assert prox_objective(ours, w, s, alpha, beta, lam_e) <= oracle_val + 1e-6

    def test_optimality_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            w, alpha, beta, lam_e, s = random_prox_instance(rng)
            k, p = w.shape
            spec = spec_for(alpha, beta, lam_e, k, p)
            ours = prox_sparse_group(w, spec, s)
            assert prox_optimality_residual(ours, w, s, alpha, beta, lam_e) <= 1e-6

    def test_squared_l2_closed_form(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(2, 3))
        reg = RegularizerConfig(alpha=1.5, beta=0.0, variant="squared_l2")
        spec = make_prox_spec(reg, EMPTY_CHAIN, 2, 3)
        out = prox_sparse_group(w, spec, 2.0)
        assert np.allclose(out, w / (1.0 + 2.0 * 2.0 * 1.5 / 6.0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_nonexpansive(self, seed):
        rng = np.random.default_rng(seed)
        k, p = int(rng.integers(2, 4)), int(rng.integers(1, 6))
        spec = spec_for(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)), rng.uniform(0, 1, p), k, p)
        a = rng.normal(size=(k, p))
        b = rng.normal(size=(k, p))
        s = float(rng.uniform(0.01, 3.0))
        pa = prox_sparse_group(a, spec, s)
        pb = prox_sparse_group(b, spec, s)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestProxJacobian:
    @staticmethod
    def away_from_thresholds(rng, spec, s, k, p, gap=1e-3):
        """K x P point whose entries and soft-thresholded column norms are
        at least gap from the l1 and group thresholds."""
        while True:
            w = rng.normal(size=(k, p)) * 0.5
            soft = np.abs(w) - s * spec.l1_thresholds
            norms = np.sqrt((np.maximum(soft, 0.0) ** 2).sum(axis=0))
            if np.abs(soft).min() > gap and np.abs(norms - s * spec.group_threshold).min() > gap:
                return w

    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_central_differences(self, variant, chain_name):
        rng = np.random.default_rng(23)
        k, p = 3, 5
        chain = EMPTY_CHAIN if chain_name == "root" else chain_of(rng.uniform(0, 2, p), rng.uniform(0, 2, p))
        spec = Regularizer(RegularizerConfig(alpha=2.0, beta=3.0, variant=variant), chain, k, p).prox_spec
        for s in (0.5, 2.0):
            w = self.away_from_thresholds(rng, spec, s, k, p)
            blocks = prox_jacobian(w, spec, s)
            for entry in np.ndindex(w.shape):
                numeric = finite_difference_grad(lambda m: prox_sparse_group(m, spec, s)[entry], w, h=1e-6)
                expected = np.zeros((k, p))
                expected[:, entry[1]] = blocks[entry[1], entry[0]]
                assert np.abs(numeric - expected).max() <= 1e-6

    def test_zero_block_inside_group_threshold(self):
        spec = spec_for(60.0, 0.0, np.zeros(2), 2, 2)  # group threshold 15
        w = np.array([[10.0, 0.1], [10.0, 0.1]])
        assert np.array_equal(prox_jacobian(w, spec, 1.0), np.zeros((2, 2, 2)))


class TestSolveW:
    def separable_node(self):
        ds = blob_dataset(0, [[5.0, 0.0], [-5.0, 0.0]], per_blob=10, spread=0.3)
        nd = subset(ds, np.arange(ds.n))
        labels = np.repeat([1, 2], 10)
        return nd, labels

    def test_separable_drives_loss_to_zero(self):
        nd, labels = self.separable_node()
        reg = RegularizerConfig(alpha=0.0, beta=0.0)
        w = solve_w(nd, labels, EMPTY_CHAIN, reg, SolverConfig(), ClusterModels(np.zeros((2, 2))))
        assert hinge_loss(w, nd, labels) <= 1e-6

    def test_huge_alpha_returns_zero(self):
        nd, labels = self.separable_node()
        reg = RegularizerConfig(alpha=1e6, beta=0.0)
        w = solve_w(nd, labels, EMPTY_CHAIN, reg, SolverConfig(), ClusterModels(np.zeros((2, 2))))
        assert np.array_equal(w.weights, np.zeros((2, 2)))

    def test_final_objective_not_above_start(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, p = 15, 4
            ds = blob_dataset(int(rng.integers(1e6)), [[1.0] * p, [-1.0] * p], per_blob=n // 2 + 1, spread=1.0)
            nd = subset(ds, np.arange(ds.n))
            labels = rng.integers(1, 3, size=ds.n)
            reg = RegularizerConfig(alpha=0.1, beta=0.1)
            w0 = ClusterModels(rng.normal(size=(2, p)))
            w = solve_w(nd, labels, EMPTY_CHAIN, reg, SolverConfig(), w0)
            before = node_objective(w0, labels, EMPTY_CHAIN, nd, reg)
            after = node_objective(w, labels, EMPTY_CHAIN, nd, reg)
            assert after <= before + 1e-12

    def test_squared_l2_matches_gd_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(8, 21))
            p = int(rng.integers(2, 9))
            x = rng.normal(size=(n, p))
            labels = rng.integers(1, 3, size=n)
            alpha = float(rng.uniform(0.05, 0.5))
            from margintree import Dataset

            nd = subset(Dataset(features=x, ids=np.arange(n)), np.arange(n))
            reg = RegularizerConfig(alpha=alpha, beta=0.0, variant="squared_l2")
            w = solve_w(nd, labels, EMPTY_CHAIN, reg, SolverConfig(), ClusterModels(np.zeros((2, p))))
            ours = node_objective(w, labels, EMPTY_CHAIN, nd, reg)
            oracle = gradient_descent_smooth_oracle(x, labels, alpha, 2)
            assert ours <= oracle * (1 + 1e-4) + 1e-10

    def test_lambda_e_computed_once_per_call(self, monkeypatch):
        nd, labels = self.separable_node()
        calls = []
        original = margintree.objective.exclusive_weights

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(margintree.objective, "exclusive_weights", counting)
        chain = chain_of([1.0, 0.5], [0.2, 2.0])
        reg = RegularizerConfig(alpha=0.05, beta=0.05)
        solve_w(nd, labels, chain, reg, SolverConfig(), ClusterModels(np.zeros((2, 2))))
        assert len(calls) == 1

    def test_features_array_same_iterates_as_node(self):
        rng = np.random.default_rng(9)
        nd, _ = self.separable_node()
        labels = rng.integers(1, 3, size=nd.size)
        chain = chain_of([1.0, 0.5])
        reg = RegularizerConfig(alpha=0.05, beta=0.05)
        w0 = ClusterModels(rng.normal(size=(2, 2)))
        from_node = solve_w(nd, labels, chain, reg, SolverConfig(), w0)
        from_array = solve_w(nd.features, labels, chain, reg, SolverConfig(), w0)
        assert np.array_equal(from_node.weights, from_array.weights)

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3, 1e7])
    def test_converges_at_any_feature_magnitude(self, magnitude):
        nd, labels = self.separable_node()
        x = nd.features * magnitude
        reg = RegularizerConfig(alpha=0.01, beta=0.0)
        w = solve_w(x, labels, EMPTY_CHAIN, reg, SolverConfig(), ClusterModels(np.zeros((2, 2))))
        assert np.any(w.weights != 0.0)
        assert weight_update_residual(w.weights, x, labels, EMPTY_CHAIN, reg) <= 1e-5

    def test_zero_gradient_at_zero_returns_zero(self):
        # identical rows, balanced labels: the hinge gradient at w = 0 vanishes, so w = 0 is optimal
        x = np.ones((4, 3))
        labels = np.array([1, 2, 1, 2])
        w0 = ClusterModels(np.arange(6.0).reshape(2, 3))
        w = solve_w(x, labels, EMPTY_CHAIN, RegularizerConfig(), SolverConfig(), w0)
        assert np.array_equal(w.weights, np.zeros((2, 3)))


def signed_zero_weights():
    """K x P weights with +0.0 and -0.0 entries, an all +0.0 and an all -0.0
    column, and small entries of both signs below the l1 threshold."""
    w = np.array(
        [
            [0.0, -0.0, 0.0, -0.0, 0.01, -0.01, 2.0, -1.5],
            [0.0, -0.0, -0.0, 0.0, -0.02, 0.003, 0.0, -0.0],
            [0.0, -0.0, 0.0, 0.0, 0.005, -0.004, -3.0, 0.7],
        ]
    )
    assert np.signbit(w[:, 1]).all() and not np.signbit(w[:, 0]).any()
    return w


def assert_same_bits(ours, reference):
    assert np.array_equal(ours, reference)
    assert np.array_equal(np.signbit(ours), np.signbit(reference))


class TestProxSignedZeros:
    """The prox keeps the float operations of its np.linalg.norm-based
    formula: same values and the same sign of every zero, and no
    floating-point warning on zero columns."""

    @pytest.mark.parametrize("t", [0.0, 0.005, 0.5, 10.0])
    def test_prox_group(self, t):
        w = signed_zero_weights()
        with np.errstate(all="raise"):
            assert_same_bits(prox_group(w, t), reference_prox_group(w, t))

    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_prox_sparse_group(self, variant, chain_name):
        w = signed_zero_weights()
        k, p = w.shape
        chain = EMPTY_CHAIN if chain_name == "root" else chain_of(np.linspace(-2.0, 2.0, p), np.ones(p))
        reg = RegularizerConfig(alpha=0.5, beta=2.0, variant=variant)
        spec = Regularizer(reg, chain, k, p).prox_spec
        for s in (0.01, 0.3, 1.0, 4.0):
            with np.errstate(all="raise"):
                assert_same_bits(prox_sparse_group(w, spec, s), reference_prox_sparse_group(w, spec, s))


def planted_node(k):
    """40 planted rows (4 classes, 20 features), labelled by the planted
    top-level branch for K=2 and by class for K=4."""
    ds, _ = generate_synthetic(SyntheticSpec(per_class=10, seed=3))
    labels = ds.labels // 2 + 1 if k == 2 else ds.labels + 1
    return subset(ds, np.arange(ds.n)), labels, ds.p


class TestWeightUpdateOptimality:
    """solve_w reaches the minimizer of the split objective: its objective is
    no higher than the earlier proximal L-BFGS solver's under each of that
    solver's settings, and its optimality residual is at rounding level."""

    @staticmethod
    def chain(name, p):
        if name == "root":
            return EMPTY_CHAIN
        rng = np.random.default_rng(21)
        return chain_of(rng.normal(size=p), rng.normal(size=p))

    @staticmethod
    def check(nd, labels, chain, reg, w0, ours, reference):
        def objective(w):
            return node_objective(w, labels, chain, nd, reg)

        assert objective(ours) <= objective(reference) + 1e-9 * objective(w0)
        assert weight_update_residual(ours.weights, nd.features, labels, chain, reg) <= 1e-5

    @pytest.mark.parametrize("shrink", [0.5, 0.3])
    @pytest.mark.parametrize("memory", [0, 10])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_optimal(self, variant, chain_name, k, memory, shrink):
        nd, labels, p = planted_node(k)
        chain = self.chain(chain_name, p)
        reg = RegularizerConfig(alpha=0.01, beta=0.01, variant=variant)
        w0 = ClusterModels(np.zeros((k, p)))
        ours = solve_w(nd, labels, chain, reg, SolverConfig(line_search_shrink=shrink), w0)
        reference = reference_solve_w(nd, labels, chain, reg, w0, memory=memory, shrink=shrink, max_outer_iters=30)
        self.check(nd, labels, chain, reg, w0, ours, reference)

    def test_optimal_from_warm_start(self):
        rng = np.random.default_rng(22)
        nd, labels, p = planted_node(2)
        chain = self.chain("two_ancestors", p)
        reg = RegularizerConfig(alpha=0.05, beta=0.02)
        w0 = ClusterModels(rng.normal(size=(2, p)))
        ours = solve_w(nd, labels, chain, reg, SolverConfig(), w0)
        self.check(nd, labels, chain, reg, w0, ours, reference_solve_w(nd, labels, chain, reg, w0))
