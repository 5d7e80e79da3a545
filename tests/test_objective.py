import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margintree import RegularizerConfig, ValidationError
from margintree.objective import (
    VARIANTS,
    Regularizer,
    cost_matrix,
    exclusive_weights,
    group_reg,
    hinge_grad,
    hinge_loss,
    label_margins,
    margin_adjoint,
    node_objective,
    regularizer_value,
)
from margintree.optim import MarginMap
from helpers import random_problem
from oracles import (
    _regularizer_terms,
    finite_difference_grad,
    hinge_grad_loops,
    hinge_hessian_loops,
    hinge_loss_loops,
    margin_map_loops,
    reference_regularizer_value,
)


def chain_of(*ancestor_rows):
    """The chain of ancestor rows taken on the path, as core.ancestor_chain returns it."""
    return tuple(np.asarray(row, dtype=float) for row in ancestor_rows)


EXCLUSIVE = RegularizerConfig(alpha=0.0, beta=1.0, variant="exclusive_only")


def exclusive_terms(w, chain):
    """E(w) against the chain from the split's Regularizer (the exclusive_only
    term at beta = 1) and from the reference regularizer value."""
    k, p = w.shape
    return (
        Regularizer(EXCLUSIVE, chain, k, p).value(w),
        reference_regularizer_value(w, EXCLUSIVE, exclusive_weights(chain, k, p), len(chain) > 0),
    )


class TestCostMatrix:
    def test_hand_example(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[2.0, 0.0]])
        assert np.allclose(cost_matrix(w, x), [[0.0, 9.0]])

    def test_zero_models(self):
        w = np.zeros((2, 3))
        x = np.random.default_rng(0).normal(size=(5, 3))
        assert np.allclose(cost_matrix(w, x), 1.0)

    def test_zero_instance(self):
        w = np.random.default_rng(1).normal(size=(3, 4))
        assert np.allclose(cost_matrix(w, np.zeros((1, 4))), 2.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        w, x, _ = random_problem(rng)
        assert (cost_matrix(w, x) >= 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cost_matrix(np.zeros((2, 3)), np.zeros((4, 2)))


class TestHingeLoss:
    def test_separable_is_zero(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert hinge_loss(w, x, [1, 2]) == 0.0

    def test_zero_weights_half(self):
        x = np.random.default_rng(3).normal(size=(7, 4))
        assert hinge_loss(np.zeros((2, 4)), x, np.ones(7, dtype=int)) == pytest.approx(0.5)

    def test_wrong_label_never_cheaper(self):
        rng = np.random.default_rng(4)
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = rng.normal(size=(6, 2)) + [3, 0]
        good = hinge_loss(w, x, np.ones(6, dtype=int))
        flipped = np.ones(6, dtype=int)
        flipped[0] = 2
        assert hinge_loss(w, x, flipped) >= good

    def test_equals_cost_matrix_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w, x, labels = random_problem(rng)
            n, k = x.shape[0], w.shape[0]
            via_costs = cost_matrix(w, x)[np.arange(n), labels - 1].sum() / (n * k)
            assert hinge_loss(w, x, labels) == pytest.approx(via_costs, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            w, x, labels = random_problem(rng)
            assert hinge_loss(w, x, labels) == pytest.approx(hinge_loss_loops(w, x, labels), rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            hinge_loss(np.zeros((2, 2)), np.zeros((1, 2)), [3])

    def test_bit_identical_to_cost_matrix_rows(self):
        # the loss reads one entry per row of the cost tensor without building it
        rng = np.random.default_rng(13)
        for n_max, k_max in ((20, 4), (300, 9)):
            for _ in range(15):
                w, x, labels = random_problem(rng, n_max=n_max, k_max=k_max)
                w = w * rng.uniform(0.01, 3.0)
                n, k = x.shape[0], w.shape[0]
                via_costs = float(cost_matrix(w, x)[np.arange(n), labels - 1].sum() / (n * k))
                assert hinge_loss(w, x, labels) == via_costs
                assert hinge_loss(w, x, labels) == pytest.approx(hinge_loss_loops(w, x, labels), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            hinge_loss(np.zeros((2, 3)), np.zeros((4, 2)), [1, 2, 1, 2])


class TestHingeGrad:
    def test_zero_on_separable(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(hinge_grad(w, x, [1, 2]), 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            w, x, labels = random_problem(rng)
            analytic = hinge_grad(w, x, labels)
            numeric = finite_difference_grad(lambda m: hinge_loss(m, x, labels), w)
            err = np.abs(analytic - numeric).max() / max(1.0, np.abs(analytic).max())
            assert err <= 1e-5

    def test_matches_loop_oracle_under_scaling(self):
        rng = np.random.default_rng(8)
        w, x, labels = random_problem(rng)
        for c in (0.5, 2.0, 5.0):
            assert np.allclose(hinge_grad(w, c * x, labels), hinge_grad_loops(w, c * x, labels))


def problem_away_from_kinks(rng, k, gap=1e-4):
    """Random weights, features and labels with no margin within gap of 0."""
    while True:
        w, x, labels = random_problem(rng, k_max=k)
        if w.shape[0] != k:
            continue
        scores = x @ w.T
        margins = 1.0 - scores[np.arange(len(labels)), labels - 1][:, None] + scores
        margins[np.arange(len(labels)), labels - 1] = np.inf
        if np.abs(margins).min() > gap:
            return w, x, labels


def map_hessian(margins):
    """The Hessian c A^T A held by the margin map of a Margins record."""
    return MarginMap(margins.x, margins.y0, margins.active).hessian()


class TestHingeHessian:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_loop_oracle(self, k):
        rng = np.random.default_rng(30 + k)
        for _ in range(10):
            w, x, labels = problem_away_from_kinks(rng, k)
            assert np.abs(map_hessian(label_margins(w, x, labels)) - hinge_hessian_loops(w, x, labels)).max() <= 1e-12

    @pytest.mark.parametrize("k", [2, 4, 128])
    def test_all_active_matches_loop_oracle_bit_for_bit(self, k):
        # at w = 0 every margin is positive, so every coefficient case occurs:
        # the own label's count K - 1 (127 at K = 128, the most the sign
        # vectors' 8-bit type holds), 1 against another label, -1 between the
        # own label and another, 0 between two others; integer features and
        # n K a power of two keep both sums and the scaling exact
        rng = np.random.default_rng(50 + k)
        x = rng.integers(-3, 4, size=(256 // k, 3)).astype(float)
        labels = np.resize(np.arange(1, k + 1), x.shape[0])
        w = np.zeros((k, 3))
        assert label_margins(w, x, labels).active.sum() == x.shape[0] * (k - 1)
        assert map_hessian(label_margins(w, x, labels)).tobytes() == hinge_hessian_loops(w, x, labels).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_finite_differences_of_gradient(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(5):
            w, x, labels = problem_away_from_kinks(rng, k)
            hess = map_hessian(label_margins(w, x, labels))
            rows = []
            for entry in np.ndindex(w.shape):
                rows.append(finite_difference_grad(lambda m: hinge_grad(m, x, labels)[entry], w).ravel())
            assert np.abs(hess - np.array(rows)).max() <= 1e-6

    def test_zero_when_no_margin_is_positive(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(map_hessian(label_margins(w, x, [1, 2])), np.zeros((4, 4)))

    def test_symmetric_and_equals_scaled_margin_operator(self):
        rng = np.random.default_rng(50)
        w, x, labels = problem_away_from_kinks(rng, 3)
        margins = label_margins(w, x, labels)
        hess = map_hessian(margins)
        assert np.array_equal(hess, hess.T)
        mask, y0 = margins.active, margins.y0
        cols = []
        for entry in np.ndindex(w.shape):
            e = np.zeros(w.shape)
            e[entry] = 1.0
            cols.append(np.where(mask, margin_map_loops(e, x, y0), 0.0).ravel())
        a = np.array(cols).T  # positive margins x flattened weights
        assert np.allclose(hess, 2.0 / (x.shape[0] * 3) * a.T @ a, rtol=0, atol=1e-12)


class TestMarginMaps:
    def test_map_is_margin_minus_one(self):
        rng = np.random.default_rng(51)
        w, x, labels = random_problem(rng)
        y0 = labels - 1
        scores = x @ w.T
        expected = 1.0 - scores[np.arange(len(labels)), y0][:, None] + scores - 1.0
        assert np.allclose(margin_map_loops(w, x, y0), expected)
        assert np.array_equal(margin_map_loops(w, x, y0)[np.arange(len(labels)), y0], np.zeros(len(labels)))

    def test_adjoint(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            w, x, labels = random_problem(rng)
            y0 = labels - 1
            lam = rng.normal(size=(x.shape[0], w.shape[0]))
            own_zeroed = lam.copy()
            own_zeroed[np.arange(len(labels)), y0] = 0.0
            lhs = float((margin_map_loops(w, x, y0) * lam).sum())
            rhs = float((w * margin_adjoint(lam, x, y0)).sum())
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert np.array_equal(margin_adjoint(lam, x, y0), margin_adjoint(own_zeroed, x, y0))

    def test_gradient_is_scaled_adjoint_of_positive_margins(self):
        rng = np.random.default_rng(53)
        w, x, labels = random_problem(rng)
        y0 = labels - 1
        margins = np.maximum(1.0 + margin_map_loops(w, x, y0), 0.0)
        expected = margin_adjoint(2.0 * margins, x, y0) / (x.shape[0] * w.shape[0])
        assert np.allclose(hinge_grad(w, x, labels), expected)


class TestGroupReg:
    def test_zero(self):
        assert group_reg(np.zeros((2, 3))) == 0.0

    def test_hand_value(self):
        assert group_reg(np.array([[3.0], [4.0]])) == pytest.approx(2.5)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(4, 6))
        assert group_reg(w) == pytest.approx(group_reg(w[::-1]))


class TestExclusive:
    def test_empty_chain_zero_vector(self):
        lam = exclusive_weights((), 2, 5)
        assert np.array_equal(lam, np.zeros(5))

    def test_hand_lambda(self):
        chain = chain_of([3.0, 0.0])
        lam = exclusive_weights(chain, 1, 2)
        assert np.allclose(lam, [1.5, 0.0])

    def test_homogeneous_in_ancestors(self):
        chain1 = chain_of([1.0, -2.0, 0.5])
        chain2 = chain_of([2.0, -4.0, 1.0])
        lam1 = exclusive_weights(chain1, 3, 3)
        lam2 = exclusive_weights(chain2, 3, 3)
        assert np.allclose(lam2, 2 * lam1)

    def test_empty_chain_reg_zero(self):
        assert exclusive_terms(np.ones((2, 4)), ()) == (0.0, 0.0)

    def test_hand_reg(self):
        chain = chain_of([3.0, 0.0])
        w = np.array([[1.0, -2.0], [0.0, 0.0]])
        # K=2 here: lambda = [3/(2*1*2), 0] = [0.75, 0]; E = |1|*0.75
        assert exclusive_terms(w, chain) == pytest.approx((0.75, 0.75))

    def test_hand_reg_single_row(self):
        # K=1: (|1|*3 + |-2|*0) / (1*1*2) = 1.5
        assert exclusive_terms(np.array([[1.0, -2.0]]), chain_of([3.0, 0.0])) == pytest.approx((1.5, 1.5))

    def test_disjoint_support_zero(self):
        chain = chain_of([5.0, 0.0, 0.0])
        w = np.array([[0.0, 1.0, 2.0], [0.0, -3.0, 1.0]])
        assert exclusive_terms(w, chain) == (0.0, 0.0)


class TestRegularizer:
    CHAINS = {"root": (), "two_ancestors": chain_of([1.0, -2.0, 0.0, 0.5], [0.0, 3.0, -1.0, 0.25])}

    @staticmethod
    def by_formula(w, chain, cfg):
        k, p = w.shape
        exclusive = exclusive_terms(w, chain)[1]
        return {
            "sparse_group": cfg.alpha * group_reg(w) + cfg.beta * exclusive,
            "group_only": cfg.alpha * group_reg(w),
            "exclusive_only": cfg.beta * exclusive,
            "l1": cfg.alpha * float(np.abs(w).sum()) / (k * p),
            "squared_l2": cfg.alpha * float((w**2).sum()) / (k * p),
        }[cfg.variant]

    @pytest.mark.parametrize("chain_name", sorted(CHAINS))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_value_equals_regularizer_value_exactly(self, variant, chain_name):
        chain = self.CHAINS[chain_name]
        rng = np.random.default_rng(14)
        cfg = RegularizerConfig(alpha=0.3, beta=0.7, variant=variant)
        regularizer = Regularizer(cfg, chain, 3, 4)
        for _ in range(10):
            w = rng.normal(size=(3, 4))
            assert regularizer.value(w) == regularizer_value(w, chain, cfg)
            assert regularizer.value(w) == self.by_formula(w, chain, cfg)

    @pytest.mark.parametrize("chain_name", sorted(CHAINS))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_complexity_equals_group_plus_exclusive_exactly(self, variant, chain_name):
        chain = self.CHAINS[chain_name]
        rng = np.random.default_rng(15)
        regularizer = Regularizer(RegularizerConfig(alpha=0.3, beta=0.7, variant=variant), chain, 3, 4)
        for _ in range(10):
            w = rng.normal(size=(3, 4))
            assert regularizer.complexity(w) == group_reg(w) + exclusive_terms(w, chain)[1]
        assert regularizer.complexity(np.zeros((3, 4))) == 0.0

    def test_lambdas_match_chain(self):
        chain = self.CHAINS["two_ancestors"]
        regularizer = Regularizer(RegularizerConfig(), chain, 3, 4)
        assert np.array_equal(regularizer.lambda_e, exclusive_weights(chain, 3, 4))
        assert regularizer.lambda_g == 1.0 / 12
        assert not regularizer.lambda_e.flags.writeable

    @pytest.mark.parametrize("chain_name", sorted(CHAINS))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_prox_coefficients_equal_the_definitions_exactly(self, variant, chain_name):
        chain = self.CHAINS[chain_name]
        cfg = RegularizerConfig(alpha=0.3, beta=0.7, variant=variant)
        regularizer = Regularizer(cfg, chain, 3, 4)
        l1, group, quad = _regularizer_terms(chain, cfg, 3, 4)
        assert np.array_equal(regularizer.l1, l1)
        assert (regularizer.group, regularizer.quad) == (group, quad)
        assert not regularizer.l1.flags.writeable

    def test_overflowing_coefficients_rejected(self):
        chain = chain_of([1e300, 0.0, 0.0, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ValidationError):
            Regularizer(RegularizerConfig(alpha=0.0, beta=1e300, variant="exclusive_only"), chain, 2, 4)


class TestNodeObjective:
    def test_zero_composition(self):
        x = np.random.default_rng(10).normal(size=(8, 3))
        regularizer = Regularizer(RegularizerConfig(1.0, 1.0), (), 2, 3)
        val = node_objective(np.zeros((2, 3)), np.ones(8, dtype=int), regularizer, x)
        assert val == pytest.approx(0.5)

    def test_dominates_hinge(self):
        rng = np.random.default_rng(11)
        w, x, labels = random_problem(rng)
        regularizer = Regularizer(RegularizerConfig(alpha=0.3, beta=0.7), (), *w.shape)
        assert node_objective(w, labels, regularizer, x) >= hinge_loss(w, x, labels)

    def test_separable_equals_group(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        regularizer = Regularizer(RegularizerConfig(alpha=1.0, beta=0.0), (), 2, 2)
        assert node_objective(w, [1, 2], regularizer, x) == pytest.approx(group_reg(w))

    @pytest.mark.parametrize("variant", ["group_only", "l1", "squared_l2", "sparse_group"])
    def test_midpoint_convexity(self, variant):
        rng = np.random.default_rng(12)
        chain = chain_of(rng.normal(size=4))
        regularizer = Regularizer(RegularizerConfig(alpha=0.5, beta=0.5, variant=variant), chain, 2, 4)
        x = rng.normal(size=(10, 4))
        labels = rng.integers(1, 3, size=10)
        for _ in range(20):
            a = rng.normal(size=(2, 4))
            b = rng.normal(size=(2, 4))
            fa = node_objective(a, labels, regularizer, x)
            fb = node_objective(b, labels, regularizer, x)
            fm = node_objective((a + b) / 2, labels, regularizer, x)
            assert fm <= (fa + fb) / 2 + 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sign_flip_invariance(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 5))
    chain = chain_of(rng.normal(size=5))
    flipped = w.copy()
    i, j = rng.integers(0, 3), rng.integers(0, 5)
    flipped[i, j] = -flipped[i, j]
    assert group_reg(w) == pytest.approx(group_reg(flipped))
    assert exclusive_terms(w, chain) == pytest.approx(exclusive_terms(flipped, chain))
