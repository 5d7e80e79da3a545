import collections
import hashlib
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margintree import RegularizerConfig, SyntheticSpec, generate_synthetic
from margintree.optim import (
    ARMIJO_STEPS,
    DUAL_ASCENT,
    DUAL_ROUNDING,
    MAX_BACKTRACKS,
    SQRT2,
    MarginMap,
    _descend,
    _General,
    _line_search,
    _Pair,
    _margin_space_step,
    _solve_dual_model,
    _weight_space_step,
    prox_group,
    prox_jacobian,
    prox_parts,
    prox_sparse_group,
    prox_weighted_l1,
    solve_w,
)
from margintree.cli import restart_seed
from margintree.hier import BuildConfig, StoppingCriterion, build_hierarchy
from margintree.objective import (
    VARIANTS,
    Regularizer,
    hinge_grad,
    hinge_loss,
    label_margins,
    margin_adjoint,
    node_objective,
)
from margintree.split import OBJECTIVE_FLOOR, score_bound, split_node
import margintree.hier
import margintree.objective
import margintree.optim
import margintree.split
from helpers import blob_dataset
from test_objective import chain_of
from oracles import (
    armijo_scan,
    finite_difference_grad,
    gradient_descent_smooth_oracle,
    margin_map_loops,
    model_residual,
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
    return Regularizer(reg, chain, k, p)


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
        assert np.allclose(spec.l1, lam_e)

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
        spec = Regularizer(reg, (), 2, 3)
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


def jacobian_at(w, regularizer, s):
    """prox_jacobian at w, from the pieces prox_parts computes there."""
    _, u, norms, _ = prox_parts(w, regularizer, s)
    return prox_jacobian(u, norms, regularizer, s)


def full_blocks(jac):
    """The P x K x K blocks of all columns (zero on the dead ones) of a
    prox_jacobian result."""
    blocks, live, free = jac
    full = np.zeros((free.shape[1], free.shape[0], free.shape[0]))
    full[live] = blocks
    return full


class TestProxJacobian:
    @staticmethod
    def away_from_thresholds(rng, spec, s, k, p, gap=1e-3):
        """K x P point whose entries and soft-thresholded column norms are
        at least gap from the l1 and group thresholds."""
        while True:
            w = rng.normal(size=(k, p)) * 0.5
            soft = np.abs(w) - s * spec.l1
            norms = np.sqrt((np.maximum(soft, 0.0) ** 2).sum(axis=0))
            if np.abs(soft).min() > gap and np.abs(norms - s * spec.group).min() > gap:
                return w

    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_central_differences(self, variant, chain_name):
        rng = np.random.default_rng(23)
        k, p = 3, 5
        chain = () if chain_name == "root" else chain_of(rng.uniform(0, 2, p), rng.uniform(0, 2, p))
        spec = Regularizer(RegularizerConfig(alpha=2.0, beta=3.0, variant=variant), chain, k, p)
        for s in (0.5, 2.0):
            w = self.away_from_thresholds(rng, spec, s, k, p)
            blocks = full_blocks(jacobian_at(w, spec, s))
            for entry in np.ndindex(w.shape):
                numeric = finite_difference_grad(lambda m: prox_sparse_group(m, spec, s)[entry], w, h=1e-6)
                expected = np.zeros((k, p))
                expected[:, entry[1]] = blocks[entry[1], entry[0]]
                assert np.abs(numeric - expected).max() <= 1e-6

    def test_zero_block_inside_group_threshold(self):
        spec = spec_for(60.0, 0.0, np.zeros(2), 2, 2)  # group threshold 15
        w = np.array([[10.0, 0.1], [10.0, 0.1]])
        blocks, live, free = jacobian_at(w, spec, 1.0)
        assert blocks.shape == (0, 2, 2)
        assert not live.any() and not free.any()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_free_weights_are_the_nonzero_rows(self, variant):
        # free marks the rows of J that are nonzero: the entries above their l1
        # threshold in the live columns
        rng = np.random.default_rng(24)
        k, p = 3, 8
        chain = chain_of(rng.uniform(0, 2, p), rng.uniform(0, 2, p))
        spec = Regularizer(RegularizerConfig(alpha=2.0, beta=3.0, variant=variant), chain, k, p)
        for s in (0.3, 1.0, 3.0):
            w = rng.normal(size=(k, p)) * 0.5
            jac = jacobian_at(w, spec, s)
            assert np.array_equal(jac[2], full_blocks(jac).any(axis=2).T)
            assert np.array_equal(jac[1], full_blocks(jac).any(axis=(1, 2)))

    @pytest.mark.parametrize("k", [3, 4])
    def test_blocks_are_the_closed_form_bitwise(self, k):
        # the live columns' blocks (1 - b/|u|) D + b u u^T / |u|^3, the diagonal
        # added through fancy indexing here
        rng = np.random.default_rng(25)
        p = 30
        spec = Regularizer(RegularizerConfig(alpha=2.0, beta=3.0), chain_of(rng.uniform(0, 2, p), rng.uniform(0, 2, p)), k, p)
        for s in (2.0, 8.0):
            _, u, norms, _ = prox_parts(rng.normal(size=(k, p)), spec, s)
            blocks, live, _ = prox_jacobian(u, norms, spec, s)
            assert live.any() and (u[:, live] == 0.0).any()
            b = s * spec.group
            u_live, n_live = u[:, live].T, norms[live]
            expected = (u_live[:, :, None] * u_live[:, None, :]) * (b / n_live**3)[:, None, None]
            expected[:, range(k), range(k)] += (u_live != 0.0) * (1.0 - b / n_live)[:, None]
            assert blocks.tobytes() == expected.tobytes()


class TestRegularizerValueFromShrunkenNorms:
    """The dual line search takes the regularizer value from the column norms
    the prox shrank; it equals Regularizer.value of the prox point."""

    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_value(self, variant, chain_name):
        rng = np.random.default_rng(25)
        k, p = 3, 12
        chain = () if chain_name == "root" else chain_of(rng.uniform(0, 2, p), rng.uniform(0, 2, p))
        spec = Regularizer(RegularizerConfig(alpha=0.5, beta=0.5, variant=variant), chain, k, p)
        for s in (0.1, 1.0, 10.0, 1e4):
            v = rng.normal(size=(k, p)) * rng.uniform(0.01, 2.0, size=p)  # some columns shrink to zero
            z, _, _, shrunk = prox_parts(v, spec, s)
            if shrunk is not None:
                assert np.array_equal(shrunk == 0.0, ~z.any(axis=0))
            assert abs(spec.value(z, shrunk) - spec.value(z)) <= 1e-14 * abs(spec.value(z))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_columns_shrunk_to_zero(self, variant):
        spec = Regularizer(RegularizerConfig(alpha=1.0, beta=1.0, variant=variant), chain_of(np.ones(4)), 2, 4)
        z, _, _, shrunk = prox_parts(np.full((2, 4), 1e-3), spec, 1e6)
        if variant != "squared_l2":
            assert not z.any()
        assert spec.value(z, shrunk) == spec.value(z)


class TestSolveW:
    def separable_node(self):
        ds = blob_dataset(0, [[5.0, 0.0], [-5.0, 0.0]], per_blob=10, spread=0.3)
        labels = np.repeat([1, 2], 10)
        return ds.features, labels

    def test_separable_drives_loss_to_zero(self):
        x, labels = self.separable_node()
        reg = RegularizerConfig(alpha=0.0, beta=0.0)
        w = solve_w(x, labels, Regularizer(reg, (), 2, 2), np.zeros((2, 2)))
        assert hinge_loss(w, x, labels) <= 1e-6

    def test_huge_alpha_returns_zero(self):
        x, labels = self.separable_node()
        reg = RegularizerConfig(alpha=1e6, beta=0.0)
        w = solve_w(x, labels, Regularizer(reg, (), 2, 2), np.zeros((2, 2)))
        assert np.array_equal(w, np.zeros((2, 2)))

    def test_final_objective_not_above_start(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, p = 15, 4
            ds = blob_dataset(int(rng.integers(1e6)), [[1.0] * p, [-1.0] * p], per_blob=n // 2 + 1, spread=1.0)
            labels = rng.integers(1, 3, size=ds.n)
            regularizer = Regularizer(RegularizerConfig(alpha=0.1, beta=0.1), (), 2, p)
            w0 = rng.normal(size=(2, p))
            w = solve_w(ds.features, labels, regularizer, w0)
            before = node_objective(w0, labels, regularizer, ds.features)
            after = node_objective(w, labels, regularizer, ds.features)
            assert after <= before + 1e-12

    def test_squared_l2_matches_gd_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(8, 21))
            p = int(rng.integers(2, 9))
            x = rng.normal(size=(n, p))
            labels = rng.integers(1, 3, size=n)
            alpha = float(rng.uniform(0.05, 0.5))
            regularizer = Regularizer(RegularizerConfig(alpha=alpha, beta=0.0, variant="squared_l2"), (), 2, p)
            w = solve_w(x, labels, regularizer, np.zeros((2, p)))
            ours = node_objective(w, labels, regularizer, x)
            oracle = gradient_descent_smooth_oracle(x, labels, alpha, 2)
            assert ours <= oracle * (1 + 1e-4) + 1e-10

    def test_lambda_e_computed_once_per_call(self, monkeypatch):
        # once per split, when its Regularizer is made, however many weight
        # updates and objective evaluations split_node makes
        x = np.random.default_rng(1).normal(size=(30, 3))
        calls, updates = [], []
        original = margintree.objective.exclusive_weights

        def counting(*args):
            calls.append(args)
            return original(*args)

        def counting_solve_w(*args):
            updates.append(args)
            return solve_w(*args)

        monkeypatch.setattr(margintree.objective, "exclusive_weights", counting)
        monkeypatch.setattr(margintree.split, "solve_w", counting_solve_w)
        chain = chain_of([1.0, 0.5, 0.1], [0.2, 2.0, 1.0])
        split_node(x, Regularizer(RegularizerConfig(alpha=0.05, beta=0.05), chain, 2, 3), 2, seed=0)
        assert len(updates) >= 2
        assert len(calls) == 1

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3, 1e7])
    def test_converges_at_any_feature_magnitude(self, magnitude):
        x, labels = self.separable_node()
        x = x * magnitude
        reg = RegularizerConfig(alpha=0.01, beta=0.0)
        w = solve_w(x, labels, Regularizer(reg, (), 2, 2), np.zeros((2, 2)))
        assert np.any(w != 0.0)
        assert weight_update_residual(w, x, labels, (), reg) <= 1e-5

    def test_zero_gradient_at_zero_returns_zero(self):
        # identical rows, balanced labels: the hinge gradient at w = 0 vanishes, so w = 0 is optimal
        x = np.ones((4, 3))
        labels = np.array([1, 2, 1, 2])
        w0 = np.arange(6.0).reshape(2, 3)
        w = solve_w(x, labels, Regularizer(RegularizerConfig(), (), 2, 3), w0)
        assert np.array_equal(w, np.zeros((2, 3)))


class TestStopConstants:
    """solve_w reads MAX_OUTER_ITERS and REL_OBJ_TOL at each call, on the
    K = 2 path and the K >= 3 one: from w = 0, which the default stop moves
    away from, a residual stop that fires at once or a budget of no outer
    iteration returns the start."""

    @staticmethod
    def node(k):
        ds = blob_dataset(3, [[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]][:k], per_blob=6, spread=0.5)
        regularizer = Regularizer(RegularizerConfig(alpha=0.01, beta=0.01), (), k, 2)
        return ds.features, ds.labels + 1, regularizer

    @pytest.mark.parametrize("k", [2, 3])
    def test_infinite_tolerance_stops_before_a_step(self, monkeypatch, k):
        x, labels, regularizer = self.node(k)
        assert np.any(solve_w(x, labels, regularizer, np.zeros((k, 2))) != 0.0)
        monkeypatch.setattr(margintree.optim, "REL_OBJ_TOL", float("inf"))
        assert np.array_equal(solve_w(x, labels, regularizer, np.zeros((k, 2))), np.zeros((k, 2)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_zero_budget_warns_and_returns_the_start(self, monkeypatch, caplog, k):
        x, labels, regularizer = self.node(k)
        monkeypatch.setattr(margintree.optim, "MAX_OUTER_ITERS", 0)
        with caplog.at_level(logging.WARNING, logger="margintree.optim"):
            w = solve_w(x, labels, regularizer, np.zeros((k, 2)))
        assert np.array_equal(w, np.zeros((k, 2)))
        [message] = caplog.messages
        assert "budget of 0 outer iterations" in message


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
        chain = () if chain_name == "root" else chain_of(np.linspace(-2.0, 2.0, p), np.ones(p))
        reg = RegularizerConfig(alpha=0.5, beta=2.0, variant=variant)
        spec = Regularizer(reg, chain, k, p)
        for s in (0.01, 0.3, 1.0, 4.0):
            with np.errstate(all="raise"):
                assert_same_bits(prox_sparse_group(w, spec, s), reference_prox_sparse_group(w, spec, s))


def planted_node(k):
    """40 planted rows (4 classes, 20 features), labelled by the planted
    top-level branch for K=2 and by class for K=4."""
    ds, _ = generate_synthetic(SyntheticSpec(per_class=10, seed=3))
    labels = ds.labels // 2 + 1 if k == 2 else ds.labels + 1
    return ds.features, labels, ds.p


class TestWeightUpdateOptimality:
    """solve_w reaches the minimizer of the split objective: its objective is
    no higher than the earlier proximal L-BFGS solver's under each of that
    solver's settings, and its optimality residual is at rounding level."""

    @staticmethod
    def chain(name, p):
        if name == "root":
            return ()
        rng = np.random.default_rng(21)
        return chain_of(rng.normal(size=p), rng.normal(size=p))

    @staticmethod
    def check(x, labels, chain, reg, w0, ours, reference):
        regularizer = Regularizer(reg, chain, *w0.shape)

        def objective(w):
            return node_objective(w, labels, regularizer, x)

        assert objective(ours) <= objective(reference) + 1e-9 * objective(w0)
        assert weight_update_residual(ours, x, labels, chain, reg) <= 1e-5

    @pytest.mark.parametrize("shrink", [0.5, 0.3])
    @pytest.mark.parametrize("memory", [0, 10])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_optimal(self, variant, chain_name, k, memory, shrink):
        x, labels, p = planted_node(k)
        chain = self.chain(chain_name, p)
        reg = RegularizerConfig(alpha=0.01, beta=0.01, variant=variant)
        w0 = np.zeros((k, p))
        ours = solve_w(x, labels, Regularizer(reg, chain, k, p), w0)
        reference = reference_solve_w(x, labels, chain, reg, w0, memory=memory, shrink=shrink, max_outer_iters=30)
        self.check(x, labels, chain, reg, w0, ours, reference)

    def test_optimal_from_warm_start(self):
        rng = np.random.default_rng(22)
        x, labels, p = planted_node(2)
        chain = self.chain("two_ancestors", p)
        reg = RegularizerConfig(alpha=0.05, beta=0.02)
        w0 = rng.normal(size=(2, p))
        ours = solve_w(x, labels, Regularizer(reg, chain, 2, p), w0)
        self.check(x, labels, chain, reg, w0, ours, reference_solve_w(x, labels, chain, reg, w0))


# a dual that stops once it no longer rises above its rounding leaves its
# primal point about sqrt(eps) from the model minimizer
GAP = 4.0 * float(np.sqrt(np.finfo(float).eps))


def relative_gap(ours, reference):
    return float(np.linalg.norm(ours - reference)) / max(float(np.linalg.norm(reference)), 1e-300)


class TestDualNewtonSpaces:
    """The dual Newton step (I/c + A J A^T/mu)^-1 g is the same, to 1e-9,
    whether it is solved over the m positive margins or over the free weights
    through the Woodbury identity; the model minimizer reached in either
    space is the same to the rounding level at which the dual stops."""

    MU = 0.37  # neither 1 nor c, so that a dropped 1/mu or 1/c term shows

    # (n, p): few margins and many free weights, or the other way round
    SIZES = {"m < free": (3, 10), "m > free": (60, 3)}

    @staticmethod
    def config(variant):
        return RegularizerConfig(alpha=0.3, beta=0.3, variant=variant)

    @classmethod
    def problem(cls, k, variant, chain_name, sizes, seed):
        rng = np.random.default_rng(seed)
        n, p = cls.SIZES[sizes]
        x = rng.normal(size=(n, p))
        labels = rng.integers(1, k + 1, size=n)
        w = rng.normal(size=(k, p)) * 0.3
        chain = () if chain_name == "root" else chain_of(rng.normal(size=p), rng.normal(size=p))
        regularizer = Regularizer(cls.config(variant), chain, k, p)
        margins = label_margins(w, x, labels)
        return rng, x, labels, w, chain, regularizer, (x, margins.y0, margins.active), 2.0 / (n * k)

    @staticmethod
    def masked_cases(rng, k):
        """(x, y0, mask) over 7 rows: a random mask with two rows that have no
        positive margin, and a mask with one entry."""
        x, y0 = rng.normal(size=(7, 4)), rng.integers(0, k, size=7)
        mask = rng.random((7, k)) < 0.6
        mask[np.arange(7), y0] = False
        mask[[1, 4]] = False
        one = np.zeros((7, k), dtype=bool)
        one[3, (y0[3] + 1) % k] = True
        return [(x, y0, mask), (x, y0, one)]

    def test_margin_matrix_is_the_margin_map(self):
        # the masked maps gather the margin map and scatter into margin_adjoint, are
        # adjoint to each other, and the matrix path agrees with them
        rng = np.random.default_rng(60)
        for k in (2, 3, 4):
            for x, y0, mask in self.masked_cases(rng, k):
                a = MarginMap(x, y0, mask)
                z, lam, full = rng.normal(size=(k, 4)), rng.normal(size=int(mask.sum())), np.zeros(mask.shape)
                full[mask] = lam
                forward, adjoint = a(z), a.adjoint(lam)
                assert np.allclose(forward, margin_map_loops(z, x, y0)[mask], rtol=0, atol=1e-12)
                assert np.allclose(adjoint, margin_adjoint(full, x, y0), rtol=0, atol=1e-12)
                assert abs(float(forward @ lam) - float((z * adjoint).sum())) <= 1e-12
                matrix = a.matrix()
                assert matrix.shape == (mask.sum(), k * 4)
                assert np.allclose(matrix @ z.ravel(), forward, rtol=0, atol=1e-12)
                assert np.allclose(a(z), forward, rtol=0, atol=1e-12)
                assert np.allclose(a.adjoint(lam), adjoint, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sizes", sorted(SIZES))
    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_steps_agree(self, k, variant, chain_name, sizes):
        rng, x, labels, w, _, regularizer, margins, c = self.problem(k, variant, chain_name, sizes, seed=61 + k)
        a = MarginMap(*margins).matrix()
        s = 1.0 / self.MU
        lam = rng.uniform(0.0, 1.0, size=a.shape[0])
        jac = jacobian_at(w - s * (hinge_grad(w, x, labels) + (lam @ a).reshape(w.shape)), regularizer, s)
        assert (a.shape[0] < np.count_nonzero(jac[2])) == (sizes == "m < free")
        grad_dual = rng.normal(size=a.shape[0])
        at_grad = (grad_dual @ a).reshape(w.shape)
        delta, at_delta = _margin_space_step(jac, grad_dual, c, self.MU, a)
        woodbury, at_woodbury = _weight_space_step(
            jac, grad_dual, at_grad, c, self.MU, lambda z: a @ z.ravel(), label_margins(w, x, labels).hessian()
        )
        assert relative_gap(delta, woodbury) <= 1e-9
        assert relative_gap(at_delta, at_woodbury) <= 1e-9

    @staticmethod
    def pin_space(monkeypatch, space, margins, hess):
        """Make _solve_dual_model take every Newton step in one space, whatever
        the sizes, by routing the other step helper to it."""
        a = MarginMap(*margins).matrix()
        if space == "margin":

            def step(jac, grad_dual, at_grad, c, mu, forward, hessian):
                return _margin_space_step(jac, grad_dual, c, mu, a)

            monkeypatch.setattr(margintree.optim, "_weight_space_step", step)
        else:

            def step(jac, grad_dual, c, mu, _a):
                at_grad = (grad_dual @ a).reshape(jac[2].shape)
                return _weight_space_step(jac, grad_dual, at_grad, c, mu, lambda z: a @ z.ravel(), hess)

            monkeypatch.setattr(margintree.optim, "_margin_space_step", step)

    @pytest.mark.parametrize("sizes", sorted(SIZES))
    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_model_minimizer_agrees(self, k, variant, chain_name, sizes, monkeypatch):
        _, x, labels, w, chain, regularizer, margins, c = self.problem(k, variant, chain_name, sizes, seed=71 + k)
        grad, hess = hinge_grad(w, x, labels), label_margins(w, x, labels).hessian()
        minimizers = []
        for space in ("margin", "weight"):
            with monkeypatch.context() as patch:
                self.pin_space(patch, space, margins, hess)
                a = MarginMap(*margins)
                general = _General(label_margins(w, x, labels), regularizer)
                minimizers.append(_solve_dual_model(w, grad, lambda: hess, self.MU, a, c, general, 0.0))
        ours, woodbury = minimizers
        # with tol 0 each solve runs until the dual stops rising above its
        # rounding, which leaves model residuals of up to a few 1e-8 here
        for z in minimizers:
            assert model_residual(z, w, grad, hess, self.MU, chain, self.config(variant)) <= 1e-7 * np.abs(grad).max()
        assert relative_gap(ours, woodbury) <= GAP

    def test_space_follows_sizes_and_hessian_is_lazy(self, monkeypatch):
        # each step runs in the smaller space, and the K P x K P Hessian is built
        # at most once per outer iteration (one model solve), and only in one
        # that takes a weight-space step
        x, labels, p = planted_node(4)
        models, spaces = [], []
        solve = margintree.optim._solve_dual_model

        def spy_solve(*args):
            models.append({"weight": 0, "hessians": 0})
            return solve(*args)

        monkeypatch.setattr(margintree.optim, "_solve_dual_model", spy_solve)
        for name in ("margin", "weight"):
            step = getattr(margintree.optim, f"_{name}_space_step")

            def spy(jac, grad_dual, *args, _name=name, _step=step):
                spaces.append((_name, grad_dual.size <= np.count_nonzero(jac[2])))
                models[-1]["weight"] += _name == "weight"
                return _step(jac, grad_dual, *args)

            monkeypatch.setattr(margintree.optim, f"_{name}_space_step", spy)
        hessian = margintree.objective.Margins.hessian

        def spy_hessian(margins):
            models[-1]["hessians"] += 1
            return hessian(margins)

        monkeypatch.setattr(margintree.objective.Margins, "hessian", spy_hessian)
        regularizer = Regularizer(RegularizerConfig(alpha=0.01, beta=0.01), (), 4, p)
        solve_w(x, labels, regularizer, np.zeros((4, p)))
        assert {name for name, _ in spaces} == {"margin", "weight"}
        assert all(smaller == (name == "margin") for name, smaller in spaces)
        assert all(model["hessians"] == min(model["weight"], 1) for model in models)


def antisymmetric(u):
    """The K = 2 weights (u, -u)/sqrt 2 of the P-vector u."""
    return np.stack((u, -u)) / SQRT2


def general_solve_w(x, labels, regularizer, w0):
    """solve_w's general K x P path, run at any K (solve_w itself takes the
    u coordinates at K = 2)."""
    w = np.array(w0, dtype=float)
    return _descend(_General(label_margins(np.zeros_like(w), x, labels), regularizer), w)


class TestPairCoordinates:
    """The K = 2 primitives on u = (w_1 - w_2)/sqrt 2 are the general ones
    restricted to the antisymmetric weights w = (u, -u)/sqrt 2: the prox and
    its value, its Jacobian, and the dual Newton step in either space."""

    @staticmethod
    def node_and_pair(variant, chain_name, n, p, rng, alpha=2.0, beta=3.0):
        chain = () if chain_name == "root" else chain_of(rng.normal(size=p), rng.normal(size=p))
        regularizer = Regularizer(RegularizerConfig(alpha=alpha, beta=beta, variant=variant), chain, 2, p)
        x, labels = rng.normal(size=(n, p)), rng.integers(1, 3, size=n)
        return x, labels, regularizer, _Pair(label_margins(np.zeros((2, p)), x, labels), regularizer)

    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_prox_and_value(self, variant, chain_name):
        rng = np.random.default_rng(81)
        _, _, regularizer, pair = self.node_and_pair(variant, chain_name, 5, 8, rng)
        for s in (0.01, 0.3, 1.0, 4.0):
            v = rng.normal(size=8)
            z = pair.prox(v, s)
            assert np.allclose(antisymmetric(z), prox_sparse_group(antisymmetric(v), regularizer, s), rtol=0, atol=1e-12)
            assert pair.value(z) == pytest.approx(regularizer.value(antisymmetric(z)), rel=1e-12, abs=1e-15)
            assert np.array_equal(pair.prox_parts(v, s)[0], z)

    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_jacobian(self, variant, chain_name):
        # central differences of the prox, and the general per-column blocks
        # seen along the antisymmetric direction (1, -1)/sqrt 2
        rng = np.random.default_rng(82)
        p, h = 6, 1e-6
        _, _, regularizer, pair = self.node_and_pair(variant, chain_name, 5, p, rng)
        along = np.array([1.0, -1.0]) / SQRT2
        for s in (0.5, 2.0):
            v = rng.normal(size=p) * 0.5
            v = np.where(np.abs(np.abs(v) - s * pair.l1) < 1e-3, v + 1e-2, v)  # away from the thresholds
            scalar, free = pair.jacobian(pair.prox(v, s), s)
            numeric = np.column_stack([(pair.prox(v + h * e, s) - pair.prox(v - h * e, s)) / (2 * h) for e in np.eye(p)])
            assert np.abs(numeric - np.diag(scalar * free)).max() <= 1e-6
            blocks = full_blocks(jacobian_at(antisymmetric(v), regularizer, s))
            assert np.allclose(along @ blocks @ along, scalar * free, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fused_prox_parts(self, variant):
        # prox_parts forms the point and R of it from the magnitudes [|v| - s l1]_+:
        # the point is prox_weighted_l1's bit for bit, except that an entry -0.0
        # of v gives -0.0 (copysign) where np.sign(-0.0) * 0 gives +0.0, and
        # the value is _Pair.value of the point
        rng = np.random.default_rng(86)
        p = 12
        _, _, _, pair = self.node_and_pair(variant, "two_ancestors", 5, p, rng)
        for s in (0.01, 0.3, 4.0):
            v = rng.normal(size=p)
            v[:4] = (0.0, -0.0, s * pair.l1[2], -s * pair.l1[3])  # signed zeros and entries on their thresholds
            z, parts, value = pair.prox_parts(v, s)
            assert parts is z and value == pair.value(z)
            if pair.quad:
                assert z.tobytes() == pair.prox(v, s).tobytes()
                continue
            expected = prox_weighted_l1(v, s * pair.l1)
            negative_zero = (v == 0.0) & np.signbit(v)
            assert z[~negative_zero].tobytes() == expected[~negative_zero].tobytes()
            assert np.all(z[negative_zero] == 0.0) and np.all(np.signbit(z[negative_zero]))

    def test_thresholds_follow_the_step(self):
        # the thresholds s l1 kept between calls give what a fresh object gives, as s alternates
        rng = np.random.default_rng(87)
        x, labels, regularizer, pair = self.node_and_pair("sparse_group", "two_ancestors", 5, 8, rng)
        for s in (0.3, 0.3, 2.0, 0.3, 2.0, 2.0, 0.01):
            v = rng.normal(size=8)
            ours = pair.prox_parts(v, s)
            fresh = _Pair(label_margins(np.zeros((2, 8)), x, labels), regularizer).prox_parts(v, s)
            assert ours[0].tobytes() == fresh[0].tobytes() and ours[2] == fresh[2]

    def test_rows_are_the_matrix_form(self):
        # _Rows applies A and A^T as MarginMap's matrix form does, bit for bit,
        # and they are the general margin map at w = (u, -u)/sqrt 2 seen along u
        rng = np.random.default_rng(88)
        n, p = 40, 8
        x, labels, _, pair = self.node_and_pair("sparse_group", "root", n, p, rng)
        u = rng.normal(size=p) * 0.3
        rows = pair.margin_map(pair.origin.at(u))
        z, lam = rng.normal(size=p), rng.normal(size=rows.size)
        assert rows(z).tobytes() == (rows.a @ z.ravel()).tobytes()
        assert rows.adjoint(lam).tobytes() == (lam @ rows.a).reshape(p).tobytes()
        margins = label_margins(antisymmetric(u), x, labels)
        general = MarginMap(x, margins.y0, margins.active)
        assert general.size == rows.size
        assert np.allclose(general(antisymmetric(z)), rows(z), rtol=0, atol=1e-12)
        assert np.allclose(general.adjoint(lam), antisymmetric(rows.adjoint(lam)), rtol=0, atol=1e-12)

    def test_general_dot_is_the_summed_product(self):
        # K >= 3 keeps the pairwise sum of the entrywise product, bit for bit
        rng = np.random.default_rng(89)
        a, b = rng.normal(size=(3, 30)), rng.normal(size=(3, 30))
        assert _General.dot(a, b) == float((a * b).sum())

    @pytest.mark.parametrize("sizes", sorted(TestDualNewtonSpaces.SIZES))
    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_is_the_general_step(self, variant, chain_name, sizes):
        # the K = 2 step, in the space the sizes select, equals the general step
        # at w = (u, -u)/sqrt 2 in both of the general spaces
        rng = np.random.default_rng(83)
        n, p = TestDualNewtonSpaces.SIZES[sizes]
        x, labels, regularizer, pair = self.node_and_pair(variant, chain_name, n, p, rng, alpha=0.3, beta=0.3)
        u = rng.normal(size=p) * 0.3
        margins, ours = label_margins(antisymmetric(u), x, labels), pair.origin.at(u)
        a, rows = MarginMap(x, margins.y0, margins.active).matrix(), pair.margin_map(ours)
        # A (u, -u)/sqrt 2 = xhat_active u: the general margins' rows, seen along u
        assert np.allclose((a[:, :p] - a[:, p:]) / SQRT2, rows.a, rtol=0, atol=1e-12)
        mu = TestDualNewtonSpaces.MU
        s, c = 1.0 / mu, pair.c
        v = u - s * (ours.grad() + rng.uniform(0.0, 1.0, size=rows.size) @ rows.a)
        z = pair.prox(v, s)
        assert (rows.size <= 2 * np.count_nonzero(pair.jacobian(z, s)[1])) == (sizes == "m < free")
        grad_dual = rng.normal(size=rows.size)
        delta, at_delta = pair.step(z, s, grad_dual, grad_dual @ rows.a, c, mu, rows, ours.hessian)
        jac = jacobian_at(antisymmetric(v), regularizer, s)
        at_grad = (grad_dual @ a).reshape(2, p)
        for general, at_general in (
            _margin_space_step(jac, grad_dual, c, mu, a),
            _weight_space_step(jac, grad_dual, at_grad, c, mu, lambda d: a @ d.ravel(), margins.hessian()),
        ):
            assert relative_gap(delta, general) <= 1e-9
            assert relative_gap(antisymmetric(at_delta), at_general) <= 1e-9


def scan(trial, dual, slope, size):
    """_line_search's reference: the one-by-one Armijo scan."""
    return armijo_scan(trial, dual, slope, DUAL_ASCENT, MAX_BACKTRACKS)


class TestDualLineSearch:
    """The bracketed dual line search returns the rung and the trial of the
    one-by-one scan bit for bit, so the dual path keeps its lam, A^T lam and
    z, on random dual models of both coordinate objects (K = 2 in u and K =
    2, 3, 4 in the general coordinates, all five variants) solved to tol 0,
    that is until the dual stops rising above its rounding. Those reach every
    case: a step accepted at t = 1, which costs one trial; one bracketed by
    proved rejections; one whose rejected bracket end lies within the
    rounding bound, so that the search falls back to the scan; and one with
    all MAX_BACKTRACKS rungs rejected."""

    MU = 0.37
    SIZES = ((3, 10), (60, 3), (40, 8))

    @classmethod
    def model(cls, coords, k, variant, seed, sizes):
        """_solve_dual_model's arguments on a random node, with tol 0."""
        rng = np.random.default_rng(seed)
        n, p = sizes
        x, labels = rng.normal(size=(n, p)), rng.integers(1, k + 1, size=n)
        w = rng.normal(size=(k, p)) * 0.3
        chain = chain_of(rng.normal(size=p), rng.normal(size=p)) if seed % 2 else ()
        regularizer = Regularizer(RegularizerConfig(alpha=0.3, beta=0.3, variant=variant), chain, k, p)
        at_zero = label_margins(np.zeros_like(w), x, labels)
        space = _Pair(at_zero, regularizer) if coords == "pair" else _General(at_zero, regularizer)
        if coords == "pair":
            w = (w[0] - w[1]) / SQRT2
        margins = space.origin.at(w)
        return w, margins.grad(), margins.hessian_once, cls.MU, space.margin_map(margins), space.c, space, 0.0

    @staticmethod
    def solve(monkeypatch, model, search):
        """Solve the model with search as the line search; returns the last
        primal point and, per Newton step, lam before it and the search's
        step, value and state, its trial count and whether a trial other
        than t = 1 was rejected within the rounding bound."""
        space, steps = model[6], []

        def spy_search(trial, dual, slope, size):
            tried = {}

            def counted(t):
                tried[t] = trial(t)
                return tried[t]

            t, (value, size_t, state) = search(counted, dual, slope, size)
            lines = {t: dual + DUAL_ASCENT * t * slope for t in tried}
            unsure = any(
                v < lines[r] and not lines[r] - v > 4.0 * DUAL_ROUNDING * max(size, r_size)
                for r, (v, r_size, _) in tried.items()
                if r != 1.0
            )
            steps[-1].update(t=t, value=value, state=state, trials=len(tried), unsure=unsure,
                             accepted=value >= lines[t])
            return t, (value, size_t, state)

        def spy_norm(lam, delta, norm=space.ray_norm):
            steps.append({"lam": lam.copy()})
            return norm(lam, delta)

        with monkeypatch.context() as patch:
            patch.setattr(space, "ray_norm", spy_norm)
            patch.setattr(margintree.optim, "_line_search", spy_search)
            z = _solve_dual_model(*model)
        return z, steps

    def test_search_is_the_scan(self, monkeypatch):
        seen = collections.Counter()
        for coords, k in (("pair", 2), ("general", 2), ("general", 3), ("general", 4)):
            for variant in VARIANTS:
                for seed in range(3):
                    for sizes in self.SIZES:
                        name = f"{coords} K={k} {variant} seed {seed} {sizes}"
                        # a model each, since the margin map switches to its matrix form on the way
                        z, ours = self.solve(monkeypatch, self.model(coords, k, variant, seed, sizes), _line_search)
                        z_scan, reference = self.solve(monkeypatch, self.model(coords, k, variant, seed, sizes), scan)
                        assert z.tobytes() == z_scan.tobytes(), name
                        assert len(ours) == len(reference), name
                        for step, expected in zip(ours, reference):
                            assert step["t"] == expected["t"] and step["value"] == expected["value"], name
                            assert step["lam"].tobytes() == expected["lam"].tobytes(), name
                            for got, want in zip(step["state"][::2], expected["state"][::2]):  # A^T lam, z
                                assert got.tobytes() == want.tobytes(), name
                            if expected["t"] == 1.0 and expected["accepted"]:
                                assert step["trials"] == 1, name
                                seen["accepted at t = 1"] += 1
                            elif not expected["accepted"]:
                                assert step["t"] == ARMIJO_STEPS[-1], name
                                seen["all rungs rejected"] += 1
                            else:
                                seen["fallback" if step["unsure"] else "bracketed"] += 1
        assert set(seen) == {"accepted at t = 1", "bracketed", "fallback", "all rungs rejected"}, seen


def stop_residual(w, x, labels, regularizer):
    """solve_w's stop test at the K x P weights w: the largest entry of the
    prox-gradient residual at the step 1/L over the largest entry of the hinge
    gradient at w = 0 (the same ratio in the u coordinates)."""
    gram = x.T @ x
    t = x.shape[0] / (2.0 * np.sqrt((gram * gram).sum()))
    r = (w - prox_sparse_group(w - t * hinge_grad(w, x, labels), regularizer, t)) / t
    return float(np.abs(r).max() / np.abs(hinge_grad(np.zeros_like(w), x, labels)).max())


class TestPairPathMatchesGeneral:
    """At K = 2, solve_w follows its general path: from the same node and
    start, each call ends no higher than the general path (1e-10 relative,
    floored at split's rounding floor of an objective near 0; it may end
    lower), on w_1 = -w_2 exactly, and both meet the residual test. A start
    with w_1 != -w_2 is projected onto w_1 = -w_2: the projection does not
    raise the objective, the call then follows the general path from the
    projected start, and ends within the residual test's resolution (1e-8
    relative) of the general path from the start itself."""

    @staticmethod
    def node(kind):
        """The planted node, or 60 random rows labelled by a random hyperplane
        with one label in ten flipped."""
        if kind == "planted":
            x, labels, _ = planted_node(2)
            return x, labels
        rng = np.random.default_rng(84)
        x = rng.normal(size=(60, 8))
        labels = 1 + (x @ rng.normal(size=8) > 0)
        return x, np.where(rng.random(60) < 0.1, 3 - labels, labels)

    @staticmethod
    def no_higher(ours, reference, rel):
        assert ours <= reference + max(rel * reference, OBJECTIVE_FLOOR)

    @pytest.mark.parametrize("start", ["zeros", "asymmetric"])
    @pytest.mark.parametrize("kind", ["random", "planted"])
    @pytest.mark.parametrize("chain_name", ["root", "two_ancestors"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_objective_weights_and_residual(self, variant, chain_name, kind, start):
        x, labels = self.node(kind)
        p = x.shape[1]
        chain = TestWeightUpdateOptimality.chain(chain_name, p)
        regularizer = Regularizer(RegularizerConfig(alpha=0.01, beta=0.01, variant=variant), chain, 2, p)

        def objective(w):
            return node_objective(w, labels, regularizer, x)

        # a start the size of the fitted weights
        w0 = np.zeros((2, p)) if start == "zeros" else 0.1 * np.random.default_rng(85).normal(size=(2, p))
        projected = np.stack((w0[0] - w0[1], w0[1] - w0[0])) / 2.0
        ours = solve_w(x, labels, regularizer, w0)
        general = general_solve_w(x, labels, regularizer, w0)
        assert np.array_equal(ours[0], -ours[1])
        for w in (ours, general):
            assert stop_residual(w, x, labels, regularizer) <= 1e-8
        if start == "zeros":
            self.no_higher(objective(ours), objective(general), 1e-10)
        else:
            # to rounding: the loss depends on w_1 - w_2 only, which the projection keeps
            self.no_higher(objective(projected), objective(w0), 4.0 * np.finfo(float).eps)
            self.no_higher(objective(ours), objective(general_solve_w(x, labels, regularizer, projected)), 1e-10)
            self.no_higher(objective(ours), objective(general), 1e-8)


class TestNoDescentStop:
    """A call that stops because no step decreases the objective, above its
    residual test, says so at debug level with its relative residual, and
    warns of nothing. On 60 random rows with uniformly random labels the
    objective's rounding (about 6e-17 at 0.43) hides the decrease a step of
    residual 2e-8 would give, on both paths."""

    @staticmethod
    def stops(caplog, solve, x, labels, regularizer):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="margintree.optim"):
            w = solve(x, labels, regularizer, np.zeros((2, x.shape[1])))
        records = [r for r in caplog.records if r.name == "margintree.optim" and "w-update iter" not in r.msg]
        assert all(r.levelno == logging.DEBUG for r in records)
        return w, [r.getMessage() for r in records]

    @pytest.mark.parametrize("solve", [solve_w, general_solve_w])
    def test_logged_with_its_residual(self, caplog, solve):
        rng = np.random.default_rng(84)
        x = rng.normal(size=(60, 8))
        labels = rng.integers(1, 3, size=60)
        regularizer = Regularizer(RegularizerConfig(alpha=0.01, beta=0.01), (), 2, 8)
        w, messages = self.stops(caplog, solve, x, labels, regularizer)
        residual = stop_residual(w, x, labels, regularizer)
        assert residual > 1e-8
        [message] = messages
        prefix = "weight update stopped: no step decreases the objective, at relative residual "
        assert message.startswith(prefix)
        assert float(message[len(prefix):]) == pytest.approx(residual, rel=1e-3)

    def test_not_logged_when_the_residual_test_stops(self, caplog):
        x, labels = TestPairPathMatchesGeneral.node("random")
        regularizer = Regularizer(RegularizerConfig(alpha=0.01, beta=0.01), (), 2, 8)
        w, messages = self.stops(caplog, solve_w, x, labels, regularizer)
        assert stop_residual(w, x, labels, regularizer) <= 1e-8
        assert messages == []


# Recorded from the commit before the weight update kept one margins record per
# iterate and mapped the dual over the positive margins only: per workload
# (branching, per_class, K, max_leaves) of the benchmark, the objective of each
# solve_w call of the build of dataset 0, and a digest of its leaves. The
# values were taken with one BLAS thread: with two, OpenBLAS sums some
# products in another order, and the recorded commit itself then ends
# planted-wide calls up to 3e-9 relative away from them.
PARENT_PATH = {
    "planted-small": (
        (2, 50, 2, 4),
        (2.7210124513654987e-05, 4.7481600772727825e-05, 4.7687530571584964e-05, 0.0008289952285272781,
         0.000659595872178789),
        "e1998729126082cf7ceda632448677dea35223df0f1670aa650c9a1d4e049152",
    ),
    "planted-large": (
        (2, 400, 2, 4),
        (2.904547472198918e-05, 5.446199505137694e-05, 5.3976814898246687e-05, 0.003322140950893699,
         0.0042624245085419316),
        "87b6611b89ceefa85d2311f57a6da849bcc1cea243c0cfb525ca603dd960790d",
    ),
    "planted-wide": (
        (4, 50, 4, 10),
        (4.301817675440247e-05, 0.00015600315940232542, 0.0011323786269216304, 0.00013551508046274606,
         0.0008617611941006999, 0.0005911337292328326, 0.0005193419100656377, 0.0005492087246218463,
         0.0005760096000536402),
        "34e4cb263f52df4c323b34e39736e55a5b4fa166e0dbd050fb7922e6bb091e5c",
    ),
}


# solve_w calls of the build of dataset 0: the builder never solves the final
# round's losing candidates whose score bound is below the round's winning
# score (at K = 2 nodes 4 and 5, at K = 4 the four grandchildren, nodes 6 to 9);
# TestIteratePath solves them on their own.
BUILD_CALLS = {"planted-small": 3, "planted-large": 3, "planted-wide": 5}


def leaf_digest(hierarchy):
    members = sorted(sorted(int(i) for i in leaf.data.indices) for leaf in hierarchy.leaves())
    return hashlib.sha256(json.dumps(members).encode()).hexdigest()


def iterate_path(workload, skipped=True):
    """Build dataset 0 of a workload; return the node id, objective and
    relative residual of each solve_w call, and the leaf digest. With
    skipped, also split each node of the recorded path that the build did
    not split, with the chain, seed and configuration the build would have
    used, and return its calls with its score and score bound, and the
    final round's winning score."""
    (branching, per_class, k, max_leaves), _, _ = PARENT_PATH[workload]
    ds, _ = generate_synthetic(SyntheticSpec(branching=branching, per_class=per_class, seed=0))
    reg = RegularizerConfig(alpha=0.01, beta=0.01)
    config = BuildConfig(k=k, stop=StoppingCriterion(max_leaves=max_leaves), reg=reg, seed=restart_seed(0, 0))
    node_of_seed = {margintree.hier.node_seed(config.seed, node_id): node_id for node_id in range(1, 64)}
    calls, chains, nodes = [], {}, []
    split_node_, solve_w_, chain_ = margintree.hier.split_node, margintree.split.solve_w, margintree.hier.ancestor_chain

    def spy_chain(hierarchy, node_id):
        chains[node_id] = chain_(hierarchy, node_id)
        return chains[node_id]

    def spy_split(x, regularizer, k, seed):
        nodes.append(node_of_seed[seed])
        return split_node_(x, regularizer, k, seed)

    def spy_solve(x, labels, regularizer, w0):
        w = solve_w_(x, labels, regularizer, w0)
        residual = weight_update_residual(w, x, labels, chains[nodes[-1]], reg)
        calls.append((nodes[-1], node_objective(w, labels, regularizer, x), residual))
        return w

    margintree.hier.split_node, margintree.hier.ancestor_chain = spy_split, spy_chain
    margintree.split.solve_w = spy_solve
    try:
        hierarchy = build_hierarchy(ds, config)
        path = {"calls": list(calls), "digest": leaf_digest(hierarchy)}
        if skipped:
            del calls[:]
            last = hierarchy.node(max(hierarchy.nodes))
            path["winning"] = hierarchy.node(last.parent_id).split.score
            path["skipped"] = []
            for node_id in sorted(set(range(1, len(PARENT_PATH[workload][1]) + 1)) - set(nodes)):
                x = hierarchy.node(node_id).data.features
                regularizer = Regularizer(reg, spy_chain(hierarchy, node_id), k, x.shape[1])
                bound = score_bound(x, regularizer, k)
                result = spy_split(x, regularizer, k, margintree.hier.node_seed(config.seed, node_id))
                path["skipped"].append({"calls": list(calls), "score": result.score, "bound": bound})
                del calls[:]
    finally:
        margintree.hier.split_node, margintree.hier.ancestor_chain = split_node_, chain_
        margintree.split.solve_w = solve_w_
    return path


def line_search_trials():
    """The count of dual line-search trials of the planted-small build of dataset 0."""
    trials = [0]
    search = margintree.optim._line_search

    def counting(trial, *args):
        def counted(t):
            trials[0] += 1
            return trial(t)

        return search(counted, *args)

    margintree.optim._line_search = counting
    try:
        iterate_path("planted-small", skipped=False)
    finally:
        margintree.optim._line_search = search
    return trials[0]


def test_planted_small_line_search_trials():
    # the one-by-one scan takes 1183 trials on the build that solves all five
    # candidates, the bracketed search 781, and 311 on the build that skips
    # the two that cannot win; a process of its own, with BLAS on one thread
    # as TestIteratePath runs the same build
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(margintree.__file__))
    path = os.pathsep.join([tests, src, os.environ.get("PYTHONPATH", "")])
    one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    run = subprocess.run(
        [sys.executable, "-c", "import test_optim; print(test_optim.line_search_trials())"],
        env=dict(os.environ, PYTHONPATH=path, **one),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 360


class TestIteratePath:
    """The weight update keeps its iterate path on dataset 0 of each benchmark
    workload: every solve_w call ends at a relative residual <= 1e-8 and at
    the recorded objective, and the leaves are the recorded ones. The build
    makes BUILD_CALLS of the recorded calls; the candidates it skips are
    solved on their own, end at their recorded objectives, and score below
    a bound that is itself below the winning score."""

    @pytest.mark.parametrize("workload", sorted(PARENT_PATH))
    def test_objectives_residuals_and_leaves(self, workload):
        _, recorded, digest = PARENT_PATH[workload]
        # a process of its own, with BLAS on one thread as when the path was recorded
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(margintree.__file__))
        path = os.pathsep.join([tests, src, os.environ.get("PYTHONPATH", "")])
        one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        run = subprocess.run(
            [sys.executable, "-c", "import json, sys, test_optim; print(json.dumps(test_optim.iterate_path(sys.argv[1])))",
             workload],
            env=dict(os.environ, PYTHONPATH=path, **one),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert len(result["calls"]) == BUILD_CALLS[workload]
        calls = result["calls"] + [call for skipped in result["skipped"] for call in skipped["calls"]]
        # one call per split, the recorded run's k-th call on node k
        assert sorted(node for node, _, _ in calls) == list(range(1, len(recorded) + 1))
        for node, objective, residual in calls:
            parent = recorded[node - 1]
            assert residual <= 1e-8
            # no higher than the recorded objective by more than 1e-10 relative;
            # a call that takes one more model solve than the recorded run may end
            # lower, by what one model step gains near the stopping residual
            assert -1e-8 <= (objective - parent) / parent <= 1e-10
        assert len(result["skipped"]) == len(recorded) - BUILD_CALLS[workload]
        for skipped in result["skipped"]:
            assert skipped["score"] < skipped["bound"] < result["winning"]
        assert result["digest"] == digest
