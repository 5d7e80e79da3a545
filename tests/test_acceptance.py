"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s`)."""

import time

import numpy as np
import pytest

from margintree import (
    BuildConfig,
    ClassTree,
    Dataset,
    RegularizerConfig,
    StoppingCriterion,
    SyntheticSpec,
    build_hierarchy,
    build_hkm,
    build_hkm_d,
    flat_hierarchy,
    generate_synthetic,
    kmeans,
    score_hierarchy,
    score_leaves,
)
from margintree.core import subset
from margintree.export import hierarchy_to_dict, render_json
from margintree.flow import solve_balanced_assignment
from margintree.objective import hinge_grad, hinge_loss
from margintree.optim import prox_sparse_group
from margintree.split import balance_bounds
from helpers import blob_dataset, manual_hierarchy, random_problem, split_rows
from oracles import (
    brute_force_assignment,
    finite_difference_grad,
    prox_objective,
    prox_optimality_residual,
    subgradient_prox_oracle,
)
from test_optim import random_prox_instance, spec_for

PLANTED = SyntheticSpec(
    depth=2, branching=2, per_class=50, informative_dims=10, noise_dims=10,
    magnitudes=(5.0, 3.0), noise_scale=1.0,
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_mcf_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    solved = 0
    while solved < 200:
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 4))
        if n < k:
            continue
        costs = rng.uniform(0.0, 10.0, size=(n, k))
        bounds = balance_bounds(n, k)
        labels = solve_balanced_assignment(costs, bounds.lower, bounds.upper)
        _, best = brute_force_assignment(costs, bounds.lower, bounds.upper)
        got = float(costs[np.arange(n), labels - 1].sum())
        worst = max(worst, got - best)
        assert got - best <= 1e-9, f"instance {solved}: {got} vs oracle {best}"
        solved += 1
    elapsed = time.perf_counter() - started
    _report(1, elapsed < 10.0, f"200 instances match brute force (worst gap {worst:.2e}), {elapsed:.1f}s < 10s")


def test_criterion_2_prox_correctness():
    rng = np.random.default_rng(2002)
    worst_gap = -np.inf
    worst_residual = 0.0
    for _ in range(100):
        w, alpha, beta, lam_e, s = random_prox_instance(rng)
        k, p = w.shape
        spec = spec_for(alpha, beta, lam_e, k, p)
        ours = prox_sparse_group(w, spec, s)
        _, oracle_val = subgradient_prox_oracle(w, s, alpha, beta, lam_e, iters=6000)
        gap = prox_objective(ours, w, s, alpha, beta, lam_e) - oracle_val
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6, f"prox objective above the numerical minimizer by {gap}"
        residual = prox_optimality_residual(ours, w, s, alpha, beta, lam_e)
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-6, f"optimality residual {residual}"
    expansive = 0
    for _ in range(100):
        w, alpha, beta, lam_e, s = random_prox_instance(rng)
        k, p = w.shape
        spec = spec_for(alpha, beta, lam_e, k, p)
        other = w + rng.normal(size=w.shape)
        if np.linalg.norm(prox_sparse_group(w, spec, s) - prox_sparse_group(other, spec, s)) > np.linalg.norm(
            w - other
        ) + 1e-12:
            expansive += 1
    _report(
        2,
        expansive == 0,
        f"100 prox instances within 1e-6 of subgradient oracle (worst gap {worst_gap:.2e}, "
        f"worst residual {worst_residual:.2e}); non-expansive on 100 pairs",
    )


def test_criterion_3_gradient_check():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(100):
        w, x, labels = random_problem(rng, n_max=20, p_max=10, k_max=4)
        analytic = hinge_grad(w, x, labels)
        numeric = finite_difference_grad(lambda m: hinge_loss(m, x, labels), w, h=1e-5)
        err = np.abs(analytic - numeric).max() / max(1.0, np.abs(analytic).max())
        worst = max(worst, err)
        assert err <= 1e-5, f"gradient error {err}"
    _report(3, worst <= 1e-5, f"100 gradient checks vs central differences (worst rel err {worst:.2e})")


def test_criterion_4_monotone_alternating_descent():
    rng = np.random.default_rng(4004)
    runs = 0
    for trial in range(20):
        if trial % 2 == 0:
            ds = blob_dataset(trial, [[4.0, 0.0, 0.0], [-4.0, 0.0, 0.0]], per_blob=12, spread=1.0)
        else:
            ds = Dataset(features=rng.normal(size=(24, 5)), ids=np.arange(24))
        nd = subset(ds, np.arange(ds.n))
        result = split_rows(nd.features, (), 2, RegularizerConfig(0.01, 0.01), seed=trial)
        assert result.iterations <= 50
        for before, after in zip(result.trace, result.trace[1:]):
            assert after <= before + 1e-8 * max(1.0, abs(before)), f"objective rose on trial {trial}"
        runs += 1
    _report(4, runs == 20, "20 split runs: objective non-increasing at every half-step, <= 50 alternations")


@pytest.fixture(scope="module")
def planted_runs():
    """Five planted datasets with best-of-3-restart hierarchies (criteria 5, 6)."""
    from dataclasses import replace

    from margintree.cli import restart_seed
    from margintree.hier import global_objective

    runs = []
    started = time.perf_counter()
    for seed in range(5):
        ds, truth = generate_synthetic(replace(PLANTED, seed=seed))
        best = None
        reg = RegularizerConfig(alpha=1e-2, beta=1e-2)
        for restart in range(3):
            cfg = BuildConfig(k=2, stop=StoppingCriterion(max_leaves=4), reg=reg, seed=restart_seed(seed, restart))
            h = build_hierarchy(ds, cfg)
            obj = global_objective(h)
            if best is None or obj < best[0]:
                best = (obj, h)
        runs.append((ds, truth, best[1]))
    return runs, time.perf_counter() - started


def test_criterion_5_planted_recovery(planted_runs):
    runs, build_time = planted_runs
    started = time.perf_counter()
    recovered = 0
    sp_h, ps_h, sp_km, ps_km = [], [], [], []
    for seed, (ds, truth, hierarchy) in enumerate(runs):
        scores = score_hierarchy(hierarchy, ds, truth)
        if scores["rand_index"] >= 0.95:
            recovered += 1
        sp_h.append(scores["sp"])
        ps_h.append(scores["ps"])
        km = kmeans(ds.features, 4, seed=seed)
        km_scores = score_leaves(km.labels, 0, {0: [1, 2, 3, 4]}, ds.labels, truth)  # labels 1..4
        sp_km.append(km_scores["sp"])
        ps_km.append(km_scores["ps"])
    elapsed = build_time + (time.perf_counter() - started)
    ok = (
        recovered >= 4
        and np.mean(sp_h) > np.mean(sp_km)
        and np.mean(ps_h) > np.mean(ps_km)
        and elapsed < 120.0
    )
    _report(
        5,
        ok,
        f"RI>=0.95 in {recovered}/5 seeds; SP {np.mean(sp_h):.4f} > km {np.mean(sp_km):.4f}; "
        f"PS {np.mean(ps_h):.4f} > km {np.mean(ps_km):.4f}; total {elapsed:.0f}s < 120s",
    )


def test_criterion_6_exclusive_sparsity_effect(planted_runs):
    runs, _ = planted_runs
    level1 = slice(0, 10)
    level2 = slice(10, 20)
    seeds_ok = 0
    details = []
    for ds, truth, hierarchy in runs:
        root = hierarchy.root
        w_root = np.abs(root.split.weights)
        root_l1_frac = w_root[:, level1].sum() / w_root.sum()
        root_l2_frac = w_root[:, level2].sum() / w_root.sum()
        child_ok = True
        for child_id in root.child_ids:
            child = hierarchy.nodes[child_id]
            if child.split is None:
                child_ok = False
                continue
            w_child = np.abs(child.split.weights)
            if w_child[:, level2].sum() / w_child.sum() <= root_l2_frac:
                child_ok = False
        if root_l1_frac >= 0.6 and child_ok:
            seeds_ok += 1
        details.append(round(float(root_l1_frac), 3))
    _report(
        6,
        seeds_ok >= 4,
        f"root level-1 mass {details} (>=0.6) and deeper splits shift to the level-2 block in {seeds_ok}/5 seeds",
    )


def test_criterion_7_metric_correctness():
    truth = ClassTree(
        root="root",
        children={"root": ["n1", "n2"], "n1": ["c1", "c2"], "n2": ["c3", "c4"]},
        leaf_classes={"c1": "c1", "c2": "c2", "c3": "c3", "c4": "c4"},
    )
    labels = np.array(["c1", "c1", "c2", "c2", "c3", "c3", "c4", "c4"])
    ds = Dataset(features=np.zeros((8, 2)), ids=np.arange(8), labels=labels)
    learned = manual_hierarchy(
        ds, {1: [[0, 1, 2, 3], [4, 5, 6, 7]], 2: [[0, 1, 3], [2]], 3: [[4, 5], [6, 7]]}
    )
    scores = score_hierarchy(learned, ds, truth)
    sp, ps, ri = scores["sp"], scores["ps"], scores["rand_index"]
    flat = score_leaves(np.array([1, 1, 2, 2, 3, 3, 4, 4]), 0, {0: [1, 2, 3, 4]}, labels, truth)
    flat_sp, flat_ps = flat["sp"], flat["ps"]
    checks = {
        "SP": (sp, 109 / 112),
        "PS": (ps, 83 / 84),
        "RI": (ri, 25 / 28),
        "flat SP": (flat_sp, 13 / 14),
        "flat PS": (flat_ps, 17 / 21),
    }
    ok = all(abs(got - want) <= 1e-12 for got, want in checks.values())
    _report(7, ok, "; ".join(f"{name}={got:.12f} (want {want:.12f})" for name, (got, want) in checks.items()))


def test_criterion_8_determinism():
    ds, _ = generate_synthetic(SyntheticSpec(per_class=20, seed=12))
    reg = RegularizerConfig(alpha=1e-2, beta=1e-2)

    def hmmc():
        cfg = BuildConfig(k=2, stop=StoppingCriterion(max_leaves=4), reg=reg, seed=7)
        return build_hierarchy(ds, cfg)

    def mmc_flat():
        cfg = BuildConfig(k=4, stop=StoppingCriterion(max_leaves=4), reg=reg, seed=7)
        return build_hierarchy(ds, cfg)

    def hkm():
        cfg = BuildConfig(k=2, stop=StoppingCriterion(max_leaves=4), reg=reg, seed=7)
        return build_hkm(ds, cfg)

    def hkm_d():
        cfg = BuildConfig(k=2, stop=StoppingCriterion(max_leaves=4), reg=reg, seed=7)
        return build_hkm_d(ds, cfg)

    def kmeans_flat():
        result = kmeans(ds.features, 4, seed=7)
        return flat_hierarchy(ds, result.labels, result.centroids)

    builders = {"hmmc": hmmc, "hkm": hkm, "hkm_d": hkm_d, "mmc_flat": mmc_flat, "kmeans_flat": kmeans_flat}
    mismatched = [
        name
        for name, builder in builders.items()
        if render_json(hierarchy_to_dict(builder())) != render_json(hierarchy_to_dict(builder()))
    ]
    _report(8, not mismatched, f"byte-identical exports across reruns for {sorted(builders)} (mismatches: {mismatched})")


def test_criterion_9_variant_toggles():
    ds, _ = generate_synthetic(SyntheticSpec(per_class=25, seed=0))

    def sparsity(h):
        weights = np.concatenate([n.split.weights.ravel() for n in h.non_leaves()])
        return float(np.mean(weights == 0.0))

    results = {}
    for variant in ("sparse_group", "group_only", "exclusive_only", "l1", "squared_l2"):
        cfg = BuildConfig(
            k=2, stop=StoppingCriterion(max_leaves=4),
            reg=RegularizerConfig(alpha=1.0, beta=1.0, variant=variant),
            seed=0,
        )
        h = build_hierarchy(ds, cfg)
        assert len(h.leaves()) == 4, f"{variant} did not run to completion"
        results[variant] = sparsity(h)
    ok = (
        results["squared_l2"] == 0.0
        and results["sparse_group"] >= max(results["group_only"], results["exclusive_only"]) - 0.05
    )
    _report(9, ok, "sparsity " + ", ".join(f"{k}={v:.3f}" for k, v in results.items()))
