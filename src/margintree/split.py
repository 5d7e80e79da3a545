"""Splitting one node, given its n x P feature array and its split's
Regularizer: balance bounds, seeded initialization, alternating descent
between the weight update and the balanced assignment, and the splitting
score and its K = 2 upper bound used by the greedy hierarchy builder.

The alternation fixes labels and solves for weights (convex), then fixes
weights and solves the balanced assignment exactly by min-cost flow; both
half-steps can only lower the split objective (up to float rounding), so the
sequence of objective values is non-increasing and terminates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Split
from .errors import SolverError, UnsplittableNodeError
from .flow import solve_balanced_assignment
from .kmeans import kmeans
from .objective import Regularizer, cost_matrix, node_objective
from .optim import SQRT2, solve_w

logger = logging.getLogger(__name__)

REL_OBJ_TOL = 1e-6
MAX_ALTERNATIONS = 50
DESCENT_TOL = 1e-9
# Objective checks are relative to |f|, floored at the rounding error of an
# objective near 0: a few ulps of 1/2, the least split objective at w = 0
# ((K - 1)/K).
OBJECTIVE_FLOOR = 4.0 * np.finfo(float).eps * 0.5


def _slack(rel: float, objective: float) -> float:
    return max(rel * abs(objective), OBJECTIVE_FLOOR)


@dataclass(frozen=True)
class BalanceBounds:
    lower: int
    upper: int


def balance_bounds(n: int, k: int) -> BalanceBounds:
    """Cluster-size bounds floor(0.9 n/K) and ceil(1.1 n/K), repaired to
    feasibility when rounding breaks K*L <= n <= K*U, and with L at least 1
    so that no cluster is empty (feasible, since n >= K).

    Integer arithmetic throughout (0.9 = 9/10) so results never depend on
    float rounding.
    """
    if k < 2:
        raise UnsplittableNodeError(f"need at least 2 clusters, got {k}")
    if n < k:
        raise UnsplittableNodeError(f"cannot split {n} instances into {k} clusters")
    lower = max((9 * n) // (10 * k), 1)
    upper = -((-11 * n) // (10 * k))
    if k * lower > n:
        lower = n // k
    if k * upper < n:
        upper = -((-n) // k)
    return BalanceBounds(lower=lower, upper=upper)


def init_assignment(x: np.ndarray, k: int, bounds: BalanceBounds, seed: int) -> np.ndarray:
    """Seeded k-means labels of the n x P features repaired to the balance
    bounds by solving the assignment with squared-distance costs."""
    result = kmeans(x, k, seed)
    costs = ((x[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
    return solve_balanced_assignment(costs, bounds.lower, bounds.upper)


def _score(w: np.ndarray, labels: np.ndarray, x: np.ndarray, regularizer: Regularizer) -> float:
    """Fit-to-assignment score sum over instances divided by the model
    complexity G + E under the split's regularizer; -inf sentinel when the
    weights are all zero (such a candidate is never selected)."""
    denom = regularizer.complexity(w)
    if denom == 0.0:
        return float("-inf")
    scores = x @ w.T
    numer = float(scores[np.arange(x.shape[0]), labels - 1].sum())
    return numer / denom


def score_bound(x: np.ndarray, regularizer: Regularizer) -> float:
    """An upper bound on the _score of every K = 2 split of the n x P
    features x that split_node can return: antisymmetric weights w = (v, -v)
    and cluster sizes within balance_bounds(n, 2); regularizer is the split's.

    The score is d.v / sum_p sqrt 2 c_p |v_p|, d = S_1 - S_2 the difference of
    the clusters' column sums and c_p = lambda_G + sqrt 2 lambda_E,p, so it
    is at most max_p |d_p| / (sqrt 2 c_p). With |C_1| = s, |d_p| is at most
    T_p - 2 b_p(s) or T_p - 2 b_p(n - s), T_p the column's total and b_p(s)
    the sum of its s smallest entries; s and n - s both lie within the
    bounds, and one sort per column gives the least b_p there. A rounding
    allowance covers the float error of the computed score (n + P terms of
    at most sum_i |x_ip| |v_p| per column) and of the bound itself, so a
    computed score never exceeds it."""
    n, p = x.shape
    bounds = balance_bounds(n, 2)
    sums = np.zeros((n + 1, p))
    np.cumsum(np.sort(x, axis=0), axis=0, out=sums[1:])
    spread = sums[n] - 2.0 * sums[bounds.lower : bounds.upper + 1].min(axis=0)
    rounding = 8.0 * (n + p + 8) * np.finfo(float).eps
    weight = SQRT2 * (regularizer.lambda_g + SQRT2 * regularizer.lambda_e)
    bound = float(np.max((spread + rounding * np.abs(x).sum(axis=0)) / weight)) * (1.0 + rounding)
    # column sums that overflow give nan, which would break the builder's order by bound
    return float("inf") if np.isnan(bound) else bound


def split_node(x: np.ndarray, regularizer: Regularizer, k: int, seed: int) -> Split:
    """Split the node's n x P features x into k clusters under the split's
    regularizer (lambda_E from the ancestor rows of core.ancestor_chain):
    alternate weight fitting and balanced assignment until the labels reach
    a fixed point, the relative objective change drops below REL_OBJ_TOL, or
    MAX_ALTERNATIONS alternations are done. The split's objective is the
    last entry of its trace."""
    bounds = balance_bounds(x.shape[0], k)
    labels = init_assignment(x, k, bounds, seed)
    w = solve_w(x, labels, regularizer, np.zeros((k, x.shape[1])))
    objective = node_objective(w, labels, regularizer, x)
    trace = [objective]

    iterations = 0
    for iterations in range(1, MAX_ALTERNATIONS + 1):
        costs = cost_matrix(w, x)
        new_labels = solve_balanced_assignment(costs, bounds.lower, bounds.upper)
        after_assign = node_objective(w, new_labels, regularizer, x)
        if after_assign > trace[-1] + _slack(DESCENT_TOL, trace[-1]):
            raise SolverError(
                f"objective rose after assignment half-step: {trace[-1]:.12e} -> {after_assign:.12e}"
            )
        if np.array_equal(new_labels, labels):
            iterations -= 1
            break
        labels = new_labels
        trace.append(after_assign)

        w = solve_w(x, labels, regularizer, w)
        objective = node_objective(w, labels, regularizer, x)
        if objective > after_assign + _slack(DESCENT_TOL, after_assign):
            raise SolverError(
                f"objective rose after weight half-step: {after_assign:.12e} -> {objective:.12e}"
            )
        trace.append(objective)
        if trace[-3] - objective < _slack(REL_OBJ_TOL, trace[-3]):
            break

    score = _score(w, labels, x, regularizer)
    logger.debug("split converged: n=%d iterations=%d objective=%.6e score=%.6e", len(x), iterations, trace[-1], score)
    return Split(labels, w, score, tuple(trace))
