"""Splitting one node, given its n x P feature array and its split's
Regularizer: balance bounds, seeded initialization, alternating descent
between the weight update and the balanced assignment, and the splitting
score and its upper bound used by the greedy hierarchy builder.

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
from .errors import ConfigError, SolverError
from .flow import solve_balanced_assignment
from .kmeans import kmeans, squared_distances
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
    so that no cluster is empty (feasible, since n >= K). n < K or K < 2 is
    a ConfigError.

    Integer arithmetic throughout (0.9 = 9/10) so results never depend on
    float rounding.
    """
    if k < 2:
        raise ConfigError(f"need at least 2 clusters, got {k}")
    if n < k:
        raise ConfigError(f"cannot split {n} instances into {k} clusters")
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
    return solve_balanced_assignment(squared_distances(x, result.centroids), bounds.lower, bounds.upper)


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


def score_bound(x: np.ndarray, regularizer: Regularizer, k: int) -> float:
    """An upper bound on the _score of every K = k split of the n x P
    features x that split_node can return, under the split's regularizer;
    cluster sizes lie within balance_bounds(n, k).

    At K >= 3, any K x P weights: the score is sum_p w_p.S_p / sum_p
    (lambda_G ||w_p||_2 + lambda_E,p ||w_p||_1), S_p the K-vector of the
    clusters' sums of column p and w_p its weights; by Cauchy-Schwarz and
    ||w_p||_1 >= ||w_p||_2 it is at most max_p ||S_p||_2 / c_p, c_p =
    lambda_G + lambda_E,p. ||S_p||_2^2 <= max_k |S_kp| sum_k |S_kp| <= t_p
    A_p, with A_p = sum_i |x_ip| and t_p the larger of the sum of the column's
    U largest positive entries and the magnitude of the sum of its U most
    negative ones, U the upper balance bound.

    At K = 2, antisymmetric weights w = (v, -v), a tighter form: the score is
    d.v / sum_p sqrt 2 c_p |v_p|, d = S_1 - S_2 and c_p = lambda_G + sqrt 2
    lambda_E,p, so it is at most max_p |d_p| / (sqrt 2 c_p). With |C_1| = s,
    |d_p| is at most T_p - 2 b_p(s) or T_p - 2 b_p(n - s), T_p the column's
    total and b_p(s) the sum of its s smallest entries; s and n - s both lie
    within the bounds.

    Either takes one sort per column. The rounding allowance r = 8 (n + (K -
    1) P + 8) eps covers the float error of the computed score and of the
    bound: the numerator, a sum of n dot products of P terms, errs by at most
    (n + P) eps/2 times sum_p A_p ||w_p||_2 (the r A_p term), and the
    denominator's sums of at most K P + K + P non-negative terms, the
    bound's own sums of n, and the divisions and square roots by at most
    (n + K P + K + P + 16) eps/2 relative (the factor 1 + r), so a computed
    score never exceeds it. Products x_ip w_kp below the normal range are
    not covered. A column sum that overflows gives inf."""
    n, p = x.shape
    bounds = balance_bounds(n, k)
    rounding = 8.0 * (n + (k - 1) * p + 8) * np.finfo(float).eps
    magnitude = np.abs(x).sum(axis=0)
    ordered = np.sort(x, axis=0)
    if k == 2:
        sums = np.zeros((n + 1, p))
        np.cumsum(ordered, axis=0, out=sums[1:])
        spread = sums[n] - 2.0 * sums[bounds.lower : bounds.upper + 1].min(axis=0)
        weight = SQRT2 * (regularizer.lambda_g + SQRT2 * regularizer.lambda_e)
    else:
        top = np.maximum(ordered[n - bounds.upper :], 0.0).sum(axis=0)
        bottom = np.maximum(-ordered[: bounds.upper], 0.0).sum(axis=0)
        # sqrt t_p sqrt A_p, as sqrt(t_p A_p) could underflow or overflow
        spread = np.sqrt(np.maximum(top, bottom)) * np.sqrt(magnitude)
        weight = regularizer.lambda_g + regularizer.lambda_e
    bound = float(np.max((spread + rounding * magnitude) / weight)) * (1.0 + rounding)
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
