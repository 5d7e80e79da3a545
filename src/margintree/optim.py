"""Weight update for one node split: damped proximal Newton minimization of
the smooth squared-hinge loss plus the nonsmooth weighted sparse-group
regularizer.

Each outer iteration damps the exact generalized Hessian H of the squared
hinge (piecewise quadratic) at the current point w by mu = |r|, r the
prox-gradient residual at the step 1/L (L = 2 lambda_max(X^T X)/n, the
Lipschitz bound of the hinge gradient), and minimizes the model
grad.d + d.(H + mu I)d/2 + R(w + d) to a residual of a tenth of |r| by
semismooth Newton on its dual. Each dual Newton system is solved in the
smaller space: over the m positive hinge margins when m is at most the
number of free weights (those the prox Jacobian does not zero), else over
the free weights through the Woodbury identity; H is built only when the
weight space is used. An Armijo backtracking on the true objective takes
the step; if the model step is no descent direction, the prox-gradient step
at 1/L, which always decreases the objective, is taken instead. The run
stops once the largest entry of r falls below rel_obj_tol times the largest
entry of the hinge gradient at w = 0.

The prox of the regularizer is the two-step composition: entrywise
soft-threshold with the ancestor-induced per-feature weights, then
column-wise group shrinkage; a quadratic regularizer has a closed-form
rescale instead. Its coefficients come from the split's Regularizer.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import ClusterModels, NodeData, features_of
from .errors import SolverError, ValidationError
from .objective import (
    Regularizer,
    column_norms,
    active_margins,
    hinge_grad,
    hinge_hessian,
    hinge_loss,
    margin_adjoint,
    margin_map,
    regularizer_value,  # noqa: F401  perfbench/layers.py traces calls through optim.regularizer_value
)

logger = logging.getLogger(__name__)

# the model is damped by DAMPING |r| and solved to a residual of INEXACTNESS |r|
DAMPING = 1.0
INEXACTNESS = 0.1
DUAL_NEWTON_STEPS = 50
DUAL_ASCENT = 1e-4  # Armijo fraction of the dual line search
MAX_BACKTRACKS = 40
# the Armijo backtracking of the outer step: shrink factor and fraction of the model decrease
LINE_SEARCH_SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    max_outer_iters: int = 100
    rel_obj_tol: float = 1e-8

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValidationError("iteration budgets must be positive")
        if self.rel_obj_tol <= 0:
            raise ValidationError("tolerances must be positive")


def prox_weighted_l1(w: np.ndarray, thresholds) -> np.ndarray:
    """Entrywise soft-threshold: sign(w) * [|w| - t]_+ (broadcasting t)."""
    return np.sign(w) * np.maximum(np.abs(w) - thresholds, 0.0)


def prox_group(w: np.ndarray, t: float) -> np.ndarray:
    """Column-wise shrinkage toward zero: each feature column scaled by
    [||col|| - t]_+ / ||col||, zero columns staying zero."""
    norms = column_norms(w)
    # a zero column has [0 - t]_+ = 0 in the numerator: dividing by 1 keeps it zero
    return w * (np.maximum(norms - t, 0.0) / np.where(norms > 0.0, norms, 1.0))


def prox_sparse_group(w: np.ndarray, regularizer: Regularizer, s: float) -> np.ndarray:
    """Prox of s * regularizer at w: soft-threshold then group-shrink (exact
    for the weighted sparse-group penalty since the l1 weight is uniform
    within each column); closed-form rescale for a quadratic term."""
    if s <= 0:
        raise ValidationError("prox step must be positive")
    if regularizer.quad:
        return w / (1.0 + 2.0 * s * regularizer.quad)
    return prox_group(prox_weighted_l1(w, s * regularizer.l1), s * regularizer.group)


def prox_jacobian(w: np.ndarray, regularizer: Regularizer, s: float) -> np.ndarray:
    """A generalized Jacobian of prox_sparse_group(., regularizer, s) at the
    K x P point w, one K x K block per feature column (P x K x K); the prox
    acts on each column separately.

    With D the 0/1 diagonal of the entries above their l1 threshold, u the
    soft-thresholded column and b the group threshold, the block is
    (1 - b/|u|) D + b u u^T / |u|^3 when |u| > b and 0 otherwise.
    """
    k, p = w.shape
    if regularizer.quad:
        return np.broadcast_to(np.eye(k) / (1.0 + 2.0 * s * regularizer.quad), (p, k, k)).copy()
    b = s * regularizer.group
    kept = np.abs(w) > s * regularizer.l1
    u = prox_weighted_l1(w, s * regularizer.l1)
    norms = column_norms(u)
    live = norms > b
    safe = np.where(live, norms, 1.0)
    shrink = np.where(live, 1.0 - b / safe, 0.0)
    jac = (u.T[:, :, None] * u.T[:, None, :]) * np.where(live, b / safe**3, 0.0)[:, None, None]
    diag = np.arange(k)
    jac[:, diag, diag] += kept.T * shrink[:, None]
    return jac


def _jacobian_product(blocks: np.ndarray, m: np.ndarray) -> np.ndarray:
    """J m for J the block-diagonal matrix over row-major K x P weights of
    the P per-column K x K blocks, and m with K P rows (a K x P array or a
    K P x K P matrix), without forming J."""
    p, k, _ = blocks.shape
    by_column = m.reshape(k, p, -1).transpose(1, 0, 2)
    return np.matmul(blocks, by_column).transpose(1, 0, 2).reshape(m.shape)


def _margin_matrix(x: np.ndarray, y0: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The map A from row-major K x P weights to the positive margins, as an
    m x K P matrix: one row (e_y - e_{y_i}) kron x_i per entry (i, y) of the
    n x K mask, in row-major order; y0 holds 0-based labels."""
    inst, cls = np.nonzero(mask)
    rows = np.arange(inst.size)
    a = np.zeros((inst.size, mask.shape[1], x.shape[1]))
    a[rows, cls] = x[inst]
    a[rows, y0[inst]] = -x[inst]
    return a.reshape(inst.size, a.shape[1] * a.shape[2])


def _margin_space_step(blocks, grad_dual, c, mu, a):
    """Dual Newton step (I/c + A J A^T/mu)^-1 grad_dual, solved as an m x m
    system over the positive margins; a is A (m x K P). Returns the step and
    A^T of it as a K x P array."""
    p, k, _ = blocks.shape
    live = blocks.any(axis=(1, 2))  # A J A^T sums over the columns where J is nonzero
    a_live = a.reshape(a.shape[0], k, p)[:, :, live].reshape(a.shape[0], -1)
    system = a_live @ _jacobian_product(blocks[live], a_live.T)
    system /= mu
    system[np.diag_indices(a.shape[0])] += 1.0 / c
    delta = np.linalg.solve(system, grad_dual)
    return delta, (delta @ a).reshape(blocks.shape[1], -1)


def _weight_space_step(blocks, free, grad_dual, at_grad, c, mu, forward, hess):
    """The same step through the Woodbury identity: (mu I + J hess) step =
    c J A^T grad_dual, solved on the free rows only (a row where J vanishes
    gives step 0 there), then delta = c (grad_dual - A step); at_grad is
    A^T grad_dual (K x P), forward maps K x P weights z to A z and hess =
    c A^T A. Returns delta and A^T delta."""
    system = _jacobian_product(blocks, hess)[np.ix_(free, free)]
    system[np.diag_indices(free.size)] += mu
    step = np.zeros(hess.shape[0])
    step[free] = np.linalg.solve(system, c * _jacobian_product(blocks, at_grad).ravel()[free])
    delta = c * (grad_dual - forward(step.reshape(at_grad.shape)))
    return delta, c * at_grad - hess.dot(step).reshape(at_grad.shape)


def _solve_dual_model(w, grad, hessian, mu, margins, c, regularizer, tol):
    """Minimize the model q(z) + R(z), q(z) = grad.(z - w) + c |A(z - w)|^2/2
    + mu |z - w|^2/2 with hessian() = c A^T A, over K x P points z, to a
    subgradient residual of tol; returns the last primal point.

    A maps weights to the m positive margins: margins = (x, y0, mask) over
    the instances with one. Semismooth Newton runs on the dual, maximizing
    D(lam) = -|lam|^2/(2c) + lam.A(z - w) + psi(z), z = prox_{R/mu}(w - (grad
    + A^T lam)/mu), psi the rest of the model: it is smooth and concave, its
    generalized Hessian -(I/c + A J A^T/mu) is negative definite whatever the
    conditioning of c A^T A (J the per-column Jacobian of the prox), and
    A^T(c grad D) is the model's subgradient residual at z.

    Each Newton system is solved in the smaller of two spaces: over the m
    margins when m is at most the number of free weights (the rows where J
    is nonzero), else over the free weights through the Woodbury identity.
    The m x K P matrix of A is built on the first margin-space step and
    hessian is a callable, so that the K P x K P matrix is built only when
    the weight space is used.
    """
    x, y0, mask = margins
    shape, s = w.shape, 1.0 / mu
    base = w - s * grad
    m = int(np.count_nonzero(mask))
    # built for margin-space steps only, which need m <= |free| <= K P: A has at
    # most (K P)^2 entries
    a = functools.cache(functools.partial(_margin_matrix, x, y0, mask))

    def forward(z):
        return margin_map(z, x, y0)[mask]

    def adjoint(lam):
        full = np.zeros(mask.shape)
        full[mask] = lam
        return margin_adjoint(full, x, y0)

    def primal(at_lam):
        v = base - s * at_lam
        z = prox_sparse_group(v, regularizer, s)
        d = z - w
        psi = 0.5 * mu * float((d * d).sum()) + float((grad * d).sum()) + regularizer.value(z)
        return v, z, d, psi

    lam = np.zeros(m)
    at_lam = np.zeros(shape)  # A^T lam
    v, z, d, dual = primal(at_lam)
    for _ in range(DUAL_NEWTON_STEPS):
        grad_dual = forward(d) - lam / c
        at_grad = adjoint(grad_dual)
        if c * math.sqrt(float((at_grad * at_grad).sum())) <= tol:
            break
        blocks = prox_jacobian(v, regularizer, s)
        free = np.flatnonzero(blocks.any(axis=2).T)
        try:
            if m <= free.size:
                delta, at_delta = _margin_space_step(blocks, grad_dual, c, mu, a())
            else:
                delta, at_delta = _weight_space_step(blocks, free, grad_dual, at_grad, c, mu, forward, hessian())
        except np.linalg.LinAlgError:
            break
        slope = float(grad_dual.dot(delta))
        if not slope > 0.0:
            break
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            at_new = at_lam + t * at_delta
            lam_new = lam + t * delta
            v_new, z_new, d_new, psi_new = primal(at_new)
            dual_new = float((at_new * d_new).sum()) + psi_new - float(lam_new.dot(lam_new)) / (2.0 * c)
            if dual_new >= dual + DUAL_ASCENT * t * slope:
                break
            t *= 0.5
        if not dual_new > dual:
            break  # no ascent left above the rounding of D: z is as good as it gets
        lam, at_lam, v, z, d, dual = lam_new, at_new, v_new, z_new, d_new, dual_new
    return z


def solve_w(
    data: NodeData | np.ndarray,
    labels,
    regularizer: Regularizer,
    cfg: SolverConfig,
    w0: ClusterModels,
) -> ClusterModels:
    """Minimize the split objective in the weights for fixed labels.

    data is the node (its features are copied once per call) or its n x P
    feature matrix; regularizer is the split's. Stops when the largest entry of the prox-gradient
    residual drops below cfg.rel_obj_tol times the largest entry of the
    hinge gradient at w = 0, when no step decreases the objective, or when
    the outer budget is exhausted; the objective is non-increasing across
    iterations. Raises SolverError if the objective turns non-finite.
    """
    w = np.array(w0.weights, dtype=float)
    k = w.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    x = features_of(data)

    scale = float(np.abs(hinge_grad(np.zeros_like(w), x, labels)).max())
    if scale == 0.0:
        # w = 0 minimizes the hinge and the regularizer at once
        return ClusterModels(weights=np.zeros_like(w))
    gram = x.T @ x
    # the Frobenius norm of X^T X bounds its largest eigenvalue
    t = x.shape[0] / (2.0 * math.sqrt(float((gram * gram).sum())))
    if not 0.0 < t < math.inf:
        raise SolverError(f"no finite Lipschitz bound for the hinge gradient (step {t})")
    c = 2.0 / (x.shape[0] * k)

    reg_w = regularizer.value(w)
    fw = hinge_loss(w, x, labels) + reg_w
    if not np.isfinite(fw):
        raise SolverError(f"objective not finite at the initial point (value {fw})")

    for outer in range(cfg.max_outer_iters):
        grad = hinge_grad(w, x, labels)
        pg = prox_sparse_group(w - t * grad, regularizer, t)
        r = (w - pg) / t
        if float(np.abs(r).max()) <= cfg.rel_obj_tol * scale:
            break
        r_norm = math.sqrt(float((r * r).sum()))
        active, y0 = active_margins(w, x, labels)
        rows = active.any(axis=1)
        margins = (x, y0, active) if rows.all() else (x[rows], y0[rows], active[rows])
        # built on the first weight-space Newton step of this model, if any
        hessian = functools.cache(functools.partial(hinge_hessian, w, x, labels))
        z = _solve_dual_model(w, grad, hessian, DAMPING * r_norm, margins, c, regularizer, INEXACTNESS * r_norm)
        if not np.all(np.isfinite(z)):
            raise SolverError(f"iterate diverged at outer iteration {outer}")
        d = z - w
        reg_z = regularizer.value(z)
        model_dec = float((grad * d).sum()) + reg_z - reg_w
        accepted = False
        if model_dec < 0.0:
            step = 1.0
            for _ in range(MAX_BACKTRACKS):
                cand = z if step == 1.0 else w + step * d
                reg_c = reg_z if step == 1.0 else regularizer.value(cand)
                fc = hinge_loss(cand, x, labels) + reg_c
                if not np.isfinite(fc):
                    raise SolverError(f"objective not finite at outer iteration {outer} (step {step:.3e})")
                if fc <= fw + SUFFICIENT_DECREASE * step * model_dec:
                    accepted = True
                    break
                step *= LINE_SEARCH_SHRINK
        if not accepted:
            cand = pg
            reg_c = regularizer.value(cand)
            fc = hinge_loss(cand, x, labels) + reg_c
            if not np.isfinite(fc):
                raise SolverError(f"objective not finite at outer iteration {outer} (prox-gradient step)")
            if not fc < fw:
                break
        w, fw, reg_w = cand, fc, reg_c
        logger.debug("w-update iter=%d obj=%.10e residual=%.3e", outer, fw, r_norm)

    return ClusterModels(weights=w)
