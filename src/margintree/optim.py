"""Weight update for one node split: proximal quasi-Newton minimization of
the smooth squared-hinge loss plus the nonsmooth weighted sparse-group
regularizer.

Each outer iteration linearizes the hinge loss at the current point, adds a
quadratic (1/2s)||w - w_old||_B^2 with B a limited-memory quasi-Newton
metric, and approximately minimizes the resulting model with a spectral
(Barzilai-Borwein stepped) proximal-gradient inner loop. The step size s is
backtracked until an Armijo-style sufficient decrease of the true objective
holds. The prox of the regularizer is the two-step composition: entrywise
soft-threshold with the ancestor-induced per-feature weights, then
column-wise group shrinkage.

B is applied through the compact diagonal-plus-low-rank representation
(sigma*I minus a rank-2m correction built from the stored curvature pairs);
with memory 0 this degrades to plain spectral proximal gradient.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import AncestorChain, ClusterModels, NodeData, features_of
from .errors import SolverError, ValidationError
from .objective import (
    ProxSpec,
    Regularizer,
    RegularizerConfig,
    column_norms,
    hinge_grad,
    hinge_loss,
    regularizer_value,  # noqa: F401  perfbench/layers.py traces calls through optim.regularizer_value
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    max_outer_iters: int = 100
    lbfgs_memory: int = 10
    line_search_shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    rel_obj_tol: float = 1e-8
    inner_prox_iters: int = 25

    def __post_init__(self):
        if self.max_outer_iters < 1 or self.inner_prox_iters < 1:
            raise ValidationError("iteration budgets must be positive")
        if not (0 < self.line_search_shrink < 1):
            raise ValidationError("line_search_shrink must lie in (0, 1)")
        if self.sufficient_decrease <= 0 or self.rel_obj_tol <= 0:
            raise ValidationError("tolerances must be positive")
        if self.lbfgs_memory < 0:
            raise ValidationError("lbfgs_memory must be >= 0")


def make_prox_spec(reg: RegularizerConfig, chain: AncestorChain, k: int, p: int) -> ProxSpec:
    """Per-variant prox thresholds of the split's Regularizer."""
    return Regularizer(reg, chain, k, p).prox_spec


def prox_weighted_l1(w: np.ndarray, thresholds) -> np.ndarray:
    """Entrywise soft-threshold: sign(w) * [|w| - t]_+ (broadcasting t)."""
    return np.sign(w) * np.maximum(np.abs(w) - thresholds, 0.0)


def prox_group(w: np.ndarray, t: float) -> np.ndarray:
    """Column-wise shrinkage toward zero: each feature column scaled by
    [||col|| - t]_+ / ||col||, zero columns staying zero."""
    norms = column_norms(w)
    # a zero column has [0 - t]_+ = 0 in the numerator: dividing by 1 keeps it zero
    return w * (np.maximum(norms - t, 0.0) / np.where(norms > 0.0, norms, 1.0))


def prox_sparse_group(w: np.ndarray, spec: ProxSpec, s: float) -> np.ndarray:
    """Prox of s * regularizer at w: soft-threshold then group-shrink (exact
    for the weighted sparse-group penalty since the l1 weight is uniform
    within each column); closed-form rescale for squared_l2."""
    if s <= 0:
        raise ValidationError("prox step must be positive")
    if spec.variant == "squared_l2":
        return w / (1.0 + 2.0 * s * spec.group_threshold)
    return prox_group(prox_weighted_l1(w, s * spec.l1_thresholds), s * spec.group_threshold)


class _LbfgsMetric:
    """Compact representation of the L-BFGS Hessian approximation
    B = sigma*I - W M^-1 W^T over flattened weight vectors; w_mat (W) is
    None for B = sigma*I."""

    def __init__(self, pairs: list[tuple[np.ndarray, np.ndarray]]):
        self.w_mat = self.m_inv = None
        if not pairs:
            self.sigma = 1.0
            return
        s_last, y_last = pairs[-1]
        self.sigma = min(max(float(y_last @ y_last) / float(s_last @ y_last), 1e-8), 1e12)
        s_mat = np.stack([s for s, _ in pairs], axis=1)
        y_mat = np.stack([y for _, y in pairs], axis=1)
        sty = s_mat.T @ y_mat
        lower = np.tril(sty, k=-1)
        diag = np.diag(np.diag(sty))
        m = np.block([[self.sigma * (s_mat.T @ s_mat), lower], [lower.T, -diag]])
        try:
            self.m_inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return
        self.w_mat = np.concatenate([self.sigma * s_mat, y_mat], axis=1)


def _solve_model(w0, grad, metric, step, spec, regularizer, max_iters):
    """Approximately minimize the quadratic model + regularizer by monotone
    spectral proximal gradient over K x P iterates; returns the iterate and
    its regularizer value.

    The model at u is grad.d + d.Bd / (2 step) with d the flat view of
    u - w0; Bd also gives the model gradient grad + Bd/step at the accepted
    iterate, so each candidate costs one metric product. Products use
    ndarray.dot: on these 1-d and 2-d operands it makes the BLAS call that @
    makes, without the ufunc dispatch.
    """
    sigma, w_mat, m_inv = metric.sigma, metric.w_mat, metric.m_inv
    w_mat_t = None if w_mat is None else w_mat.T
    grad_flat = grad.ravel()
    t = step / sigma
    u = prox_sparse_group(w0 - t * grad, spec, t)
    reg_u = regularizer.value(u)
    d = (u - w0).ravel()
    bd = sigma * d if w_mat is None else sigma * d - w_mat.dot(m_inv.dot(w_mat_t.dot(d)))
    psi = float(grad_flat.dot(d) + 0.5 * d.dot(bd) / step) + reg_u
    # the last move of the iterate (the first from w0) and its squared length
    du, du_sq = d, d.dot(d)
    prev_g = grad_flat
    for _ in range(max_iters - 1):
        g = grad_flat + bd / step
        curv = float(du.dot(g - prev_g))
        if curv > 1e-16:
            t = min(max(float(du_sq) / curv, 1e-12), 1e12)
        prev_g = g
        g = g.reshape(u.shape)
        accepted = False
        for _ in range(30):
            cand = prox_sparse_group(u - t * g, spec, t)
            reg_cand = regularizer.value(cand)
            d = (cand - w0).ravel()
            bd_cand = sigma * d if w_mat is None else sigma * d - w_mat.dot(m_inv.dot(w_mat_t.dot(d)))
            psi_cand = float(grad_flat.dot(d) + 0.5 * d.dot(bd_cand) / step) + reg_cand
            if psi_cand <= psi + 1e-14 * max(1.0, abs(psi)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        du = (cand - u).ravel()
        du_sq = du.dot(du)
        u_flat = u.ravel()
        converged = math.sqrt(du_sq) <= 1e-12 * (1.0 + math.sqrt(u_flat.dot(u_flat)))
        u, psi, bd, reg_u = cand, psi_cand, bd_cand, reg_cand
        if converged:
            break
    return u, reg_u


def solve_w(
    data: NodeData | np.ndarray,
    labels,
    chain: AncestorChain,
    reg: RegularizerConfig,
    cfg: SolverConfig,
    w0: ClusterModels,
) -> ClusterModels:
    """Minimize the split objective in the weights for fixed labels.

    data is the node (its features are copied once per call) or its n x P
    feature matrix. Stops when the relative objective change drops below
    cfg.rel_obj_tol or the outer budget is exhausted; the objective is
    non-increasing across accepted iterations. Raises SolverError if the
    objective turns non-finite.
    """
    w = np.array(w0.weights, dtype=float)
    k, p = w.shape
    labels = np.asarray(labels, dtype=np.int64)
    x = features_of(data)
    regularizer = Regularizer(reg, chain, k, p)
    spec = regularizer.prox_spec

    reg_w = regularizer.value(w)
    fw = hinge_loss(w, x, labels) + reg_w
    if not np.isfinite(fw):
        raise SolverError(f"objective not finite at the initial point (value {fw})")
    grad = hinge_grad(w, x, labels)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    step = 1.0

    for outer in range(cfg.max_outer_iters):
        metric = _LbfgsMetric(pairs)
        step = min(step * 2.0, 1e8)
        accepted = False
        for _ in range(40):
            u, reg_u = _solve_model(w, grad, metric, step, spec, regularizer, cfg.inner_prox_iters)
            d = (u - w).ravel()
            if not np.all(np.isfinite(u)):
                raise SolverError(f"iterate diverged at outer iteration {outer} (step {step:.3e})")
            model_dec = float(grad.ravel() @ d) + reg_u - reg_w
            fu = hinge_loss(u, x, labels) + reg_u
            if not np.isfinite(fu):
                raise SolverError(f"objective not finite at outer iteration {outer} (step {step:.3e})")
            if model_dec <= 0 and fu <= fw + cfg.sufficient_decrease * model_dec:
                accepted = True
                break
            step *= cfg.line_search_shrink
        d_sq = float(d @ d)
        if not accepted or d_sq == 0.0:
            break
        new_grad = hinge_grad(u, x, labels)
        if cfg.lbfgs_memory > 0:
            y_vec = (new_grad - grad).ravel()
            if float(d @ y_vec) > 1e-12 * math.sqrt(d_sq) * max(math.sqrt(y_vec @ y_vec), 1e-30):
                pairs.append((d, y_vec))
                if len(pairs) > cfg.lbfgs_memory:
                    pairs.pop(0)
        decrease = fw - fu
        w, grad, fw, reg_w = u, new_grad, fu, reg_u
        logger.debug(
            "w-update iter=%d obj=%.10e step=%.3e",
            outer,
            fw,
            step,
            extra={"iteration": outer, "objective": fw, "step_size": step},
        )
        if decrease <= cfg.rel_obj_tol * max(1.0, abs(fw)):
            break

    return ClusterModels(weights=w)
