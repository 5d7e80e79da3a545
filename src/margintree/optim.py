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
    norms = np.linalg.norm(w, axis=0)
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
    B = sigma*I - W M^-1 W^T over flattened weight vectors."""

    def __init__(self, pairs: list[tuple[np.ndarray, np.ndarray]]):
        if not pairs:
            self.sigma = 1.0
            self._w = None
            return
        s_last, y_last = pairs[-1]
        self.sigma = min(max(float(y_last @ y_last) / float(s_last @ y_last), 1e-8), 1e12)
        s_mat = np.stack([s for s, _ in pairs], axis=1)
        y_mat = np.stack([y for _, y in pairs], axis=1)
        sty = s_mat.T @ y_mat
        lower = np.tril(sty, k=-1)
        diag = np.diag(np.diag(sty))
        m = np.block([[self.sigma * (s_mat.T @ s_mat), lower], [lower.T, -diag]])
        self._w = np.concatenate([self.sigma * s_mat, y_mat], axis=1)
        try:
            self._m_inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            self._w = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self._w is None:
            return self.sigma * v
        return self.sigma * v - self._w @ (self._m_inv @ (self._w.T @ v))


def _solve_model(w0_flat, grad_flat, metric, step, prox, reg_val_flat, max_iters):
    """Approximately minimize the quadratic model + regularizer by monotone
    spectral proximal gradient; returns the flat iterate and its regularizer
    value."""

    def q_val(u):
        # the model value at u, and B(u - w0), from which its gradient
        # grad + B(u - w0)/step follows without a second metric product
        d = u - w0_flat
        bd = metric.apply(d)
        return float(grad_flat @ d + 0.5 * (d @ bd) / step), bd

    t = step / metric.sigma
    u = prox(w0_flat - t * grad_flat, t)
    q, bd = q_val(u)
    reg_u = reg_val_flat(u)
    psi = q + reg_u
    prev_u = w0_flat
    prev_g = grad_flat
    for _ in range(max_iters - 1):
        g = grad_flat + bd / step
        du = u - prev_u
        dg = g - prev_g
        curv = float(du @ dg)
        if curv > 1e-16:
            t = min(max(float(du @ du) / curv, 1e-12), 1e12)
        prev_u, prev_g = u, g
        accepted = False
        for _ in range(30):
            cand = prox(u - t * g, t)
            q_cand, bd_cand = q_val(cand)
            reg_cand = reg_val_flat(cand)
            psi_cand = q_cand + reg_cand
            if psi_cand <= psi + 1e-14 * max(1.0, abs(psi)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        move = cand - u
        converged = math.sqrt(move @ move) <= 1e-12 * (1.0 + math.sqrt(u @ u))
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

    def reg_val_flat(vec):
        return regularizer.value(vec.reshape(k, p))

    def prox_flat(vec, t):
        return prox_sparse_group(vec.reshape(k, p), spec, t).ravel()

    reg_w = regularizer.value(w)
    fw = hinge_loss(w, x, labels) + reg_w
    if not np.isfinite(fw):
        raise SolverError(f"objective not finite at the initial point (value {fw})")
    grad = hinge_grad(w, x, labels).ravel()
    w_flat = w.ravel()
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    step = 1.0

    for outer in range(cfg.max_outer_iters):
        metric = _LbfgsMetric(pairs)
        step = min(step * 2.0, 1e8)
        accepted = False
        for _ in range(40):
            u, reg_u = _solve_model(w_flat, grad, metric, step, prox_flat, reg_val_flat, cfg.inner_prox_iters)
            d = u - w_flat
            if not np.all(np.isfinite(u)):
                raise SolverError(f"iterate diverged at outer iteration {outer} (step {step:.3e})")
            model_dec = float(grad @ d) + reg_u - reg_w
            fu = hinge_loss(u.reshape(k, p), x, labels) + reg_u
            if not np.isfinite(fu):
                raise SolverError(f"objective not finite at outer iteration {outer} (step {step:.3e})")
            if model_dec <= 0 and fu <= fw + cfg.sufficient_decrease * model_dec:
                accepted = True
                break
            step *= cfg.line_search_shrink
        d_sq = float(d @ d)
        if not accepted or d_sq == 0.0:
            break
        new_grad = hinge_grad(u.reshape(k, p), x, labels).ravel()
        if cfg.lbfgs_memory > 0:
            y_vec = new_grad - grad
            if float(d @ y_vec) > 1e-12 * math.sqrt(d_sq) * max(math.sqrt(y_vec @ y_vec), 1e-30):
                pairs.append((d, y_vec))
                if len(pairs) > cfg.lbfgs_memory:
                    pairs.pop(0)
        decrease = fw - fu
        w_flat, grad, fw, reg_w = u, new_grad, fu, reg_u
        logger.debug(
            "w-update iter=%d obj=%.10e step=%.3e",
            outer,
            fw,
            step,
            extra={"iteration": outer, "objective": fw, "step_size": step},
        )
        if decrease <= cfg.rel_obj_tol * max(1.0, abs(fw)):
            break

    return ClusterModels(weights=w_flat.reshape(k, p))
