"""Weight update for one node split: damped proximal Newton minimization of
the smooth squared-hinge loss plus the nonsmooth weighted sparse-group
regularizer.

Each outer iteration damps the exact generalized Hessian H of the squared
hinge at the current point w by mu = |r|, r the prox-gradient residual at
the step 1/L (L = 2 lambda_max(X^T X)/n bounds the Lipschitz constant of
the hinge gradient), and minimizes the model grad.d + d.(H + mu I)d/2 +
R(w + d) to a residual of |r|/10 by semismooth Newton on its dual. An Armijo
backtracking on the true objective takes the step, or the prox-gradient
step, which always decreases the objective, when the model step is no
descent direction. The run stops once the largest entry of r falls below
REL_OBJ_TOL times that of the hinge gradient at w = 0, or after
MAX_OUTER_ITERS outer iterations; both are module constants, read at each
call. One margins record per iterate gives the loss, the gradient, the
active margins and H; the accepted Armijo trial's record serves the next
iteration.

The dual maps A, A^T touch only the m positive margins (MarginMap). Each
dual Newton system is solved over the m margins when m is at most the
number of free weights (those the prox Jacobian does not zero), else over
the free weights through the Woodbury identity, the only case that builds
H. The prox soft-thresholds each entry by the ancestor-induced per-feature
weights, then shrinks each column as a group (a closed-form rescale for a
quadratic term), with the coefficients of the split's Regularizer, and
hands its pieces on to the Jacobian and the regularizer value.

At K = 2 the hinge depends on w_1 - w_2 only, and both loops run on the
P-vector u = (w_1 - w_2)/sqrt 2 (_Pair). w = (u, -u)/sqrt 2 is an isometry
onto the antisymmetric weights, and R is invariant under (w_1, w_2) ->
(-w_2, -w_1), so the model minimizer from an antisymmetric point stays
antisymmetric: the steps, tests and constants carry over, and the iterates
are the general path's up to rounding. There R is a weighted l1 norm, its
prox a soft-threshold and its Jacobian a 0/1 diagonal, and the Newton
systems are m x m or f x f over the f free coordinates. A start with
w_1 != -w_2 is projected onto w_1 = -w_2, which does not raise the
objective, since the loss depends on w_1 - w_2 only and R is convex.

The loops take their inner products from the coordinates object's dot:
one BLAS product on P-vectors at K = 2, the pairwise sum of the entrywise
product at K >= 3, whose rounding, and so whose iterates, it keeps bit for
bit. At K = 2 the dual line search forms the prox point and R of it from
one array of magnitudes [|v| - s w]_+, with the thresholds s w formed once
per model, and A, A^T are plain products with the m x P active rows.

The dual line search returns the one-by-one Armijo scan's trial bit for
bit without computing every rejected rung: D is concave along the Newton
ray, so a rung rejected by more than a rounding bound proves every larger
step rejected. A guess from the quadratic through D(0), its slope and D(1),
galloping and bisection find the first accepted rung; a rejection within
the bound falls back to the scan. At K = 2 a trial's dual value is (A^T lam
+ grad + mu d/2).d + R(z), with |lam + t delta|^2 from three scalars per
Newton step; K >= 3 keeps its summed products.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import SolverError, ValidationError
from .objective import (
    Margins,
    Regularizer,
    column_norms,
    hinge_grad,  # noqa: F401  perfbench/layers.py traces calls through optim.hinge_grad,
    hinge_loss,  # noqa: F401  optim.hinge_loss
    label_margins,
    regularizer_value,  # noqa: F401  and optim.regularizer_value
    rows_of,
)

logger = logging.getLogger(__name__)

# the model is damped by DAMPING |r| and solved to a residual of INEXACTNESS |r|
DAMPING = 1.0
INEXACTNESS = 0.1
DUAL_NEWTON_STEPS = 50
DUAL_ASCENT = 1e-4  # Armijo fraction of the dual line search
MAX_BACKTRACKS = 40
DUAL_ROUNDING = 2.0**-30  # bound on the relative rounding of a computed dual value
# the outer Armijo step: shrink factor, fraction of the model decrease; ARMIJO_STEPS serve both line searches
LINE_SEARCH_SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
ARMIJO_STEPS = tuple(LINE_SEARCH_SHRINK**i for i in range(MAX_BACKTRACKS))
# the outer budget, and the residual stop relative to the hinge gradient at w = 0
MAX_OUTER_ITERS = 100
REL_OBJ_TOL = 1e-8


def prox_weighted_l1(w: np.ndarray, thresholds) -> np.ndarray:
    """Entrywise soft-threshold: sign(w) * [|w| - t]_+ (broadcasting t)."""
    return np.sign(w) * np.maximum(np.abs(w) - thresholds, 0.0)


def _group_shrink(w: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """prox_group(w, t), the column norms of w and those of the result, [||col|| - t]_+."""
    norms = column_norms(w)
    shrunk = np.maximum(norms - t, 0.0)
    # a zero column has [0 - t]_+ = 0 in the numerator: dividing by 1 keeps it zero
    return w * (shrunk / np.where(norms > 0.0, norms, 1.0)), norms, shrunk


def prox_group(w: np.ndarray, t: float) -> np.ndarray:
    """Column-wise shrinkage toward zero: each feature column scaled by
    [||col|| - t]_+ / ||col||, zero columns staying zero."""
    return _group_shrink(w, t)[0]


def prox_parts(v: np.ndarray, regularizer: Regularizer, s: float):
    """z = prox_sparse_group(v, regularizer, s), the soft-thresholded point
    u, its column norms and the shrunken norms (those of z); for a quadratic
    term u is v and both norms are None."""
    if regularizer.quad:
        return v / (1.0 + 2.0 * s * regularizer.quad), v, None, None
    u = prox_weighted_l1(v, s * regularizer.l1)
    z, norms, shrunk = _group_shrink(u, s * regularizer.group)
    return z, u, norms, shrunk


def prox_sparse_group(w: np.ndarray, regularizer: Regularizer, s: float) -> np.ndarray:
    """Prox of s * regularizer at w: soft-threshold then group-shrink (exact
    for the weighted sparse-group penalty since the l1 weight is uniform
    within each column); closed-form rescale for a quadratic term."""
    if s <= 0:
        raise ValidationError("prox step must be positive")
    return prox_parts(w, regularizer, s)[0]


def prox_jacobian(u: np.ndarray, norms, regularizer: Regularizer, s: float):
    """A generalized Jacobian J of prox_sparse_group(., regularizer, s) at a
    point, from the soft-thresholded K x P point u and its column norms that
    prox_parts computed there. J is block diagonal over the feature columns
    and zero on those the group shrinkage kills; with D the 0/1 diagonal of
    u != 0 and b the group threshold, a live column's block (|u| > b) is
    (1 - b/|u|) D + b u u^T / |u|^3. Returns the blocks of the live columns,
    the P-mask of those columns and the K x P mask of the free weights (the
    rows where J is nonzero)."""
    k, p = u.shape
    if regularizer.quad:
        block = np.eye(k) / (1.0 + 2.0 * s * regularizer.quad)
        return np.broadcast_to(block, (p, k, k)), np.ones(p, dtype=bool), np.ones((k, p), dtype=bool)
    b = s * regularizer.group
    live = norms > b
    u_live, n_live = u[:, live].T, norms[live]
    blocks = (u_live[:, :, None] * u_live[:, None, :]) * (b / n_live**3)[:, None, None]
    # the diagonals of the blocks, as a strided view
    blocks.reshape(-1, k * k)[:, :: k + 1] += (u_live != 0.0) * (1.0 - b / n_live)[:, None]
    return blocks, live, (u != 0.0) & live


def _jacobian_product(blocks: np.ndarray, m: np.ndarray) -> np.ndarray:
    """J m for a K L x F matrix m, J block diagonal over row-major K x L
    weights with the L per-column K x K blocks, without forming J."""
    p, k, _ = blocks.shape
    by_column = m.reshape(k, p, m.shape[1]).transpose(1, 0, 2)
    return np.matmul(blocks, by_column).transpose(1, 0, 2).reshape(m.shape)


class MarginMap:
    """A, the linear map from K x P weights z to the positive margins (i, y)
    of an n x K mask, (A z)_(i, y) = z_y.x_i - z_{y_i}.x_i in row-major order
    (y0 the 0-based labels), and A^T: they gather the m instance rows and
    scatter through the m x K signs of e_y - e_{y_i}, or, once matrix() has
    built it, go through the m x K P matrix of A."""

    def __init__(self, x: np.ndarray, y0: np.ndarray, mask: np.ndarray):
        inst, cls = np.nonzero(mask)
        eye = np.eye(mask.shape[1])
        self.rows, self.signs = x[inst], eye[cls] - eye[y0[inst]]
        self.size, self.shape, self.a = inst.size, (mask.shape[1], x.shape[1]), None

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return ((self.rows @ z.T) * self.signs).sum(axis=1) if self.a is None else self.a @ z.ravel()

    def adjoint(self, lam: np.ndarray) -> np.ndarray:
        return (self.signs.T * lam) @ self.rows if self.a is None else (lam @ self.a).reshape(self.shape)

    def matrix(self) -> np.ndarray:
        if self.a is None:
            self.a = (self.signs[:, :, None] * self.rows[:, None, :]).reshape(self.size, -1)
            self.rows = self.signs = None
        return self.a


def _margin_space_step(jac, grad_dual, c, mu, a):
    """Dual Newton step (I/c + A J A^T/mu)^-1 grad_dual, solved as an m x m
    system over the positive margins; jac is prox_jacobian's (blocks, live
    columns, free weights) and a is A (m x K P). Returns the step and A^T of
    it as a K x P array."""
    blocks, live, _ = jac
    m, k = a.shape[0], blocks.shape[1]
    # A J A^T sums over the live columns only
    a_live = a.reshape(m, k, -1)[:, :, live].reshape(m, -1)
    system = a_live @ _jacobian_product(blocks, a_live.T)
    system /= mu
    system.flat[:: m + 1] += 1.0 / c
    delta = np.linalg.solve(system, grad_dual)
    return delta, (delta @ a).reshape(k, -1)


def _weight_space_step(jac, grad_dual, at_grad, c, mu, forward, hess):
    """The same step through the Woodbury identity: (mu I + J hess) step =
    c J A^T grad_dual on the free rows (step is 0 where J vanishes), then
    delta = c (grad_dual - A step); at_grad is A^T grad_dual (K x P), forward
    is A and hess = c A^T A. Returns delta and A^T delta."""
    blocks, live, free = jac
    k, p = free.shape
    # the row-major positions of the live columns' weights, and which of them are free
    inner = (np.arange(k)[:, None] * p + np.flatnonzero(live)).ravel()
    keep = free[:, live].ravel()
    system = _jacobian_product(blocks, hess[np.ix_(inner, inner[keep])])[keep]
    system.flat[:: system.shape[0] + 1] += mu
    step = np.zeros((k, p))
    step[free] = np.linalg.solve(system, c * _jacobian_product(blocks, at_grad[:, live].reshape(-1, 1))[keep, 0])
    delta = c * (grad_dual - forward(step))
    return delta, c * at_grad - hess.dot(step.ravel()).reshape(k, p)


class _General:
    """The K x P weights themselves, for any K: Margins records, MarginMap,
    the sparse-group prox and the Newton step in the smaller space."""

    def __init__(self, at_zero, regularizer: Regularizer):
        self.origin, self.x, self.c, self.regularizer = at_zero, at_zero.x, 2.0 / at_zero.values.size, regularizer
        self.value = regularizer.value

    @staticmethod
    def dot(a, b):
        return float((a * b).sum())

    def dual_part(self, at, grad, d, reg, mu):  # at.d + psi: D without -|lam|^2/(2c), at the model's step d
        return self.dot(at, d) + (0.5 * mu * self.dot(d, d) + self.dot(grad, d) + reg)

    @staticmethod
    def ray_norm(lam, delta):  # t -> |lam + t delta|^2
        return lambda t: float((v := lam + t * delta).dot(v))

    def prox(self, v, s):
        return prox_sparse_group(v, self.regularizer, s)

    def prox_parts(self, v, s):
        z, u, norms, shrunk = prox_parts(v, self.regularizer, s)
        return z, (u, norms), self.value(z, shrunk)

    def margin_map(self, margins):
        return MarginMap(self.x, margins.y0, margins.active)

    def step(self, parts, s, grad_dual, at_grad, c, mu, a, hessian):
        jac = prox_jacobian(*parts, self.regularizer, s)
        if a.size <= np.count_nonzero(jac[2]):
            return _margin_space_step(jac, grad_dual, c, mu, a.matrix())
        return _weight_space_step(jac, grad_dual, at_grad, c, mu, a, hessian())


SQRT2 = math.sqrt(2.0)


class _PairMargins:
    """The K = 2 margins 1 + xhat_i.u, one per instance, with the loss,
    gradient and Hessian they give (c = 1/n)."""

    def __init__(self, xhat: np.ndarray, u: np.ndarray):
        self.xhat, self.values = xhat, 1.0 + xhat @ u
        self.active, self.kept = self.values > 0.0, None

    def at(self, u: np.ndarray) -> "_PairMargins":
        return _PairMargins(self.xhat, u)

    def loss(self) -> float:
        positive = np.maximum(self.values, 0.0)
        return float(positive @ positive) / (2 * self.values.size)

    def grad(self) -> np.ndarray:
        return np.maximum(self.values, 0.0) @ self.xhat / self.values.size

    def hessian(self) -> np.ndarray:
        rows = rows_of(self.xhat, self.active)
        return rows.T @ rows / self.values.size

    hessian_once = Margins.hessian_once


class _Rows:
    """A at K = 2, MarginMap's matrix form in the u coordinates: the m x P
    active rows of xhat, applied as plain products."""

    def __init__(self, rows: np.ndarray):
        self.a, self.size = rows, rows.shape[0]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.a @ z

    def adjoint(self, lam: np.ndarray) -> np.ndarray:
        return lam @ self.a


class _Pair:
    """The coordinates u = (w_1 - w_2)/sqrt 2 at K = 2: instance i's margin is
    1 + xhat_i.u, xhat_i = sqrt 2 x_i if y_i = 2 else -sqrt 2 x_i, and R is
    the l1 norm weighted by sqrt 2 l1 + group (or quad |u|^2)."""

    def __init__(self, at_zero, regularizer: Regularizer):
        x, y0 = at_zero.x, at_zero.y0
        self.x, self.c = x, 2.0 / at_zero.values.size
        self.origin = _PairMargins(x * np.where(y0 == 1, SQRT2, -SQRT2)[:, None], np.zeros(x.shape[1]))
        self.l1, self.quad = SQRT2 * regularizer.l1 + regularizer.group, regularizer.quad
        self.step_size, self.thresholds = None, None  # s * l1 of the last prox_parts step s

    @staticmethod
    def dot(a, b):
        return float(a @ b)

    def dual_part(self, at, grad, d, reg, mu):  # the same from one product, (at + grad + mu d/2).d + reg
        return float((at + grad + (0.5 * mu) * d) @ d) + reg

    @staticmethod
    def ray_norm(lam, delta):  # t -> |lam + t delta|^2 from three products: no trial forms lam + t delta
        ll, ld, dd = float(lam @ lam), 2.0 * float(lam @ delta), float(delta @ delta)
        return lambda t: ll + t * (ld + t * dd)

    def value(self, u):
        return self.quad * float(u @ u) if self.quad else float(self.l1 @ np.abs(u))

    def prox(self, v, s):
        return v / (1.0 + 2.0 * s * self.quad) if self.quad else prox_weighted_l1(v, s * self.l1)

    def prox_parts(self, v, s):
        """The prox point z and R(z), both from the magnitudes [|v| - s l1]_+
        (|z| itself); the thresholds s l1 are kept while s stays the same,
        as it does throughout one model."""
        if self.quad:
            z = self.prox(v, s)
            return z, z, self.value(z)
        if s != self.step_size:
            self.step_size, self.thresholds = s, s * self.l1
        magnitudes = np.maximum(np.abs(v) - self.thresholds, 0.0)
        z = np.copysign(magnitudes, v)
        return z, z, float(self.l1 @ magnitudes)

    def margin_map(self, margins):
        return _Rows(rows_of(margins.xhat, margins.active))

    def jacobian(self, z, s):
        """J at the prox point z: a scalar times the 0/1 diagonal of the free coordinates."""
        return 1.0 / (1.0 + 2.0 * s * self.quad), np.ones(z.size, dtype=bool) if self.quad else z != 0.0

    def step(self, z, s, grad_dual, at_grad, c, mu, a, hessian):
        """Over the m active rows restricted to the f free columns while m <= 2 f
        (the free weights of w), else over the f free columns."""
        jac, free = self.jacobian(z, s)
        f = np.count_nonzero(free)
        if a.size <= 2 * f:
            rows = a.a[:, free]
            system = (jac / mu) * (rows @ rows.T)
            system.flat[:: a.size + 1] += 1.0 / c
            delta = np.linalg.solve(system, grad_dual)
            return delta, delta @ a.a
        hess = hessian()
        system = jac * hess[np.ix_(free, free)]
        system.flat[:: f + 1] += mu
        step = np.zeros(z.size)
        step[free] = np.linalg.solve(system, (c * jac) * at_grad[free])
        return c * (grad_dual - a(step)), c * at_grad - hess @ step


def _line_search(trial, dual, slope, size):
    """The first rung t = ARMIJO_STEPS[j] whose trial value reaches dual +
    DUAL_ASCENT t slope, with its trial (value, size, state), or the last rung
    when none does, as the one-by-one scan finds them; dual and size are at
    t = 0, a size bounding the terms of a value. g(t) = D(t) - D(0) -
    DUAL_ASCENT t slope is concave with g(0) = 0, so g(t') < 0 gives g(t) <=
    (t/t') g(t') < 0 for t > t'. With computed values within DUAL_ROUNDING
    times the larger size of the exact ones, a rung rejected by more than four
    times that proves every larger step rejected; no other rung is skipped."""
    tried = {}

    def verdict(j):  # 1: accepted, -1: rejected with every larger step, 0: rejected alone
        value, size_j, _ = tried[j] = tried.get(j) or trial(ARMIJO_STEPS[j])
        line = dual + DUAL_ASCENT * ARMIJO_STEPS[j] * slope
        return 1 if value >= line else -1 if line - value > 4.0 * DUAL_ROUNDING * max(size, size_j) else 0

    if verdict(0) > 0:
        return 1.0, tried[0]
    # rungs <= lo are rejected and rung hi accepted (none known: MAX_BACKTRACKS); the guess takes halving steps
    lo, hi, gap = 0, MAX_BACKTRACKS, 1
    ratio = (dual + slope - tried[0][0]) / ((1.0 - DUAL_ASCENT) * slope)
    j = min(max(math.ceil(math.log2(ratio)), 1), MAX_BACKTRACKS - 1) if 1.0 < ratio < math.inf else 1
    while hi - lo > 1 and (found := verdict(j)):
        lo, hi = (lo, j) if found > 0 else (j, hi)
        j, gap = ((lo + hi) // 2, gap) if hi < MAX_BACKTRACKS else (min(lo + gap, hi - 1), 2 * gap)
    # after a rejection it could not prove, the one-by-one scan from the last proved one
    j = next((j for j in range(lo + 1, hi) if verdict(j) > 0), min(hi, MAX_BACKTRACKS - 1))
    return ARMIJO_STEPS[j], tried[j]


def _solve_dual_model(w, grad, hessian, mu, a, c, space, tol):
    """Minimize the model q(z) + R(z), q(z) = grad.(z - w) + c |A(z - w)|^2/2
    + mu |z - w|^2/2 with hessian() = c A^T A, over z in the coordinates of
    space (_General or _Pair), to a subgradient residual of tol; returns the
    last primal point. a is the map A to the m positive margins.

    Semismooth Newton runs on the dual, maximizing D(lam) = -|lam|^2/(2c) +
    lam.A(z - w) + psi(z), z = prox_{R/mu}(w - (grad + A^T lam)/mu), psi the
    rest of the model: it is smooth and concave, its generalized Hessian
    -(I/c + A J A^T/mu) is negative definite whatever the conditioning of
    c A^T A (J the Jacobian of the prox), and A^T(c grad D) is the model's
    subgradient residual at z. In the general coordinates the m x K P matrix
    of A is built on the first margin-space step (m <= K P there), hessian()
    on the first weight-space one. Each step's Armijo search is _line_search."""
    s = 1.0 / mu
    base = w - s * grad

    def primal(at_lam, lam_sq):
        """D, its size and the state at A^T lam = at_lam and |lam|^2 = lam_sq."""
        z, parts, reg = space.prox_parts(base - s * at_lam, s)
        d = z - w
        part, lam_part = space.dual_part(at_lam, grad, d, reg, mu), lam_sq / (2.0 * c)
        return part - lam_part, abs(part) + lam_part, (at_lam, parts, z, d)

    lam = np.zeros(a.size)
    dual, size, (at_lam, parts, z, d) = primal(np.zeros(w.shape), 0.0)  # at_lam = A^T lam
    for _ in range(DUAL_NEWTON_STEPS):
        grad_dual = a(d) - lam / c
        at_grad = a.adjoint(grad_dual)
        if c * math.sqrt(space.dot(at_grad, at_grad)) <= tol:
            break
        try:
            delta, at_delta = space.step(parts, s, grad_dual, at_grad, c, mu, a, hessian)
        except np.linalg.LinAlgError:
            break
        slope = float(grad_dual.dot(delta))
        if not slope > 0.0:
            break
        norm = space.ray_norm(lam, delta)
        t, (value, size_new, (at_new, parts_new, z_new, d_new)) = _line_search(
            lambda t: primal(at_lam + t * at_delta, norm(t)), dual, slope, size
        )
        if not value > dual:
            break  # no ascent left above the rounding of D: z is as good as it gets
        lam = lam + t * delta
        dual, size, at_lam, parts, z, d = value, size_new, at_new, parts_new, z_new, d_new
    return z


def _descend(space, w: np.ndarray) -> np.ndarray:
    """solve_w's outer proximal Newton loop, from w in the coordinates of space."""
    scale = float(np.abs(space.origin.grad()).max())
    if scale == 0.0:
        # w = 0 minimizes the hinge and the regularizer at once
        return np.zeros_like(w)
    gram = space.x.T @ space.x
    # the Frobenius norm of X^T X bounds its largest eigenvalue
    t = space.x.shape[0] / (2.0 * math.sqrt(float((gram * gram).sum())))
    if not 0.0 < t < math.inf:
        raise SolverError(f"no finite Lipschitz bound for the hinge gradient (step {t})")

    margins = space.origin.at(w)
    reg_w = space.value(w)
    fw = margins.loss() + reg_w
    if not np.isfinite(fw):
        raise SolverError(f"objective not finite at the initial point (value {fw})")

    for outer in range(MAX_OUTER_ITERS + 1):
        grad = margins.grad()
        pg = space.prox(w - t * grad, t)
        r = (w - pg) / t
        residual = float(np.abs(r).max())
        if residual <= REL_OBJ_TOL * scale:
            break
        if outer == MAX_OUTER_ITERS:
            logger.warning("weight update ended on its budget of %d outer iterations at relative residual %.3e",
                           outer, residual / scale)
            break
        r_norm = math.sqrt(space.dot(r, r))
        a = space.margin_map(margins)
        # the Hessian is built on the first weight-space Newton step of this model, if any
        z = _solve_dual_model(w, grad, margins.hessian_once, DAMPING * r_norm, a, space.c, space, INEXACTNESS * r_norm)
        if not np.all(np.isfinite(z)):
            raise SolverError(f"iterate diverged at outer iteration {outer}")
        d = z - w
        reg_z = space.value(z)
        model_dec = space.dot(grad, d) + reg_z - reg_w
        # Armijo steps along d while the model decreases, then (if none is accepted) the prox-gradient step
        steps = ARMIJO_STEPS if model_dec < 0.0 else ()
        for step in (*steps, None):
            cand = pg if step is None else z if step == 1.0 else w + step * d
            reg_c = reg_z if step == 1.0 else space.value(cand)
            trial = margins.at(cand)
            fc = trial.loss() + reg_c
            if not np.isfinite(fc):
                where = "prox-gradient step" if step is None else f"step {step:.3e}"
                raise SolverError(f"objective not finite at outer iteration {outer} ({where})")
            if step is None or fc <= fw + SUFFICIENT_DECREASE * step * model_dec:
                break
        if step is None and not fc < fw:
            logger.debug("weight update stopped: no step decreases the objective, at relative residual %.3e",
                         residual / scale)
            break
        # the accepted trial's margins serve the next iteration
        w, fw, reg_w, margins = cand, fc, reg_c, trial
        logger.debug("w-update iter=%d obj=%.10e residual=%.3e", outer, fw, r_norm)

    return w


def solve_w(x: np.ndarray, labels, regularizer: Regularizer, w0: np.ndarray) -> np.ndarray:
    """Minimize the split objective in the weights for fixed labels, from the
    K x P start w0 on the node's n x P features x; regularizer is the split's.
    Returns the K x P weights.

    Stops when the largest entry of the prox-gradient residual drops below
    REL_OBJ_TOL times the largest entry of the hinge gradient at w = 0,
    when no step decreases the objective, which it logs at debug level, or
    after MAX_OUTER_ITERS outer iterations, which it logs as a warning (both
    with the final relative residual); the objective is non-increasing
    across iterations. Raises SolverError if the objective turns non-finite.
    At K = 2 they run on u = (w_1 - w_2)/sqrt 2 from the start projected onto w_1 = -w_2.
    """
    w = np.array(w0, dtype=float)
    at_zero = label_margins(np.zeros_like(w), x, labels)  # checks the labels and dimensions, once per call
    if w.shape[0] != 2:
        return _descend(_General(at_zero, regularizer), w)
    u = _descend(_Pair(at_zero, regularizer), (w[0] - w[1]) / SQRT2)
    return np.stack((u, -u)) / SQRT2
