"""Independent reference implementations used to validate the package.

Everything here is deliberately written from scratch (loops, enumeration,
first principles) so that a bug in the fast paths cannot hide in its own
oracle. The one exception is reference_solve_w, a frozen copy of the earlier
proximal L-BFGS weight solver: the weight update must end no higher than it,
which does not make it optimal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from margintree.errors import ConfigError, SolverError, ValidationError
from margintree.objective import Regularizer, exclusive_weights, hinge_grad, hinge_loss


class InfeasibleFlowError(RuntimeError):
    """The flow network admits no feasible flow (not a solver failure)."""


class GuardError(RuntimeError):
    """A brute-force oracle was asked to enumerate too large a space."""


def finite_difference_grad(fn, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""
    grad = np.zeros_like(w, dtype=float)
    for idx in np.ndindex(w.shape):
        wp = w.copy()
        wm = w.copy()
        wp[idx] += h
        wm[idx] -= h
        grad[idx] = (fn(wp) - fn(wm)) / (2 * h)
    return grad


def hinge_loss_loops(w: np.ndarray, x: np.ndarray, labels: np.ndarray) -> float:
    """Plain-loop squared hinge loss (labels 1-based)."""
    n, k = x.shape[0], w.shape[0]
    total = 0.0
    for i in range(n):
        yi = labels[i] - 1
        si = [float(w[c] @ x[i]) for c in range(k)]
        for y in range(k):
            if y == yi:
                continue
            m = 1.0 - si[yi] + si[y]
            if m > 0:
                total += m * m
    return total / (n * k)


def margin_map_loops(z: np.ndarray, x: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Plain-loop n x K linear part of the margins at K x P weights z:
    z_y.x_i - z_{y_i}.x_i (zero at y = y_i); y0 holds 0-based labels."""
    n, k = x.shape[0], z.shape[0]
    out = np.zeros((n, k))
    for i in range(n):
        for y in range(k):
            out[i, y] = float(z[y] @ x[i]) - float(z[y0[i]] @ x[i])
    return out


def hinge_grad_loops(w: np.ndarray, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    n, k = x.shape[0], w.shape[0]
    grad = np.zeros_like(w, dtype=float)
    for i in range(n):
        yi = labels[i] - 1
        si = [float(w[c] @ x[i]) for c in range(k)]
        for y in range(k):
            if y == yi:
                continue
            m = 1.0 - si[yi] + si[y]
            if m > 0:
                grad[y] += 2 * m * x[i]
                grad[yi] -= 2 * m * x[i]
    return grad / (n * k)


def hinge_hessian_loops(w: np.ndarray, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Generalized Hessian of the squared hinge over the row-major flattened
    K x P weights, one rank-one term per positive margin (labels 1-based)."""
    n, k = x.shape[0], w.shape[0]
    p = x.shape[1]
    hess = np.zeros((k * p, k * p))
    for i in range(n):
        yi = labels[i] - 1
        si = [float(w[c] @ x[i]) for c in range(k)]
        for y in range(k):
            if y == yi or 1.0 - si[yi] + si[y] <= 0:
                continue
            a = np.zeros((k, p))
            a[y] += x[i]
            a[yi] -= x[i]
            hess += 2.0 * np.outer(a.ravel(), a.ravel())
    return hess / (n * k)


def prox_objective(u: np.ndarray, w: np.ndarray, s: float, alpha: float, beta: float, lam_e: np.ndarray) -> float:
    """0.5||u - w||^2 + s * (alpha * G(u) + beta * sum lam_e |u|)."""
    k, p = u.shape
    group = np.sqrt((u**2).sum(axis=0)).sum() / (p * k)
    weighted_l1 = (np.abs(u) * lam_e).sum()
    return float(0.5 * ((u - w) ** 2).sum() + s * (alpha * group + beta * weighted_l1))


def subgradient_prox_oracle(
    w: np.ndarray, s: float, alpha: float, beta: float, lam_e: np.ndarray, iters: int = 20000
) -> tuple[np.ndarray, float]:
    """Projected subgradient descent on the prox objective with the
    strong-convexity step schedule 2/(t+2); returns the best iterate."""
    k, p = w.shape
    lam_g = 1.0 / (p * k)
    u = w.copy()
    best = u.copy()
    best_val = prox_objective(u, w, s, alpha, beta, lam_e)
    for t in range(iters):
        norms = np.sqrt((u**2).sum(axis=0))
        g_group = np.where(norms > 0, 1.0, 0.0) * np.divide(u, norms, out=np.zeros_like(u), where=norms > 0)
        sub = (u - w) + s * (alpha * lam_g * g_group + beta * lam_e * np.sign(u))
        u = u - (2.0 / (t + 2.0)) * sub
        val = prox_objective(u, w, s, alpha, beta, lam_e)
        if val < best_val:
            best_val = val
            best = u.copy()
    return best, best_val


def _subgradient_distance(u: np.ndarray, v: np.ndarray, l1: np.ndarray, group: float, quad: float) -> float:
    """Largest distance, over entries and columns, of v from the
    subdifferential at u of group * sum_p ||u_p|| + sum_p l1_p sum_k |u_kp|
    + quad * sum u^2 (written out entry by entry)."""
    k, p = u.shape
    worst = 0.0
    for col in range(p):
        uc, vc = u[:, col], v[:, col]
        norm = math.sqrt(sum(float(a) * float(a) for a in uc))
        if norm > 0:
            for row in range(k):
                target = 2.0 * quad * uc[row] + group * uc[row] / norm
                if uc[row] != 0:
                    worst = max(worst, abs(vc[row] - target - l1[col] * np.sign(uc[row])))
                else:
                    worst = max(worst, max(0.0, abs(vc[row] - target) - l1[col]))
        else:
            shrunk = [math.copysign(max(abs(float(a)) - l1[col], 0.0), a) for a in vc]
            worst = max(worst, max(0.0, math.sqrt(sum(a * a for a in shrunk)) - group))
    return worst


def prox_optimality_residual(
    u: np.ndarray, w: np.ndarray, s: float, alpha: float, beta: float, lam_e: np.ndarray
) -> float:
    """Distance of (w - u)/s from the subdifferential of the regularizer at
    u, maximized over entries/columns (0 at the exact prox)."""
    k, p = u.shape
    return _subgradient_distance(u, (w - u) / s, beta * np.asarray(lam_e, dtype=float), alpha / (p * k), 0.0)


def _regularizer_terms(chain, reg, k: int, p: int) -> tuple[np.ndarray, float, float]:
    """The (l1, group, quad) weights of _subgradient_distance for the
    variant's regularizer, from the definitions."""
    lam_g = 1.0 / (p * k)
    lam_e = np.zeros(p)
    for row in chain:
        lam_e += np.abs(row)
    if len(chain):
        lam_e /= k * len(chain) * p
    a, b = reg.alpha, reg.beta
    return {
        "sparse_group": (b * lam_e, a * lam_g, 0.0),
        "group_only": (np.zeros(p), a * lam_g, 0.0),
        "exclusive_only": (b * lam_e, 0.0, 0.0),
        "l1": (np.full(p, a * lam_g), 0.0, 0.0),
        "squared_l2": (np.zeros(p), 0.0, a * lam_g),
    }[reg.variant]


def weight_update_residual(w: np.ndarray, x: np.ndarray, labels, chain, reg) -> float:
    """Relative optimality residual of K x P weights for the split objective:
    the largest distance of minus the hinge gradient from the subdifferential
    of the variant's regularizer, over the largest hinge gradient entry at
    w = 0. Written from the definitions with loops (0 at the minimizer)."""
    w = np.asarray(w, dtype=float)
    k, p = w.shape
    labels = np.asarray(labels)
    scale = float(np.abs(hinge_grad_loops(np.zeros((k, p)), x, labels)).max())
    terms = _regularizer_terms(chain, reg, k, p)
    return _subgradient_distance(w, -hinge_grad_loops(w, x, labels), *terms) / scale


def model_residual(z: np.ndarray, w: np.ndarray, grad: np.ndarray, hess: np.ndarray, mu: float, chain, reg) -> float:
    """Optimality residual at z of the weight update's Newton model
    grad.(z - w) + (z - w).(hess + mu I)(z - w)/2 + R(z): the largest distance
    of minus the model gradient from the subdifferential of the regularizer
    (0 at the model minimizer). The model is mu-strongly convex, so z lies
    within sqrt(K P) times this, over mu, of its minimizer."""
    k, p = z.shape
    d = (z - w).ravel()
    model_grad = grad + (hess.dot(d) + mu * d).reshape(k, p)
    return _subgradient_distance(z, -model_grad, *_regularizer_terms(chain, reg, k, p))


def gradient_descent_smooth_oracle(
    x: np.ndarray, labels: np.ndarray, alpha: float, k: int, iters: int = 4000
) -> float:
    """Backtracking gradient descent on hinge + alpha*||w||^2/(K P); returns
    the best objective found (smooth problem, independent of the package)."""
    p = x.shape[1]
    w = np.zeros((k, p))

    def value(mat):
        return hinge_loss_loops(mat, x, labels) + alpha * float((mat**2).sum()) / (k * p)

    def grad(mat):
        return hinge_grad_loops(mat, x, labels) + 2.0 * alpha * mat / (k * p)

    fw = value(w)
    step = 1.0
    for _ in range(iters):
        g = grad(w)
        gnorm2 = float((g**2).sum())
        if gnorm2 < 1e-24:
            break
        step = min(step * 2.0, 1e6)
        while step > 1e-18:
            cand = w - step * g
            fc = value(cand)
            if fc <= fw - 0.25 * step * gnorm2:
                break
            step *= 0.5
        if fc >= fw - 1e-16 * max(1.0, abs(fw)):
            w, fw = cand, min(fw, fc)
            break
        w, fw = cand, fc
    return fw


# -- the earlier weight update: proximal L-BFGS -------------------------------
# A frozen copy of that solve_w and its inner spectral proximal-gradient loop,
# with the np.linalg.norm-based prox and regularizer value they called. The
# prox formula also pins the float operations (and signed zeros) of
# optim.prox_group and optim.prox_sparse_group.


def reference_prox_weighted_l1(w: np.ndarray, thresholds) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - thresholds, 0.0)


def reference_prox_group(w: np.ndarray, t: float) -> np.ndarray:
    norms = np.linalg.norm(w, axis=0)
    return w * (np.maximum(norms - t, 0.0) / np.where(norms > 0.0, norms, 1.0))


def reference_prox_sparse_group(w: np.ndarray, regularizer, s: float) -> np.ndarray:
    if s <= 0:
        raise ValidationError("prox step must be positive")
    if regularizer.quad:
        return w / (1.0 + 2.0 * s * regularizer.quad)
    return reference_prox_group(reference_prox_weighted_l1(w, s * regularizer.l1), s * regularizer.group)


def reference_regularizer_value(w: np.ndarray, config, lambda_e: np.ndarray, has_ancestors: bool) -> float:
    k, p = w.shape
    alpha, beta, variant = config.alpha, config.beta, config.variant
    group = float(np.linalg.norm(w, axis=0).sum() / (w.shape[1] * w.shape[0]))
    exclusive = float((np.abs(w) * lambda_e).sum()) if has_ancestors else 0.0
    if variant == "sparse_group":
        return alpha * group + beta * exclusive
    if variant == "group_only":
        return alpha * group
    if variant == "exclusive_only":
        return beta * exclusive
    if variant == "l1":
        return alpha * float(np.abs(w).sum()) / (k * p)
    return alpha * float((w**2).sum()) / (k * p)


class _ReferenceLbfgsMetric:
    def __init__(self, pairs):
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


def _reference_solve_model(w0_flat, grad_flat, metric, step, prox, reg_val_flat, max_iters):
    def q_val(u):
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


def reference_solve_w(
    x, labels, chain, reg, w0, *, memory=10, inner_iters=25, shrink=0.5, max_outer_iters=100,
    sufficient_decrease=1e-4, rel_obj_tol=1e-8,
) -> np.ndarray:
    """The K x P weights the earlier proximal L-BFGS weight update returned
    (defaults: its default settings), from the K x P start w0 on the n x P
    features x."""
    w = np.array(w0, dtype=float)
    k, p = w.shape
    labels = np.asarray(labels, dtype=np.int64)
    lambda_e = exclusive_weights(chain, k, p)
    has_ancestors = len(chain) > 0
    regularizer = Regularizer(reg, chain, k, p)

    def reg_val_flat(vec):
        return reference_regularizer_value(vec.reshape(k, p), reg, lambda_e, has_ancestors)

    def prox_flat(vec, t):
        return reference_prox_sparse_group(vec.reshape(k, p), regularizer, t).ravel()

    reg_w = reference_regularizer_value(w, reg, lambda_e, has_ancestors)
    fw = hinge_loss(w, x, labels) + reg_w
    if not np.isfinite(fw):
        raise SolverError(f"objective not finite at the initial point (value {fw})")
    grad = hinge_grad(w, x, labels).ravel()
    w_flat = w.ravel()
    pairs = []
    step = 1.0

    for outer in range(max_outer_iters):
        metric = _ReferenceLbfgsMetric(pairs)
        step = min(step * 2.0, 1e8)
        accepted = False
        for _ in range(40):
            u, reg_u = _reference_solve_model(w_flat, grad, metric, step, prox_flat, reg_val_flat, inner_iters)
            d = u - w_flat
            if not np.all(np.isfinite(u)):
                raise SolverError(f"iterate diverged at outer iteration {outer} (step {step:.3e})")
            model_dec = float(grad @ d) + reg_u - reg_w
            fu = hinge_loss(u.reshape(k, p), x, labels) + reg_u
            if not np.isfinite(fu):
                raise SolverError(f"objective not finite at outer iteration {outer} (step {step:.3e})")
            if model_dec <= 0 and fu <= fw + sufficient_decrease * model_dec:
                accepted = True
                break
            step *= shrink
        d_sq = float(d @ d)
        if not accepted or d_sq == 0.0:
            break
        new_grad = hinge_grad(u.reshape(k, p), x, labels).ravel()
        if memory > 0:
            y_vec = new_grad - grad
            if float(d @ y_vec) > 1e-12 * math.sqrt(d_sq) * max(math.sqrt(y_vec @ y_vec), 1e-30):
                pairs.append((d, y_vec))
                if len(pairs) > memory:
                    pairs.pop(0)
        decrease = fw - fu
        w_flat, grad, fw, reg_w = u, new_grad, fu, reg_u
        if decrease <= rel_obj_tol * max(1.0, abs(fw)):
            break

    return w_flat.reshape(k, p)


def armijo_scan(trial, dual: float, slope: float, ascent: float, rungs: int):
    """The dual line search as one-by-one backtracking: halve t from 1 until
    the value of trial(t) reaches dual + ascent t slope, trying at most rungs
    steps; returns the last t tried and its trial (value, size, state)."""
    t = 1.0
    for rung in range(rungs):
        if rung:
            t *= 0.5
        result = trial(t)
        if result[0] >= dual + ascent * t * slope:
            break
    return t, result


def brute_force_network_optimum(network) -> int | None:
    """Minimum cost over all integral flows by enumeration; None when no
    feasible flow exists."""
    ranges = [range(a.lower, a.upper + 1) for a in network.arcs]
    best = None
    for combo in itertools.product(*ranges):
        balance = list(network.supplies)
        for f, a in zip(combo, network.arcs):
            balance[a.tail] -= f
            balance[a.head] += f
        if any(b != 0 for b in balance):
            continue
        cost = sum(f * a.cost for f, a in zip(combo, network.arcs))
        if best is None or cost < best:
            best = cost
    return best


def exhaustive_pair_score(cluster_codes, learned_table, truth_codes, truth_table) -> float:
    """1 - mean over every unordered instance pair of the squared difference
    between learned and true similarity. A table of None is the flat
    convention: 1 when two instances share a code, else 0."""

    def similarity(codes, table):
        codes = np.asarray(codes)
        if table is None:
            return (codes[i] == codes[j]).astype(float)
        return table[codes[i], codes[j]]

    i, j = np.triu_indices(np.size(truth_codes), k=1)
    learned_sim, true_sim = similarity(cluster_codes, learned_table), similarity(truth_codes, truth_table)
    return float(1.0 - np.mean((learned_sim - true_sim) ** 2))


# A generic min-cost-flow solver and the balanced-assignment network: a second
# exact assignment oracle, independent of the package's n x K solver.


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    lower: int
    upper: int
    cost: int


@dataclass(frozen=True)
class FlowNetwork:
    """Directed graph with integer arc capacities/costs and node supplies."""

    node_count: int
    arcs: tuple[Arc, ...]
    supplies: tuple[int, ...]

    def __post_init__(self):
        if len(self.supplies) != self.node_count:
            raise ValidationError("one supply entry per node required")
        if sum(self.supplies) != 0:
            raise ValidationError("supplies must sum to zero")
        for a in self.arcs:
            if not (0 <= a.tail < self.node_count and 0 <= a.head < self.node_count):
                raise ValidationError(f"arc endpoint out of range: {a}")
            if a.lower > a.upper or a.lower < 0:
                raise ValidationError(f"arc bounds must satisfy 0 <= lower <= upper: {a}")
            if a.cost < 0:
                raise ValidationError(f"negative arc cost unsupported: {a}")


@dataclass(frozen=True)
class FlowResult:
    arc_flows: tuple[int, ...]
    total_cost: int


def min_cost_flow(network: FlowNetwork) -> FlowResult:
    """Minimum-cost feasible integral flow, or InfeasibleFlowError.

    Capacity scaling: successive shortest augmenting paths with node
    potentials, restricted per phase to residual arcs carrying at least delta
    units, with negative reduced-cost arcs saturated when a phase opens. Arc
    lower bounds are removed up front by the usual excess transformation."""
    n = network.node_count
    excess = [int(s) for s in network.supplies]

    # residual arc arrays; forward arc 2i pairs with backward arc 2i+1
    head: list[int] = []
    rcap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]

    for a in network.arcs:
        # remove the lower bound: force l units through and shift excess
        excess[a.tail] -= a.lower
        excess[a.head] += a.lower
        adj[a.tail].append(len(head))
        head.append(a.head)
        rcap.append(a.upper - a.lower)
        cost.append(a.cost)
        adj[a.head].append(len(head))
        head.append(a.tail)
        rcap.append(0)
        cost.append(-a.cost)

    pi = [0] * n
    max_excess = max((e for e in excess if e > 0), default=0)
    delta = 1
    while delta * 2 <= max_excess:
        delta *= 2

    def dijkstra(src: int):
        """Shortest reduced-cost path in the delta-residual graph from src to
        the nearest node with excess <= -delta. Returns (None, ...) when no
        such node is reachable."""
        dist = {src: 0}
        settled = {}
        parent_arc: dict[int, int] = {}
        heap = [(0, src)]
        target = None
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled[u] = d
            if excess[u] <= -delta:
                target = u
                break
            for arc_id in adj[u]:
                if rcap[arc_id] < delta:
                    continue
                v = head[arc_id]
                if v in settled:
                    continue
                nd = d + cost[arc_id] + pi[u] - pi[v]
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    parent_arc[v] = arc_id
                    heapq.heappush(heap, (nd, v))
        return target, settled, parent_arc

    while delta >= 1:
        # restore delta-optimality: saturate newly admitted negative arcs
        for u in range(n):
            for arc_id in adj[u]:
                if rcap[arc_id] >= delta and cost[arc_id] + pi[u] - pi[head[arc_id]] < 0:
                    amount = rcap[arc_id]
                    rcap[arc_id] = 0
                    rcap[arc_id ^ 1] += amount
                    excess[u] -= amount
                    excess[head[arc_id]] += amount

        stuck: set[int] = set()
        while True:
            sources = [v for v in range(n) if excess[v] >= delta and v not in stuck]
            if not sources or not any(e <= -delta for e in excess):
                break
            src = sources[0]
            target, settled, parent_arc = dijkstra(src)
            if target is None:
                stuck.add(src)
                continue
            stuck.clear()
            d_target = settled[target]
            for v, d in settled.items():
                pi[v] -= d_target - d
            v = target
            while v != src:
                arc_id = parent_arc[v]
                rcap[arc_id] -= delta
                rcap[arc_id ^ 1] += delta
                v = head[arc_id ^ 1]
            excess[src] -= delta
            excess[target] += delta
        delta //= 2

    if any(e != 0 for e in excess):
        raise InfeasibleFlowError("no feasible flow exists for the given capacities and supplies")

    flows = []
    total = 0
    for i, a in enumerate(network.arcs):
        f = a.lower + rcap[2 * i + 1]
        flows.append(f)
        total += f * a.cost
    return FlowResult(arc_flows=tuple(flows), total_cost=total)


def _check_assignment_inputs(costs: np.ndarray, lower: int, upper: int) -> tuple[int, int]:
    n, k = costs.shape
    if not np.all(np.isfinite(costs)):
        raise ValidationError("assignment costs must be finite")
    if np.any(costs < 0):
        raise ValidationError("assignment costs must be non-negative")
    if lower < 0 or upper < lower:
        raise ConfigError(f"need 0 <= lower <= upper, got ({lower}, {upper})")
    if k * lower > n or k * upper < n:
        raise ConfigError(f"bounds ({lower}, {upper}) infeasible for {n} instances in {k} clusters")
    return n, k


def build_assignment_network(costs, lower: int, upper: int, scale: int = 10**6) -> FlowNetwork:
    """Encode balanced assignment as a flow network: source -> instance arcs
    [1, 1] at cost 0, instance -> cluster arcs [0, 1] at the cost rounded to
    fixed point (cost * scale, a Python int), cluster -> sink arcs [L, U].

    Node order: source 0, instances 1..n, clusters n+1..n+K, sink n+K+1.
    Arcs are created source->instance, then instance->cluster in row-major
    order, then cluster->sink; this fixed order is the deterministic
    tie-break among equal-cost optima.
    """
    costs = np.asarray(costs, dtype=float)
    n, k = _check_assignment_inputs(costs, lower, upper)
    if scale < 1:
        raise ValidationError(f"scale must be a positive integer, got {scale}")
    source, sink = 0, n + k + 1
    arcs = [Arc(source, 1 + i, 1, 1, 0) for i in range(n)]
    # Python ints, so costs beyond the int64 range stay exact and positive
    scaled = np.rint(costs * scale).tolist()
    for i in range(n):
        for y in range(k):
            arcs.append(Arc(1 + i, 1 + n + y, 0, 1, int(scaled[i][y])))
    arcs.extend(Arc(1 + n + y, sink, lower, upper, 0) for y in range(k))
    supplies = [0] * (n + k + 2)
    supplies[source] = n
    supplies[sink] = -n
    return FlowNetwork(node_count=n + k + 2, arcs=tuple(arcs), supplies=tuple(supplies))


def brute_force_assignment(costs, lower: int, upper: int) -> tuple[np.ndarray, float]:
    """Exact optimum by enumerating all balanced labelings; ties go to the
    lexicographically smallest label vector. Guarded to K^n <= 10^7."""
    costs = np.asarray(costs, dtype=float)
    n, k = _check_assignment_inputs(costs, lower, upper)
    if k**n > 10**7:
        raise GuardError(f"{k}^{n} labelings exceed the enumeration guard")
    best_cost = None
    best = None
    for labeling in itertools.product(range(k), repeat=n):
        sizes = np.bincount(labeling, minlength=k)
        if sizes.min() < lower or sizes.max() > upper:
            continue
        c = float(costs[np.arange(n), labeling].sum())
        if best_cost is None or c < best_cost - 1e-12:
            best_cost = c
            best = labeling
    if best is None:
        raise InfeasibleFlowError("no balanced labeling exists")
    return np.asarray(best, dtype=np.int64) + 1, best_cost


def optimal_labelings(costs, lower: int, upper: int, rel_tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Optimal total cost and every balanced labeling (1-based rows) within
    rel_tol of it, by enumerating all K^n labelings at once. Guarded to
    K^n <= 10^5."""
    costs = np.asarray(costs, dtype=float)
    n, k = _check_assignment_inputs(costs, lower, upper)
    if k**n > 10**5:
        raise GuardError(f"{k}^{n} labelings exceed the enumeration guard")
    labelings = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64).reshape(k**n, n)
    sizes = np.stack([(labelings == b).sum(axis=1) for b in range(k)], axis=1)
    feasible = labelings[(sizes.min(axis=1) >= lower) & (sizes.max(axis=1) <= upper)]
    totals = costs[np.arange(n), feasible].sum(axis=1)
    best = float(totals.min())
    return best, feasible[totals <= best + rel_tol * max(1.0, best)] + 1


def reference_parse_csv(path: str, label_column: bool) -> np.ndarray:
    """Dense feature matrix of a csv file, one float() call per token, blank
    lines skipped; no error handling (for well-formed files only)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            tokens = line.strip().split(",")
            if tokens == [""]:
                continue
            if label_column:
                tokens = tokens[:-1]
            row = []
            for token in tokens:
                row.append(float(token))
            rows.append(row)
    return np.array(rows, dtype=float)


def reference_write_csv(dataset, path: str) -> None:
    """The generate command's csv rows written one float at a time: repr of
    each feature as a Python float, then the label."""
    with open(path, "w") as fh:
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
