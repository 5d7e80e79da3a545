"""Independent reference implementations used to validate the package.

Everything here is deliberately written from scratch (loops, enumeration,
first principles) so that a bug in the fast paths cannot hide in its own
oracle.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def prox_optimality_residual(
    u: np.ndarray, w: np.ndarray, s: float, alpha: float, beta: float, lam_e: np.ndarray
) -> float:
    """Distance of (w - u)/s from the subdifferential of the regularizer at
    u, maximized over entries/columns (0 at the exact prox)."""
    k, p = u.shape
    lam_g = 1.0 / (p * k)
    v = (w - u) / s
    worst = 0.0
    for col in range(p):
        uc, vc = u[:, col], v[:, col]
        t_l1 = beta * lam_e[col]
        norm = np.linalg.norm(uc)
        if norm > 0:
            for row in range(k):
                if uc[row] != 0:
                    target = alpha * lam_g * uc[row] / norm + t_l1 * np.sign(uc[row])
                    worst = max(worst, abs(vc[row] - target))
                else:
                    worst = max(worst, max(0.0, abs(vc[row]) - t_l1))
        else:
            shrunk = np.sign(vc) * np.maximum(np.abs(vc) - t_l1, 0.0)
            worst = max(worst, max(0.0, float(np.linalg.norm(shrunk)) - alpha * lam_g))
    return worst


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
    between learned and true similarity. learned_table None is the flat
    convention: 1 when two instances share a cluster code, else 0."""
    cluster_codes = np.asarray(cluster_codes)
    truth_codes = np.asarray(truth_codes)
    i, j = np.triu_indices(truth_codes.size, k=1)
    true_sim = truth_table[truth_codes[i], truth_codes[j]]
    if learned_table is None:
        learned_sim = (cluster_codes[i] == cluster_codes[j]).astype(float)
    else:
        learned_sim = learned_table[cluster_codes[i], cluster_codes[j]]
    return float(1.0 - np.mean((learned_sim - true_sim) ** 2))
