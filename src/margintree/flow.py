"""Balanced cluster assignment, solved exactly as a min-cost flow.

Assigning n instances to K clusters with per-cluster size bounds [L, U] is a
transportation problem: source -> instance arcs of capacity 1, instance ->
cluster arcs carrying the assignment cost, cluster -> sink arcs bounded by
[L, U]. It is solved by successive shortest paths, one augmentation per
instance, on the contracted graph of K + 2 nodes (source, the K clusters,
sink), since every residual path through an instance node is one of:

- source -> b: assign the cheapest unassigned instance to b, cost c[i, b];
- a -> b: move the cheapest instance of a to b, cost c[i, b] - c[i, a];
- b -> sink: lexicographically cheaper while |b| < L, open while |b| < U,
  so every augmentation fills a cluster below L while one is left.

Source arcs read the instances of each column in cost order; each ordered
pair (a, b) keeps a lazy heap of (c[i, b] - c[i, a], i) over the instances
of a. Shortest paths are Dijkstra on reduced costs with node potentials,
each reduced cost clamped at 0, so a zero-cost cycle that float rounding
makes read slightly negative cannot stall it. Costs stay floats throughout.
One augmentation costs O(K^2 log n), the whole solve O(n K^2 log n).

Tie-break: an arc takes its lowest-index instance among equal keys,
Dijkstra settles the lowest-index cluster among equal distances and keeps
the first path found, and an augmentation ends at the lowest-index cluster
of least distance. With all-equal costs, instance i therefore goes to the
lowest-index cluster still below L or, once every cluster holds L, to the
lowest-index cluster below U.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ConfigError, ValidationError


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


def solve_balanced_assignment(costs, lower: int, upper: int) -> np.ndarray:
    """Optimal labeling (1-based) of the n x K cost matrix with every
    cluster size in [lower, upper] (see module docstring)."""
    costs = np.asarray(costs, dtype=float)
    n, k = _check_assignment_inputs(costs, lower, upper)
    c = costs.tolist()
    by_cost = np.argsort(costs, axis=0, kind="stable").T.tolist()  # per cluster, ties by index
    next_free = [0] * k  # first possibly unassigned position in by_cost[b]
    label = [-1] * n
    stamp = [0] * n  # bumped on every move; a heap entry is live while its stamp matches
    moves = [[[] for _ in range(k)] for _ in range(k)]  # (c[i,b] - c[i,a], i, stamp) for i in a
    size = [0] * k
    potential = [0.0] * k  # the source keeps potential 0

    def place(i: int, b: int) -> None:
        label[i] = b
        stamp[i] += 1
        row = c[i]
        for other in range(k):
            if other != b:
                heapq.heappush(moves[b][other], (row[other] - row[b], i, stamp[i]))

    for _ in range(n):
        dist = [0.0] * k
        via = [0] * k  # instance carried by the arc into each cluster
        pred = [-1] * k  # -1: the arc comes from the source
        for b in range(k):
            column = by_cost[b]
            pos = next_free[b]
            while label[column[pos]] >= 0:
                pos += 1
            next_free[b] = pos
            via[b] = column[pos]
            dist[b] = max(0.0, c[column[pos]][b] - potential[b])

        unsettled = list(range(k))
        while unsettled:
            a = min(unsettled, key=dist.__getitem__)
            unsettled.remove(a)
            for b in unsettled:
                heap = moves[a][b]
                while heap and stamp[heap[0][1]] != heap[0][2]:
                    heapq.heappop(heap)
                if heap:
                    key, i, _ = heap[0]
                    d = dist[a] + max(0.0, key + potential[a] - potential[b])
                    if d < dist[b]:
                        dist[b], via[b], pred[b] = d, i, a

        for b in range(k):
            potential[b] += dist[b]  # now the true distance from the source
        open_ = [b for b in range(k) if size[b] < lower] or [b for b in range(k) if size[b] < upper]
        b = min(open_, key=potential.__getitem__)
        size[b] += 1
        while b >= 0:
            place(via[b], b)
            b = pred[b]

    return np.asarray(label, dtype=np.int64) + 1
