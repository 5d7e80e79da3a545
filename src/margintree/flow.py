"""Balanced cluster assignment, solved exactly as a min-cost flow.

Assigning n instances to K clusters with per-cluster size bounds [L, U] is a
transportation problem: source -> instance arcs of capacity 1, instance ->
cluster arcs carrying the assignment cost, cluster -> sink arcs bounded by
[L, U]. The row-wise argmin is optimal for its own cluster sizes, since
moving instance i from a to b costs c[i, b] - c[i, a] >= 0, so it is the
answer when every size lies in [L, U]. Otherwise successive shortest paths
repair the sizes from that pseudoflow (Ahuja, Magnanti & Orlin, Network
Flows, 1993, ch. 9). Cluster b sends min(max(|b|, L), U) units to the sink:
a cluster above U holds an excess of |b| - U, one below L a deficit of
L - |b|, and the sink the balance of the two. The residual graph, contracted
to the K clusters and the sink, has the arcs:

- a -> b: move the cheapest instance of a to b, cost c[i, b] - c[i, a];
- b -> sink: b keeps one more instance, open while |b| < U, cost 0;
- sink -> b: b gives one instance up, open while |b| > L, cost 0.

Each augmentation carries one unit from an excess to a deficit along a
shortest path, so there is at most one per unit of size violation. The
ordered pair (a, b) reads the instances the argmin put in a in
(c[i, b] - c[i, a], i) order from a stably sorted array, skipping those
that have moved, plus a lazy heap of the instances moved into a. Shortest
paths are Dijkstra from every excess at once, on reduced costs with node
potentials, each reduced cost clamped at 0, so a zero-cost cycle that float
rounding makes read slightly negative cannot stall it. Costs stay floats
throughout. The argmin costs O(nK); a repair O(nK log n) for the sorts plus
O(K^2 log n) per augmentation.

Tie-break: each instance starts in np.argmin's lowest-index cluster, an arc
takes its least (key, instance index), Dijkstra settles the lowest-index
node among equal distances (the sink last) and keeps the first path found,
and an augmentation ends at the deficit of least distance, lowest index
first (the sink last). With all-equal costs, every instance starts in
cluster 1 and instances leave it in index order: to the lowest-index
cluster below L while one is, then, while cluster 1 is above U, to the
lowest-index cluster below U.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ConfigError, SolverError, ValidationError


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
    _, k = _check_assignment_inputs(costs, lower, upper)
    label = costs.argmin(axis=1)
    size = np.bincount(label, minlength=k)
    if size.min() < lower or size.max() > upper:
        label = _repair_sizes(costs, label, size.tolist(), lower, upper)
    return label.astype(np.int64) + 1


def _repair_sizes(costs: np.ndarray, argmin: np.ndarray, size: list, lower: int, upper: int) -> np.ndarray:
    n, k = costs.shape
    sink = k
    keys = [[[] for _ in range(k)] for _ in range(k)]  # per pair (a, b): sorted c[i,b] - c[i,a], i in a
    ids = [[[] for _ in range(k)] for _ in range(k)]  # the matching instances
    for a in range(k):
        members = np.flatnonzero(argmin == a)
        for b in range(k):
            if b != a:
                key = costs[members, b] - costs[members, a]
                order = np.argsort(key, kind="stable")
                keys[a][b], ids[a][b] = key[order].tolist(), members[order].tolist()
    next_pos = [[0] * k for _ in range(k)]  # first possibly unmoved position in ids[a][b]
    moved_in = [[[] for _ in range(k)] for _ in range(k)]  # heaps of (key, i, stamp) for i moved into a
    label = argmin.tolist()
    stamp = [0] * n  # bumped on every move; a heap entry is live while its stamp matches
    extra = [min(max(s - lower, 0), upper - lower) for s in size]  # units above L sent to the sink
    excess = [s - lower - e for s, e in zip(size, extra)]
    excess.append(sum(extra) + k * lower - n)  # the sink's
    potential = [0.0] * (k + 1)

    def cheapest_move(a: int, b: int):
        """(key, i) of the cheapest instance to move from a to b, or None."""
        pair_ids = ids[a][b]
        pos = next_pos[a][b]
        while pos < len(pair_ids) and stamp[pair_ids[pos]]:
            pos += 1
        next_pos[a][b] = pos
        heap = moved_in[a][b]
        while heap and stamp[heap[0][1]] != heap[0][2]:
            heapq.heappop(heap)
        best = (keys[a][b][pos], pair_ids[pos]) if pos < len(pair_ids) else None
        if heap and (best is None or heap[0][:2] < best):
            best = heap[0][:2]
        return best

    while any(excess):
        dist = [-potential[v] if excess[v] > 0 else float("inf") for v in range(k + 1)]
        via = [-1] * (k + 1)  # instance carried by a move arc into each cluster
        pred = [-1] * (k + 1)  # -1: the path starts at this excess
        unsettled = list(range(k + 1))
        while unsettled:
            a = min(unsettled, key=dist.__getitem__)
            unsettled.remove(a)
            for b in unsettled:
                if a == sink:
                    move = (0.0, -1) if extra[b] > 0 else None
                elif b == sink:
                    move = (0.0, -1) if extra[a] < upper - lower else None
                else:
                    move = cheapest_move(a, b)
                if move is not None:
                    d = dist[a] + max(0.0, move[0] + potential[a] - potential[b])
                    if d < dist[b]:
                        dist[b], via[b], pred[b] = d, move[1], a

        target = min((v for v in range(k + 1) if excess[v] < 0), key=lambda v: dist[v] + potential[v])
        if dist[target] == float("inf"):  # cannot happen once the bounds are checked feasible
            raise SolverError("balanced assignment: no augmenting path to a size deficit")
        for v in range(k + 1):
            potential[v] += min(dist[v], dist[target])  # the true distance from the excesses, capped
        excess[target] += 1
        b = target
        while pred[b] >= 0:
            a = pred[b]
            if b == sink:
                extra[a] += 1
            elif a == sink:
                extra[b] -= 1
            else:
                i = via[b]
                label[i] = b
                stamp[i] += 1
                row = costs[i].tolist()
                for other in range(k):
                    if other != b:
                        heapq.heappush(moved_in[b][other], (row[other] - row[b], i, stamp[i]))
            b = a
        excess[b] -= 1

    return np.asarray(label)
