"""Min-cost flow and the balanced cluster-assignment reduction.

The assignment of n instances to K clusters with per-cluster size bounds
[L, U] is encoded as a flow network: source -> instance arcs of capacity
[1,1] and cost 0, instance -> cluster arcs [0,1] with the (integer-scaled)
assignment cost, cluster -> sink arcs [L,U] at cost 0. Sending n units of
flow at minimum cost reads back an optimal balanced labeling.

The solver is capacity scaling: successive shortest augmenting paths with
node potentials, restricted per phase to residual arcs carrying at least
delta units, with negative reduced-cost arcs saturated when a phase opens.
Arc lower bounds are removed up front by the usual excess transformation.
Costs must be non-negative integers; real costs are converted by fixed-point
scaling (default 10^6) and the induced quantization slack is bounded below.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GuardError, InfeasibleFlowError, ValidationError

DEFAULT_SCALE = 10**6


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
    """Minimum-cost feasible integral flow, or InfeasibleFlowError."""
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


def build_assignment_network(costs, lower: int, upper: int, scale: int = DEFAULT_SCALE) -> FlowNetwork:
    """Encode balanced assignment as a flow network (see module docstring).

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


def solve_balanced_assignment(costs, lower: int, upper: int, scale: int = DEFAULT_SCALE) -> np.ndarray:
    """Optimal balanced labeling (1-based) read off the saturated
    instance->cluster arcs of the min-cost flow."""
    costs = np.asarray(costs, dtype=float)
    n, k = costs.shape
    network = build_assignment_network(costs, lower, upper, scale)
    result = min_cost_flow(network)
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for y in range(k):
            if result.arc_flows[n + i * k + y]:
                labels[i] = y + 1
                break
    return labels


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
