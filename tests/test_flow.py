import numpy as np
import pytest

from margintree import ValidationError
from margintree.errors import ConfigError
from margintree.flow import solve_balanced_assignment
from margintree.split import balance_bounds
from oracles import (
    GuardError,
    InfeasibleFlowError,
    Arc,
    FlowNetwork,
    brute_force_assignment,
    brute_force_network_optimum,
    build_assignment_network,
    min_cost_flow,
    optimal_labelings,
)

SCALE = 10**6


class TestNetworkConstruction:
    def test_counts_from_two_by_two(self):
        net = build_assignment_network(np.zeros((2, 2)), 1, 1, scale=1)
        assert net.node_count == 6
        assert len(net.arcs) == 2 + 4 + 2

    def test_costs_scaled_and_rounded(self):
        costs = np.array([[0.25, 1.75], [0.5, 0.125], [2.0, 0.0], [1.0, 3.0]])
        net = build_assignment_network(costs, 0, 5, scale=SCALE)
        instance_arcs = net.arcs[4 : 4 + 8]
        expected = np.rint(costs * SCALE).astype(int).ravel()
        assert [a.cost for a in instance_arcs] == list(expected)

    def test_infeasible_bounds_rejected(self):
        with pytest.raises(ConfigError):
            build_assignment_network(np.zeros((3, 2)), 2, 2)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            build_assignment_network(np.array([[-1.0, 0.0]]), 0, 1)

    def test_supplies(self):
        net = build_assignment_network(np.zeros((3, 2)), 1, 2)
        assert net.supplies[0] == 3
        assert net.supplies[-1] == -3
        assert sum(net.supplies) == 0


class TestMinCostFlow:
    def test_single_arc(self):
        net = FlowNetwork(2, (Arc(0, 1, 3, 3, 2),), (3, -3))
        result = min_cost_flow(net)
        assert result.arc_flows == (3,)
        assert result.total_cost == 6

    def test_parallel_arcs_prefer_cheap(self):
        net = FlowNetwork(2, (Arc(0, 1, 0, 3, 1), Arc(0, 1, 0, 3, 2)), (3, -3))
        result = min_cost_flow(net)
        assert result.arc_flows == (3, 0)
        assert result.total_cost == 3

    def test_infeasible_detected(self):
        net = FlowNetwork(2, (Arc(0, 1, 0, 1, 1),), (3, -3))
        with pytest.raises(InfeasibleFlowError):
            min_cost_flow(net)

    def test_conservation_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            net = self.random_network(rng)
            if net is None:
                continue
            try:
                result = min_cost_flow(net)
            except InfeasibleFlowError:
                continue
            balance = list(net.supplies)
            for f, a in zip(result.arc_flows, net.arcs):
                assert a.lower <= f <= a.upper
                balance[a.tail] -= f
                balance[a.head] += f
            assert all(b == 0 for b in balance)
            assert result.total_cost == sum(f * a.cost for f, a in zip(result.arc_flows, net.arcs))

    @staticmethod
    def random_network(rng, max_nodes=8):
        n = int(rng.integers(2, max_nodes + 1))
        arcs = []
        for _ in range(int(rng.integers(1, 8))):
            t, h = rng.integers(0, n, 2)
            if t == h:
                continue
            lo = int(rng.integers(0, 3))
            arcs.append(Arc(int(t), int(h), lo, lo + int(rng.integers(0, 3)), int(rng.integers(0, 9))))
        if not arcs:
            return None
        supplies = rng.integers(-2, 3, n)
        supplies[-1] -= supplies.sum()
        return FlowNetwork(n, tuple(arcs), tuple(int(s) for s in supplies))

    def test_matches_enumeration_on_small_networks(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(120):
            net = self.random_network(rng)
            if net is None:
                continue
            expected = brute_force_network_optimum(net)
            try:
                got = min_cost_flow(net).total_cost
            except InfeasibleFlowError:
                got = None
            assert got == expected
            checked += 1
        assert checked > 80


class TestBalancedAssignment:
    def test_zero_cost_feasible(self):
        costs = np.array([[0, 5], [5, 0], [0, 5], [5, 0]], dtype=float)
        labels = solve_balanced_assignment(costs, 2, 2)
        assert labels.tolist() == [1, 2, 1, 2]
        assert costs[np.arange(4), labels - 1].sum() == 0

    def test_forced_imbalance(self):
        costs = np.array([[0, 1], [0, 1], [0, 1]], dtype=float)
        labels, expected_cost = brute_force_assignment(costs, 1, 2)
        assert expected_cost == 1.0
        got = solve_balanced_assignment(costs, 1, 2)
        sizes = np.bincount(got - 1, minlength=2)
        assert sizes.tolist() == [2, 1]
        assert costs[np.arange(3), got - 1].sum() == 1.0

    def test_cluster_size_bounds_hold(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 4))
            if n < k:
                continue
            b = balance_bounds(n, k)
            labels = solve_balanced_assignment(rng.uniform(0, 10, (n, k)), b.lower, b.upper)
            sizes = np.bincount(labels - 1, minlength=k)
            assert sizes.min() >= b.lower and sizes.max() <= b.upper

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 4))
            if n < k:
                continue
            costs = rng.uniform(0, 10, (n, k))
            b = balance_bounds(n, k)
            labels = solve_balanced_assignment(costs, b.lower, b.upper)
            _, best = brute_force_assignment(costs, b.lower, b.upper)
            got = float(costs[np.arange(n), labels - 1].sum())
            assert got - best <= 1e-9

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 20:
            n, k = 6, 2
            costs = rng.uniform(0, 10, (n, k))
            b = balance_bounds(n, k)
            if len(optimal_labelings(costs, b.lower, b.upper)[1]) != 1:
                continue  # skip instances with ties among optima
            perm = rng.permutation(n)
            base = solve_balanced_assignment(costs, b.lower, b.upper)
            permuted = solve_balanced_assignment(costs[perm], b.lower, b.upper)
            assert np.array_equal(permuted, base[perm])
            done += 1

    def test_costs_beyond_int64_once_scaled(self):
        # 1e13 * 10**6 exceeds the int64 range; the optimum must still be found
        rng = np.random.default_rng(29)
        for k in (2, 3):
            costs = 1e13 * rng.uniform(1.0, 2.0, (7, k))
            b = balance_bounds(7, k)
            labels = solve_balanced_assignment(costs, b.lower, b.upper)
            _, best = brute_force_assignment(costs, b.lower, b.upper)
            assert float(costs[np.arange(7), labels - 1].sum()) == pytest.approx(best, rel=1e-12)


def leave_first_cluster_in_index_order(n, k, lower, upper):
    """The documented tie-break on all-equal costs: every instance starts in
    cluster 1 (np.argmin's lowest index) and instances leave it in index
    order, to the lowest-index cluster below lower while one is, then, while
    cluster 1 is above upper, to the lowest-index cluster below upper."""
    sizes = [n] + [0] * (k - 1)
    labels = [1] * n
    for i in range(n):
        short = [b for b in range(1, k) if sizes[b] < lower]
        if not short and sizes[0] > upper:
            short = [b for b in range(1, k) if sizes[b] < upper]
        if not short:
            break
        sizes[0] -= 1
        sizes[short[0]] += 1
        labels[i] = short[0] + 1
    return labels


class TestAgainstMinCostFlow:
    """The n x K solver against the generic capacity-scaling min-cost flow.
    Costs are exact multiples of 1/scale, so the oracle's fixed-point network
    carries them exactly and its optimum is the true one."""

    @staticmethod
    def random_costs(rng, kind, n, k):
        if kind == "dyadic":
            return rng.integers(0, 2**20, (n, k)) / 1024.0, 1024
        if kind == "integer_ties":
            return rng.integers(0, 4, (n, k)).astype(float), 1
        distinct = rng.integers(0, 50, (int(rng.integers(2, 8)), k)).astype(float)
        return distinct[rng.integers(0, distinct.shape[0], n)], 1

    @pytest.mark.parametrize("kind", ["dyadic", "integer_ties", "repeated_rows"])
    def test_equals_oracle_optimum(self, kind):
        rng = np.random.default_rng({"dyadic": 31, "integer_ties": 37, "repeated_rows": 41}[kind])
        for _ in range(12):
            n = int(rng.integers(50, 401))
            k = int(rng.integers(2, 7))
            lower = int(rng.integers(0, n // k + 1))
            upper = int(rng.integers(max(lower, -(-n // k)), n + 1))
            costs, scale = self.random_costs(rng, kind, n, k)
            labels = solve_balanced_assignment(costs, lower, upper)
            sizes = np.bincount(labels - 1, minlength=k)
            assert labels.min() >= 1 and sizes.size == k
            assert sizes.min() >= lower and sizes.max() <= upper
            best = min_cost_flow(build_assignment_network(costs, lower, upper, scale)).total_cost / scale
            got = float(costs[np.arange(n), labels - 1].sum())
            assert abs(got - best) <= 1e-9 * max(1.0, best), (n, k, lower, upper, got, best)

    @pytest.mark.parametrize(
        "n,k,lower,upper", [(6, 2, 2, 4), (10, 3, 3, 4), (12, 4, 2, 4), (9, 3, 0, 9), (40, 4, 9, 11)]
    )
    def test_all_equal_costs_tie_break(self, n, k, lower, upper):
        costs = np.full((n, k), 2.5)
        first = solve_balanced_assignment(costs, lower, upper)
        assert first.tolist() == leave_first_cluster_in_index_order(n, k, lower, upper)
        assert np.array_equal(solve_balanced_assignment(costs, lower, upper), first)

    def test_repeated_calls_identical_on_ties(self):
        rng = np.random.default_rng(43)
        costs = rng.integers(0, 3, (300, 5)).astype(float)
        first = solve_balanced_assignment(costs, 50, 70)
        assert np.array_equal(solve_balanced_assignment(costs, 50, 70), first)


def shaped_costs(rng, case, n, k):
    """Integer costs in [0, 2^20) shaped so that the argmin breaks the named
    bound, and the bounds (lower, upper) for the case."""
    costs = rng.integers(0, 2**20, (n, k))
    lower, upper = balance_bounds(n, k).lower, balance_bounds(n, k).upper
    if case in ("overflow_upper", "both_sides", "lower_zero"):
        costs[:, 0] //= 8  # most rows prefer cluster 1
    if case in ("below_lower", "both_sides", "upper_n"):
        costs[:, k - 1] += 2**20  # no row prefers cluster K
    if case == "equal_bounds":
        costs[:, 0] //= 8
        lower = upper = n // k
    if case == "lower_zero":
        lower = 0
    if case == "upper_n":
        upper = n
    if case == "integer_ties":
        costs = rng.integers(0, 3, (n, k))
    if case == "repeated_rows":
        costs = rng.integers(0, 6, (3, k))[rng.integers(0, 3, n)]
    return costs.astype(float), lower, upper


REPAIR_CASES = [
    "overflow_upper", "below_lower", "both_sides", "equal_bounds", "lower_zero", "upper_n",
    "integer_ties", "repeated_rows",
]


class TestRepairAgainstOracles:
    """Size repairs from the row-wise argmin against brute force (small n:
    cost, and labels where the optimum is unique) and against the generic
    min-cost flow (larger n: cost), K = 2..5."""

    @staticmethod
    def check_bounds(labels, k, lower, upper):
        sizes = np.bincount(labels - 1, minlength=k)
        assert sizes.size == k and sizes.min() >= lower and sizes.max() <= upper

    @pytest.mark.parametrize("case", REPAIR_CASES)
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_equals_brute_force(self, case, k):
        rng = np.random.default_rng([k, REPAIR_CASES.index(case)])
        n_max = {2: 12, 3: 8, 4: 7, 5: 6}[k]
        repaired = unique = 0
        for _ in range(8):
            n = int(rng.integers(k, n_max + 1))
            if case == "equal_bounds":
                n -= n % k
            costs, lower, upper = shaped_costs(rng, case, n, k)
            argmin_sizes = np.bincount(costs.argmin(axis=1), minlength=k)
            repaired += argmin_sizes.min() < lower or argmin_sizes.max() > upper
            labels = solve_balanced_assignment(costs, lower, upper)
            self.check_bounds(labels, k, lower, upper)
            best, optima = optimal_labelings(costs, lower, upper)
            got = float(costs[np.arange(n), labels - 1].sum())
            assert abs(got - best) <= 1e-9 * max(1.0, best), (n, lower, upper, got, best)
            if len(optima) == 1:
                unique += 1
                assert labels.tolist() == optima[0].tolist()
        assert repaired > 0
        if case not in ("integer_ties", "repeated_rows"):
            assert unique > 0

    @pytest.mark.parametrize("case", REPAIR_CASES)
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_equals_min_cost_flow(self, case, k):
        rng = np.random.default_rng([k, REPAIR_CASES.index(case), 1])
        for _ in range(3):
            n = int(rng.integers(40, 161))
            if case == "equal_bounds":
                n -= n % k
            costs, lower, upper = shaped_costs(rng, case, n, k)
            costs /= 1024.0  # dyadic, so the oracle's fixed point at scale 1024 is exact
            labels = solve_balanced_assignment(costs, lower, upper)
            self.check_bounds(labels, k, lower, upper)
            best = min_cost_flow(build_assignment_network(costs, lower, upper, scale=1024)).total_cost / 1024
            got = float(costs[np.arange(n), labels - 1].sum())
            assert abs(got - best) <= 1e-9 * max(1.0, best), (n, lower, upper, got, best)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_feasible_argmin_returned_as_is(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            n = int(rng.integers(k, 200))
            costs = rng.integers(0, 4, (n, k)).astype(float)  # ties go to the lowest index
            sizes = np.bincount(costs.argmin(axis=1), minlength=k)
            lower = int(rng.integers(0, sizes.min() + 1))
            upper = int(rng.integers(sizes.max(), n + 1))
            labels = solve_balanced_assignment(costs, lower, upper)
            assert labels.tolist() == (costs.argmin(axis=1) + 1).tolist()


class TestBruteForce:
    def test_forced_by_balance(self):
        labels, cost = brute_force_assignment(np.array([[0.0, 5.0], [5.0, 0.0]]), 1, 1)
        assert labels.tolist() == [1, 2]
        assert cost == 0.0

    def test_lexicographic_tie_break(self):
        labels, cost = brute_force_assignment(np.ones((2, 2)), 1, 1)
        assert labels.tolist() == [1, 2]
        assert cost == 2.0

    def test_minimum_over_feasible(self):
        rng = np.random.default_rng(29)
        costs = rng.uniform(0, 4, (5, 2))
        labels, best = brute_force_assignment(costs, 2, 3)
        import itertools

        for cand in itertools.product(range(2), repeat=5):
            sizes = np.bincount(cand, minlength=2)
            if sizes.min() < 2 or sizes.max() > 3:
                continue
            assert best <= costs[np.arange(5), cand].sum() + 1e-12

    def test_guard(self):
        with pytest.raises(GuardError):
            brute_force_assignment(np.zeros((30, 3)), 0, 30)
