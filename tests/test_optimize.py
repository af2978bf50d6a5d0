"""Tests for linear-objective optimization over fair allocations."""

import heapq
import math
import random
from fractions import Fraction

import pytest
from reference import expand_prefixes, uncut_assignment_min_cost
from scaled_assignment import scaled_assignment

import fairmatch.optimize
from fairmatch.allocgraph import build_allocation_graph, extend_allocation_graph, spare_slot_count
from fairmatch.core import FormatError, generate_instance, validate_instance
from fairmatch.fairness import check_allocation
from fairmatch.matching import assignment_min_cost
from fairmatch.optimize import (
    MAXIMIZE,
    MINIMIZE,
    CostSpec,
    IncompleteCostSpec,
    optimize_allocation,
    parse_costs,
)
from fairmatch.oracle import enumerate_wsdprop1


def make(kind, items, agents):
    return validate_instance(kind, items, agents)


def e1():
    return make(
        "chores",
        ["b1", "b2", "b3"],
        [
            ("a1", Fraction(1, 2), ["b1", "b2", "b3"]),
            ("a2", Fraction(1, 2), ["b1", "b2", "b3"]),
        ],
    )


def cost(instance, spec, agent, item):
    """Agent's cost for an item, back as a fraction."""
    return Fraction(spec.rows[agent][instance.items.index(item)], spec.denominator)


def random_rows(instance, draw):
    """One row per agent, one ``draw()`` per item, agent-major."""
    return [[draw() for _ in instance.items] for _ in range(instance.n)]


def brute_force_best(instance, spec):
    best = None
    for allocation in enumerate_wsdprop1(instance):
        owners = allocation.owner_map()
        value = sum(
            (cost(instance, spec, owners[item], item) for item in instance.items),
            Fraction(0),
        )
        if best is None:
            best = value
        elif spec.direction == MAXIMIZE:
            best = max(best, value)
        else:
            best = min(best, value)
    return best


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def test_maximize_competence_e1():
    spec = CostSpec.scaled([[1, 0, 0], [0, 1, 1]], MAXIMIZE)
    allocation, objective = optimize_allocation(e1(), spec)
    assert objective == 3
    assert allocation.bundles == (frozenset({"b1"}), frozenset({"b2", "b3"}))


def test_all_zero_costs():
    spec = CostSpec.scaled([[0, 0, 0], [0, 0, 0]], MINIMIZE)
    allocation, objective = optimize_allocation(e1(), spec)
    assert objective == 0
    assert check_allocation(e1(), allocation).passes


def test_goods_transport_minimum_matches_brute_force():
    inst = make(
        "goods",
        ["b1", "b2", "b3"],
        [
            ("a1", Fraction(1, 2), ["b1", "b2", "b3"]),
            ("a2", Fraction(1, 2), ["b1", "b2", "b3"]),
        ],
    )
    spec = CostSpec.scaled([[0, 1, 1], [1, 0, 0]], MINIMIZE)
    allocation, objective = optimize_allocation(inst, spec)
    assert objective == brute_force_best(inst, spec)
    assert check_allocation(inst, allocation).passes


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_optimum_matches_brute_force_random():
    rng = random.Random(31)
    for seed in range(40):
        kind = "chores" if seed % 2 else "goods"
        inst = generate_instance(1 + seed % 3, 1 + seed % 6, kind, seed)
        values = random_rows(inst, lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 7)))
        for direction in (MINIMIZE, MAXIMIZE):
            spec = CostSpec.scaled(values, direction)
            allocation, objective = optimize_allocation(inst, spec)
            assert objective == brute_force_best(inst, spec)
            assert check_allocation(inst, allocation).passes


def test_optimum_matches_brute_force_on_tie_heavy_costs():
    # costs in {0, 1, 2} tie at most edges, where the kernel's tight start
    # matches most items before any search runs
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(
        n=st.integers(1, 3),
        m=st.integers(0, 6),
        kind=st.sampled_from(["goods", "chores"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def check(n, m, kind, seed, data):
        inst = generate_instance(n, m, kind, seed)
        row = st.lists(st.integers(0, 2), min_size=m, max_size=m)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        for direction in (MINIMIZE, MAXIMIZE):
            spec = CostSpec.scaled(rows, direction)
            allocation, objective = optimize_allocation(inst, spec)
            assert objective == brute_force_best(inst, spec)
            assert check_allocation(inst, allocation).passes

    check()


def test_scaling_leaves_the_optimal_set_unchanged():
    rng = random.Random(37)
    for seed in range(10):
        inst = generate_instance(2 + seed % 2, 2 + seed % 4, "chores", seed)
        values = random_rows(inst, lambda: Fraction(rng.randint(0, 9)))
        factor = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        spec = CostSpec.scaled(values, MINIMIZE)
        scaled = CostSpec.scaled([[v * factor for v in row] for row in values], MINIMIZE)
        _, objective = optimize_allocation(inst, spec)
        scaled_allocation, scaled_objective = optimize_allocation(inst, scaled)
        assert scaled_objective == objective * factor
        # the allocation returned under scaling is optimal for the original costs
        owners = scaled_allocation.owner_map()
        original_value = sum(
            (cost(inst, spec, owners[item], item) for item in inst.items), Fraction(0)
        )
        assert original_value == objective


def extended_graph_optimum(instance, spec):
    """Optimum by the extended-graph formulation: every spare slot copied
    out as a row, dummy items at cost zero, one perfect matching."""
    graph = extend_allocation_graph(build_allocation_graph(instance), instance)

    def edge_cost(slot, item):
        if graph.is_dummy_item(item):
            return Fraction(0)
        return cost(instance, spec, graph.slots[slot].agent, graph.right_labels[item])

    match = scaled_assignment(graph, edge_cost, maximize=spec.direction == MAXIMIZE)
    return sum((edge_cost(i, j) for i, j in match.pairs), Fraction(0))


def test_optimum_equals_extended_graph_formulation():
    for n, m in ((3, 9), (5, 20), (8, 40), (12, 60)):
        for kind in ("goods", "chores"):
            for seed in range(10):
                inst = generate_instance(n, m, kind, seed)
                rng = random.Random(seed)
                values = random_rows(inst, lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
                for direction in (MINIMIZE, MAXIMIZE):
                    spec = CostSpec.scaled(values, direction)
                    allocation, objective = optimize_allocation(inst, spec)
                    case = (kind, n, m, seed, direction)
                    assert objective == extended_graph_optimum(inst, spec), case
                    assert check_allocation(inst, allocation).passes, case


# the sizes of the 176-instance output sweep in test_cli.py
SWEEP = [
    (n, m, seed)
    for n, m, seeds in [
        (3, 9, range(20)), (5, 20, range(20)), (8, 40, range(20)),
        (12, 60, range(20)), (20, 100, range(5)), (6, 30, (5, 28)), (8, 40, (30,)),
    ]
    for seed in seeds
]


def record_kernel(monkeypatch):
    """Record each call of the kernel from ``optimize`` with its result."""
    calls = []

    def record(adjacency, costs, right_count, after=None, prefix=None):
        match = assignment_min_cost(adjacency, costs, right_count, after, prefix)
        calls.append(([list(row) for row in adjacency], right_count, after, prefix, match))
        return match

    monkeypatch.setattr(fairmatch.optimize, "assignment_min_cost", record)
    return calls


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_kernel_columns_are_the_transposed_plain_graph(kind, monkeypatch):
    # chores: each item row optimize hands the kernel lists one slot per
    # agent, and those slots expanded through their runs are the plain
    # graph's slots that reach the chore.  goods: the kernel's prefixes are
    # the plain graph's slot rows, in slot order, each a prefix of its
    # agent's row, its columns the goods, and every column its own run.
    # The graph stays the reference
    calls = record_kernel(monkeypatch)
    for n, m, seed in SWEEP:
        inst = generate_instance(n, m, kind, seed)
        rng = random.Random(seed)
        values = random_rows(inst, lambda: Fraction(rng.randint(0, 20), rng.randint(1, 6)))
        allocation, _ = optimize_allocation(inst, CostSpec.scaled(values))
        assert check_allocation(inst, allocation).passes
        graph = build_allocation_graph(inst)
        (adjacency, right_count, after, prefix, _), = calls
        calls.clear()
        if kind == "goods":
            rows = [set(row) for row in graph.adjacency]
            assert [set(adjacency[g][:length]) for g, length in prefix] == rows, (n, m, seed)
            assert right_count == m, (n, m, seed)
            assert after is None, (n, m, seed)
            assert [g for g, _ in prefix] == [slot.agent for slot in graph.slots], (n, m, seed)
            continue
        assert prefix is None, (n, m, seed)
        columns = [set() for _ in range(m)]
        for s, row in enumerate(graph.adjacency):
            for j in row:
                columns[j].add(s)
        assert right_count == graph.left_count, (n, m, seed)
        assert len(adjacency) == m, (n, m, seed)
        for j, heads in enumerate(adjacency):
            assert len(heads) == n, (n, m, seed, j)
            reached = set()
            for s in heads:
                while s >= 0:
                    reached.add(s)
                    s = after[s]
            assert reached == columns[j], (n, m, seed, j)


def test_goods_left_out_of_the_slots_go_to_a_cheapest_agent(monkeypatch):
    # every good the real-slot matching leaves free is owned by an agent
    # whose signed cost for it is the least of its column
    calls = record_kernel(monkeypatch)
    for n, m, seed in SWEEP:
        inst = generate_instance(n, m, "goods", seed)
        rng = random.Random(seed)
        values = random_rows(inst, lambda: Fraction(rng.randint(0, 20), rng.randint(1, 6)))
        for direction in (MINIMIZE, MAXIMIZE):
            spec = CostSpec.scaled(values, direction)
            allocation, _ = optimize_allocation(inst, spec)
            (*_, match), = calls
            calls.clear()
            sign = -1 if direction == MAXIMIZE else 1
            owners = allocation.owner_map()
            free = set(range(m)) - {j for _, j in match.pairs}
            assert len(free) == spare_slot_count(inst), (n, m, seed)
            for j in free:
                column = [sign * row[j] for row in spec.rows]
                assert column[owners[inst.items[j]]] == min(column), (n, m, seed, direction, j)


def benchmark_costs(n, m):
    """The benchmark's cost recipe: p/q with p in 0..20 and q in 1..6 from
    ``random.Random(43)``, row-major."""
    rng = random.Random(43)
    return [[Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(m)] for _ in range(n)]


@pytest.mark.parametrize(
    "kind, direction, optimum",
    [
        ("goods", MAXIMIZE, Fraction(18736)),
        ("goods", MINIMIZE, Fraction(12, 5)),
        ("chores", MINIMIZE, Fraction(26, 15)),
        ("chores", MAXIMIZE, Fraction(37429, 2)),
    ],
)
def test_large_optima_are_pinned(kind, direction, optimum):
    # goods maximize and chores minimize equal the optimum that the MILP
    # and its LP relaxation in perfbench/exact_opt.py found, and chores
    # maximize the optimum of that LP relaxation; goods minimize, not
    # solved that way, is the value the formulation with one spare column
    # per agent gave
    inst = generate_instance(100, 1000, kind, 43)
    spec = CostSpec.scaled(benchmark_costs(100, 1000), direction)
    allocation, objective = optimize_allocation(inst, spec)
    assert objective == optimum
    assert check_allocation(inst, allocation).passes


def lp_optimum(instance, spec):
    """Optimum of the LP relaxation of the best fair allocation, in the
    spec's integer units, from ``scipy.optimize.linprog`` (HiGHS).

    ``x[i*m + j]`` in [0, 1] is agent i's share of item j, and every item
    is shared out once.  Each agent's count over the first k items of its
    ranking keeps the bound of :func:`fairmatch.fairness.check_bundle`: at
    most ``floor(k*alpha) + 1`` chores, or at least ``ceil(k*alpha) - 1``
    goods.  A chores bound that the next prefix repeats, or a goods bound
    that the previous one does, is implied and left out.  The matrix is
    the incidence matrix of two laminar families (the items, and each
    agent's nested prefixes), so it is totally unimodular and the LP
    optimum is the optimum over fair allocations.
    """
    sparse = pytest.importorskip("scipy.sparse")
    linprog = pytest.importorskip("scipy.optimize").linprog
    n, m = instance.n, instance.m
    column = {item: j for j, item in enumerate(instance.items)}
    chores = instance.kind == "chores"
    sign = 1 if chores else -1  # sign * (prefix count) <= sign * bound
    rows, cols, upper = [], [], []
    for i, agent in enumerate(instance.agents):
        a, b = agent.entitlement.numerator, agent.entitlement.denominator
        prefix = []
        for k, item in enumerate(agent.ranking, start=1):
            prefix.append(i * m + column[item])
            if chores:
                bound = k * a // b + 1
                if k < m and (k + 1) * a // b + 1 == bound:
                    continue
            else:
                bound = -(-k * a // b) - 1
                if k > 1 and -(-(k - 1) * a // b) - 1 == bound:
                    continue
            rows += [len(upper)] * k
            cols += prefix
            upper.append(sign * bound)
    a_ub = sparse.csr_matrix(([sign] * len(rows), (rows, cols)), shape=(len(upper), n * m))
    a_eq = sparse.csr_matrix(
        ([1] * (n * m), ([j for _ in range(n) for j in range(m)], range(n * m))), shape=(m, n * m)
    )
    sense = 1 if spec.direction == MINIMIZE else -1
    result = linprog(
        [sense * c for row in spec.rows for c in row],
        A_ub=a_ub, b_ub=upper, A_eq=a_eq, b_eq=[1] * m, bounds=(0, 1), method="highs",
    )
    assert result.status == 0, result.message
    return sense * result.fun


def rank_position_costs(instance, rng):
    # agent i's cost for item j is j's position in i's ranking
    return [[agent.ranking.index(item) + 1 for item in instance.items] for agent in instance.agents]


COST_FAMILIES = {
    "recipe": lambda instance, rng: random_rows(
        instance, lambda: Fraction(rng.randint(0, 20), rng.randint(1, 6))
    ),
    "wide": lambda instance, rng: random_rows(instance, lambda: rng.randint(0, 10**6)),
    "rank-position": rank_position_costs,
}


@pytest.mark.parametrize("family", sorted(COST_FAMILIES))
@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_optimum_equals_the_lp_relaxation(kind, family):
    # the LP bounds every fair allocation's objective and the allocation
    # verifies, so an objective within half a scaled unit of it is optimal
    cases = [(n, m, seed) for n, m in ((3, 9), (5, 20), (8, 40)) for seed in range(5)]
    for n, m, seed in cases + [(20, 100, 43)]:
        inst = generate_instance(n, m, kind, seed)
        rows = COST_FAMILIES[family](inst, random.Random(seed))
        for direction in (MINIMIZE, MAXIMIZE):
            spec = CostSpec.scaled(rows, direction)
            allocation, objective = optimize_allocation(inst, spec)
            assert check_allocation(inst, allocation).passes
            gap = objective * spec.denominator - lp_optimum(inst, spec)
            assert abs(gap) <= 0.5, (n, m, seed, direction, float(gap))


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_kernel_pairs_equal_the_uncut_kernel(kind, monkeypatch):
    # every kernel call optimize makes returns the pairs of the kernel
    # whose searches push every improved distance and scan every row in
    # full, given each slot's prefix written out as its own row
    compared = []

    def both(adjacency, costs, right_count, after=None, prefix=None):
        match = assignment_min_cost(adjacency, costs, right_count, after, prefix)
        if prefix is not None:
            adjacency, costs = expand_prefixes(adjacency, costs, prefix)
        expected = uncut_assignment_min_cost(adjacency, costs, right_count, after)
        assert match.pairs == expected.pairs
        compared.append(len(match))
        return match

    monkeypatch.setattr(fairmatch.optimize, "assignment_min_cost", both)
    for family in sorted(COST_FAMILIES):
        for n, m in ((2, 6), (3, 9), (5, 20), (8, 40)):
            for seed in range(8):
                inst = generate_instance(n, m, kind, seed)
                rows = COST_FAMILIES[family](inst, random.Random(seed))
                for direction in (MINIMIZE, MAXIMIZE):
                    optimize_allocation(inst, CostSpec.scaled(rows, direction))
    assert len(compared) == 3 * 4 * 8 * 2


@pytest.mark.parametrize("direction", [MINIMIZE, MAXIMIZE])
def test_searches_push_at_most_half_of_the_uncut_kernel(direction, monkeypatch):
    # a count, not a clock: the kernel that pushed every improved distance
    # put 3,902 entries on its heaps (pushed or heapified) for 462 pops
    # here when minimizing and 4,161 for 666 when maximizing; the searches
    # that push only what can pop before they end put 1,312 and 1,467
    from fairmatch import matching

    counts = {"push": 0, "pop": 0}
    heapify, heappush, heappop = heapq.heapify, heapq.heappush, heapq.heappop

    def counted_heapify(heap):
        counts["push"] += len(heap)
        heapify(heap)

    def counted_heappush(heap, key):
        counts["push"] += 1
        heappush(heap, key)

    def counted_heappop(heap):
        counts["pop"] += 1
        return heappop(heap)

    monkeypatch.setattr(matching.heapq, "heapify", counted_heapify)
    monkeypatch.setattr(matching.heapq, "heappush", counted_heappush)
    monkeypatch.setattr(matching.heapq, "heappop", counted_heappop)
    inst = generate_instance(20, 100, "chores", 43)
    optimize_allocation(inst, CostSpec.scaled(benchmark_costs(20, 100), direction))
    uncut = {MINIMIZE: {"push": 3902, "pop": 462}, MAXIMIZE: {"push": 4161, "pop": 666}}[direction]
    assert counts["pop"] == uncut["pop"]
    assert 2 * counts["push"] <= uncut["push"], (counts, uncut)


def test_grouped_searches_scan_at_most_half_of_the_ungrouped_kernel(monkeypatch):
    # a count, not a clock: the searches of goods 20x100 recipe maximize
    # scanned 17,738 row entries with every row read in full, and 7,239
    # once each slot skipped the entries a wider slot of its agent had
    # already offered at no larger distance.  The count restarts when the
    # tight start's maximum matching returns, so it holds the searches alone
    from fairmatch import matching

    scanned = [0]

    class Counted(tuple):
        """A row that counts the entries iterated over, its slices too."""

        def __iter__(self):
            for j in tuple.__iter__(self):
                scanned[0] += 1
                yield j

        def __getitem__(self, key):
            got = tuple.__getitem__(self, key)
            return Counted(got) if isinstance(key, slice) else got

    max_matching = matching.max_matching
    starts = [0]

    def tight_start(adjacency, mate, owner):
        size = max_matching(adjacency, mate, owner)
        scanned[0] = 0
        starts[0] += 1
        return size

    counts = {}

    def both(adjacency, costs, right_count, after=None, prefix=None):
        rows = [Counted(row) for row in adjacency]
        match = assignment_min_cost(rows, costs, right_count, after, prefix)
        counts["grouped"] = scanned[0]
        rows, costs = expand_prefixes(rows, costs, prefix)
        assert assignment_min_cost(rows, costs, right_count, after).pairs == match.pairs
        counts["ungrouped"] = scanned[0]
        return match

    monkeypatch.setattr(matching, "max_matching", tight_start)
    monkeypatch.setattr(fairmatch.optimize, "assignment_min_cost", both)
    inst = generate_instance(20, 100, "goods", 43)
    optimize_allocation(inst, CostSpec.scaled(benchmark_costs(20, 100), MAXIMIZE))
    assert starts[0] == 2  # one tight start per kernel call, each restarting the count
    assert 2 * counts["grouped"] <= counts["ungrouped"], counts


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_rank_position_optimum_matches_brute_force(kind):
    for n in (1, 2, 3):
        for m in range(7):
            for seed in range(5):
                inst = generate_instance(n, m, kind, seed)
                rows = rank_position_costs(inst, None)
                for direction in (MINIMIZE, MAXIMIZE):
                    spec = CostSpec.scaled(rows, direction)
                    allocation, objective = optimize_allocation(inst, spec)
                    assert objective == brute_force_best(inst, spec), (n, m, seed, direction)
                    assert check_allocation(inst, allocation).passes


def test_incomplete_cost_spec_rejected():
    spec = CostSpec.scaled([[Fraction(1)]], MINIMIZE)
    with pytest.raises(IncompleteCostSpec):
        optimize_allocation(e1(), spec)


def test_cost_rows_of_the_wrong_shape_or_denominator_rejected():
    with pytest.raises(IncompleteCostSpec):
        optimize_allocation(e1(), CostSpec(rows=((1, 2, 3), (1, 2)), denominator=1))
    for denominator in (0, -1):
        spec = CostSpec(rows=((1, 2, 3), (1, 2, 3)), denominator=denominator)
        with pytest.raises(ValueError, match="denominator"):
            optimize_allocation(e1(), spec)


# ---------------------------------------------------------------------------
# cost files
# ---------------------------------------------------------------------------

def test_parse_costs_whitespace_and_commas():
    inst = e1()
    spec = parse_costs("1/2 0 3\n1, 2, 1/3\n", inst, MINIMIZE)
    assert cost(inst, spec, 0, "b1") == Fraction(1, 2)
    assert cost(inst, spec, 1, "b3") == Fraction(1, 3)
    spec = parse_costs("# comment\n1 2 3\n\n4 5 6\n", inst, MAXIMIZE)
    assert cost(inst, spec, 1, "b1") == 4


def test_parse_costs_round_trips_rational_rows():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        n=st.integers(1, 4),
        m=st.integers(0, 6),
        direction=st.sampled_from([MINIMIZE, MAXIMIZE]),
        data=st.data(),
    )
    def check(n, m, direction, data):
        inst = generate_instance(n, m, "chores", 0)
        entry = st.tuples(st.integers(-10**6, 10**6), st.integers(1, 60))
        pairs = data.draw(st.lists(
            st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n
        ))
        rows = [[Fraction(p, q) for p, q in row] for row in pairs]
        lines = []
        for row in pairs:
            tokens = [f"{p}/{q}" if q != 1 or data.draw(st.booleans()) else str(p) for p, q in row]
            if data.draw(st.booleans()):
                lines.append(" , ".join(tokens) if data.draw(st.booleans()) else ",".join(tokens))
            else:
                lines.append(data.draw(st.sampled_from([" ", "  ", "\t"])).join(tokens))
            if data.draw(st.booleans()):
                lines.append(data.draw(st.sampled_from(["", "   ", "# a comment, 1/2 3"])))
        lines.insert(data.draw(st.integers(0, len(lines))), "# costs")
        spec = parse_costs("\n".join(lines) + "\n", inst, direction)
        assert spec == CostSpec.scaled(rows, direction)
        assert spec.denominator == math.lcm(*(x.denominator for row in rows for x in row))
        assert all(
            Fraction(spec.rows[i][j], spec.denominator) == rows[i][j]
            for i in range(n)
            for j in range(m)
        )

    check()


def test_parse_costs_shape_errors():
    inst = e1()
    with pytest.raises(FormatError):
        parse_costs("1 2 3\n", inst, MINIMIZE)
    with pytest.raises(FormatError):
        parse_costs("1 2\n3 4\n", inst, MINIMIZE)
    with pytest.raises(FormatError):
        parse_costs("1 2 x\n3 4 5\n", inst, MINIMIZE)
