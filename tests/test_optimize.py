"""Tests for linear-objective optimization over fair allocations."""

import math
import random
from fractions import Fraction

import pytest
from scaled_assignment import scaled_assignment

import fairmatch.optimize
from fairmatch.allocgraph import build_allocation_graph, extend_allocation_graph, spare_slot_count
from fairmatch.core import FormatError, generate_instance, validate_instance
from fairmatch.fairness import check_allocation, enumerate_wsdprop1
from fairmatch.matching import assignment_min_cost
from fairmatch.optimize import (
    MAXIMIZE,
    MINIMIZE,
    CostSpec,
    IncompleteCostSpec,
    optimize_allocation,
    parse_costs,
)


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


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_kernel_columns_are_the_transposed_plain_graph(kind, monkeypatch):
    # the item rows optimize hands the kernel list, for each item, the plain
    # graph's slots that reach it in slot order, then for goods each
    # agent's spare column; the graph stays the reference
    calls = []

    def record(adjacency, costs, right_count, capacity=None):
        calls.append(([list(row) for row in adjacency], right_count, list(capacity)))
        return assignment_min_cost(adjacency, costs, right_count, capacity)

    monkeypatch.setattr(fairmatch.optimize, "assignment_min_cost", record)
    for n, m, seed in SWEEP:
        inst = generate_instance(n, m, kind, seed)
        rng = random.Random(seed)
        values = random_rows(inst, lambda: Fraction(rng.randint(0, 20), rng.randint(1, 6)))
        allocation, _ = optimize_allocation(inst, CostSpec.scaled(values))
        assert check_allocation(inst, allocation).passes
        graph = build_allocation_graph(inst)
        real = graph.left_count
        columns = [[] for _ in range(m)]
        for s, row in enumerate(graph.adjacency):
            for j in row:
                columns[j].append(s)
        capacity = [1] * real
        q = spare_slot_count(inst) if kind == "goods" else 0
        if q:
            for column in columns:
                column += range(real, real + n)
            capacity += [q] * n
        (adjacency, right_count, given), = calls
        calls.clear()
        assert adjacency == columns, (n, m, seed)
        assert right_count == len(capacity) and given == capacity, (n, m, seed)


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
