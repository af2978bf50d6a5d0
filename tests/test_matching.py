"""Tests for matching primitives against brute-force oracles."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scaled_assignment import scaled_assignment

from fairmatch.allocgraph import (
    build_allocation_graph,
    extend_allocation_graph,
    slot_reaches,
)
from fairmatch.core import (
    IntegralAllocation,
    allocation_to_json,
    generate_instance,
    validate_instance,
)
from fairmatch.fairness import check_allocation, simulate_picking_sequence
from fairmatch.matching import (
    Matching,
    NoPerfectMatching,
    NotDoublyStochastic,
    NotRankMaximal,
    assignment_min_cost,
    bvn_decompose,
    extract_picking_sequence,
    max_matching,
    normalize_slot_order,
    perfect_allocation,
    rank_maximal_perfect_matching,
    solve_with_sequence,
)
from fairmatch.oracle import (
    InstanceTooLarge,
    allocation_from_matching,
    enumerate_side_perfect_matchings,
)
from reference import max_rank, ranked_graph, signature


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


def fig2_graph():
    """Four agents, four items, two ranked edges per agent."""
    edges = {
        (0, 0): 2, (0, 1): 1,
        (1, 0): 1, (1, 1): 2,
        (2, 2): 2, (2, 3): 1,
        (3, 1): 1, (3, 3): 2,
    }
    return ranked_graph(["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"], edges)


def random_ranked_graph(rng, left, right, density=0.6, max_rank=None):
    max_rank = max_rank or right
    edges = {}
    for i in range(left):
        for j in range(right):
            if rng.random() < density:
                edges[(i, j)] = rng.randint(1, max_rank)
    return ranked_graph(
        [f"l{i}" for i in range(left)], [f"r{j}" for j in range(right)], edges
    )


def brute_force_max_matching_size(graph):
    # bitmask DP over used right vertices; independent of the solver
    from functools import lru_cache

    masks = [sum(1 << j for j in row) for row in graph.adjacency]
    n = graph.left_count

    @lru_cache(maxsize=None)
    def go(i, used):
        if i == n:
            return 0
        best = go(i + 1, used)
        avail = masks[i] & ~used
        while avail:
            bit = avail & -avail
            avail ^= bit
            best = max(best, 1 + go(i + 1, used | bit))
        return best

    return go(0, 0)


def best_first_items(inst):
    """Each agent's item indices best first, as ``slot_reaches`` yields them."""
    return [best_first for best_first, _ in slot_reaches(inst)]


def all_perfect_matchings(graph):
    """Every perfect matching of a balanced graph, as row->col tuples."""
    p = graph.left_count
    adjacency = [set(row) for row in graph.adjacency]
    for perm in itertools.permutations(range(p)):
        if all(perm[i] in adjacency[i] for i in range(p)):
            yield perm


# ---------------------------------------------------------------------------
# maximum matching
# ---------------------------------------------------------------------------

def test_max_matching_e1_saturates_chores():
    graph = build_allocation_graph(e1())
    match = max_matching(graph.adjacency, graph.right_count)
    assert len(match) == 3
    assert {j for _, j in match.pairs} == {0, 1, 2}


def test_max_matching_empty_graph():
    graph = ranked_graph(["l0"], ["r0"], {})
    assert max_matching(graph.adjacency, graph.right_count).pairs == ()


def test_max_matching_complete_graph():
    edges = {(i, j): 1 for i in range(3) for j in range(3)}
    graph = ranked_graph(["x", "y", "z"], ["u", "v", "w"], edges)
    assert len(max_matching(graph.adjacency, graph.right_count)) == 3


def test_max_matching_equals_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        left, right = rng.randint(0, 8), rng.randint(0, 8)
        graph = random_ranked_graph(rng, left, right, density=rng.uniform(0.2, 0.9))
        match = max_matching(graph.adjacency, graph.right_count)
        assert len(match) == brute_force_max_matching_size(graph)


def scipy_pairs(adjacency, right_count):
    """The pairs scipy's Hopcroft-Karp finds: the matchings `max_matching`
    must reproduce, since the pinned lottery depends on them."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import csr_matrix

    nnz = sum(len(row) for row in adjacency)
    if len(adjacency) == 0 or right_count == 0 or nnz == 0:
        return ()
    indptr = np.cumsum([0] + [len(row) for row in adjacency])
    indices = np.array([j for row in adjacency for j in row], dtype=np.int64)
    matrix = csr_matrix(
        (np.ones(nnz, dtype=np.int8), indices, indptr),
        shape=(len(adjacency), right_count),
    )
    row_match = csgraph.maximum_bipartite_matching(matrix, perm_type="column")
    return tuple((i, int(j)) for i, j in enumerate(row_match) if j >= 0)


def test_max_matching_pairs_equal_scipy_on_random_graphs():
    rng = random.Random(31)
    shapes = {"left < right": 0, "left > right": 0, "empty rows": 0, "no edges": 0}
    for trial in range(2400):
        size = 12 if trial < 2200 else 120
        left, right = rng.randint(0, size), rng.randint(0, size)
        density = rng.choice([0.0, 1.0, rng.random(), rng.random() ** 3])
        empty = rng.random() if trial % 3 == 0 else 0.0
        adjacency = tuple(
            () if rng.random() < empty
            else tuple(j for j in range(right) if rng.random() < density)
            for _ in range(left)
        )
        expected = scipy_pairs(adjacency, right)
        assert max_matching(adjacency, right).pairs == expected, trial
        # the rows are only read in order, so the keys of a dict serve too
        rows = [dict.fromkeys(row) for row in adjacency]
        assert max_matching(rows, right).pairs == expected, trial
        shapes["left < right"] += left < right
        shapes["left > right"] += left > right
        shapes["empty rows"] += any(not row for row in adjacency) and density > 0
        shapes["no edges"] += not any(adjacency)
    assert min(shapes.values()) >= 200, shapes


def test_max_matching_pairs_equal_scipy_on_bvn_support_graphs(monkeypatch):
    from fairmatch import matching
    from fairmatch.bobw import uniform_lottery

    supports = []

    def recording(adjacency, right_count, start=None):
        # bvn_decompose shrinks its rows after each call: keep them as called
        supports.append((tuple(map(tuple, adjacency)), right_count))
        return max_matching(adjacency, right_count, start)

    monkeypatch.setattr(matching, "max_matching", recording)
    for seed, (n, m) in enumerate([(3, 9), (4, 12), (5, 20), (8, 40)]):
        for kind in ("goods", "chores"):
            uniform_lottery(generate_instance(n, m, kind, seed))
    assert len(supports) >= 100
    for adjacency, right_count in supports:
        assert max_matching(adjacency, right_count).pairs == scipy_pairs(adjacency, right_count)


def test_max_matching_size_agrees_with_networkx_beyond_brute_force():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for trial in range(12):
        left = rng.randint(50, 300)
        right = rng.randint(left // 2, 2 * left)
        graph = random_ranked_graph(rng, left, right, density=rng.uniform(0.002, 0.05))
        g = nx.Graph()
        top = [("l", i) for i in range(left)]
        g.add_nodes_from(top)
        g.add_nodes_from(("r", j) for j in range(right))
        g.add_edges_from(
            (("l", i), ("r", j)) for i, row in enumerate(graph.adjacency) for j in row
        )
        expected = len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)) // 2
        match = max_matching(graph.adjacency, graph.right_count)
        assert len(match) == expected, trial
        assert len({j for _, j in match.pairs}) == len(match)
        assert all(graph.has_edge(i, j) for i, j in match.pairs)


def arbitrary_matching(rng, adjacency, right_count):
    """A maximal matching, not always a maximum one: rows in random order
    each take a random free neighbour."""
    taken = [False] * right_count
    pairs = []
    for i in rng.sample(range(len(adjacency)), len(adjacency)):
        free = [j for j in adjacency[i] if not taken[j]]
        if free:
            j = rng.choice(free)
            taken[j] = True
            pairs.append((i, j))
    return pairs


def test_max_matching_from_a_start_reaches_the_maximum_size():
    rng = random.Random(53)
    seen = dict.fromkeys(
        ["perfect", "not perfect", "empty start", "complete start", "partial start"], 0
    )
    for trial in range(1500):
        left = rng.randint(0, 14)
        right = left if trial % 2 else rng.randint(0, 14)
        density = rng.choice([0.15, 0.3, 0.6, 1.0])
        adjacency = tuple(
            tuple(j for j in range(right) if rng.random() < density) for _ in range(left)
        )
        best = max_matching(adjacency, right)
        seen["perfect" if len(best) == left == right else "not perfect"] += 1
        # a sub-matching of a maximum matching or of an arbitrary one
        base = best.pairs if trial % 3 else arbitrary_matching(rng, adjacency, right)
        keep = rng.choice([0.0, 1.0, rng.random()])
        start = [-1] * left
        for i, j in base:
            if keep == 1.0 or rng.random() < keep:
                start[i] = j
        kept = sum(j >= 0 for j in start)
        if kept == 0:
            seen["empty start"] += 1
        else:
            seen["complete start" if kept == len(base) else "partial start"] += 1
        frozen = list(start)
        got = max_matching(adjacency, right, start)
        assert start == frozen, trial
        assert len(got) == len(best), trial
        assert all(j in adjacency[i] for i, j in got.pairs), trial
        assert len({j for _, j in got.pairs}) == len(got), trial
        # an augmenting path rematches the vertices along it: whatever the
        # start matched stays matched
        matched = got.left_map()
        assert all(i in matched for i, j in enumerate(start) if j >= 0), trial
        assert {j for j in start if j >= 0} <= set(matched.values()), trial
        if kept == len(best):
            # no augmenting path exists: a maximum start comes back unchanged
            assert got.pairs == tuple((i, j) for i, j in enumerate(start) if j >= 0), trial
    assert min(seen.values()) >= 100, seen


def test_max_matching_keeps_the_start_pairs_no_augmenting_path_needs():
    # two disjoint graphs side by side: the second starts from a maximum
    # matching, so no augmenting path enters it and its pairs all stay
    rng = random.Random(59)
    for trial in range(400):
        a_left, a_right = rng.randint(1, 10), rng.randint(1, 10)
        b_left, b_right = rng.randint(1, 10), rng.randint(1, 10)
        density = rng.choice([0.2, 0.5, 1.0])
        a = [[j for j in range(a_right) if rng.random() < density] for _ in range(a_left)]
        b = [[j for j in range(b_right) if rng.random() < density] for _ in range(b_left)]
        b_start = [-1] * b_left
        for i, j in max_matching(b, b_right).pairs:
            b_start[i] = a_right + j
        a_start = [-1] * a_left
        for i, j in arbitrary_matching(rng, a, a_right):
            if rng.random() < 0.5:
                a_start[i] = j
        adjacency = a + [[a_right + j for j in row] for row in b]
        start = a_start + b_start
        got = max_matching(adjacency, a_right + b_right, start).left_map()
        assert all(got.get(a_left + i) == j for i, j in enumerate(b_start) if j >= 0), trial
        assert len(got) == len(max_matching(adjacency, a_right + b_right)), trial


def test_max_matching_rejects_a_bad_start():
    adjacency = ((0, 1), (0, 1), (1, 2))
    with pytest.raises(ValueError, match="twice"):
        max_matching(adjacency, 3, [1, 1, -1])
    with pytest.raises(ValueError):
        max_matching(adjacency, 3, [0, 3, -1])
    with pytest.raises(ValueError):
        max_matching(adjacency, 3, [0, -2, -1])
    with pytest.raises(ValueError):
        max_matching(adjacency, 3, [0, 1])
    # a valid start, as a tuple, is grown to a maximum matching
    assert len(max_matching(adjacency, 3, (1, -1, -1))) == 3


# ---------------------------------------------------------------------------
# exact assignment
# ---------------------------------------------------------------------------

def test_assignment_two_by_two_diagonal():
    edges = {(i, j): 1 for i in range(2) for j in range(2)}
    graph = ranked_graph(["l0", "l1"], ["r0", "r1"], edges)
    costs = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    match = scaled_assignment(graph, lambda i, j: Fraction(costs[(i, j)]))
    assert match.pairs == ((0, 0), (1, 1))


def test_assignment_unit_costs_any_perfect_matching():
    rng = random.Random(1)
    graph = random_ranked_graph(rng, 4, 4, density=1.0)
    match = scaled_assignment(graph, lambda i, j: Fraction(1))
    assert len(match) == 4


def test_assignment_matches_brute_force_min():
    rng = random.Random(7)
    for trial in range(30):
        p = rng.randint(1, 6)
        graph = random_ranked_graph(rng, p, p, density=rng.uniform(0.5, 1.0))
        if not any(graph.adjacency):
            continue
        costs = {
            (i, j): Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            for i in range(p)
            for j in graph.adjacency[i]
        }
        perfect = list(all_perfect_matchings(graph))
        if not perfect:
            with pytest.raises(NoPerfectMatching):
                scaled_assignment(graph, lambda i, j: costs[(i, j)])
            continue
        best = min(sum(costs[(i, perm[i])] for i in range(p)) for perm in perfect)
        match = scaled_assignment(graph, lambda i, j: costs[(i, j)])
        got = sum(costs[pair] for pair in match.pairs)
        assert got == best, f"trial {trial}"


def test_assignment_maximize():
    edges = {(i, j): 1 for i in range(2) for j in range(2)}
    graph = ranked_graph(["l0", "l1"], ["r0", "r1"], edges)
    costs = {(0, 0): 5, (0, 1): 1, (1, 0): 1, (1, 1): 5}
    match = scaled_assignment(graph, lambda i, j: Fraction(costs[(i, j)]), maximize=True)
    assert match.pairs == ((0, 0), (1, 1))


def test_assignment_e1_extended_competence():
    # cost 1 - u on real edges, 0 on dummy edges; the cheapest perfect
    # matching is the most competent fair allocation
    inst = e1()
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    skill = {
        (0, "b1"): Fraction(1), (0, "b2"): Fraction(0), (0, "b3"): Fraction(0),
        (1, "b1"): Fraction(0), (1, "b2"): Fraction(1), (1, "b3"): Fraction(1),
    }

    def cost(i, j):
        if graph.is_dummy_item(j):
            return Fraction(0)
        return 1 - skill[(graph.slots[i].agent, graph.right_labels[j])]

    match = scaled_assignment(graph, cost)
    allocation = allocation_from_matching(match, graph, inst)
    assert allocation.bundles == (frozenset({"b1"}), frozenset({"b2", "b3"}))


# ---------------------------------------------------------------------------
# rank-maximal perfect matchings
# ---------------------------------------------------------------------------

def test_fig2_rank_maximal_matching_and_sequence():
    graph = fig2_graph()
    match = rank_maximal_perfect_matching(graph)
    assert match.pairs == ((0, 1), (1, 0), (2, 2), (3, 3))
    assert signature(match, graph) == (2, 2)
    seq = extract_picking_sequence(match, graph)
    assert seq.sequence == (0, 1, 3, 2)
    # greedy graph-level simulation reproduces the matching
    available = set(range(graph.right_count))
    picked = {}
    for s in seq.slots:
        best = min(
            (j for j in graph.adjacency[s] if j in available),
            key=lambda j: graph.rank_of(s, j),
        )
        picked[s] = best
        available.discard(best)
    assert picked == match.left_map()


def test_unique_perfect_matching_is_returned():
    edges = {(0, 0): 2, (1, 1): 2}
    graph = ranked_graph(["l0", "l1"], ["r0", "r1"], edges)
    match = rank_maximal_perfect_matching(graph)
    assert match.pairs == ((0, 0), (1, 1))
    assert signature(match, graph) == (0, 2)


def test_rank_maximal_beats_every_perfect_matching():
    rng = random.Random(3)
    checked = 0
    for _ in range(60):
        p = rng.randint(1, 6)
        graph = random_ranked_graph(rng, p, p, density=rng.uniform(0.5, 1.0), max_rank=4)
        perfect = list(all_perfect_matchings(graph))
        if not perfect:
            with pytest.raises(NoPerfectMatching):
                rank_maximal_perfect_matching(graph)
            continue
        checked += 1
        best = rank_maximal_perfect_matching(graph)
        best_sig = signature(best, graph)
        for perm in perfect:
            other = Matching(pairs=tuple((i, perm[i]) for i in range(p)))
            assert best_sig >= signature(other, graph)
    assert checked >= 20


def test_rank_maximal_e1_extended_brute_force():
    inst = e1()
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    match = rank_maximal_perfect_matching(graph)
    sig = signature(match, graph)
    for perm in all_perfect_matchings(graph):
        other = Matching(pairs=tuple((i, perm[i]) for i in range(4)))
        assert sig >= signature(other, graph)


def test_rank_maximal_unbalanced_saturates_left():
    # goods-style: fewer slots than items; the left side must be saturated
    rng = random.Random(11)
    for _ in range(20):
        left = rng.randint(1, 4)
        right = left + rng.randint(1, 3)
        graph = random_ranked_graph(rng, left, right, density=1.0, max_rank=right)
        match = rank_maximal_perfect_matching(graph)
        assert len(match) == left


def random_cost_graph(rng, left, right, density):
    """A ranked graph whose every left vertex has an edge, plus integer costs."""
    edges = {}
    for i in range(left):
        row = [j for j in range(right) if rng.random() < density]
        for j in row or [rng.randrange(right)]:
            edges[(i, j)] = rng.randint(1, right)
    graph = ranked_graph(
        [f"l{i}" for i in range(left)], [f"r{j}" for j in range(right)], edges
    )
    costs = {edge: rng.randint(-1000, 1000) for edge in edges}
    return graph, costs


def networkx_best(graph, weight):
    """Size and weight of networkx's maximum-weight maximum-cardinality matching."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(("l", i) for i in range(graph.left_count))
    g.add_nodes_from(("r", j) for j in range(graph.right_count))
    for i, row in enumerate(graph.adjacency):
        for j in row:
            g.add_edge(("l", i), ("r", j), weight=weight(i, j))
    found = nx.max_weight_matching(g, maxcardinality=True)
    total = sum(g.edges[a, b]["weight"] for a, b in found)
    return len(found), total


def test_assignment_agrees_with_networkx_beyond_brute_force():
    rng = random.Random(17)
    solved = 0
    for trial in range(24):
        p = rng.randint(10, 40)
        graph, costs = random_cost_graph(rng, p, p, rng.uniform(0.05, 0.3))
        # a large offset keeps networkx's weights positive without changing
        # which perfect matching is best
        size, total = networkx_best(graph, lambda i, j: 10**4 - costs[(i, j)])
        if size < p:
            with pytest.raises(NoPerfectMatching):
                scaled_assignment(graph, lambda i, j: costs[(i, j)])
            continue
        solved += 1
        match = scaled_assignment(graph, lambda i, j: costs[(i, j)])
        assert len(match) == p, trial
        assert sum(costs[pair] for pair in match.pairs) == p * 10**4 - total, trial
        high = scaled_assignment(graph, lambda i, j: costs[(i, j)], maximize=True)
        _, top = networkx_best(graph, lambda i, j: 10**4 + costs[(i, j)])
        assert sum(costs[pair] for pair in high.pairs) == top - p * 10**4, trial
    assert solved >= 8


def test_assignment_with_repeated_rows_agrees_with_networkx():
    # rows with equal edges and costs, like the spare slots of one agent
    # copied out as rows, tie at every step of the search
    rng = random.Random(29)
    solved = 0
    for trial in range(24):
        p = rng.randint(10, 40)
        rows = []
        while len(rows) < p:
            row = sorted(rng.sample(range(p), rng.randint(p // 2, p)))
            cost = [rng.randint(-50, 50) for _ in row]
            for _ in range(min(rng.randint(1, 6), p - len(rows))):
                rows.append((row, cost))
        rng.shuffle(rows)
        edges = {(i, j): 1 for i, (row, _) in enumerate(rows) for j in row}
        costs = {(i, j): c for i, (row, cost) in enumerate(rows) for j, c in zip(row, cost)}
        graph = ranked_graph([f"l{i}" for i in range(p)], [f"r{j}" for j in range(p)], edges)
        size, total = networkx_best(graph, lambda i, j: 10**4 - costs[(i, j)])
        if size < p:
            with pytest.raises(NoPerfectMatching):
                scaled_assignment(graph, lambda i, j: costs[(i, j)])
            continue
        solved += 1
        match = scaled_assignment(graph, lambda i, j: costs[(i, j)])
        assert sum(costs[pair] for pair in match.pairs) == p * 10**4 - total, trial
    assert solved >= 8


def test_tie_heavy_assignment_agrees_with_networkx(monkeypatch):
    # costs in {0, 1, 2} tie often, so the tight edges left by row
    # reduction already match most rows and few searches run
    from fairmatch import matching

    covered = []

    def recording(adjacency, right_count, start=None):
        found = max_matching(adjacency, right_count, start)
        covered.append(len(found) / len(adjacency))
        return found

    monkeypatch.setattr(matching, "max_matching", recording)
    rng = random.Random(59)
    solved = 0
    for trial in range(48):
        left = rng.randint(10, 40)
        # square graphs, where every column must be filled, and wider ones
        right = left + (0 if trial % 2 else rng.randint(1, 5))
        graph, costs = random_cost_graph(rng, left, right, rng.uniform(0.1, 0.5))
        costs = {edge: rng.randint(0, 2) for edge in costs}
        size, total = networkx_best(graph, lambda i, j: 10**4 - costs[(i, j)])
        if size < left:
            with pytest.raises(NoPerfectMatching):
                scaled_assignment(graph, lambda i, j: costs[(i, j)])
            continue
        solved += 1
        match = scaled_assignment(graph, lambda i, j: costs[(i, j)])
        assert sorted(i for i, _ in match.pairs) == list(range(left)), trial
        assert len({j for _, j in match.pairs}) == left, trial
        assert all(graph.has_edge(i, j) for i, j in match.pairs), trial
        assert sum(costs[pair] for pair in match.pairs) == left * 10**4 - total, trial
        high = scaled_assignment(graph, lambda i, j: costs[(i, j)], maximize=True)
        _, top = networkx_best(graph, lambda i, j: 10**4 + costs[(i, j)])
        assert sum(costs[pair] for pair in high.pairs) == top - left * 10**4, trial
    assert solved >= 16
    assert sum(covered) / len(covered) > 0.5


def test_runs_reached_through_after_cost_what_the_expanded_rows_cost():
    # columns chained into runs in shuffled order, some of length 1; each
    # row reaches a suffix of a run at one cost in 0..3 and lists only its
    # first column, and some rows repeat, so equal offers come from
    # different rows.  The same rows with every run written out in full
    # and no after must give the same total cost, or both none
    rng = random.Random(71)
    solved = 0
    for trial in range(60):
        left = rng.randint(8, 30)
        right = left + rng.randint(0, 6)
        order = list(range(right))
        rng.shuffle(order)
        runs, after = [], [-1] * right
        while order:
            size = rng.randint(1, 5)
            run, order = order[:size], order[size:]
            runs.append(run)
            for j, k in zip(run, run[1:]):
                after[j] = k
        heads, costs, full, full_costs = [], [], [], []
        while len(heads) < left:
            row, cost, wide, wide_cost = [], [], [], []
            for run in rng.sample(runs, rng.randint(len(runs) // 3, len(runs))):
                start, c = rng.randrange(len(run)), rng.randint(0, 3)
                row.append(run[start])
                cost.append(c)
                wide += run[start:]
                wide_cost += [c] * (len(run) - start)
            for _ in range(min(rng.choice((1, 1, 2, 3)), left - len(heads))):
                heads.append(row)
                costs.append(cost)
                full.append(wide)
                full_costs.append(wide_cost)
        try:
            expected = assignment_min_cost(full, full_costs, right)
        except NoPerfectMatching:
            with pytest.raises(NoPerfectMatching):
                assignment_min_cost(heads, costs, right, after)
            continue
        solved += 1
        match = assignment_min_cost(heads, costs, right, after)
        assert [i for i, _ in match.pairs] == list(range(left)), trial
        assert len({j for _, j in match.pairs}) == left, trial
        assert all(j in full[i] for i, j in match.pairs), trial
        total = sum(full_costs[i][full[i].index(j)] for i, j in match.pairs)
        best = sum(full_costs[i][full[i].index(j)] for i, j in expected.pairs)
        assert total == best, trial
    assert solved >= 20


def test_tight_start_leaves_a_row_that_reaches_only_full_columns():
    # rows 0 and 1 take columns 0 and 1 on their only, tight edges; row 2
    # reaches only those two, so no search can find room for it, though
    # column 2 lies unreached
    edges = {(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1}
    graph = ranked_graph(["l0", "l1", "l2"], ["r0", "r1", "r2"], edges)
    with pytest.raises(NoPerfectMatching):
        scaled_assignment(graph, lambda i, j: 0)
    with pytest.raises(NoPerfectMatching):
        scaled_assignment(graph, lambda i, j: j)


def test_zero_diagonal_is_matched_by_the_tight_start_alone(monkeypatch):
    from fairmatch import matching

    def no_search(heap):
        raise AssertionError("a shortest-path search ran")

    monkeypatch.setattr(matching.heapq, "heapify", no_search)
    p = 12
    edges = {(i, j): 1 for i in range(p) for j in range(p + 3)}
    graph = ranked_graph([f"l{i}" for i in range(p)], [f"r{j}" for j in range(p + 3)], edges)
    match = scaled_assignment(graph, lambda i, j: 0 if i == j else 1 + (i * j) % 5)
    assert match.pairs == tuple((i, i) for i in range(p))


def test_rank_maximal_agrees_with_networkx_beyond_brute_force():
    # networkx maximizes the rank counts read as base-(left + 1) digits
    rng = random.Random(23)
    solved = 0
    for trial in range(24):
        left = rng.randint(10, 30)
        right = left + rng.choice((0, 0, rng.randint(1, 10)))
        graph, _ = random_cost_graph(rng, left, right, rng.uniform(0.05, 0.3))
        width = max_rank(graph)
        size, total = networkx_best(
            graph, lambda i, j: (left + 1) ** (width - graph.rank_of(i, j))
        )
        if size < left:
            with pytest.raises(NoPerfectMatching):
                rank_maximal_perfect_matching(graph)
            continue
        solved += 1
        match = rank_maximal_perfect_matching(graph)
        assert len(match) == left, trial
        digits = sum((left + 1) ** (width - graph.rank_of(i, j)) for i, j in match.pairs)
        assert digits == total, trial
    assert solved >= 8


# The cubic lexicographic Hungarian method that rank-maximal matching ran
# on before the integer kernel, kept as the reference its signatures must
# reproduce.

def _lex_lt_rows(a, b):
    d = a - b
    nz = d != 0
    first = nz.argmax(axis=1)
    return nz.any(axis=1) & (d[np.arange(d.shape[0]), first] < 0)


def _lex_argmin(matrix, rows):
    cand = rows
    for col in range(matrix.shape[1]):
        vals = matrix[cand, col]
        cand = cand[vals == vals.min()]
        if cand.size == 1:
            break
    return int(cand[0])


def _hungarian_lex(row_cost, row_finite, p, width):
    u = np.zeros((p + 1, width), dtype=np.int64)
    v = np.zeros((p + 1, width), dtype=np.int64)
    match_col = np.zeros(p + 1, dtype=np.int64)
    way = np.zeros(p + 1, dtype=np.int64)
    for i in range(1, p + 1):
        match_col[0] = i
        j0 = 0
        minv = np.zeros((p + 1, width), dtype=np.int64)
        minv_fin = np.zeros(p + 1, dtype=bool)
        used = np.zeros(p + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = int(match_col[j0])
            cur = row_cost(i0 - 1) - u[i0] - v[1:]
            cand = row_finite(i0 - 1) & ~used[1:]
            hit = np.nonzero(cand & (~minv_fin[1:] | _lex_lt_rows(cur, minv[1:])))[0]
            if hit.size:
                minv[hit + 1] = cur[hit]
                minv_fin[hit + 1] = True
                way[hit + 1] = j0
            legal = np.nonzero(minv_fin & ~used)[0]
            if legal.size == 0:
                raise NoPerfectMatching("graph admits no perfect matching")
            j1 = _lex_argmin(minv, legal)
            delta = minv[j1].copy()
            used_cols = np.nonzero(used)[0]
            u[match_col[used_cols]] += delta
            v[used_cols] -= delta
            minv[np.nonzero(minv_fin & ~used)[0]] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            match_col[j0] = match_col[j1]
            j0 = j1
    return [int(match_col[j]) - 1 for j in range(1, p + 1)]


def dense_lex_rank_maximal(graph):
    """Rank-maximal matching by the lexicographic Hungarian method on a
    dense p x p x width tensor, the left side padded with virtual rows."""
    left, right = graph.left_count, graph.right_count
    flat = graph.real_item_count if getattr(graph, "extended", False) else right
    width = max(
        (r for i in range(left) for j, r in zip(graph.adjacency[i], graph.ranks[i]) if j < flat),
        default=0,
    )
    pad = right - left
    pad_rank = width + 1 if pad else max(width, 1)
    ranks = np.zeros((right, right), dtype=np.int64)
    finite = np.zeros((right, right), dtype=bool)
    for i in range(left):
        cols = np.asarray(graph.adjacency[i], dtype=np.int64)
        if cols.size:
            ranks[i, cols] = np.asarray(graph.ranks[i], dtype=np.int64)
            finite[i, cols] = True
    ranks[:, flat:] = 0
    if pad:
        ranks[left:, :] = pad_rank
        finite[left:, :] = True

    def row_cost(i):
        out = np.ones((right, pad_rank), dtype=np.int64)
        rows = np.nonzero(finite[i] & (ranks[i] > 0))[0]
        out[rows, ranks[i, rows] - 1] = 0
        return out

    row_of_col = _hungarian_lex(row_cost, lambda i: finite[i], right, pad_rank)
    return Matching(pairs=tuple(sorted(
        (row, col) for col, row in enumerate(row_of_col) if row < left
    )))


def test_rank_maximal_matches_dense_lex_reference():
    for kind in ("goods", "chores"):
        for seed in range(10):
            inst = generate_instance(12, 60, kind, seed)
            graph = build_allocation_graph(inst)
            if kind == "chores":
                graph = extend_allocation_graph(graph, inst)
            new = rank_maximal_perfect_matching(graph)
            old = dense_lex_rank_maximal(graph)
            assert signature(new, graph) == signature(old, graph), (kind, seed)


# ---------------------------------------------------------------------------
# Pareto-optimal slot matchings
# ---------------------------------------------------------------------------

def sequence_graph(inst):
    """The graph of solve_with_sequence's slots: plain for goods, extended for chores."""
    graph = build_allocation_graph(inst)
    return extend_allocation_graph(graph, inst) if inst.kind == "chores" else graph


def solve_matching(inst, graph):
    """solve_with_sequence's slot matching on ``sequence_graph(inst)``.

    Each slot that picked holds what its agent takes at that place of the
    replay.  Chores' empty-handed slots take the dummies in narrowest-first
    order, the order of the tail of the sequence's slots.  A goods sequence
    ends with the picks of spare slots, which the plain graph does not hold.
    """
    _, sequence = solve_with_sequence(inst)
    preferences = best_first_items(inst)
    available = set(range(inst.m))
    pairs = []
    for s, agent in zip(sequence.slots, sequence.sequence):
        pick = next(j for j in preferences[agent] if j in available)
        available.discard(pick)
        pairs.append((s, pick))
    tail = sequence.slots[len(pairs):]
    pairs += zip(tail, range(inst.m, inst.m + len(tail)))
    return Matching(pairs=tuple(sorted(pairs)))


def rank_vectors(graph):
    """Every slot-saturating matching, with the rank each slot gives its item."""
    ranks = [dict(zip(adj, r)) for adj, r in zip(graph.adjacency, graph.ranks)]
    return {
        match: tuple(ranks[s][j] for s, j in match.pairs)
        for match in enumerate_side_perfect_matchings(graph, "left")
    }


def dominates(better, worse):
    """At least as good for every slot and better for one (lower ranks are better)."""
    return better != worse and all(b <= w for b, w in zip(better, worse))


@pytest.mark.parametrize(
    "kind, sizes",
    [
        ("goods", [(1, 3), (2, 5), (3, 6), (4, 6), (3, 8), (4, 8)]),
        ("chores", [(1, 3), (2, 5), (3, 6), (4, 4)]),
    ],
)
def test_pareto_matching_is_undominated_brute_force(kind, sizes):
    for n, m in sizes:
        for seed in range(40):
            inst = generate_instance(n, m, kind, seed)
            graph = sequence_graph(inst)
            match = solve_matching(inst, graph)
            vectors = rank_vectors(graph)
            assert match in vectors, (n, m, seed)
            mine = vectors[match]
            assert not any(dominates(v, mine) for v in vectors.values()), (n, m, seed)
            # in particular no slot sees a free item it ranks above its match
            held = {j for _, j in match.pairs}
            for (s, _), rank in zip(match.pairs, mine):
                free = [r for j, r in zip(graph.adjacency[s], graph.ranks[s]) if j not in held]
                assert all(r > rank for r in free), (n, m, seed, s)


# goods: a partial allocation of the plain graph; chores: a complete one
DIFFERING = {
    "goods": (
        [("a1", Fraction(4, 9), ["b3", "b2", "b1"]), ("a2", Fraction(5, 9), ["b3", "b1", "b2"])],
        ({"b2"}, {"b3"}),
        ({"b3"}, {"b1"}),
    ),
    "chores": (
        [("a1", Fraction(3, 5), ["b3", "b1", "b2"]), ("a2", Fraction(2, 5), ["b1", "b3", "b2"])],
        ({"b1", "b3"}, {"b2"}),
        ({"b1", "b2"}, {"b3"}),
    ),
}


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_pareto_allocation_differs_from_rank_maximal_and_both_replay(kind):
    agents, pareto_bundles, rank_maximal_bundles = DIFFERING[kind]
    inst = make(kind, ["b1", "b2", "b3"], agents)
    graph = sequence_graph(inst)
    pareto = solve_matching(inst, graph)
    reference = normalize_slot_order(rank_maximal_perfect_matching(graph), graph)
    for match, bundles in [(pareto, pareto_bundles), (reference, rank_maximal_bundles)]:
        allocation = allocation_from_matching(match, graph, inst)
        assert allocation.bundles == tuple(map(frozenset, bundles))
        sequence = extract_picking_sequence(match, graph)
        assert simulate_picking_sequence(inst, sequence.sequence).bundles == allocation.bundles
        assert check_allocation(inst, allocation).passes
    allocation, sequence = solve_with_sequence(inst)
    assert simulate_picking_sequence(inst, sequence.sequence).bundles == allocation.bundles
    assert check_allocation(inst, allocation).passes
    assert allocation == perfect_allocation(inst)
    if kind == "chores":
        assert allocation.bundles == tuple(map(frozenset, pareto_bundles))


# ---------------------------------------------------------------------------
# slot-order normalization
# ---------------------------------------------------------------------------

def test_normalize_swaps_low_rank_to_high_slot():
    inst = e1()
    graph = build_allocation_graph(inst)
    # agent 1: slot 1 holds its rank-1 chore (b3), slot 2 holds rank-2 (b2)
    match = Matching(pairs=((0, 2), (1, 1), (2, 0)))
    fixed = normalize_slot_order(match, graph)
    held = {s: j for s, j in fixed.pairs}
    assert held[0] == 1 and held[1] == 2  # slot 2 now holds the rank-1 chore
    assert held[2] == 0  # the single-slot agent is untouched
    assert signature(fixed, graph) == signature(match, graph)


def test_normalize_single_slot_and_idempotence():
    inst = e1()
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    match = rank_maximal_perfect_matching(graph)
    once = normalize_slot_order(match, graph)
    twice = normalize_slot_order(once, graph)
    assert once.pairs == twice.pairs


def test_normalize_preserves_signature_random():
    rng = random.Random(13)
    for seed in range(30):
        kind = "chores" if seed % 2 else "goods"
        inst = generate_instance(1 + seed % 4, 1 + seed % 7, kind, seed)
        plain = build_allocation_graph(inst)
        graph = extend_allocation_graph(plain, inst) if kind == "chores" else plain
        match = rank_maximal_perfect_matching(graph)
        fixed = normalize_slot_order(match, graph)
        assert signature(fixed, graph) == signature(match, graph)
        assert allocation_from_matching(fixed, graph, inst) == allocation_from_matching(
            match, graph, inst
        )
        by_agent = {}
        for s, j in fixed.pairs:
            if not graph.is_dummy_item(j):
                slot = graph.slots[s]
                by_agent.setdefault(slot.agent, []).append(
                    (slot.position, graph.rank_of(s, j))
                )
        for pairs in by_agent.values():
            pairs.sort()
            ranks = [r for _, r in pairs]
            if kind == "chores":
                assert ranks == sorted(ranks, reverse=True)
            else:
                assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# picking-sequence extraction
# ---------------------------------------------------------------------------

def test_extract_rank_one_only_is_index_order():
    edges = {(i, i): 1 for i in range(3)}
    graph = ranked_graph(["l0", "l1", "l2"], ["r0", "r1", "r2"], edges)
    match = Matching(pairs=((0, 0), (1, 1), (2, 2)))
    seq = extract_picking_sequence(match, graph)
    assert seq.slots == (0, 1, 2)


def test_extract_rejects_non_rank_maximal():
    graph = fig2_graph()
    bad = Matching(pairs=((0, 0), (1, 1), (2, 2), (3, 3)))  # signature (0, 4)
    with pytest.raises(NotRankMaximal):
        extract_picking_sequence(bad, graph)


def test_extract_requires_full_cover():
    graph = fig2_graph()
    with pytest.raises(ValueError):
        extract_picking_sequence(Matching(pairs=((0, 1),)), graph)


def test_sequence_round_trip_random_instances():
    for seed in range(60):
        kind = "chores" if seed % 2 else "goods"
        inst = generate_instance(1 + seed % 5, 1 + seed % 8, kind, seed)
        allocation, seq = solve_with_sequence(inst)
        replay = simulate_picking_sequence(inst, seq.sequence)
        assert replay.bundles == allocation.bundles
        assert check_allocation(inst, allocation).passes


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_sequence_round_trip_when_the_lowest_rank_group_is_stuck(kind):
    # on goods 6x30 seed 28, goods 8x40 seed 30 and chores 6x30 seed 5, the
    # picking-sequence extraction solve_with_sequence once ran reached a step
    # where every pending slot of the lowest matched rank still saw a better
    # available item, while a slot of a higher rank did not
    for n, m in [(6, 30), (8, 40)]:
        for seed in range(40):
            inst = generate_instance(n, m, kind, seed)
            allocation, seq = solve_with_sequence(inst)
            replay = simulate_picking_sequence(inst, seq.sequence)
            assert replay.bundles == allocation.bundles, (n, m, seed)
            assert check_allocation(inst, allocation).passes


# ---------------------------------------------------------------------------
# Birkhoff-von Neumann decomposition
# ---------------------------------------------------------------------------

def rational_bvn(matrix):
    """``bvn_decompose`` on a dense matrix of rationals: the entries scaled
    once to ``{column: int}`` rows over the least common multiple of their
    denominators, the weights returned as fractions."""
    denom = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    rows = [{j: int(x * denom) for j, x in enumerate(row)} for row in matrix]
    return [(Fraction(w, denom), perm) for w, perm in bvn_decompose(rows, denom)]


def test_bvn_half_matrix():
    half = Fraction(1, 2)
    parts = rational_bvn([[half, half], [half, half]])
    assert sorted(w for w, _ in parts) == [half, half]
    assert {perm for _, perm in parts} == {(0, 1), (1, 0)}


def test_bvn_permutation_input():
    one, zero = Fraction(1), Fraction(0)
    parts = rational_bvn([[zero, one], [one, zero]])
    assert parts == [(one, (1, 0))]


def test_bvn_cyclic_three_by_three():
    a, b = Fraction(1, 2), Fraction(1, 4)
    matrix = [[a, b, b], [b, a, b], [b, b, a]]
    parts = rational_bvn(matrix)
    assert sum(w for w, _ in parts) == 1
    assert len(parts) <= 3 * 3 - 3 + 2
    rebuilt = [[Fraction(0)] * 3 for _ in range(3)]
    for w, perm in parts:
        for i, j in enumerate(perm):
            rebuilt[i][j] += w
    assert rebuilt == matrix


def test_bvn_random_exact_reconstruction():
    rng = random.Random(21)
    for _ in range(20):
        p = rng.randint(1, 5)
        matrix = [[Fraction(0)] * p for _ in range(p)]
        total = Fraction(0)
        perms = list(itertools.permutations(range(p)))
        for _ in range(rng.randint(1, 6)):
            w = Fraction(rng.randint(1, 5), rng.randint(6, 20))
            if total + w > 1:
                break
            total += w
            perm = rng.choice(perms)
            for i, j in enumerate(perm):
                matrix[i][j] += w
        if total < 1:
            perm = rng.choice(perms)
            for i, j in enumerate(perm):
                matrix[i][j] += 1 - total
        support = {(i, j) for i in range(p) for j in range(p) if matrix[i][j] > 0}
        parts = rational_bvn(matrix)
        assert sum(w for w, _ in parts) == 1
        assert len(parts) <= p * p - p + 2
        rebuilt = [[Fraction(0)] * p for _ in range(p)]
        for w, perm in parts:
            assert w > 0
            for i, j in enumerate(perm):
                assert (i, j) in support
                rebuilt[i][j] += w
        assert rebuilt == matrix


def dense_rational_bvn(matrix):
    """The decomposition on a dense matrix of rationals, one support graph
    per round, each round's matching started from the last round's
    permutation minus the entries it zeroed: the reference the scaled
    sparse version must reproduce."""
    p = len(matrix)
    work = [[Fraction(x) for x in row] for row in matrix]
    parts = []
    start = None
    while any(x for row in work for x in row):
        support = [[j for j in range(p) if work[i][j] > 0] for i in range(p)]
        left = max_matching(support, p, start).left_map()
        perm = tuple(left[i] for i in range(p))
        weight = min(work[i][perm[i]] for i in range(p))
        for i in range(p):
            work[i][perm[i]] -= weight
        start = [perm[i] if work[i][perm[i]] else -1 for i in range(p)]
        parts.append((weight, perm))
    return parts


def test_bvn_matches_dense_rational_reference():
    from fairmatch.bobw import build_fractional_matching

    for seed in range(12):
        for kind in ("goods", "chores"):
            inst = generate_instance(2 + seed % 4, 6 + seed, kind, seed)
            graph = extend_allocation_graph(build_allocation_graph(inst), inst)
            fractional = build_fractional_matching(inst, graph)
            p = graph.left_count
            matrix = [[Fraction(0)] * p for _ in range(p)]
            for (slot, j), w in fractional.weights.items():
                matrix[slot][j] = w
            assert rational_bvn(matrix) == dense_rational_bvn(matrix)


def test_bvn_rejects_bad_input():
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(NotDoublyStochastic):
        rational_bvn([[one, zero]])
    with pytest.raises(NotDoublyStochastic):
        rational_bvn([[Fraction(1, 2), Fraction(1, 2)], [one, zero]])
    with pytest.raises(NotDoublyStochastic):
        rational_bvn([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]])
    # columns outside the matrix
    with pytest.raises(NotDoublyStochastic):
        bvn_decompose([{0: 1}, {2: 1}], 1)
    with pytest.raises(NotDoublyStochastic):
        bvn_decompose([{-1: 1}, {1: 1}], 1)


def test_bvn_rejects_a_denominator_below_one():
    # the weights sum to the denominator, so below 1 they could not sum to 1
    for denominator in (0, -3):
        with pytest.raises(ValueError, match="denominator"):
            bvn_decompose([], denominator)
        with pytest.raises(ValueError, match="denominator"):
            bvn_decompose([{0: denominator}], denominator)
    assert bvn_decompose([], 1) == [(1, ())]
    assert bvn_decompose([{0: 2}], 2) == [(2, (0,))]


# ---------------------------------------------------------------------------
# perfect allocations
# ---------------------------------------------------------------------------

def test_perfect_allocation_e1_is_a_two_one_split():
    alloc = perfect_allocation(e1())
    sizes = sorted(len(b) for b in alloc.bundles)
    assert sizes == [1, 2]
    assert check_allocation(e1(), alloc).passes


def test_perfect_allocation_single_agent_goods():
    inst = make("goods", ["b1", "b2"], [("a1", Fraction(1), ["b1", "b2"])])
    alloc = perfect_allocation(inst)
    assert alloc.bundles[0] == frozenset({"b1", "b2"})


def test_perfect_allocation_goods_top_items_reachable():
    # with equal halves and identical rankings over four goods, every slot
    # bound is three, so each agent ends up with at least one top-3 good
    inst = make(
        "goods",
        ["b1", "b2", "b3", "b4"],
        [
            ("a1", Fraction(1, 2), ["b1", "b2", "b3", "b4"]),
            ("a2", Fraction(1, 2), ["b1", "b2", "b3", "b4"]),
        ],
    )
    alloc = perfect_allocation(inst)
    top = {"b1", "b2", "b3"}
    for bundle in alloc.bundles:
        assert bundle & top


def test_leftover_good_goes_to_the_agent_furthest_below_its_share():
    # a1 (2/3 of 2 goods) has one slot and takes b1; a2 (1/3) has none.
    # The leftover b2 leaves a1 at 1 of 4/3 and a2 at 0 of 2/3, so a2
    # is further below its share and takes it
    inst = make(
        "goods",
        ["b1", "b2"],
        [("a1", Fraction(2, 3), ["b1", "b2"]), ("a2", Fraction(1, 3), ["b1", "b2"])],
    )
    expected = (frozenset({"b1"}), frozenset({"b2"}))
    assert perfect_allocation(inst).bundles == expected
    allocation, sequence = solve_with_sequence(inst)
    assert allocation.bundles == expected
    assert sequence.sequence == (0, 1)


def test_perfect_allocation_random_instances_verify():
    for seed in range(50):
        for kind in ("chores", "goods"):
            inst = generate_instance(1 + seed % 6, seed % 10, kind, seed)
            alloc = perfect_allocation(inst)
            report = check_allocation(inst, alloc)
            assert report.passes
            if kind == "chores":
                assert sum(len(b) for b in alloc.bundles) == inst.m
            else:
                assert sum(len(b) for b in alloc.bundles) == inst.m


def graph_rows_allocation(inst):
    """A fair allocation by max_matching on the graph rows, narrowest first.

    Each row goes over best first, as its slot's prefix of its agent's
    preferences, in a stable sort on the width, so ties stay in slot
    order.  Goods leftovers go one at a time to the agent furthest below
    ``m*alpha``, recomputed after each pick, ties by index, who takes its
    best leftover.
    """
    graph = build_allocation_graph(inst)
    preferences = best_first_items(inst)
    rows = [
        preferences[slot.agent][:len(adj)]
        for slot, adj in zip(graph.slots, graph.adjacency)
    ]
    assert list(map(sorted, rows)) == list(map(list, graph.adjacency))
    order = sorted(range(len(rows)), key=lambda s: len(rows[s]))
    match = max_matching([rows[s] for s in order], inst.m)
    # chores cover every chore, goods every slot
    assert len(match) == (inst.m if inst.kind == "chores" else graph.left_count)
    bundles = [set() for _ in range(inst.n)]
    for k, j in match.pairs:
        bundles[graph.slots[order[k]].agent].add(inst.items[j])
    if inst.kind == "goods":
        held = {j for _, j in match.pairs}
        leftovers = {j for j in range(inst.m) if j not in held}
        while leftovers:
            deficit = [inst.m * a.entitlement - len(b) for a, b in zip(inst.agents, bundles)]
            i = deficit.index(max(deficit))
            j = next(j for j in preferences[i] if j in leftovers)
            leftovers.remove(j)
            bundles[i].add(inst.items[j])
    return IntegralAllocation(bundles=tuple(map(frozenset, bundles)))


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_perfect_allocation_matches_graph_rows_narrowest_first(kind):
    for n, m in [(1, 0), (1, 5), (3, 2), (3, 9), (7, 3), (8, 40), (20, 100)]:
        for seed in range(10):
            inst = generate_instance(n, m, kind, seed)
            alloc = perfect_allocation(inst)
            reference = graph_rows_allocation(inst)
            assert json.dumps(allocation_to_json(inst, alloc)) == json.dumps(
                allocation_to_json(inst, reference)
            ), (n, m, seed)
            assert check_allocation(inst, alloc).passes
            assert sum(len(b) for b in alloc.bundles) == m


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_sequence_slots_are_the_plain_slots_in_pick_order(kind):
    for n, m in [(1, 0), (1, 5), (3, 2), (3, 9), (7, 3), (8, 40), (20, 100)]:
        for seed in range(10):
            inst = generate_instance(n, m, kind, seed)
            graph = build_allocation_graph(inst)
            _, sequence = solve_with_sequence(inst)
            preferences = best_first_items(inst)
            assert sorted(sequence.slots) == list(range(graph.left_count))
            assert len(sequence.sequence) == m
            # chores: every chore is picked by a slot; goods: every slot
            # picks, and the spare slots pick the rest
            picks = min(m, graph.left_count)
            available = set(range(m))
            for s, agent in zip(sequence.slots, sequence.sequence):
                assert graph.slots[s].agent == agent, (n, m, seed, s)
                pick = next(j for j in preferences[agent] if j in available)
                assert pick in graph.adjacency[s], (n, m, seed, s)
                available.discard(pick)
            # picks narrowest first, then the empty-handed tail narrowest first
            for part in (sequence.slots[:picks], sequence.slots[picks:]):
                widths = [len(graph.adjacency[s]) for s in part]
                assert widths == sorted(widths), (n, m, seed)


def test_solve_with_sequence_replays_the_fair_allocation():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(
        weights=st.lists(st.integers(1, 9) | st.integers(1, 10**6), min_size=1, max_size=8),
        m=st.integers(0, 40),
        kind=st.sampled_from(["goods", "chores"]),
        seed=st.integers(0, 2**32),
    )
    @hypothesis.example(weights=[1], m=0, kind="goods", seed=0)
    @hypothesis.example(weights=[1], m=0, kind="chores", seed=0)
    @hypothesis.example(weights=[3, 5], m=0, kind="goods", seed=0)
    @hypothesis.example(weights=[3, 5], m=0, kind="chores", seed=0)
    @hypothesis.example(weights=[4], m=9, kind="goods", seed=1)
    @hypothesis.example(weights=[4], m=9, kind="chores", seed=1)
    def check(weights, m, kind, seed):
        rng = random.Random(seed)
        items = [f"b{j + 1}" for j in range(m)]
        agents = []
        for i, w in enumerate(weights):
            ranking = list(items)
            rng.shuffle(ranking)
            agents.append((f"a{i + 1}", Fraction(w, sum(weights)), ranking))
        inst = make(kind, items, agents)
        allocation, sequence = solve_with_sequence(inst)
        assert allocation == perfect_allocation(inst)
        assert simulate_picking_sequence(inst, sequence.sequence) == allocation
        assert check_allocation(inst, allocation).passes
        plain = sum(len(reaches) for _, reaches in slot_reaches(inst))
        assert sorted(sequence.slots) == list(range(plain))

    check()


def test_enumerate_side_perfect_matchings_e1():
    graph = build_allocation_graph(e1())
    matchings = list(enumerate_side_perfect_matchings(graph, saturate="right"))
    # every chore matched, no slot reused
    for match in matchings:
        assert len({j for _, j in match.pairs}) == 3
        assert len({i for i, _ in match.pairs}) == 3
    allocations = {
        allocation_from_matching(m, graph, e1()).bundles for m in matchings
    }
    assert len(allocations) == 6
    # the cap bounds the matchings found, not the allocations
    assert list(enumerate_side_perfect_matchings(graph, "right", cap=len(matchings))) == matchings
    with pytest.raises(InstanceTooLarge):
        list(enumerate_side_perfect_matchings(graph, "right", cap=len(matchings) - 1))
