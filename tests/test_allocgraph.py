"""Tests for allocation graph construction, extension and exports."""

import math
import random
import re
from fractions import Fraction

import pytest

from fairmatch.allocgraph import (
    build_allocation_graph,
    extend_allocation_graph,
    graph_to_dot,
    graph_to_text,
    slot_count,
    slot_reaches,
    slot_threshold,
    spare_slot_count,
)
from fairmatch.core import generate_instance, validate_instance
from fairmatch.oracle import interval_set
from reference import ranked_graph


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


# ---------------------------------------------------------------------------
# thresholds and slot counts
# ---------------------------------------------------------------------------

def test_slot_threshold_chores():
    inst = e1()
    assert slot_threshold(inst, 0, 1) == 0  # slot 1 reaches every chore
    assert slot_threshold(inst, 0, 2) == 2


def test_slot_threshold_goods():
    inst = make(
        "goods",
        ["b1", "b2", "b3", "b4"],
        [
            ("a1", Fraction(1, 2), ["b1", "b2", "b3", "b4"]),
            ("a2", Fraction(1, 2), ["b1", "b2", "b3", "b4"]),
        ],
    )
    assert slot_threshold(inst, 0, 1) == 3


def test_slot_threshold_out_of_range():
    inst = e1()
    with pytest.raises(IndexError):
        slot_threshold(inst, 0, 3)
    with pytest.raises(IndexError):
        slot_threshold(inst, 0, 0)


def test_goods_slot_counts_unequal_entitlements():
    inst = make(
        "goods",
        ["b1", "b2", "b3"],
        [
            ("a1", Fraction(2, 3), ["b1", "b2", "b3"]),
            ("a2", Fraction(1, 3), ["b1", "b2", "b3"]),
        ],
    )
    assert slot_count(inst, 0) == 1
    assert slot_count(inst, 1) == 0


def test_slot_arithmetic_equals_the_rational_definitions():
    # entitlements w_i / sum(w) with weights up to 10**6, and m often a
    # multiple of their common denominator, where floor and ceiling meet
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def with_m(weights):
        den = math.lcm(*(Fraction(w, sum(weights)).denominator for w in weights))
        multiples = st.integers(0, 60 // den).map(den.__mul__)
        return st.tuples(st.just(weights), st.integers(0, 60) | multiples)

    weights = st.lists(st.integers(1, 4) | st.integers(1, 10**6), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(case=weights.flatmap(with_m), kind=st.sampled_from(["goods", "chores"]))
    @hypothesis.example(case=([1], 0), kind="goods")
    @hypothesis.example(case=([1], 0), kind="chores")
    @hypothesis.example(case=([7], 60), kind="goods")
    @hypothesis.example(case=([7], 60), kind="chores")
    @hypothesis.example(case=([1, 2, 5], 48), kind="goods")
    @hypothesis.example(case=([1, 2, 5], 48), kind="chores")
    def check(case, kind):
        weights, m = case
        alphas = [Fraction(w, sum(weights)) for w in weights]
        items = [f"b{j + 1}" for j in range(m)]
        inst = make(kind, items, [(f"a{i + 1}", a, items) for i, a in enumerate(alphas)])
        positions = range(1, m + 1)
        assert spare_slot_count(inst) == m + len(alphas) - sum(
            math.ceil(m * alpha) for alpha in alphas
        )
        for i, (alpha, (_, reaches)) in enumerate(zip(alphas, slot_reaches(inst))):
            if kind == "chores":
                count = math.floor(m * alpha) + 1
            else:
                count = max(0, math.ceil(m * alpha) - 1)
            assert slot_count(inst, i) == len(reaches) == count
            for ell, reach in enumerate(reaches, start=1):
                # chores slots reach positions >= threshold, goods <= it
                if kind == "chores":
                    threshold = math.ceil(Fraction(ell - 1) / alpha)
                    reached = [p for p in positions if p >= threshold]
                else:
                    threshold = math.floor(Fraction(ell) / alpha) + 1
                    reached = [p for p in positions if p <= threshold]
                assert slot_threshold(inst, i, ell) == threshold
                assert reach == len(reached), (alpha, m, ell)

    check()


# ---------------------------------------------------------------------------
# plain graphs
# ---------------------------------------------------------------------------

def test_e1_plain_graph_edges():
    graph = build_allocation_graph(e1())
    assert [(s.agent, s.position) for s in graph.slots] == [(0, 1), (0, 2), (1, 1), (1, 2)]
    # slot 1 of each agent reaches everything, slot 2 only positions >= 2
    assert graph.adjacency == ((0, 1, 2), (1, 2), (0, 1, 2), (1, 2))
    # the most preferred chore (b3) has matching-rank 1
    assert graph.ranks == ((3, 2, 1), (2, 1), (3, 2, 1), (2, 1))


def test_single_agent_chores_slots():
    m = 4
    inst = make("chores", [f"b{j}" for j in range(1, m + 1)],
                [("a1", Fraction(1), [f"b{j}" for j in range(1, m + 1)])])
    graph = build_allocation_graph(inst)
    assert graph.left_count == m + 1
    for idx, slot in enumerate(graph.slots):
        bound = slot.position - 1  # thresholds collapse to l-1
        expected = {j for j in range(m) if j + 1 >= bound}
        assert set(graph.adjacency[idx]) == expected


def test_ranked_graph_rows_follow_the_edge_map():
    rng = random.Random(5)
    for _ in range(200):
        left, right = rng.randint(0, 10), rng.randint(1, 10)
        edges = {
            (rng.randint(-1, left), rng.randrange(right)): rng.randint(1, 5)
            for _ in range(rng.randint(0, 40))
        }
        graph = ranked_graph(
            [f"l{i}" for i in range(left)], [f"r{j}" for j in range(right)], edges
        )
        # each row holds that left vertex's edges in ascending order; edges
        # of left indices outside the label list are dropped
        for i in range(left):
            row = sorted(j for (a, j) in edges if a == i)
            assert graph.adjacency[i] == tuple(row)
            assert graph.ranks[i] == tuple(edges[(i, j)] for j in row)
        assert len(graph.adjacency) == left


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def test_e1_extension_balanced():
    inst = e1()
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    assert graph.left_count == graph.right_count == 4
    assert graph.dummy_count == 1
    # the dummy chore connects to every slot at a rank above all real ranks
    for i in range(4):
        assert graph.adjacency[i][-1] == 3
        assert graph.ranks[i][-1] == 4


def test_goods_extension_counts():
    inst = make(
        "goods",
        ["b1", "b2", "b3", "b4"],
        [
            ("a1", Fraction(1, 2), ["b1", "b2", "b3", "b4"]),
            ("a2", Fraction(1, 2), ["b4", "b3", "b2", "b1"]),
        ],
    )
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    assert graph.spare_per_agent == 2
    assert graph.left_count == graph.right_count == 6
    assert graph.dummy_count == 2
    spares = [s for s in graph.slots if s.spare]
    assert len(spares) == 4
    for idx, slot in enumerate(graph.slots):
        if slot.spare:
            assert graph.adjacency[idx] == tuple(range(6))


def test_chores_extension_always_needs_dummies():
    # the slot count exceeds the chore count by n minus the fractional parts,
    # which is a positive integer for every instance
    for seed in range(30):
        inst = generate_instance(1 + seed % 5, seed % 10, "chores", seed)
        plain = build_allocation_graph(inst)
        graph = extend_allocation_graph(plain, inst)
        assert graph.dummy_count >= 1
        assert graph.left_count == graph.right_count
        for i in range(graph.left_count):
            assert set(graph.adjacency[i][-graph.dummy_count:]) == set(
                range(inst.m, inst.m + graph.dummy_count)
            )


def test_extension_idempotent():
    inst = e1()
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    assert extend_allocation_graph(graph, inst) is graph


# ---------------------------------------------------------------------------
# structural properties on random instances
# ---------------------------------------------------------------------------

def test_slots_cover_their_intervals():
    # every item overlapping an agent's l-th interval is adjacent to slot l
    for seed in range(40):
        for kind in ("chores", "goods"):
            inst = generate_instance(1 + seed % 4, 1 + seed % 8, kind, seed)
            graph = build_allocation_graph(inst)
            index = {
                (s.agent, s.position): i for i, s in enumerate(graph.slots)
            }
            item_index = {item: j for j, item in enumerate(inst.items)}
            for i in range(inst.n):
                iset = interval_set(inst, i)
                for ell, (lo, hi) in enumerate(iset.intervals, start=1):
                    if (i, ell) not in index:
                        continue  # goods: the last interval has no real slot
                    adjacent = set(graph.adjacency[index[(i, ell)]])
                    for pos in range(1, inst.m + 1):
                        overlap = min(Fraction(pos), hi) - max(Fraction(pos - 1), lo)
                        if overlap > 0:
                            j = item_index[inst.agents[i].ranking[pos - 1]]
                            assert j in adjacent


def test_chores_neighborhood_nesting_over_items():
    # a worse-positioned chore is reachable from at least the slots that
    # reach any better-positioned one
    for seed in range(25):
        inst = generate_instance(1 + seed % 4, 1 + seed % 7, "chores", seed)
        graph = build_allocation_graph(inst)
        for i in range(inst.n):
            slots_i = [k for k, s in enumerate(graph.slots) if s.agent == i]
            for pos_low in range(1, inst.m + 1):
                for pos_high in range(pos_low, inst.m + 1):
                    item_low = inst.agents[i].ranking[pos_low - 1]
                    item_high = inst.agents[i].ranking[pos_high - 1]
                    j_low = inst.items.index(item_low)
                    j_high = inst.items.index(item_high)
                    nb_low = {k for k in slots_i if j_low in graph.adjacency[k]}
                    nb_high = {k for k in slots_i if j_high in graph.adjacency[k]}
                    assert nb_low <= nb_high


def test_goods_neighborhood_nesting_over_slots():
    for seed in range(25):
        inst = generate_instance(1 + seed % 4, 1 + seed % 7, "goods", seed)
        graph = build_allocation_graph(inst)
        for i in range(inst.n):
            rows = [
                graph.adjacency[k]
                for k, s in enumerate(graph.slots)
                if s.agent == i
            ]
            for low, high in zip(rows, rows[1:]):
                assert set(low) <= set(high)


def test_goods_slot_degree_ordering_by_entitlement():
    # a more entitled agent's l-th slot cannot have a larger neighborhood
    for seed in range(25):
        inst = generate_instance(2 + seed % 3, 1 + seed % 8, "goods", seed)
        graph = build_allocation_graph(inst)
        degree = {
            (s.agent, s.position): len(graph.adjacency[k])
            for k, s in enumerate(graph.slots)
        }
        for i in range(inst.n):
            for k in range(inst.n):
                if inst.entitlement(i) < inst.entitlement(k):
                    continue
                for ell in range(1, slot_count(inst, k) + 1):
                    if ell <= slot_count(inst, i):
                        assert degree[(i, ell)] <= degree[(k, ell)]


# ---------------------------------------------------------------------------
# equivalence with the per-slot construction
# ---------------------------------------------------------------------------

def reference_graphs(inst):
    """Plain and extended graphs built slot by slot, with every rank spelled out.

    This is the construction the nested-row builder replaced: each slot
    sorts its own neighbourhood, with the threshold computed in
    ``Fraction``, and each edge gets its rank from the agent's ranking.
    """
    m = inst.m
    chores = inst.kind == "chores"
    item_index = {item: j for j, item in enumerate(inst.items)}
    slots, adjacency, ranks, tables = [], [], [], []
    for i in range(inst.n):
        by_position = [item_index[item] for item in inst.agents[i].ranking]
        rank_of_item = [0] * m
        for pos, j in enumerate(by_position, start=1):
            rank_of_item[j] = m + 1 - pos if chores else pos
        tables.append(rank_of_item)
        alpha = inst.entitlement(i)
        for ell in range(1, slot_count(inst, i) + 1):
            if chores:
                bound = math.ceil(Fraction(ell - 1) / alpha)
                positions = range(max(1, bound), m + 1)
            else:
                bound = math.floor(Fraction(ell) / alpha) + 1
                positions = range(1, min(m, bound) + 1)
            row = sorted(by_position[pos - 1] for pos in positions)
            slots.append((i, ell, False))
            adjacency.append(tuple(row))
            ranks.append(tuple(rank_of_item[j] for j in row))
    plain = {"slots": slots, "adjacency": adjacency, "ranks": ranks, "dummies": 0}
    if chores:
        q = len(slots) - m
        extended = {
            "slots": slots,
            "adjacency": [row + tuple(range(m, m + q)) for row in adjacency],
            "ranks": [row + tuple(range(m + 1, m + q + 1)) for row in ranks],
            "dummies": q,
        }
    else:
        q = spare_slot_count(inst)
        t = len(slots) + inst.n * q - m
        spare = [(i, slot_count(inst, i) + s + 1, True) for i in range(inst.n) for s in range(q)]
        extended = {
            "slots": slots + spare,
            "adjacency": adjacency + [tuple(range(m + t))] * len(spare),
            "ranks": ranks + [
                tuple(tables[i]) + tuple(range(m + 1, m + t + 1)) for i, _, _ in spare
            ],
            "dummies": t,
        }
    return plain, extended


def graph_fields(graph):
    return {
        "slots": [(s.agent, s.position, s.spare) for s in graph.slots],
        "adjacency": list(graph.adjacency),
        "ranks": list(graph.ranks),
        "dummies": graph.dummy_count,
    }


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_graphs_equal_the_per_slot_construction(kind):
    for n, m in [(1, 0), (1, 5), (3, 2), (3, 9), (7, 3), (8, 40), (20, 100)]:
        for seed in range(20):
            inst = generate_instance(n, m, kind, seed)
            plain = build_allocation_graph(inst)
            extended = extend_allocation_graph(plain, inst)
            want_plain, want_extended = reference_graphs(inst)
            assert graph_fields(plain) == want_plain, (n, m, seed)
            assert graph_fields(extended) == want_extended, (n, m, seed)
            labels = [
                ("s'" if spare else "s") + f"[{i + 1},{ell}]"
                for i, ell, spare in want_extended["slots"]
            ]
            assert list(extended.left_labels) == labels
            assert list(plain.left_labels) == labels[: plain.left_count]
            assert plain.right_labels == inst.items
            assert extended.right_labels == inst.items + tuple(
                f"~d{k + 1}" for k in range(want_extended["dummies"])
            )
            for ell in range(1, slot_count(inst, 0) + 1):
                alpha = inst.entitlement(0)
                assert slot_threshold(inst, 0, ell) == (
                    math.ceil(Fraction(ell - 1) / alpha) if kind == "chores"
                    else math.floor(Fraction(ell) / alpha) + 1
                )


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_slot_prefixes_hold_the_graph_rows(kind):
    for n, m in [(1, 0), (1, 5), (3, 2), (3, 9), (7, 3), (8, 40), (20, 100)]:
        for seed in range(20):
            inst = generate_instance(n, m, kind, seed)
            graph = build_allocation_graph(inst)
            agents = list(slot_reaches(inst))
            prefixes = [
                (i, best_first[:reach])
                for i, (best_first, reaches) in enumerate(agents)
                for reach in reaches
            ]
            assert len(prefixes) == graph.left_count, (n, m, seed)
            for slot, row, ranks, (agent, prefix) in zip(
                graph.slots, graph.adjacency, graph.ranks, prefixes
            ):
                assert slot.agent == agent
                assert len(set(prefix)) == len(prefix) == len(row)
                assert set(prefix) == set(row), (n, m, seed, slot)
                # the prefix lists the row best first: its k-th item has rank k
                assert sorted(zip(ranks, row)) == list(enumerate(prefix, start=1))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_text_export_round_shape():
    inst = e1()
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    text = "".join(graph_to_text(graph, inst))
    assert "allocation-graph kind=chores extended=true" in text
    assert "item 3 ~d1 dummy" in text
    assert text.count("edge ") == sum(len(r) for r in graph.adjacency)


def test_dot_export():
    inst = e1()
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    dot = "".join(graph_to_dot(graph, inst))
    assert dot.startswith("graph allocation {")
    assert "style=dashed" in dot
    assert dot.rstrip().endswith("}")


def test_dot_labels_escape_quotes_and_backslashes():
    quoted = r'"(?:[^"\\]|\\.)*"'
    items = ['a"b', "c\\d", 'e\\"f']
    inst = make("goods", items, [('x"y\\', Fraction(1, 2), items), ("z", Fraction(1, 2), items)])
    plain = build_allocation_graph(inst)
    for graph in (plain, extend_allocation_graph(plain, inst)):
        names = set()
        for line in "".join(graph_to_dot(graph, inst)).splitlines():
            if "label=" in line:
                # one quoted string, followed by nothing but attributes
                found = re.search(rf"label=({quoted})( shape=ellipse)?( style=dashed)?\];$", line)
                assert found, line
                names.add(re.sub(r"\\(.)", r"\1", found.group(1)[1:-1]))
        assert set(items) <= names
        assert 'x"y\\:1' in names
