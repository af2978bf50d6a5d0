"""Tests for the fractional matching construction and the uniform lottery."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from fairmatch.allocgraph import build_allocation_graph, extend_allocation_graph
from fairmatch.bobw import (
    build_fractional_matching,
    lottery_from_json,
    lottery_to_json,
    uniform_lottery,
)
from fairmatch.core import generate_instance, validate_instance
from fairmatch.fairness import check_allocation, check_wsdef_fractional


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


def extended(instance):
    return extend_allocation_graph(build_allocation_graph(instance), instance)


# ---------------------------------------------------------------------------
# fractional matching construction
# ---------------------------------------------------------------------------

def test_e1_fractional_weights():
    inst = e1()
    graph = extended(inst)
    frac = build_fractional_matching(inst, graph)
    half = Fraction(1, 2)
    # agent 1, slot 1 covers interval [0,2]: half of b1 and half of b2;
    # slot 2 covers [2,3]: half of b3, topped up with half a dummy
    assert frac.weights[(0, 0)] == half and frac.weights[(0, 1)] == half
    assert frac.weights[(1, 2)] == half and frac.weights[(1, 3)] == half


def test_single_agent_slots_follow_positions():
    items = ["b1", "b2", "b3"]
    inst = make("chores", items, [("a1", Fraction(1), items)])
    graph = extended(inst)
    frac = build_fractional_matching(inst, graph)
    for ell in range(3):
        assert frac.weights[(ell, ell)] == 1
    assert frac.weights[(3, 3)] == 1  # the extra slot takes the dummy


def test_aggregate_share_is_entitlement():
    for seed in range(30):
        for kind in ("chores", "goods"):
            inst = generate_instance(1 + seed % 5, seed % 9, kind, seed)
            graph = extended(inst)
            frac = build_fractional_matching(inst, graph)
            by_agent_item = {}
            for (slot, j), w in frac.weights.items():
                if j < graph.real_item_count:
                    agent = graph.slots[slot].agent
                    key = (agent, j)
                    by_agent_item[key] = by_agent_item.get(key, Fraction(0)) + w
            for i in range(inst.n):
                for j in range(inst.m):
                    assert by_agent_item.get((i, j), Fraction(0)) == inst.entitlement(i)


def test_matrix_is_doubly_stochastic():
    for seed in range(12):
        for kind in ("chores", "goods"):
            inst = generate_instance(1 + seed % 4, 1 + seed % 7, kind, seed)
            graph = extended(inst)
            p = graph.left_count
            matrix = [[Fraction(0)] * p for _ in range(p)]
            for (slot, j), w in build_fractional_matching(inst, graph).weights.items():
                matrix[slot][j] = w
            for row in matrix:
                assert sum(row) == 1
            for j in range(p):
                assert sum(matrix[i][j] for i in range(p)) == 1


def test_fractional_matching_requires_extended_graph():
    inst = e1()
    with pytest.raises(ValueError):
        build_fractional_matching(inst, build_allocation_graph(inst))


# ---------------------------------------------------------------------------
# uniform lottery
# ---------------------------------------------------------------------------

def test_single_agent_lottery_is_degenerate():
    items = ["b1", "b2"]
    inst = make("goods", items, [("a1", Fraction(1), items)])
    lottery = uniform_lottery(inst)
    assert len(lottery.entries) == 1
    weight, allocation = lottery.entries[0]
    assert weight == 1
    assert allocation.bundles[0] == frozenset(items)


def test_e1_lottery_mixture_and_support():
    inst = e1()
    lottery = uniform_lottery(inst)
    assert len(lottery.entries) <= 4 * 4 - 4 + 2
    mix = lottery.mixture(inst)
    for row in mix.shares:
        assert all(x == Fraction(1, 2) for x in row)
    for weight, allocation in lottery.entries:
        assert weight > 0
        assert sorted(map(len, allocation.bundles)) == [1, 2]
        assert check_allocation(inst, allocation).passes


def test_two_goods_lottery_is_the_coin_flip():
    items = ["b1", "b2"]
    inst = make(
        "goods",
        items,
        [("a1", Fraction(1, 2), items), ("a2", Fraction(1, 2), items)],
    )
    lottery = uniform_lottery(inst)
    supports = {a.bundles: w for w, a in lottery.entries}
    assert supports == {
        (frozenset({"b1"}), frozenset({"b2"})): Fraction(1, 2),
        (frozenset({"b2"}), frozenset({"b1"})): Fraction(1, 2),
    }


def test_lottery_properties_random_instances():
    for seed in range(25):
        for kind in ("chores", "goods"):
            inst = generate_instance(1 + seed % 4, seed % 8, kind, seed)
            graph = extended(inst)
            p = graph.left_count
            lottery = uniform_lottery(inst)
            assert sum(w for w, _ in lottery.entries) == 1
            assert len(lottery.entries) <= p * p - p + 2
            mix = lottery.mixture(inst)
            for i in range(inst.n):
                for j in range(inst.m):
                    assert mix.shares[i][j] == inst.entitlement(i)
            if inst.m:
                assert check_wsdef_fractional(inst, mix)
            for _, allocation in lottery.entries:
                assert check_allocation(inst, allocation).passes
                assert sum(len(b) for b in allocation.bundles) == inst.m


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_lottery_output_is_pinned(kind):
    # the full lottery_to_json of one fixed instance per kind, recorded
    # from an earlier implementation: the parts, their order and their
    # probabilities must not change
    inst = generate_instance(4, 12, kind, 7)
    pinned = Path(__file__).parent / "data" / f"lottery_{kind}_4x12_seed7.json"
    got = lottery_to_json(inst, uniform_lottery(inst))
    assert got == json.loads(pinned.read_text())


# ---------------------------------------------------------------------------
# lottery file format
# ---------------------------------------------------------------------------

def test_lottery_json_round_trip():
    inst = e1()
    lottery = uniform_lottery(inst)
    data = lottery_to_json(inst, lottery)
    again = lottery_from_json(inst, data)
    assert again.entries == lottery.entries
    # the mixture is recomputable from the file contents alone
    mix = again.mixture(inst)
    assert all(x == Fraction(1, 2) for row in mix.shares for x in row)
