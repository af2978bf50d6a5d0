"""Tests for the fractional matching construction and the uniform lottery."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fairmatch.allocgraph import build_allocation_graph, extend_allocation_graph, slot_count
from fairmatch.bobw import (
    build_fractional_matching,
    lottery_from_json,
    lottery_to_json,
    uniform_lottery,
)
from fairmatch.core import FormatError, IntegralAllocation, generate_instance, validate_instance
from fairmatch.fairness import check_allocation
from fairmatch.oracle import check_wsdef_fractional


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


def assert_exact_lottery(inst, lottery):
    """Probabilities sum to 1, the mixture is exact, every part verifies and
    hands out every item, the parts are pairwise distinct allocations, and
    the part count keeps two bounds: the decomposition bound of the rows it
    decomposed (every chores slot, and each goods agent's real slots plus
    its first spare slot), and D, the least common multiple of the
    entitlement denominators, since every probability is a positive
    multiple of 1/D."""
    assert sum(w for w, _ in lottery.entries) == 1
    assert all(w > 0 for w, _ in lottery.entries)
    mix = lottery.mixture(inst)
    for i in range(inst.n):
        assert all(share == inst.entitlement(i) for share in mix.shares[i])
    for _, allocation in lottery.entries:
        assert check_allocation(inst, allocation).passes
        assert sum(map(len, allocation.bundles)) == inst.m
    parts = len(lottery.entries)
    assert len({allocation.bundles for _, allocation in lottery.entries}) == parts
    rows = sum(slot_count(inst, i) + (inst.kind == "goods") for i in range(inst.n))
    assert parts <= rows * rows - rows + 2
    assert parts <= math.lcm(*(agent.entitlement.denominator for agent in inst.agents))


def test_lottery_parts_verify_and_mix_to_the_entitlements():
    # random instances of both kinds, n <= 4 and m <= 12, entitlements
    # w_i / sum(w) with weights up to 10**6
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        weights=st.lists(st.integers(1, 9) | st.integers(1, 10**6), min_size=1, max_size=4),
        m=st.integers(0, 12),
        kind=st.sampled_from(["goods", "chores"]),
        seed=st.integers(0, 2**32),
    )
    @hypothesis.example(weights=[1], m=0, kind="goods", seed=0)
    @hypothesis.example(weights=[1], m=0, kind="chores", seed=0)
    @hypothesis.example(weights=[3, 5], m=0, kind="goods", seed=0)
    @hypothesis.example(weights=[3, 5], m=0, kind="chores", seed=0)
    @hypothesis.example(weights=[4], m=12, kind="goods", seed=1)
    @hypothesis.example(weights=[4], m=12, kind="chores", seed=1)
    def check(weights, m, kind, seed):
        rng = random.Random(seed)
        items = [f"b{j + 1}" for j in range(m)]
        agents = []
        for i, w in enumerate(weights):
            ranking = list(items)
            rng.shuffle(ranking)
            agents.append((f"a{i + 1}", Fraction(w, sum(weights)), ranking))
        inst = make(kind, items, agents)
        assert_exact_lottery(inst, uniform_lottery(inst))

    check()


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_lottery_without_items_is_one_empty_part(kind):
    inst = make(kind, [], [("a1", Fraction(1, 3), []), ("a2", Fraction(2, 3), [])])
    lottery = uniform_lottery(inst)
    assert lottery.entries == ((1, IntegralAllocation(bundles=(frozenset(), frozenset()))),)
    assert_exact_lottery(inst, lottery)


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_single_agent_lottery_takes_everything(kind):
    items = [f"b{j}" for j in range(1, 6)]
    inst = make(kind, items, [("a1", Fraction(1), items[::-1])])
    lottery = uniform_lottery(inst)
    assert lottery.entries == ((1, IntegralAllocation(bundles=(frozenset(items),))),)
    assert_exact_lottery(inst, lottery)


def test_goods_first_spare_slot_with_a_whole_interval():
    # m * alpha is an integer for a1 (12/4 = 3) and a2 (12/3 = 4): their
    # last interval is whole, so their first spare slot holds one full
    # unit of real goods and no dummy
    items = [f"b{j}" for j in range(1, 13)]
    agents = [
        ("a1", Fraction(1, 4), items),
        ("a2", Fraction(1, 3), items[::-1]),
        ("a3", Fraction(5, 12), items[3:] + items[:3]),
    ]
    inst = make("goods", items, agents)
    graph = extended(inst)
    weights = build_fractional_matching(inst, graph).weights
    for i in (0, 1):
        spare = next(k for k, slot in enumerate(graph.slots) if slot.agent == i and slot.spare)
        row = {j: w for (slot, j), w in weights.items() if slot == spare}
        assert all(j < inst.m for j in row) and sum(row.values()) == 1
    assert_exact_lottery(inst, uniform_lottery(inst))


def test_chores_slots_without_real_weight():
    # m * alpha is an integer for every agent, so each agent's last slot
    # (floor(m * alpha) + 1) carries dummy weight only
    items = [f"b{j}" for j in range(1, 9)]
    agents = [
        ("a1", Fraction(1, 2), items),
        ("a2", Fraction(1, 4), items[::-1]),
        ("a3", Fraction(1, 4), items[2:] + items[:2]),
    ]
    inst = make("chores", items, agents)
    graph = extended(inst)
    weights = build_fractional_matching(inst, graph).weights
    last = [max(k for k, slot in enumerate(graph.slots) if slot.agent == i) for i in range(3)]
    for slot in last:
        assert all(j >= inst.m for (s, j) in weights if s == slot)
        assert sum(w for (s, _), w in weights.items() if s == slot) == 1
    assert_exact_lottery(inst, uniform_lottery(inst))


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_lottery_with_a_large_entitlement_lcm(kind):
    # the common denominator is 7 * 11 * 13 * 17 = 17017
    items = [f"b{j}" for j in range(1, 21)]
    shares = [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(4, 17)]
    shares.append(1 - sum(shares))
    agents = [
        (f"a{i + 1}", share, items[i:] + items[:i]) for i, share in enumerate(shares)
    ]
    inst = make(kind, items, agents)
    assert_exact_lottery(inst, uniform_lottery(inst))


def primes():
    k = 2
    while True:
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            yield k
        k += 1


def powers_shares(n):
    # weights 2^(i mod 12), normalized: D = 4095 at n = 12
    weights = [2 ** (i % 12) for i in range(n)]
    return [Fraction(w, sum(weights)) for w in weights]


def coprime_shares(n):
    # agent i < n - 1 gets 1/(4(n - 1)) + 1/(1000 p_i), p_i the i-th prime,
    # and the last agent the rest: D has 48 bits at n = 12
    prime = primes()
    shares = [Fraction(1, 4 * (n - 1)) + Fraction(1, 1000 * next(prime)) for _ in range(n - 1)]
    return shares + [1 - sum(shares)]


@pytest.mark.parametrize("kind", ["goods", "chores"])
@pytest.mark.parametrize("shares", [powers_shares, coprime_shares])
def test_lottery_with_many_parts(kind, shares):
    # the part count grows with D, not with the instance: about 600 parts
    # at 12x60, where generated weights give about 60
    base = generate_instance(12, 60, kind, 43)
    inst = make(
        kind,
        list(base.items),
        [(a.name, share, list(a.ranking)) for a, share in zip(base.agents, shares(12))],
    )
    lottery = uniform_lottery(inst)
    assert len(lottery.entries) > 500
    assert_exact_lottery(inst, lottery)


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


def two_goods_lottery_file():
    # three parts, of probability 1/5, 2/5 and 2/5
    inst = generate_instance(2, 2, "goods", 1)
    return inst, lottery_to_json(inst, uniform_lottery(inst))


@pytest.mark.parametrize("probability", ["0", "-3"])
def test_lottery_file_with_a_probability_not_positive_is_rejected(probability):
    inst, data = two_goods_lottery_file()
    data["parts"][0]["probability"] = probability
    with pytest.raises(FormatError, match="not positive"):
        lottery_from_json(inst, data)


def test_lottery_file_whose_probabilities_do_not_sum_to_one_is_rejected():
    inst, data = two_goods_lottery_file()
    lottery_from_json(inst, data)
    for parts, total in ((data["parts"][:1], "1/5"), (data["parts"] * 2, "2"), ([], "0")):
        with pytest.raises(FormatError, match=f"sum to {total}, not 1"):
            lottery_from_json(inst, {"parts": parts})


def test_lottery_file_with_an_item_in_two_bundles_is_rejected():
    inst, data = two_goods_lottery_file()
    data["parts"][0]["allocation"] = {"a1": ["b1"], "a2": ["b1", "b2"]}
    with pytest.raises(FormatError, match=r"two bundles: \['b1'\]"):
        lottery_from_json(inst, data)


def test_lottery_file_with_a_chores_part_leaving_chores_out_is_rejected():
    inst = generate_instance(2, 3, "chores", 1)
    data = lottery_to_json(inst, uniform_lottery(inst))
    lottery_from_json(inst, data)
    data["parts"][0]["allocation"] = {"a1": [], "a2": []}
    with pytest.raises(FormatError, match=r"part 1 leaves chores unallocated: \['b1', 'b2', 'b3'\]"):
        lottery_from_json(inst, data)


def test_lottery_file_whose_mixture_is_not_the_entitlements_is_rejected():
    # each part is still a fair allocation and the probabilities still sum
    # to 1, but swapping two of them gives a1 4/5 of b2 where a1 is
    # entitled to 3/5
    inst, data = two_goods_lottery_file()
    first, second = data["parts"][:2]
    first["probability"], second["probability"] = second["probability"], first["probability"]
    with pytest.raises(FormatError, match="gives 'a1' 4/5 of 'b2', not its entitlement 3/5"):
        lottery_from_json(inst, data)
