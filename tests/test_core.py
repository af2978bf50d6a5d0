"""Tests for the instance model, validation, intervals and generation."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from fairmatch.bobw import Lottery, lottery_from_json, lottery_to_json
from fairmatch.core import (
    FormatError,
    InstanceError,
    allocation_from_json,
    allocation_to_json,
    dump_instance,
    format_rational,
    generate_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    parse_json,
    parse_rational,
    validate_instance,
)
from fairmatch.core import IntegralAllocation
from fairmatch.oracle import interval_set


def make(kind, items, agents):
    return validate_instance(kind, items, agents)


def half_half_chores():
    return make(
        "chores",
        ["b1", "b2", "b3"],
        [
            ("a1", Fraction(1, 2), ["b1", "b2", "b3"]),
            ("a2", Fraction(1, 2), ["b1", "b2", "b3"]),
        ],
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_minimal_valid_instance():
    inst = half_half_chores()
    assert inst.n == 2 and inst.m == 3
    assert inst.position(0, "b1") == 1
    assert inst.position(1, "b3") == 3


def test_entitlement_sum_not_one():
    with pytest.raises(InstanceError) as err:
        make(
            "chores",
            ["b1"],
            [("a1", Fraction(1, 2), ["b1"]), ("a2", Fraction(1, 3), ["b1"])],
        )
    assert err.value.code == "EntitlementSumNotOne"


def test_zero_entitlement_rejected():
    with pytest.raises(InstanceError) as err:
        make(
            "goods",
            ["b1"],
            [("a1", Fraction(1), ["b1"]), ("a2", Fraction(0), ["b1"])],
        )
    assert err.value.code == "ZeroEntitlement"


def test_ranking_errors():
    with pytest.raises(InstanceError) as err:
        make("chores", ["b1", "b2"], [("a1", Fraction(1), ["b1", "b1"])])
    assert err.value.code == "DuplicateItemInRanking"
    with pytest.raises(InstanceError) as err:
        make("chores", ["b1", "b2"], [("a1", Fraction(1), ["b1"])])
    assert err.value.code == "MissingItemInRanking"
    with pytest.raises(InstanceError) as err:
        make("chores", ["b1"], [("a1", Fraction(1), ["b2"])])
    assert err.value.code == "MissingItemInRanking"


def test_ranking_errors_name_the_first_bad_item():
    # a ranking of the right length can hide a repeat behind an unknown item
    # or the other way round; the first bad item in ranking order is named
    items = ["b1", "b2", "b3"]
    with pytest.raises(InstanceError) as err:
        make("goods", items, [("a1", Fraction(1), ["b1", "b1", "zz"])])
    assert err.value.code == "DuplicateItemInRanking"
    assert str(err.value) == "agent 'a1' ranks item 'b1' twice"
    with pytest.raises(InstanceError) as err:
        make("goods", items, [("a1", Fraction(1), ["zz", "b1", "b1"])])
    assert err.value.code == "MissingItemInRanking"
    assert str(err.value) == "agent 'a1' ranks unknown item 'zz'"
    with pytest.raises(InstanceError) as err:
        make("goods", items, [("a1", Fraction(1), ["b3", "b1"])])
    assert str(err.value) == "agent 'a1' does not rank ['b2']"


def test_instance_json_rejects_non_string_names():
    data = instance_to_json(half_half_chores())
    data["items"][1] = 2
    with pytest.raises(FormatError, match="items must be an array of strings"):
        instance_from_json(data)
    data = instance_to_json(half_half_chores())
    data["agents"][1]["ranking"][2] = None
    with pytest.raises(FormatError, match="agent ranking must be an array of item names"):
        instance_from_json(data)


def test_duplicate_agent_name():
    with pytest.raises(InstanceError) as err:
        make(
            "goods",
            ["b1"],
            [("a", Fraction(1, 2), ["b1"]), ("a", Fraction(1, 2), ["b1"])],
        )
    assert err.value.code == "DuplicateAgentName"


def test_empty_agent_list():
    with pytest.raises(InstanceError) as err:
        make("chores", ["b1"], [])
    assert err.value.code == "EmptyAgentList"


def test_bad_kind():
    with pytest.raises(FormatError):
        make("tasks", ["b1"], [("a1", Fraction(1), ["b1"])])


# ---------------------------------------------------------------------------
# interval sets
# ---------------------------------------------------------------------------

def test_interval_set_half():
    inst = half_half_chores()
    iset = interval_set(inst, 0)
    assert iset.intervals == ((Fraction(0), Fraction(2)), (Fraction(2), Fraction(3)))


def test_interval_set_full_entitlement():
    inst = make("goods", ["b1", "b2", "b3", "b4"], [("a1", Fraction(1), ["b1", "b2", "b3", "b4"])])
    iset = interval_set(inst, 0)
    assert iset.count == 4
    assert all(hi - lo == 1 for lo, hi in iset.intervals)


def test_interval_set_third():
    inst = make(
        "chores",
        ["b1", "b2", "b3"],
        [
            ("a1", Fraction(1, 3), ["b1", "b2", "b3"]),
            ("a2", Fraction(2, 3), ["b1", "b2", "b3"]),
        ],
    )
    iset = interval_set(inst, 0)
    assert iset.intervals == ((Fraction(0), Fraction(3)),)


def test_interval_set_empty_for_no_items():
    inst = make("chores", [], [("a1", Fraction(1), [])])
    assert interval_set(inst, 0).count == 0


def test_intervals_tile_the_line():
    for seed in range(40):
        inst = generate_instance(1 + seed % 4, seed % 9, "chores", seed)
        for i in range(inst.n):
            iset = interval_set(inst, i)
            cursor = Fraction(0)
            for lo, hi in iset.intervals:
                assert lo == cursor
                assert hi > lo
                cursor = hi
            assert cursor == inst.m
            alpha = inst.entitlement(i)
            for lo, hi in iset.intervals[:-1]:
                assert hi - lo == 1 / alpha


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_single_agent_gets_everything():
    inst = generate_instance(1, 5, "goods", 7)
    assert inst.agents[0].entitlement == 1
    assert sorted(inst.agents[0].ranking) == sorted(inst.items)


def test_generate_deterministic():
    a = generate_instance(3, 6, "chores", 1)
    b = generate_instance(3, 6, "chores", 1)
    assert a == b
    assert dump_instance(a) == dump_instance(b)


def test_generate_empty_items():
    inst = generate_instance(2, 0, "goods", 0)
    assert inst.m == 0
    assert sum(a.entitlement for a in inst.agents) == 1


def test_generate_entitlements_sum_to_one():
    for seed in range(25):
        inst = generate_instance(1 + seed % 6, 4, "goods", seed)
        assert sum(a.entitlement for a in inst.agents) == 1
        assert all(a.entitlement > 0 for a in inst.agents)


# ---------------------------------------------------------------------------
# rationals and file formats
# ---------------------------------------------------------------------------

def test_rational_round_trip():
    rng = random.Random(0)
    samples = [Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(22, 6)]
    samples += [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(50)]
    for r in samples:
        assert parse_rational(format_rational(r)) == r


def test_parse_rational_rejects_garbage():
    # int() alone takes underscores, signs, spaces and non-ASCII digits
    for bad in ("", "x", "1/0", "1.5", "1/2/3", "1_0/2_0", " +1/2", "+1", "1 ",
                "\uff11/\uff12", "1/-2", "--1", "1/", "/2"):
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_instance_json_round_trip():
    inst = generate_instance(3, 5, "goods", 11)
    again = instance_from_json(instance_to_json(inst))
    assert again == inst
    assert load_instance(dump_instance(inst)) == inst


def test_instance_json_strictness():
    data = instance_to_json(half_half_chores())
    data["note"] = "extra"
    with pytest.raises(FormatError):
        instance_from_json(data)
    data = instance_to_json(half_half_chores())
    data["agents"][0]["color"] = "red"
    with pytest.raises(FormatError):
        instance_from_json(data)
    data = instance_to_json(half_half_chores())
    del data["items"]
    with pytest.raises(FormatError):
        instance_from_json(data)


def test_allocation_json_round_trip():
    inst = half_half_chores()
    alloc = IntegralAllocation(
        bundles=(frozenset({"b1", "b3"}), frozenset({"b2"}))
    )
    data = allocation_to_json(inst, alloc)
    assert data == {"a1": ["b1", "b3"], "a2": ["b2"]}
    assert allocation_from_json(inst, data) == alloc
    # the wrapped form emitted by solve --seq is accepted too
    wrapped = {"allocation": data, "sequence": ["a1", "a2", "a1"]}
    assert allocation_from_json(inst, wrapped) == alloc


def test_allocation_json_reads_an_agent_named_allocation():
    # a bare map's bundles are arrays; only an object under "allocation"
    # is the wrapped form
    inst = make("chores", ["b1", "b2"], [
        ("allocation", Fraction(1, 2), ["b1", "b2"]),
        ("sequence", Fraction(1, 2), ["b2", "b1"]),
    ])
    alloc = IntegralAllocation(bundles=(frozenset({"b2"}), frozenset({"b1"})))
    data = allocation_to_json(inst, alloc)
    assert data == {"allocation": ["b2"], "sequence": ["b1"]}
    assert allocation_from_json(inst, data) == alloc
    assert allocation_from_json(inst, {"allocation": data, "sequence": ["sequence"]}) == alloc


def _files(st):
    """An instance of either kind, n <= 4 and m <= 12, named with quotes,
    backslashes and non-ASCII text; an allocation of it (goods may be
    left over); and a lottery whose mixture is the entitlements."""
    names = st.text(
        st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\'/é日 '),
        max_size=6,
    ) | st.just("allocation")

    @st.composite
    def files(draw):
        items = draw(st.lists(names, max_size=12, unique=True))
        agents = draw(st.lists(names, min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 10**6), min_size=len(agents), max_size=len(agents)))
        inst = make(draw(st.sampled_from(["goods", "chores"])), items, [
            (name, Fraction(w, sum(weights)), draw(st.permutations(items)))
            for name, w in zip(agents, weights)
        ])
        # an owner of -1 leaves a good unallocated
        agent_index = st.integers(-1 if inst.kind == "goods" else 0, inst.n - 1)

        def allocation():
            owners = draw(st.lists(agent_index, min_size=inst.m, max_size=inst.m))
            return IntegralAllocation(bundles=tuple(
                frozenset(item for item, owner in zip(items, owners) if owner == i)
                for i in range(inst.n)
            ))

        def lottery():
            # each item cuts [0, 1] into its agents' entitlements, in an
            # order of its own; each piece between two cuts of any item is
            # one part, giving every item to the agent whose share covers it
            orders = [draw(st.permutations(range(inst.n))) for _ in items]
            cuts = {Fraction(0), Fraction(1)}
            for order in orders:
                cuts.update(itertools.accumulate(inst.entitlement(i) for i in order))
            cuts = sorted(cuts)
            entries = []
            for low, high in zip(cuts, cuts[1:]):
                bundles = [set() for _ in range(inst.n)]
                for item, order in zip(items, orders):
                    ends = itertools.accumulate(inst.entitlement(i) for i in order)
                    bundles[next(i for i, end in zip(order, ends) if end > low)].add(item)
                entries.append((high - low, IntegralAllocation(bundles=tuple(map(frozenset, bundles)))))
            return Lottery(entries=tuple(entries))

        return inst, allocation(), lottery()

    return files()


def test_files_round_trip_with_any_names():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(case=_files(st))
    def check(case):
        inst, alloc, lottery = case
        assert load_instance(dump_instance(inst)) == inst
        data = allocation_to_json(inst, alloc)
        assert allocation_from_json(inst, data) == alloc
        assert allocation_from_json(inst, parse_json(json.dumps(data, indent=2))) == alloc
        text = json.dumps(lottery_to_json(inst, lottery), indent=2)
        assert lottery_from_json(inst, json.loads(text)) == lottery

    check()


def test_allocation_json_rejects_unknown_names():
    inst = half_half_chores()
    with pytest.raises(FormatError):
        allocation_from_json(inst, {"a9": ["b1"]})
    with pytest.raises(FormatError):
        allocation_from_json(inst, {"a1": ["zz"]})
