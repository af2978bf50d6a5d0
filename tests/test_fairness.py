"""Tests for the fairness checkers, oracles and simulators."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fairmatch.allocgraph import build_allocation_graph
from fairmatch.core import (
    FractionalAllocation,
    IntegralAllocation,
    generate_instance,
    validate_instance,
)
from fairmatch.fairness import (
    IncompleteChoresSequence,
    MalformedAllocation,
    SequenceTooLongForItems,
    check_allocation,
    check_bundle,
    render_report,
    simulate_picking_sequence,
)
from fairmatch.oracle import (
    InstanceTooLarge,
    NegativeValue,
    allocation_from_matching,
    check_wprop1_cardinal,
    check_wsdef_fractional,
    enumerate_side_perfect_matchings,
    enumerate_wsdprop1,
    step_valuation_oracle,
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


def identical(kind, n, m, entitlements=None):
    items = [f"b{j + 1}" for j in range(m)]
    entitlements = entitlements or [Fraction(1, n)] * n
    return make(
        kind,
        items,
        [(f"a{i + 1}", entitlements[i], items) for i in range(n)],
    )


# ---------------------------------------------------------------------------
# bundle checks
# ---------------------------------------------------------------------------

def test_check_bundle_count_violation():
    report = check_bundle(e1(), 0, {"b1", "b2", "b3"})
    assert not report.passes
    assert report.condition == "CountBound"
    assert report.witness.threshold == 3  # the all-ones valuation


def test_check_bundle_passes():
    report = check_bundle(e1(), 0, {"b2", "b3"})
    assert report.passes
    assert report.condition is None


def test_check_bundle_goods_rank_violation():
    inst = identical("goods", 2, 4)
    report = check_bundle(inst, 0, {"b4"})
    assert not report.passes
    assert report.condition == "RankBound" and report.position == 1
    assert report.witness.threshold == 3


def test_check_bundle_full_entitlement_accepts_anything():
    inst = identical("chores", 1, 4)
    for size in range(5):
        bundle = {f"b{j + 1}" for j in range(size)}
        assert check_bundle(inst, 0, bundle).passes


def test_empty_bundle_rules():
    # chores: an empty bundle always passes; goods: only when the agent is
    # owed no slots at all
    chores = identical("chores", 2, 3)
    assert check_bundle(chores, 0, set()).passes
    goods_small = identical("goods", 2, 3)  # ceil(1.5) - 1 = 1 slot owed
    assert not check_bundle(goods_small, 0, set()).passes
    goods_tiny = make(
        "goods",
        ["b1", "b2", "b3"],
        [
            ("a1", Fraction(1, 3), ["b1", "b2", "b3"]),
            ("a2", Fraction(2, 3), ["b1", "b2", "b3"]),
        ],
    )
    assert check_bundle(goods_tiny, 0, set()).passes


# ---------------------------------------------------------------------------
# allocation checks and fixtures
# ---------------------------------------------------------------------------

def test_identical_chores_fixture_passes():
    # two agents, three chores, identical rankings, equal halves; bundles
    # {b1, b3} and {b2} satisfy both bundle conditions
    inst = identical("chores", 2, 3)
    alloc = IntegralAllocation(bundles=(frozenset({"b1", "b3"}), frozenset({"b2"})))
    report = check_allocation(inst, alloc)
    assert report.passes


def test_all_to_one_chores_fails_count():
    inst = identical("chores", 2, 3)
    alloc = IntegralAllocation(bundles=(frozenset({"b1", "b2", "b3"}), frozenset()))
    report = check_allocation(inst, alloc)
    assert not report.passes
    assert report.reports[0].condition == "CountBound"
    text = render_report(inst, report)
    assert "CountBound" in text and "overall: FAIL" in text


def test_single_agent_goods_all_items_pass():
    inst = identical("goods", 1, 3)
    alloc = IntegralAllocation(bundles=(frozenset({"b1", "b2", "b3"}),))
    assert check_allocation(inst, alloc).passes


def test_one_good_each_under_identical_rankings():
    # three agents, three goods, identical rankings: every permutation
    # allocation of one good per agent is fair
    inst = identical("goods", 3, 3)
    for perm in itertools.permutations(["b1", "b2", "b3"]):
        alloc = IntegralAllocation(bundles=tuple(frozenset({b}) for b in perm))
        assert check_allocation(inst, alloc).passes


def test_malformed_allocations_rejected():
    inst = identical("chores", 2, 3)
    with pytest.raises(MalformedAllocation):
        check_allocation(
            inst,
            IntegralAllocation(bundles=(frozenset({"b1", "b2"}), frozenset({"b2", "b3"}))),
        )
    with pytest.raises(MalformedAllocation):
        check_allocation(
            inst, IntegralAllocation(bundles=(frozenset({"b1"}), frozenset({"b2"})))
        )
    with pytest.raises(MalformedAllocation):
        check_allocation(inst, IntegralAllocation(bundles=(frozenset({"b1"}),)))


# ---------------------------------------------------------------------------
# step-valuation oracle and equivalence
# ---------------------------------------------------------------------------

def test_oracle_examples():
    inst = e1()
    assert step_valuation_oracle(inst, 0, {"b2", "b3"})
    assert not step_valuation_oracle(inst, 0, {"b1", "b2", "b3"})
    assert step_valuation_oracle(inst, 0, set())


def test_oracle_equivalence_identity_rankings():
    # positions are all that matter, so identity rankings cover the space
    entitlement_grids = {
        1: [(Fraction(1),)],
        2: [
            (Fraction(k, 6), Fraction(6 - k, 6)) for k in range(1, 6)
        ],
        3: [
            (Fraction(a, 6), Fraction(b, 6), Fraction(6 - a - b, 6))
            for a in range(1, 5)
            for b in range(1, 6 - a)
        ],
    }
    for kind in ("chores", "goods"):
        for n, grids in entitlement_grids.items():
            for grid in grids:
                for m in range(0, 5):
                    inst = identical(kind, n, m, entitlements=list(grid))
                    items = list(inst.items)
                    for i in range(n):
                        for size in range(m + 1):
                            for bundle in itertools.combinations(items, size):
                                lhs = check_bundle(inst, i, set(bundle)).passes
                                rhs = step_valuation_oracle(inst, i, set(bundle))
                                assert lhs == rhs, (kind, grid, m, i, bundle)


def test_oracle_equivalence_random_rankings():
    rng = random.Random(17)
    for seed in range(25):
        kind = "chores" if seed % 2 else "goods"
        inst = generate_instance(1 + seed % 3, 1 + seed % 6, kind, seed)
        items = list(inst.items)
        for i in range(inst.n):
            for _ in range(12):
                bundle = {b for b in items if rng.random() < 0.5}
                assert (
                    check_bundle(inst, i, bundle).passes
                    == step_valuation_oracle(inst, i, bundle)
                )


def test_failed_checks_carry_verifiable_witnesses():
    rng = random.Random(19)
    for seed in range(25):
        kind = "chores" if seed % 2 else "goods"
        inst = generate_instance(1 + seed % 3, 1 + seed % 6, kind, seed)
        for i in range(inst.n):
            for _ in range(10):
                bundle = {b for b in inst.items if rng.random() < 0.5}
                report = check_bundle(inst, i, bundle)
                if report.passes:
                    continue
                values = report.witness.values(inst, i)
                assert not check_wprop1_cardinal(
                    inst.kind, bundle, values, inst.entitlement(i)
                )


def fraction_check_bundle(inst, i, bundle):
    """The bundle conditions in exact rationals: (passes, condition, l, threshold)."""
    alpha = inst.entitlement(i)
    positions = sorted(inst.position(i, b) for b in bundle)
    if inst.kind == "chores":
        if len(positions) > math.floor(inst.m * alpha) + 1:
            return False, "CountBound", None, inst.m
        for ell, r in enumerate(positions, start=1):
            bound = math.ceil(Fraction(ell - 1) / alpha)
            if r < bound:
                return False, "RankBound", ell, bound - 1
    else:
        if len(positions) < math.ceil(inst.m * alpha) - 1:
            return False, "CountBound", None, inst.m
        for ell, r in enumerate(positions, start=1):
            bound = math.floor(Fraction(ell) / alpha) + 1
            if r > bound:
                return False, "RankBound", ell, bound
    return True, None, None, None


def test_check_allocation_reports_equal_per_bundle_checks():
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    for seed in range(60):
        kind = "chores" if seed % 2 else "goods"
        inst = generate_instance(1 + seed % 7, seed % 25, kind, seed)
        for _ in range(8):
            owners = [rng.randrange(inst.n) for _ in inst.items]
            if kind == "goods" and rng.random() < 0.5:
                # leave some goods out: goods allocations may be partial
                owners = [a if rng.random() < 0.7 else None for a in owners]
            bundles = tuple(
                frozenset(b for b, a in zip(inst.items, owners) if a == i)
                for i in range(inst.n)
            )
            report = check_allocation(inst, IntegralAllocation(bundles=bundles))
            for i, entry in enumerate(report.reports):
                single = check_bundle(inst, i, bundles[i])
                assert entry == single
                threshold = entry.witness.threshold if entry.witness else None
                assert (
                    entry.passes, entry.condition, entry.position, threshold
                ) == fraction_check_bundle(inst, i, bundles[i])
                verdicts[entry.passes] += 1
            assert report.passes == all(r.passes for r in report.reports)
    assert min(verdicts.values()) >= 200, verdicts


# ---------------------------------------------------------------------------
# cardinal checks
# ---------------------------------------------------------------------------

def test_cardinal_chores_single_worst_chore():
    values = {"b1": Fraction(1), "b2": Fraction(1), "b3": Fraction(1)}
    assert check_wprop1_cardinal("chores", {"b3"}, values, Fraction(1, 2))


def test_cardinal_goods_empty_bundle():
    values = {"b1": Fraction(1), "b2": Fraction(1, 10), "b3": Fraction(0)}
    assert check_wprop1_cardinal("goods", set(), values, Fraction(1, 2))


def test_cardinal_chores_whole_bundle_fails():
    values = {"b1": Fraction(1), "b2": Fraction(1), "b3": Fraction(1)}
    assert not check_wprop1_cardinal(
        "chores", {"b1", "b2", "b3"}, values, Fraction(1, 2)
    )


def test_cardinal_rejects_negative_values():
    with pytest.raises(NegativeValue):
        check_wprop1_cardinal("goods", set(), {"b1": Fraction(-1)}, Fraction(1))


# ---------------------------------------------------------------------------
# picking-sequence simulation
# ---------------------------------------------------------------------------

def test_simulate_fig2_preferences():
    inst = make(
        "goods",
        ["b1", "b2", "b3", "b4"],
        [
            ("a1", Fraction(1, 4), ["b2", "b1", "b3", "b4"]),
            ("a2", Fraction(1, 4), ["b1", "b2", "b3", "b4"]),
            ("a3", Fraction(1, 4), ["b4", "b3", "b1", "b2"]),
            ("a4", Fraction(1, 4), ["b2", "b4", "b1", "b3"]),
        ],
    )
    alloc = simulate_picking_sequence(inst, [0, 1, 3, 2])
    assert alloc.bundles == (
        frozenset({"b2"}),
        frozenset({"b1"}),
        frozenset({"b3"}),
        frozenset({"b4"}),
    )


def test_simulate_single_agent():
    inst = identical("goods", 1, 3)
    alloc = simulate_picking_sequence(inst, [0, 0, 0])
    assert alloc.bundles[0] == frozenset({"b1", "b2", "b3"})


def test_simulate_chores_picks_least_disliked_first():
    alloc = simulate_picking_sequence(e1(), [0, 1, 0])
    # a1 takes b3 (its most preferred chore), a2 then b2, a1 finally b1
    assert alloc.bundles == (frozenset({"b1", "b3"}), frozenset({"b2"}))


def test_simulate_length_errors():
    with pytest.raises(SequenceTooLongForItems):
        simulate_picking_sequence(e1(), [0, 1, 0, 1])
    with pytest.raises(IncompleteChoresSequence):
        simulate_picking_sequence(e1(), [0])
    goods = identical("goods", 2, 3)
    partial = simulate_picking_sequence(goods, [0])
    assert partial.bundles == (frozenset({"b1"}), frozenset())


# ---------------------------------------------------------------------------
# fractional envy-freeness
# ---------------------------------------------------------------------------

def test_wsdef_uniform_allocation_always_passes():
    for seed in range(20):
        for kind in ("chores", "goods"):
            inst = generate_instance(1 + seed % 4, 1 + seed % 6, kind, seed)
            shares = tuple(
                tuple(inst.entitlement(i) for _ in range(inst.m))
                for i in range(inst.n)
            )
            assert check_wsdef_fractional(inst, FractionalAllocation(shares=shares))


def test_wsdef_detects_envy():
    # one favorite good fully to agent 1, the other two goods to agent 2:
    # at the full prefix agent 1 holds 1 unit against agent 2's 2 units
    inst = identical("goods", 2, 3)
    shares = (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(1)),
    )
    assert not check_wsdef_fractional(inst, FractionalAllocation(shares=shares))


def test_wsdef_single_agent_vacuous():
    inst = identical("goods", 1, 2)
    shares = ((Fraction(1), Fraction(1)),)
    assert check_wsdef_fractional(inst, FractionalAllocation(shares=shares))


def test_wsdef_rejects_bad_columns():
    inst = identical("goods", 2, 2)
    shares = (
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(0)),
    )
    with pytest.raises(MalformedAllocation):
        check_wsdef_fractional(inst, FractionalAllocation(shares=shares))


# ---------------------------------------------------------------------------
# enumeration and the matching cross-check
# ---------------------------------------------------------------------------

def test_enumerate_e1_has_six_allocations():
    found = enumerate_wsdprop1(e1())
    assert len(found) == 6
    assert all(sorted(map(len, a.bundles)) == [1, 2] for a in found)


def test_enumerate_single_agent():
    inst = identical("chores", 1, 3)
    assert len(enumerate_wsdprop1(inst)) == 1


def test_enumerate_contains_one_good_per_agent_allocations():
    inst = identical("goods", 3, 3)
    found = {a.bundles for a in enumerate_wsdprop1(inst)}
    for perm in itertools.permutations(["b1", "b2", "b3"]):
        assert tuple(frozenset({b}) for b in perm) in found


def test_enumerate_cap():
    inst = identical("chores", 3, 3)
    with pytest.raises(InstanceTooLarge):
        enumerate_wsdprop1(inst, cap=10)


def test_chores_matchings_equal_enumeration():
    for seed in range(16):
        inst = generate_instance(1 + seed % 3, 1 + seed % 5, "chores", seed)
        graph = build_allocation_graph(inst)
        matchings = enumerate_side_perfect_matchings(graph, saturate="right")
        via_matchings = {
            allocation_from_matching(m, graph, inst).bundles for m in matchings
        }
        via_conditions = {a.bundles for a in enumerate_wsdprop1(inst)}
        assert via_matchings == via_conditions


def test_chores_pass_is_monotone_under_rank_improvement():
    # replacing a chore by one the agent minds less never breaks a passing bundle
    rng = random.Random(23)
    for seed in range(20):
        inst = generate_instance(1 + seed % 3, 2 + seed % 5, "chores", seed)
        for i in range(inst.n):
            ranking = list(inst.agents[i].ranking)
            for _ in range(10):
                bundle = {b for b in ranking if rng.random() < 0.4}
                if not check_bundle(inst, i, bundle).passes or not bundle:
                    continue
                worst = min(bundle, key=lambda b: inst.position(i, b))
                better_pool = [
                    b
                    for b in ranking
                    if b not in bundle
                    and inst.position(i, b) > inst.position(i, worst)
                ]
                if not better_pool:
                    continue
                swapped = (bundle - {worst}) | {rng.choice(better_pool)}
                assert check_bundle(inst, i, swapped).passes
