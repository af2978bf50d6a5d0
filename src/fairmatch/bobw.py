"""Uniform lotteries: ex-ante envy-free, ex-post fair to within one item.

The pipeline realizes the fractional allocation that hands every agent an
``alpha_i`` share of every real item as a fractional perfect matching on
the extended allocation graph (slot ``l`` absorbs the items overlapping the
agent's ``l``-th interval, weighted ``alpha_i`` times the overlap length),
then decomposes that doubly stochastic matrix into permutation matrices.
Stripping dummy items from each permutation yields a lottery over complete
allocations, every one of which passes the bundle characterization, while
the exact mixture equals the uniform fractional allocation.

The weights are computed as integers over one common denominator and
become fractions only once, at the end; the decomposition receives them as
sparse ``{column: weight}`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .allocgraph import (
    AllocationGraph,
    build_allocation_graph,
    extend_allocation_graph,
)
from .core import (
    CHORES,
    FormatError,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    format_rational,
    parse_rational,
)
from .matching import bvn_decompose


class BobwInternalError(AssertionError):
    """A capacity or exactness invariant of the construction failed."""


@dataclass(frozen=True)
class FractionalMatching:
    """Edge weights of a fractional perfect matching on an extended graph."""

    weights: dict[tuple[int, int], Fraction]

    def rows(self, count: int) -> list[dict[int, Fraction]]:
        """The weights as one ``{item: weight}`` map per slot, items ascending."""
        rows: list[dict[int, Fraction]] = [{} for _ in range(count)]
        for (slot, j), w in sorted(self.weights.items()):
            rows[slot][j] = w
        return rows


@dataclass(frozen=True)
class Lottery:
    """Probability distribution over integral allocations; weights sum to 1."""

    entries: tuple[tuple[Fraction, IntegralAllocation], ...]

    def mixture(self, instance: Instance) -> FractionalAllocation:
        """Exact marginal share matrix implemented by the lottery."""
        shares = [
            [Fraction(0)] * instance.m for _ in range(instance.n)
        ]
        index = {item: j for j, item in enumerate(instance.items)}
        for weight, allocation in self.entries:
            for i, bundle in enumerate(allocation.bundles):
                for item in bundle:
                    shares[i][index[item]] += weight
        return FractionalAllocation(shares=tuple(tuple(row) for row in shares))


def build_fractional_matching(
    instance: Instance, graph: AllocationGraph
) -> FractionalMatching:
    """Weight each slot-item edge by alpha times the interval overlap.

    Real slot ``l`` of an agent takes the items overlapping interval ``l``;
    for goods the last interval's items go to the agent's first spare slot.
    Remaining slot capacity is filled with dummy items by a greedy
    northwest rule (slots in index order, dummies in index order), which
    makes the resulting doubly stochastic matrix reproducible.

    Every weight is computed as an integer over ``D``, the least common
    multiple of the entitlement denominators: with ``alpha = a/b``,
    interval ``l`` spans ``[(l-1)*b, min(l*b, m*a)]`` and the item at
    position ``pos`` spans ``[(pos-1)*a, pos*a]``, both in units of
    ``1/a``, and their overlap weighs ``overlap * D/b``.  The weights are
    wrapped into fractions once, at the end.
    """
    if not graph.extended:
        raise ValueError("fractional matching needs the extended graph")
    n, m = instance.n, instance.m
    denom = math.lcm(*(instance.entitlement(i).denominator for i in range(n)))
    item_index = {item: j for j, item in enumerate(instance.items)}
    slot_index: dict[tuple[int, int], int] = {}
    first_spare: dict[int, int] = {}
    for idx, slot in enumerate(graph.slots):
        if slot.spare:
            first_spare.setdefault(slot.agent, idx)
        else:
            slot_index[(slot.agent, slot.position)] = idx
    weights: dict[tuple[int, int], int] = {}

    for i in range(n):
        alpha = instance.entitlement(i)
        a, b = alpha.numerator, alpha.denominator
        scale = denom // b
        end = m * a
        count = -(-end // b)  # ceil(m * alpha) intervals tile [0, m]
        ranking = instance.agents[i].ranking
        for ell in range(1, count + 1):
            if instance.kind == CHORES or ell < count:
                slot = slot_index[(i, ell)]
            else:
                # goods: the last interval spills into the first spare slot
                slot = first_spare[i]
            lo, hi = (ell - 1) * b, min(ell * b, end)
            for pos in range(lo // a + 1, m + 1):
                item_lo = (pos - 1) * a
                if item_lo >= hi:
                    break
                overlap = min(pos * a, hi) - max(item_lo, lo)
                if overlap > 0:
                    key = (slot, item_index[ranking[pos - 1]])
                    weights[key] = weights.get(key, 0) + overlap * scale

    for slot, j in weights:
        if not graph.has_edge(slot, j):
            raise BobwInternalError(f"weight placed on a missing edge ({slot}, {j})")

    # fill remaining slot capacity with dummy items, northwest-corner style
    slot_room = [denom] * graph.left_count
    for (slot, _item), w in weights.items():
        slot_room[slot] -= w
    if any(room < 0 for room in slot_room):
        raise BobwInternalError("a slot absorbed more than one unit")
    if instance.kind != CHORES:
        for idx, slot in enumerate(graph.slots):
            if not slot.spare and slot_room[idx] != 0:
                raise BobwInternalError("a real goods slot was left unsaturated")
    dummy = graph.real_item_count
    dummy_room = denom
    for idx in range(graph.left_count):
        if instance.kind != CHORES and not graph.slots[idx].spare:
            continue
        while slot_room[idx] > 0:
            if dummy >= graph.right_count:
                raise BobwInternalError("ran out of dummy items during the fill")
            w = min(slot_room[idx], dummy_room)
            key = (idx, dummy)
            weights[key] = weights.get(key, 0) + w
            slot_room[idx] -= w
            dummy_room -= w
            if dummy_room == 0:
                dummy += 1
                dummy_room = denom

    # exactness: rows and columns must both sum to one
    col_sum = [0] * graph.right_count
    row_sum = [0] * graph.left_count
    for (slot, j), w in weights.items():
        row_sum[slot] += w
        col_sum[j] += w
    if any(s != denom for s in row_sum) or any(s != denom for s in col_sum):
        raise BobwInternalError("fractional matching is not doubly stochastic")
    return FractionalMatching(
        weights={key: Fraction(w, denom) for key, w in weights.items()}
    )


def uniform_lottery(instance: Instance) -> Lottery:
    """Lottery whose mixture gives every agent exactly alpha of every item.

    Builds the extended graph, the interval-based fractional perfect
    matching, decomposes it, and strips dummy items from every permutation.
    Permutations inducing the same allocation are merged (first-seen
    order), so the support is a set of distinct allocations.
    """
    graph = extend_allocation_graph(build_allocation_graph(instance), instance)
    # the weights go out of scope before the parts are merged, where memory peaks
    parts = bvn_decompose(build_fractional_matching(instance, graph).rows(graph.left_count))
    merged: dict[tuple[frozenset[str], ...], Fraction] = {}
    for weight, perm in parts:
        bundles: list[set[str]] = [set() for _ in range(instance.n)]
        for slot_idx, item_idx in enumerate(perm):
            if item_idx < graph.real_item_count:
                agent = graph.slots[slot_idx].agent
                bundles[agent].add(graph.right_labels[item_idx])
        key = tuple(frozenset(b) for b in bundles)
        merged[key] = merged.get(key, Fraction(0)) + weight
    entries = tuple(
        (weight, IntegralAllocation(bundles=key)) for key, weight in merged.items()
    )
    if sum((w for w, _ in entries), Fraction(0)) != 1:
        raise BobwInternalError("lottery weights do not sum to one")
    return Lottery(entries=entries)


# ---------------------------------------------------------------------------
# Lottery file format
# ---------------------------------------------------------------------------

def lottery_to_json(instance: Instance, lottery: Lottery) -> dict:
    order = {item: j for j, item in enumerate(instance.items)}
    return {
        "parts": [
            {
                "probability": format_rational(weight),
                "allocation": {
                    agent.name: sorted(allocation.bundles[i], key=order.__getitem__)
                    for i, agent in enumerate(instance.agents)
                },
            }
            for weight, allocation in lottery.entries
        ]
    }


def lottery_from_json(instance: Instance, data: object) -> Lottery:
    from .core import allocation_from_json

    if not isinstance(data, dict) or set(data) != {"parts"}:
        raise FormatError('lottery file must be an object with a "parts" array')
    if not isinstance(data["parts"], list):
        raise FormatError("parts must be an array")
    entries = []
    for part in data["parts"]:
        if not isinstance(part, dict) or set(part) != {"probability", "allocation"}:
            raise FormatError("each part needs exactly probability and allocation")
        weight = parse_rational(part["probability"])
        allocation = allocation_from_json(instance, part["allocation"])
        entries.append((weight, allocation))
    return Lottery(entries=tuple(entries))
