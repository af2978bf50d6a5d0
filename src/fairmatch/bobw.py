"""Uniform lotteries: ex-ante envy-free, ex-post fair to within one item.

The pipeline realizes the fractional allocation that hands every agent an
``alpha_i`` share of every real item as a fractional perfect matching on
the extended allocation graph (slot ``l`` absorbs the items overlapping the
agent's ``l``-th interval, weighted ``alpha_i`` times the overlap length),
then decomposes that doubly stochastic matrix into permutation matrices.
Stripping dummy items from each permutation yields a lottery over complete
allocations, every one of which passes the bundle characterization, while
the exact mixture equals the uniform fractional allocation.

The lottery decomposes only the rows that carry real weight: every chores
slot, and each goods agent's real slots plus its first spare slot, their
slack filled with dummy columns.  The other goods spare slots would hold
dummy weight only, and they can take the remaining dummies in any
permutation, so nothing is lost.  The weights are integers over the least
common multiple of the entitlement denominators from the interval
arithmetic to the end of the decomposition, and each becomes a fraction
with its part: every permutation is a part of its own, since no two give
the same allocation (see :func:`uniform_lottery`).
:func:`build_fractional_matching` shares that arithmetic and gives the
full extended graph's weights as fractions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .allocgraph import AllocationGraph, slot_reaches
from .core import (
    CHORES,
    FormatError,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InternalError,
    _allocations_to_json,
    allocation_from_json,
    format_rational,
    parse_rational,
)
from .matching import bvn_decompose


@dataclass(frozen=True)
class FractionalMatching:
    """Edge weights of a fractional perfect matching on an extended graph."""

    weights: dict[tuple[int, int], Fraction]


@dataclass(frozen=True)
class Lottery:
    """Probability distribution over integral allocations; weights sum to 1."""

    entries: tuple[tuple[Fraction, IntegralAllocation], ...]

    def mixture(self, instance: Instance) -> FractionalAllocation:
        """Exact marginal share matrix implemented by the lottery, summed
        as integers over the weights' common denominator."""
        denominator = math.lcm(*(weight.denominator for weight, _ in self.entries))
        shares = [[0] * instance.m for _ in range(instance.n)]
        index = {item: j for j, item in enumerate(instance.items)}
        for weight, allocation in self.entries:
            w = weight.numerator * (denominator // weight.denominator)
            for row, bundle in zip(shares, allocation.bundles):
                for item in bundle:
                    row[index[item]] += w
        return FractionalAllocation(
            shares=tuple(tuple(Fraction(x, denominator) for x in row) for row in shares)
        )


def _interval_rows(instance: Instance, denom: int) -> Iterator[list[dict[int, int]]]:
    """Each agent's interval weights, one ``{item: weight}`` row per weighted slot.

    Yields one list of rows per agent, in agent order.  Row ``l - 1``
    takes the items overlapping the agent's interval ``l``, each weighted
    alpha times the overlap, as an integer over ``denom``, a common
    multiple of the entitlement denominators: with ``alpha = a/b``,
    interval ``l`` spans ``[(l-1)*b, min(l*b, m*a)]`` and the item at
    position ``pos`` spans ``[(pos-1)*a, pos*a]``, both in units of
    ``1/a``, and their overlap weighs ``overlap * denom/b``.  The
    ``ceil(m*alpha)`` intervals tile ``[0, m]``.

    Chores get one row per slot, empty past the last interval.  Goods get
    one row per real slot, each saturated, plus one for the agent's first
    spare slot, which takes the last interval and reaches every good;
    the other spare slots would hold only dummy weight and get no row.
    Every weight lies within its slot's reach (see
    :func:`~fairmatch.allocgraph.slot_reaches`), or construction fails.
    """
    m = instance.m
    chores = instance.kind == CHORES
    for agent, (best_first, reaches) in zip(instance.agents, slot_reaches(instance)):
        if not chores:
            reaches += (m,)
        a, b = agent.entitlement.numerator, agent.entitlement.denominator
        scale, end = denom // b, m * a
        rows: list[dict[int, int]] = [{} for _ in reaches]
        for ell in range(1, -(-end // b) + 1):
            row, reach = rows[ell - 1], reaches[ell - 1]
            lo, hi = (ell - 1) * b, min(ell * b, end)
            for pos in range(lo // a + 1, m + 1):
                item_lo = (pos - 1) * a
                if item_lo >= hi:
                    break
                # index of the item in best-first order
                k = m - pos if chores else pos - 1
                if k >= reach:
                    raise InternalError(f"weight placed beyond a slot's reach ({agent.name})")
                row[best_first[k]] = (min(pos * a, hi) - max(item_lo, lo)) * scale
        if not chores and any(sum(row.values()) != denom for row in rows[:-1]):
            raise InternalError("a real goods slot was left unsaturated")
        yield rows


def _fill_northwest(rows: list[dict[int, int]], first_dummy: int, denom: int) -> None:
    """Fill each row up to ``denom`` with dummy columns, northwest-corner style.

    Rows in order take the dummy columns ``first_dummy, first_dummy + 1,
    ...`` in order, each column filled to ``denom`` before the next one
    opens, which makes the doubly stochastic matrix reproducible.  The
    matrix is square; every row and column must sum to ``denom``.
    """
    dummy, room = first_dummy, denom
    for row in rows:
        slack = denom - sum(row.values())
        if slack < 0:
            raise InternalError("a slot absorbed more than one unit")
        while slack:
            if dummy >= len(rows):
                raise InternalError("ran out of dummy items during the fill")
            w = min(slack, room)
            row[dummy] = w
            slack -= w
            room -= w
            if not room:
                dummy, room = dummy + 1, denom
    column_sums = [0] * len(rows)
    for row in rows:
        for j, w in row.items():
            column_sums[j] += w
    if any(total != denom for total in column_sums):
        raise InternalError("fractional matching is not doubly stochastic")


def _common_denominator(instance: Instance) -> int:
    return math.lcm(*(agent.entitlement.denominator for agent in instance.agents))


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
    multiple of the entitlement denominators (see :func:`_interval_rows`,
    which :func:`uniform_lottery` shares), and wrapped into a fraction
    once, at the end.
    """
    if not graph.extended:
        raise ValueError("fractional matching needs the extended graph")
    denom = _common_denominator(instance)
    # a goods agent's first spare slot sits at the position after its real slots
    slot_index = {(slot.agent, slot.position): idx for idx, slot in enumerate(graph.slots)}
    rows: list[dict[int, int]] = [{} for _ in range(graph.left_count)]
    for i, agent_rows in enumerate(_interval_rows(instance, denom)):
        for position, row in enumerate(agent_rows, start=1):
            rows[slot_index[i, position]] = row
    _fill_northwest(rows, graph.real_item_count, denom)
    return FractionalMatching(
        weights={
            (slot, j): Fraction(w, denom)
            for slot, row in enumerate(rows)
            for j, w in row.items()
        }
    )


def uniform_lottery(instance: Instance) -> Lottery:
    """Lottery whose mixture gives every agent exactly alpha of every item.

    Decomposes the interval weights of the rows that carry real weight
    (every chores slot; each goods real slot and first spare slot), their
    slack filled with ``rows - m`` dummy columns, and strips the dummy
    items from every permutation.  No graph is built: every permutation
    extends to a perfect matching of the extended graph, since its other
    goods spare slots reach every dummy, so each allocation is fair.  The
    weights stay integers over the common denominator through the
    decomposition, and each becomes a fraction with its part.

    Parts are rounds: each permutation gives its own part, in round order,
    and no two parts are the same allocation.  Two permutations of the
    support that gave one allocation would differ by cycles in the
    support, each real column joining two rows of one agent, since the
    item keeps its agent; a dummy column may join any two rows.  No such
    cycle exists:

    * each agent's interval rows form a staircase (rows ``l`` and ``l + 1``
      share at most the item straddling their boundary), so its real
      support is a forest;
    * :func:`_fill_northwest` is a staircase too, so the dummy support is
      a forest;
    * a cycle through both would leave an agent's real support at one of
      its rows with real weight and slack and re-enter it at another, but
      each agent has at most one such row: the first spare slot for
      goods, the last partial row for chores.

    A round zeroes one of its own entries, so no permutation recurs.
    """
    denom = _common_denominator(instance)
    rows: list[dict[int, int]] = []
    owners: list[int] = []
    for i, agent_rows in enumerate(_interval_rows(instance, denom)):
        rows += agent_rows
        owners += [i] * len(agent_rows)
    _fill_northwest(rows, instance.m, denom)
    parts = bvn_decompose(rows, denom)
    if sum(weight for weight, _ in parts) != denom:
        raise InternalError("lottery weights do not sum to one")
    items, m = instance.items, instance.m
    entries = []
    for weight, perm in parts:
        bundles: list[list[str]] = [[] for _ in range(instance.n)]
        for row, j in enumerate(perm):
            if j < m:
                bundles[owners[row]].append(items[j])
        allocation = IntegralAllocation(bundles=tuple(map(frozenset, bundles)))
        entries.append((Fraction(weight, denom), allocation))
    return Lottery(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Lottery file format
# ---------------------------------------------------------------------------

def lottery_to_json(instance: Instance, lottery: Lottery) -> dict:
    allocations = _allocations_to_json(instance, (a for _, a in lottery.entries))
    return {
        "parts": [
            {"probability": format_rational(weight), "allocation": allocation}
            for (weight, _), allocation in zip(lottery.entries, allocations)
        ]
    }


def lottery_from_json(instance: Instance, data: object) -> Lottery:
    """Parse a lottery file.  Every probability must be positive, they
    must sum to exactly 1, no item may sit in two bundles of one part, no
    chores part may leave a chore out, and the mixture must give every
    agent its entitlement of every item; otherwise :class:`FormatError`
    is raised."""
    if not isinstance(data, dict) or set(data) != {"parts"}:
        raise FormatError('lottery file must be an object with a "parts" array')
    if not isinstance(data["parts"], list):
        raise FormatError("parts must be an array")
    entries = []
    for number, part in enumerate(data["parts"], start=1):
        if not isinstance(part, dict) or set(part) != {"probability", "allocation"}:
            raise FormatError("each part needs exactly probability and allocation")
        weight = parse_rational(part["probability"])
        if weight <= 0:
            raise FormatError(f"part {number} has probability {part['probability']}, not positive")
        allocation = allocation_from_json(instance, part["allocation"])
        held = Counter(item for bundle in allocation.bundles for item in bundle)
        shared = [item for item in instance.items if held[item] > 1]
        if shared:
            raise FormatError(f"part {number} puts items in two bundles: {shared}")
        if instance.kind == CHORES and len(held) < instance.m:
            missing = [item for item in instance.items if item not in held]
            raise FormatError(f"part {number} leaves chores unallocated: {missing}")
        entries.append((weight, allocation))
    total = sum((weight for weight, _ in entries), Fraction(0))
    if total != 1:
        raise FormatError(f"probabilities sum to {format_rational(total)}, not 1")
    lottery = Lottery(entries=tuple(entries))
    for agent, row in zip(instance.agents, lottery.mixture(instance).shares):
        for item, share in zip(instance.items, row):
            if share != agent.entitlement:
                raise FormatError(
                    f"the mixture gives {agent.name!r} {format_rational(share)} of"
                    f" {item!r}, not its entitlement {format_rational(agent.entitlement)}"
                )
    return lottery
