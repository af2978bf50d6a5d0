"""Optimize linear objectives over the set of all fair allocations.

Perfect matchings of the extended allocation graph are exactly the fair
allocations, and the matching polytope is integral, so optimizing any
linear objective over fair allocations reduces to one exact min-cost
matching.  It runs on the plain graph seen from the item side: every item
is a row matched exactly once, and every real slot is a column of
capacity 1 carrying its agent's per-item cost.  For goods, an agent's q
spare slots are one column of capacity q with the same costs; a unit of
it left unused stands for a spare slot matched to a dummy good, so no
dummy items are built.  Goods must also fill every real slot, which a
constant taken off every real-slot edge enforces.  Chores need neither:
a matching of the plain graph that covers every chore is already fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .allocgraph import BipartiteGraph, build_allocation_graph, spare_slot_count
from .core import GOODS, FormatError, Instance, IntegralAllocation, parse_rational
from .matching import MatchingInternalError, assignment_min_cost

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


class IncompleteCostSpec(ValueError):
    """A cost value is missing for some (agent, item) pair."""


@dataclass(frozen=True)
class CostSpec:
    """Per (agent index, item) rational costs plus an optimization direction."""

    values: Mapping[tuple[int, str], Fraction]
    direction: str = MINIMIZE

    def value(self, agent: int, item: str) -> Fraction:
        return self.values[(agent, item)]


def optimize_allocation(
    instance: Instance, spec: CostSpec
) -> tuple[IntegralAllocation, Fraction]:
    """Best fair allocation for a linear objective, with its exact value.

    The objective of an allocation is the sum over real items of the
    owning agent's cost for that item; the optimum is taken over all fair
    allocations and the returned one always verifies.
    """
    if spec.direction not in (MINIMIZE, MAXIMIZE):
        raise ValueError(f"direction must be {MINIMIZE} or {MAXIMIZE}")
    missing = [
        (agent.name, item)
        for i, agent in enumerate(instance.agents)
        for item in instance.items
        if (i, item) not in spec.values
    ]
    if missing:
        raise IncompleteCostSpec(f"missing cost entries: {missing[:5]}")

    # one common denominator for the whole table, so the kernel sees ints
    exact = [[spec.values[(i, item)] for item in instance.items] for i in range(instance.n)]
    denom = math.lcm(*(x.denominator for row in exact for x in row))
    sign = -1 if spec.direction == MAXIMIZE else 1
    table = [[sign * x.numerator * (denom // x.denominator) for x in row] for row in exact]

    # items are the rows; the columns are the real slots, then for goods
    # one spare column per agent that takes up to q items
    plain = build_allocation_graph(instance)
    real, m = plain.left_count, instance.m
    labels = list(plain.left_labels)
    agent_of = [slot.agent for slot in plain.slots]
    capacity = [1] * real
    columns: list[list[int]] = [[] for _ in range(m)]
    for s, adj in enumerate(plain.adjacency):
        for j in adj:
            columns[j].append(s)
    q = spare_slot_count(instance) if instance.kind == GOODS else 0
    if q:
        labels += (f"s'[{i + 1}]" for i in range(instance.n))
        agent_of += range(instance.n)
        capacity += [q] * instance.n
        for column in columns:
            column += range(real, real + instance.n)
    # the kernel reads costs, not ranks, so the graph carries none
    graph = BipartiteGraph(
        left_labels=instance.items,
        right_labels=tuple(labels),
        adjacency=tuple(map(tuple, columns)),
        ranks=(),
    )
    # goods must fill every real slot: the offset exceeds the gap between
    # the raw costs of any two item-covering assignments, so taking it off
    # each real-slot edge makes the cheapest one fill as many real slots
    # as possible, which is all of them because a fair allocation exists
    offset = 0
    if instance.kind == GOODS:
        offset = 2 * m * max((abs(c) for row in table for c in row), default=0) + 1

    def edge_cost(item_idx: int, column: int) -> int:
        cost = table[agent_of[column]][item_idx]
        return cost - offset if column < real else cost

    match = assignment_min_cost(graph, edge_cost, capacity=capacity)
    if instance.kind == GOODS:
        filled = sum(column < real for _, column in match.pairs)
        if filled != real:
            raise MatchingInternalError(f"optimum fills {filled} of {real} real slots")
    bundles: list[set[str]] = [set() for _ in range(instance.n)]
    for item_idx, column in match.pairs:
        bundles[agent_of[column]].add(instance.items[item_idx])
    allocation = IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))
    owners = allocation.owner_map()
    objective = sum(
        (Fraction(spec.values[(owners[item], item)]) for item in instance.items),
        Fraction(0),
    )
    return allocation, objective


def parse_costs(text: str, instance: Instance, direction: str) -> CostSpec:
    """Parse the delimited cost file: one row per agent, one column per item.

    Rows follow instance agent order, columns instance item order; entries
    are rationals like ``3/4`` or integers, split on commas when present
    and on whitespace otherwise.  Blank lines and ``#`` comments are
    skipped, so an instance without items takes a file with no rows.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t.strip() for t in line.split(",")] if "," in line else line.split()
        rows.append(tokens)
    if instance.m == 0 and not rows:
        rows = [[] for _ in range(instance.n)]
    if len(rows) != instance.n:
        raise FormatError(f"expected {instance.n} cost rows, got {len(rows)}")
    values: dict[tuple[int, str], Fraction] = {}
    for i, tokens in enumerate(rows):
        if len(tokens) != instance.m:
            raise FormatError(
                f"cost row {i + 1} has {len(tokens)} entries, expected {instance.m}"
            )
        for item, token in zip(instance.items, tokens):
            values[(i, item)] = parse_rational(token)
    return CostSpec(values=values, direction=direction)
