"""Optimize linear objectives over the set of all fair allocations.

Perfect matchings of the extended allocation graph are exactly the fair
allocations, and the matching polytope is integral, so optimizing any
linear objective over fair allocations reduces to one exact assignment
solve: every slot of an agent carries that agent's per-item cost, dummy
edges cost zero.  Spare-slot edges (goods) carry the same per-item cost,
since a good matched to a spare slot still ends up with that agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .allocgraph import build_allocation_graph, extend_allocation_graph
from .core import FormatError, Instance, IntegralAllocation, parse_rational
from .matching import allocation_from_matching, assignment_min_cost

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
    table = [[x.numerator * (denom // x.denominator) for x in row] for row in exact]
    graph = extend_allocation_graph(build_allocation_graph(instance), instance)
    slots, m = graph.slots, instance.m

    def edge_cost(slot_idx: int, item_idx: int) -> int:
        if item_idx >= m:
            return 0  # dummy item
        return table[slots[slot_idx].agent][item_idx]

    match = assignment_min_cost(graph, edge_cost, maximize=spec.direction == MAXIMIZE)
    allocation = allocation_from_matching(match, graph, instance)
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
    skipped.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t.strip() for t in line.split(",")] if "," in line else line.split()
        rows.append(tokens)
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
