"""Optimize linear objectives over the set of all fair allocations.

Perfect matchings of the extended allocation graph are exactly the fair
allocations, and the matching polytope is integral, so optimizing any
linear objective over fair allocations reduces to one exact min-cost
matching.  Every item is a row matched exactly once, and every slot of
the plain graph, read from :func:`~fairmatch.allocgraph.slot_reaches`
with no graph built, is a column of capacity 1 carrying its agent's
per-item cost.  For goods, an agent's q spare slots are one column of
capacity q with the same costs; a unit of it left unused stands for a
spare slot matched to a dummy good, so no dummy items are built.  Goods
must also fill every real slot, which a constant taken off every
real-slot edge enforces.  Chores need neither: a matching of the plain
graph that covers every chore is already fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .allocgraph import slot_reaches, spare_slot_count
from .core import GOODS, FormatError, Instance, IntegralAllocation, parse_rational
from .matching import MatchingInternalError, assignment_min_cost

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


class IncompleteCostSpec(ValueError):
    """The cost rows do not have one entry per (agent, item) pair."""


@dataclass(frozen=True)
class CostSpec:
    """Integer costs over one common denominator, plus a direction.

    ``rows[i][j] / denominator`` is agent ``i``'s cost for item ``j``,
    agents and items in instance order: the layout of the cost file.
    Build it with :meth:`scaled`.
    """

    rows: tuple[tuple[int, ...], ...]
    denominator: int
    direction: str = MINIMIZE

    @classmethod
    def scaled(
        cls, rows: Sequence[Sequence[Fraction | int]], direction: str = MINIMIZE
    ) -> CostSpec:
        """Scale rational rows once by the least common multiple of their
        denominators, so every entry becomes an integer over it."""
        denominator = math.lcm(*(x.denominator for row in rows for x in row))
        scaled = (tuple(x.numerator * (denominator // x.denominator) for x in row) for row in rows)
        return cls(tuple(scaled), denominator, direction)


def optimize_allocation(
    instance: Instance, spec: CostSpec
) -> tuple[IntegralAllocation, Fraction]:
    """Best fair allocation for a linear objective, with its exact value.

    The objective of an allocation is the sum over real items of the
    owning agent's cost for that item; the optimum is taken over all fair
    allocations and the returned one always verifies.  The kernel takes
    the spec's integer rows as they are, negated to maximize, and the
    objective becomes a fraction once, at the end.
    """
    if spec.direction not in (MINIMIZE, MAXIMIZE):
        raise ValueError(f"direction must be {MINIMIZE} or {MAXIMIZE}")
    if spec.denominator < 1:
        raise ValueError("the cost denominator must be positive")
    rows = spec.rows
    if len(rows) != instance.n or any(len(row) != instance.m for row in rows):
        raise IncompleteCostSpec(f"expected {instance.n} cost rows of {instance.m} entries")
    table = [[-c for c in row] for row in rows] if spec.direction == MAXIMIZE else rows

    # goods must fill every real slot: the offset exceeds the gap between
    # the raw costs of any two item-covering assignments, so taking it off
    # each real-slot edge makes the cheapest one fill as many real slots
    # as possible, which is all of them because a fair allocation exists
    m = instance.m
    offset = 0
    if instance.kind == GOODS:
        offset = 2 * m * max((abs(c) for row in table for c in row), default=0) + 1

    # items are the rows; the columns are the real slots, agent-major, each
    # listed in the rows of the items its prefix reaches, then for goods
    # one spare column per agent that takes up to q items
    columns: list[list[int]] = [[] for _ in range(m)]
    agent_of: list[int] = []
    for i, (best_first, reaches) in enumerate(slot_reaches(instance)):
        for reach in reaches:
            s = len(agent_of)
            for j in best_first[:reach]:
                columns[j].append(s)
            agent_of.append(i)
    real = len(agent_of)
    capacity = [1] * real
    q = spare_slot_count(instance) if instance.kind == GOODS else 0
    if q:
        agent_of += range(instance.n)
        capacity += [q] * instance.n
        for column in columns:
            column += range(real, real + instance.n)
    # fresh integers row by row, and one column index per slot: the kernel
    # ran up to 1.7x slower on rows whose integers lay scattered in memory
    costs = [
        [table[agent_of[s]][j] - (offset if s < real else 0) for s in column]
        for j, column in enumerate(columns)
    ]

    match = assignment_min_cost(columns, costs, len(agent_of), capacity)
    if instance.kind == GOODS:
        filled = sum(column < real for _, column in match.pairs)
        if filled != real:
            raise MatchingInternalError(f"optimum fills {filled} of {real} real slots")
    bundles: list[set[str]] = [set() for _ in range(instance.n)]
    for item_idx, column in match.pairs:
        bundles[agent_of[column]].add(instance.items[item_idx])
    allocation = IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))
    total = sum(rows[agent_of[column]][j] for j, column in match.pairs)
    return allocation, Fraction(total, spec.denominator)


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
    for i, tokens in enumerate(rows):
        if len(tokens) != instance.m:
            raise FormatError(
                f"cost row {i + 1} has {len(tokens)} entries, expected {instance.m}"
            )
    return CostSpec.scaled(
        [[parse_rational(token) for token in tokens] for tokens in rows], direction
    )
