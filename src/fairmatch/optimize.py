"""Optimize linear objectives over the set of all fair allocations.

Perfect matchings of the extended allocation graph are exactly the fair
allocations, and the matching polytope is integral, so optimizing any
linear objective over fair allocations reduces to one exact min-cost
matching, read from :func:`~fairmatch.allocgraph.slot_reaches` with no
graph built.  With ``floor[j]`` the least cost of item ``j`` over all
agents, an edge of agent ``i`` to item ``j`` costs
``cost[i][j] - floor[j] >= 0``.

Chores: every chore is a row matched exactly once, and every slot of the
plain graph is a unit column; as every chore is matched, the floors take
one constant off every matching.  A matching of the plain graph that
covers every chore is already fair.  The slots of one agent reach nested
prefixes that shrink with the slot number, all at the agent's cost of
the chore, so each chore row lists n entries, one per agent: the agent's
last slot that reaches it.  The agent's earlier slots follow that slot
as a run (``after[s] = s - 1``), which the kernel reaches lazily.

Goods: the rows are the real slots of the plain graph, each reaching its
best-first prefix, and the columns are the goods, each taken at most
once.  The matching saturates the slots, and every good it leaves free
goes to an agent of cost ``floor[j]``.  This is exact: real slots reach
no dummy goods, so every perfect matching of the extended graph fills
each real slot with a real good and leaves exactly q goods to the n*q
spare slots, and any spread of those goods fits, because each agent
alone has q spare slots that reach every good; the objective is
therefore the sum of the floors plus the matched reduced costs.  The result verifies because it is a
slot-saturating matching of the plain graph, and any completion of a
fair goods allocation stays fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .allocgraph import slot_reaches
from .core import (
    GOODS,
    FormatError,
    Instance,
    IntegralAllocation,
    allocation_from_owners,
    rational_pair,
)
from .matching import assignment_min_cost

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
        return _scaled([[(x.numerator, x.denominator) for x in row] for row in rows], direction)


def _scaled(pairs: list[list[tuple[int, int]]], direction: str) -> CostSpec:
    # rows of rationals p/q, as (p, q) pairs, over their least common denominator
    denominator = math.lcm(*{q for row in pairs for _, q in row})
    scaled = (tuple(p * (denominator // q) for p, q in row) for row in pairs)
    return CostSpec(tuple(scaled), denominator, direction)


def optimize_allocation(
    instance: Instance, spec: CostSpec
) -> tuple[IntegralAllocation, Fraction]:
    """Best fair allocation for a linear objective, with its exact value.

    The objective of an allocation is the sum over real items of the
    owning agent's cost for that item; the optimum is taken over all fair
    allocations and the returned one always verifies.  The kernel takes
    the spec's integer rows, negated to maximize, less each item's least
    cost, and the objective becomes a fraction once, at the end.
    """
    if spec.direction not in (MINIMIZE, MAXIMIZE):
        raise ValueError(f"direction must be {MINIMIZE} or {MAXIMIZE}")
    if spec.denominator < 1:
        raise ValueError("the cost denominator must be positive")
    rows = spec.rows
    if len(rows) != instance.n or any(len(row) != instance.m for row in rows):
        raise IncompleteCostSpec(f"expected {instance.n} cost rows of {instance.m} entries")
    table = [[-c for c in row] for row in rows] if spec.direction == MAXIMIZE else rows
    # the floors also make the kernel's costs fresh integers, laid out row
    # by row: it ran up to 1.7x slower on rows whose integers lay scattered
    # in memory, as the table's entries do when read column by column
    columns = list(zip(*table))
    floor = [min(column) for column in columns]
    # a good that no real slot takes goes to its cheapest agent, the lowest
    # index among equals; every chore is matched
    owner = [column.index(low) for column, low in zip(columns, floor)]
    if instance.kind == GOODS:
        pairs = _match_goods(instance, table, floor)
    else:
        pairs = _match_chores(instance, columns, floor)
    for j, i in pairs:
        owner[j] = i
    total = sum(rows[i][j] for j, i in enumerate(owner))
    return allocation_from_owners(instance, owner), Fraction(total, spec.denominator)


def _match_goods(
    instance: Instance, table: Sequence[Sequence[int]], floor: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """(good, agent) pairs of the cheapest matching that fills every real slot."""
    adjacency: list[tuple[int, ...]] = []
    costs: list[list[int]] = []
    agent_of: list[int] = []
    for i, (best_first, reaches) in enumerate(slot_reaches(instance)):
        t = table[i]
        for reach in reaches:
            prefix = best_first[:reach]
            adjacency.append(prefix)
            # one list per slot: rows sliced from one list per agent made
            # the kernel 20-25% slower on goods 100x1000 maximize
            costs.append([t[j] - floor[j] for j in prefix])
            agent_of.append(i)
    for s, j in assignment_min_cost(adjacency, costs, instance.m).pairs:
        yield j, agent_of[s]


def _match_chores(
    instance: Instance, columns: Sequence[Sequence[int]], floor: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """(chore, agent) pairs of the cheapest matching that covers every chore.

    ``columns[j]`` holds each agent's signed cost of chore ``j``.  The
    chores are the kernel's rows and the slots, agent-major, its columns.
    Each row lists, for every agent, the agent's last slot that reaches
    the chore, and the agent's earlier slots follow it as one run.
    """
    heads: list[list[int]] = []
    after: list[int] = []
    agent_of: list[int] = []
    for i, (best_first, reaches) in enumerate(slot_reaches(instance)):
        base = len(agent_of)
        head = [0] * instance.m
        # slot l is the last to reach the positions from the next slot's
        # reach up to its own
        for ell, (stop, start) in enumerate(zip(reaches, (*reaches[1:], 0))):
            for j in best_first[start:stop]:
                head[j] = base + ell
        heads.append(head)
        after.extend([-1, *range(base, base + len(reaches) - 1)])
        agent_of.extend([i] * len(reaches))
    rows = list(zip(*heads))
    costs = [[c - low for c in column] for column, low in zip(columns, floor)]
    for j, s in assignment_min_cost(rows, costs, len(agent_of), after).pairs:
        yield j, agent_of[s]


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
    return _scaled([[rational_pair(token) for token in tokens] for tokens in rows], direction)
