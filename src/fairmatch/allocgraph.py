"""Allocation graphs: slots-versus-items bipartite graphs with edge ranks.

Every agent owns a number of unit-capacity "slots".  A slot's edges encode
the rank bound from the bundle characterization, so that side-perfect
matchings of the graph are exactly the fair (proportional up to one item
under every consistent valuation) allocations:

* chores: agent ``i`` has ``floor(m*alpha_i) + 1`` slots; slot ``l``
  reaches every chore whose position is at least ``ceil((l-1)/alpha_i)``;
* goods: agent ``i`` has ``ceil(m*alpha_i) - 1`` slots; slot ``l`` reaches
  every good whose position is at most ``floor(l/alpha_i) + 1``.

The extended graph balances the two sides: for chores, dummy chores
adjacent to every slot; for goods, spare slots adjacent to every good plus
dummy goods adjacent to every spare slot.  Matching ranks make the most
preferred item rank 1 for both kinds (for chores the rank of a real item is
``m + 1 - position``); dummy items are ranked ``m+1, m+2, ...`` in index
order so that they sort after every real item.

One agent's slot neighbourhoods are nested: prefixes of its ranking for
goods, suffixes for chores, so prefixes of its items best first either
way.  :func:`slot_reaches` yields those items and the prefix length of
each slot; ``solve`` and ``solve --seq`` run their serial dictatorship
on the prefixes as they are and build no graph.  The builder grows one
sorted row per agent through them and copies it once per slot.  A rank
depends only on the agent and the item, so an allocation graph keeps each
agent's items best first and builds the per-edge ranks on first read.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .core import CHORES, Instance


class GraphInternalError(AssertionError):
    """Graph construction violated one of its own invariants."""


@dataclass(frozen=True)
class Slot:
    agent: int
    position: int
    spare: bool = False


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite graph with per-edge integer matching-ranks.

    ``adjacency[i]`` lists right-vertex indices adjacent to left vertex
    ``i`` in ascending order, ``ranks[i]`` the aligned matching-ranks.
    A graph built only for a kernel that reads no ranks, such as the
    item-side graph of :func:`fairmatch.optimize.optimize_allocation`,
    has ``ranks == ()``.
    """

    left_labels: tuple[str, ...]
    right_labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    ranks: tuple[tuple[int, ...], ...]

    @property
    def left_count(self) -> int:
        return len(self.left_labels)

    @property
    def right_count(self) -> int:
        return len(self.right_labels)

    def rank_of(self, left: int, right: int) -> int:
        adj = self.adjacency[left]
        lo = bisect_left(adj, right)
        if lo == len(adj) or adj[lo] != right:
            raise KeyError((left, right))
        return self.ranks[left][lo]

    def has_edge(self, left: int, right: int) -> bool:
        adj = self.adjacency[left]
        lo = bisect_left(adj, right)
        return lo < len(adj) and adj[lo] == right

    def max_rank(self) -> int:
        return max((max(r) for r in self.ranks if r), default=0)


def ranked_graph(
    left_labels: list[str],
    right_labels: list[str],
    edges: dict[tuple[int, int], int],
) -> BipartiteGraph:
    """Build a generic ranked bipartite graph from an edge->rank map."""
    by_left: dict[int, list[int]] = {}
    for a, j in edges:
        by_left.setdefault(a, []).append(j)
    adjacency = []
    ranks = []
    for i in range(len(left_labels)):
        row = sorted(by_left.get(i, ()))
        adjacency.append(tuple(row))
        ranks.append(tuple(edges[(i, j)] for j in row))
    return BipartiteGraph(
        left_labels=tuple(left_labels),
        right_labels=tuple(right_labels),
        adjacency=tuple(adjacency),
        ranks=tuple(ranks),
    )


class _RanksOnFirstRead:
    """The ``ranks`` field of :class:`AllocationGraph`: kept if given, else built when read."""

    def __set__(self, graph: AllocationGraph, ranks) -> None:
        if ranks is not None:
            graph.__dict__["ranks"] = ranks

    def __get__(self, graph: AllocationGraph | None, owner: type | None = None):
        if graph is None:
            return self
        ranks = graph.__dict__.get("ranks")
        if ranks is None:
            ranks = graph.__dict__["ranks"] = graph._edge_ranks()
        return ranks


@dataclass(frozen=True)
class AllocationGraph(BipartiteGraph):
    """A slots-versus-items graph whose ranks are built on first read.

    ``preferences[i]`` lists agent ``i``'s real items best first, so the
    item at index ``k`` has matching-rank ``k + 1``.  Built with
    ``ranks=None``, the graph derives every edge rank from these on first
    read and keeps them.
    """

    kind: str = CHORES
    slots: tuple[Slot, ...] = ()
    real_item_count: int = 0
    extended: bool = False
    dummy_count: int = 0
    spare_per_agent: int = 0
    preferences: tuple[tuple[int, ...], ...] = ()

    ranks = _RanksOnFirstRead()

    def is_dummy_item(self, item_index: int) -> bool:
        return item_index >= self.real_item_count

    def _edge_ranks(self) -> tuple[tuple[int, ...], ...]:
        # one rank-of-item table per agent: real items by matching-rank,
        # then dummy item j at rank j + 1
        m = self.real_item_count
        dummies = range(m + 1, m + self.dummy_count + 1)
        tables = []
        for best_first in self.preferences:
            table = [0] * m
            for rank, j in enumerate(best_first, start=1):
                table[j] = rank
            table += dummies
            tables.append(table)
        return tuple(
            tuple(map(tables[slot.agent].__getitem__, row))
            for slot, row in zip(self.slots, self.adjacency)
        )


def slot_count(instance: Instance, agent: int) -> int:
    """Number of slots of an agent (kind-dependent bound; never negative)."""
    alpha = instance.entitlement(agent)
    if instance.kind == CHORES:
        return math.floor(instance.m * alpha) + 1
    return max(0, math.ceil(instance.m * alpha) - 1)


def spare_slot_count(instance: Instance) -> int:
    """Spare slots per agent in the extended goods graph: ``m + n - sum(ceil(m*alpha_i))``."""
    m = instance.m
    return m + instance.n - sum(
        math.ceil(m * instance.entitlement(i)) for i in range(instance.n)
    )


def slot_threshold(instance: Instance, agent: int, position: int) -> int:
    """Rank bound of a slot: ceil((l-1)/alpha) for chores, floor(l/alpha)+1 for goods.

    A chores slot reaches positions >= threshold, a goods slot positions
    <= threshold.
    """
    if not 1 <= position <= slot_count(instance, agent):
        raise IndexError(f"slot position {position} out of range for agent {agent}")
    alpha = instance.entitlement(agent)
    return _threshold(instance.kind, alpha.numerator, alpha.denominator, position)


def _threshold(kind: str, a: int, b: int, position: int) -> int:
    # the slot thresholds in integers, for alpha = a/b
    if kind == CHORES:
        return -(-(position - 1) * b // a)
    return position * b // a + 1


def slot_reaches(
    instance: Instance,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each agent's item indices best first, and the reach of each of its slots.

    Yields one ``(best_first, reaches)`` pair per agent, in agent order.
    ``best_first`` lists the item indices by matching-rank (the ranking
    for goods, reversed for chores).  ``reaches[l - 1]`` is the number of
    items slot ``l`` reaches: chores edges go to positions >= the slot
    threshold, goods edges to positions <= it, so either way slot ``l``
    reaches the prefix ``best_first[:reaches[l - 1]]``.  Reaches grow
    with the slot position for goods and shrink with it for chores.
    """
    m = instance.m
    chores = instance.kind == CHORES
    item_index = {item: j for j, item in enumerate(instance.items)}
    for i, agent in enumerate(instance.agents):
        ranking = reversed(agent.ranking) if chores else agent.ranking
        best_first = tuple(map(item_index.__getitem__, ranking))
        a, b = agent.entitlement.numerator, agent.entitlement.denominator
        reaches = []
        for ell in range(1, slot_count(instance, i) + 1):
            bound = _threshold(instance.kind, a, b, ell)
            reaches.append(m + 1 - max(1, bound) if chores else min(m, bound))
        yield best_first, tuple(reaches)


def build_allocation_graph(instance: Instance) -> AllocationGraph:
    """Build the plain allocation graph of an instance.

    Slots are ordered agent-major with positions ascending; items keep
    instance order.  Each slot reaches a prefix of its agent's items
    ordered best first (see :func:`slot_reaches`), and the prefixes of
    one agent are nested.  So each agent grows one sorted row through
    them, in order of growing reach (ascending slots for goods, descending
    for chores), and each slot keeps a copy.  The ranks are built on first
    read (see :class:`AllocationGraph`).
    """
    chores = instance.kind == CHORES
    slots: list[Slot] = []
    adjacency: list[tuple[int, ...]] = []
    preferences: list[tuple[int, ...]] = []
    for i, (best_first, reaches) in enumerate(slot_reaches(instance)):
        rows: list[tuple[int, ...]] = []
        row: list[int] = []
        reached = 0
        for reach in reversed(reaches) if chores else reaches:
            row += best_first[reached:reach]
            row.sort()
            rows.append(tuple(row))
            reached = reach
        if chores:
            rows.reverse()
        adjacency += rows
        slots += (Slot(agent=i, position=ell) for ell in range(1, len(reaches) + 1))
        preferences.append(best_first)
    return AllocationGraph(
        left_labels=tuple(_slot_label(s) for s in slots),
        right_labels=instance.items,
        adjacency=tuple(adjacency),
        ranks=None,
        kind=instance.kind,
        slots=tuple(slots),
        real_item_count=instance.m,
        extended=False,
        preferences=tuple(preferences),
    )


def extend_allocation_graph(graph: AllocationGraph, instance: Instance) -> AllocationGraph:
    """Balance the allocation graph with dummy items (and spare slots for goods).

    Chores: ``q = |S| - m`` dummy chores, each adjacent to every slot, with
    matching-ranks ``m+1 .. m+q`` in dummy index order.  Goods: ``q = m +
    n - sum(ceil(m*alpha_i))`` spare slots appended for every agent (after
    all plain slots, agent-major), ``t = |S'| - m`` dummy goods adjacent to
    exactly the spare slots.  The result is balanced or construction fails.
    """
    if graph.extended:
        return graph
    m = instance.m
    if instance.kind == CHORES:
        q = graph.left_count - m
        if q < 0:
            raise GraphInternalError("chores graph has fewer slots than chores")
        items = graph.right_labels + tuple(f"~d{k + 1}" for k in range(q))
        dummy_indices = tuple(range(m, m + q))
        extended = AllocationGraph(
            left_labels=graph.left_labels,
            right_labels=items,
            adjacency=tuple(row + dummy_indices for row in graph.adjacency),
            ranks=None,
            kind=instance.kind,
            slots=graph.slots,
            real_item_count=m,
            extended=True,
            dummy_count=q,
            preferences=graph.preferences,
        )
    else:
        q = spare_slot_count(instance)
        if q < 0:
            raise GraphInternalError("goods graph has more slots than goods")
        total_slots = graph.left_count + instance.n * q
        t = total_slots - m
        if t < 0:
            raise GraphInternalError("extended goods graph is not balanceable")
        items = graph.right_labels + tuple(f"~d{k + 1}" for k in range(t))
        slots = list(graph.slots)
        for i in range(instance.n):
            base = slot_count(instance, i)
            slots += (Slot(agent=i, position=base + s + 1, spare=True) for s in range(q))
        extended = AllocationGraph(
            left_labels=tuple(_slot_label(s) for s in slots),
            right_labels=items,
            adjacency=graph.adjacency + (tuple(range(m + t)),) * (instance.n * q),
            ranks=None,
            kind=instance.kind,
            slots=tuple(slots),
            real_item_count=m,
            extended=True,
            dummy_count=t,
            spare_per_agent=q,
            preferences=graph.preferences,
        )
    if extended.left_count != extended.right_count:
        raise GraphInternalError(
            f"extended graph is unbalanced: {extended.left_count} slots vs "
            f"{extended.right_count} items"
        )
    return extended


def _slot_label(slot: Slot) -> str:
    mark = "'" if slot.spare else ""
    return f"s{mark}[{slot.agent + 1},{slot.position}]"


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def graph_to_text(graph: AllocationGraph, instance: Instance) -> str:
    """Structured text listing vertices, edges and edge ranks."""
    lines = [
        f"allocation-graph kind={graph.kind} extended={str(graph.extended).lower()} "
        f"slots={graph.left_count} items={graph.right_count} real-items={graph.real_item_count}"
    ]
    for idx, slot in enumerate(graph.slots):
        kind = "spare-slot" if slot.spare else "slot"
        lines.append(
            f"{kind} {idx} agent={instance.agents[slot.agent].name} position={slot.position}"
        )
    for j, label in enumerate(graph.right_labels):
        suffix = " dummy" if graph.is_dummy_item(j) else ""
        lines.append(f"item {j} {label}{suffix}")
    for i in range(graph.left_count):
        for j, rank in zip(graph.adjacency[i], graph.ranks[i]):
            lines.append(f"edge {i} {j} rank={rank}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: AllocationGraph, instance: Instance) -> str:
    """DOT export: slots on the left, items on the right, dummies dashed."""
    lines = [
        "graph allocation {",
        "  rankdir=LR;",
        "  node [shape=box];",
    ]
    for idx, slot in enumerate(graph.slots):
        style = ' style=dashed' if slot.spare else ""
        label = f"{_dot_escape(instance.agents[slot.agent].name)}:{slot.position}"
        lines.append(f'  s{idx} [label="{label}"{style}];')
    for j, label in enumerate(graph.right_labels):
        style = ' style=dashed' if graph.is_dummy_item(j) else ""
        lines.append(f'  i{j} [label="{_dot_escape(label)}" shape=ellipse{style}];')
    for i in range(graph.left_count):
        for j, rank in zip(graph.adjacency[i], graph.ranks[i]):
            style = ' style=dashed' if graph.is_dummy_item(j) else ""
            lines.append(f'  s{i} -- i{j} [label="{rank}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(name: str) -> str:
    # in a quoted DOT label a double quote ends the string and a backslash
    # starts an escape such as \n, so both are escaped, the backslash first
    return name.replace("\\", "\\\\").replace('"', '\\"')
