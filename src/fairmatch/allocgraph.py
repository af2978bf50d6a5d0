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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
        lo, hi = 0, len(adj)
        while lo < hi:
            mid = (lo + hi) // 2
            if adj[mid] < right:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(adj) or adj[lo] != right:
            raise KeyError((left, right))
        return self.ranks[left][lo]

    def has_edge(self, left: int, right: int) -> bool:
        try:
            self.rank_of(left, right)
            return True
        except KeyError:
            return False

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


@dataclass(frozen=True)
class AllocationGraph(BipartiteGraph):
    kind: str = CHORES
    slots: tuple[Slot, ...] = ()
    real_item_count: int = 0
    extended: bool = False
    dummy_count: int = 0
    spare_per_agent: int = 0

    def is_dummy_item(self, item_index: int) -> bool:
        return item_index >= self.real_item_count


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
    if instance.kind == CHORES:
        return math.ceil(Fraction(position - 1) / alpha)
    return math.floor(Fraction(position) / alpha) + 1


def matching_rank(instance: Instance, agent: int, item: str) -> int:
    """Matching-rank of a real item: 1 is the agent's most preferred item."""
    pos = instance.position(agent, item)
    if instance.kind == CHORES:
        return instance.m + 1 - pos
    return pos


def build_allocation_graph(instance: Instance) -> AllocationGraph:
    """Build the plain allocation graph of an instance.

    Slots are ordered agent-major with positions ascending; items keep
    instance order.  Chores edges go to positions >= the slot threshold,
    goods edges to positions <= it.
    """
    m = instance.m
    item_index = {item: j for j, item in enumerate(instance.items)}
    slots: list[Slot] = []
    adjacency: list[tuple[int, ...]] = []
    ranks: list[tuple[int, ...]] = []
    for i in range(instance.n):
        # item index at each ranking position, and matching-rank per item index
        by_position = [item_index[item] for item in instance.agents[i].ranking]
        rank_of_item = [0] * m
        for pos, j in enumerate(by_position, start=1):
            rank_of_item[j] = m + 1 - pos if instance.kind == CHORES else pos
        for ell in range(1, slot_count(instance, i) + 1):
            bound = slot_threshold(instance, i, ell)
            if instance.kind == CHORES:
                positions = range(max(1, bound), m + 1)
            else:
                positions = range(1, min(m, bound) + 1)
            row = sorted(by_position[pos - 1] for pos in positions)
            slots.append(Slot(agent=i, position=ell))
            adjacency.append(tuple(row))
            ranks.append(tuple(rank_of_item[j] for j in row))
    return AllocationGraph(
        left_labels=tuple(_slot_label(s) for s in slots),
        right_labels=instance.items,
        adjacency=tuple(adjacency),
        ranks=tuple(ranks),
        kind=instance.kind,
        slots=tuple(slots),
        real_item_count=m,
        extended=False,
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
        dummy_ranks = tuple(m + 1 + k for k in range(q))
        adjacency = tuple(row + dummy_indices for row in graph.adjacency)
        ranks = tuple(row + dummy_ranks for row in graph.ranks)
        extended = AllocationGraph(
            left_labels=graph.left_labels,
            right_labels=items,
            adjacency=adjacency,
            ranks=ranks,
            kind=instance.kind,
            slots=graph.slots,
            real_item_count=m,
            extended=True,
            dummy_count=q,
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
        adjacency = list(graph.adjacency)
        ranks = list(graph.ranks)
        all_items = tuple(range(m + t))
        for i in range(instance.n):
            base = slot_count(instance, i)
            spare_ranks = tuple(
                matching_rank(instance, i, instance.items[j]) for j in range(m)
            ) + tuple(m + 1 + k for k in range(t))
            for s in range(q):
                slots.append(Slot(agent=i, position=base + s + 1, spare=True))
                adjacency.append(all_items)
                ranks.append(spare_ranks)
        extended = AllocationGraph(
            left_labels=tuple(_slot_label(s) for s in slots),
            right_labels=items,
            adjacency=tuple(adjacency),
            ranks=tuple(ranks),
            kind=instance.kind,
            slots=tuple(slots),
            real_item_count=m,
            extended=True,
            dummy_count=t,
            spare_per_agent=q,
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
        label = f"{instance.agents[slot.agent].name}:{slot.position}"
        lines.append(f'  s{idx} [label="{label}"{style}];')
    for j, label in enumerate(graph.right_labels):
        style = ' style=dashed' if graph.is_dummy_item(j) else ""
        lines.append(f'  i{j} [label="{label}" shape=ellipse{style}];')
    for i in range(graph.left_count):
        for j, rank in zip(graph.adjacency[i], graph.ranks[i]):
            style = ' style=dashed' if graph.is_dummy_item(j) else ""
            lines.append(f'  s{i} -- i{j} [label="{rank}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
