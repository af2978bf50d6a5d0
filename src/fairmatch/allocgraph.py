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
each slot; every solver (``solve``, ``solve --seq``, ``optimize`` and
``lottery``) reads the prefixes as they are and builds no graph.  The
builder, behind ``graph`` and ``oracle``, grows one sorted row per agent
through them and copies it once per slot.  A rank depends only on the
agent and the item, so each row's ranks come from one rank-of-item table
per agent.

The whole slot plan is integer arithmetic on each entitlement's numerator
``a`` and denominator ``b`` (``alpha = a/b``): floors are ``//`` and a
ceiling is ``-(-x // y)``, so no ``Fraction`` product is formed.  The
closed forms of the counts and reaches are in :func:`slot_count` and
:func:`slot_reaches`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .core import CHORES, Instance, InternalError


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
        lo = bisect_left(adj, right)
        if lo == len(adj) or adj[lo] != right:
            raise KeyError((left, right))
        return self.ranks[left][lo]

    def has_edge(self, left: int, right: int) -> bool:
        adj = self.adjacency[left]
        lo = bisect_left(adj, right)
        return lo < len(adj) and adj[lo] == right


@dataclass(frozen=True)
class AllocationGraph(BipartiteGraph):
    """A slots-versus-items graph: the slots, and which items are dummies.

    A slot's edge to the real item an agent ranks ``k``-th best has
    matching-rank ``k``; dummy item ``j`` has rank ``j + 1`` from every
    slot, after every real item.
    """

    kind: str = CHORES
    slots: tuple[Slot, ...] = ()
    real_item_count: int = 0
    extended: bool = False
    dummy_count: int = 0
    spare_per_agent: int = 0

    def is_dummy_item(self, item_index: int) -> bool:
        return item_index >= self.real_item_count


def slot_count(instance: Instance, agent: int) -> int:
    """Number of slots of an agent (kind-dependent bound; never negative).

    With ``alpha = a/b`` in lowest terms, chores have ``m*a // b + 1``
    slots and goods ``-(-m*a // b) - 1``, floor and ceiling of ``m*alpha``
    in integers.  Only goods with ``m = 0`` would count ``-1``.
    """
    alpha = instance.entitlement(agent)
    chores = instance.kind == CHORES
    return max(0, _slot_count(chores, instance.m, alpha.numerator, alpha.denominator))


def _slot_count(chores: bool, m: int, a: int, b: int) -> int:
    # floor(m*a/b) + 1 chores slots, ceil(m*a/b) - 1 goods slots
    return m * a // b + 1 if chores else -(-m * a // b) - 1


def spare_slot_count(instance: Instance) -> int:
    """Spare slots per agent in the extended goods graph: ``m + n - sum(ceil(m*alpha_i))``.

    Each ceiling is taken in integers, as ``-(-m*a // b)`` for ``alpha_i = a/b``.
    """
    m = instance.m
    return m + instance.n - sum(
        -(-m * agent.entitlement.numerator // agent.entitlement.denominator)
        for agent in instance.agents
    )


def slot_threshold(instance: Instance, agent: int, position: int) -> int:
    """Rank bound of a slot: ceil((l-1)/alpha) for chores, floor(l/alpha)+1 for goods.

    A chores slot reaches positions >= threshold, a goods slot positions
    <= threshold.
    """
    if not 1 <= position <= slot_count(instance, agent):
        raise IndexError(f"slot position {position} out of range for agent {agent}")
    alpha = instance.entitlement(agent)
    a, b = alpha.numerator, alpha.denominator
    if instance.kind == CHORES:
        return -((1 - position) * b // a)
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

    With ``alpha = a/b`` the reaches are integers in closed form.  Chores
    slot 1 reaches all ``m`` chores (its threshold is 0), and slot
    ``l >= 2`` reaches ``m + 1 + (1 - l)*b // a``: its threshold
    ``ceil((l-1)/alpha)`` is at least 1 because ``alpha <= 1``, and at
    most ``m`` because ``l - 1 <= m*alpha``.  Goods slot ``l`` reaches
    ``l*b // a + 1``, at most ``m`` because ``l < m*alpha``.  So no reach
    needs clamping to ``[1, m]``.
    """
    m = instance.m
    chores = instance.kind == CHORES
    item_index = {item: j for j, item in enumerate(instance.items)}
    for agent in instance.agents:
        # one itemgetter call maps the whole ranking; given a single key it
        # would return a bare index, so m <= 1 maps item by item
        if m > 1:
            indices = itemgetter(*agent.ranking)(item_index)
        else:
            indices = tuple(map(item_index.__getitem__, agent.ranking))
        a, b = agent.entitlement.numerator, agent.entitlement.denominator
        count = _slot_count(chores, m, a, b)
        if chores:
            best_first = indices[::-1]
            reaches = (m, *[m + 1 + (1 - ell) * b // a for ell in range(2, count + 1)])
        else:
            best_first = indices
            reaches = tuple([ell * b // a + 1 for ell in range(1, count + 1)])
        yield best_first, reaches


def _rank_table(best_first: tuple[int, ...]) -> tuple[int, ...]:
    # the matching-rank of each real item: its place in best_first, from 1
    table = [0] * len(best_first)
    for rank, j in enumerate(best_first, start=1):
        table[j] = rank
    return tuple(table)


def build_allocation_graph(instance: Instance) -> AllocationGraph:
    """Build the plain allocation graph of an instance.

    Slots are ordered agent-major with positions ascending; items keep
    instance order.  Each slot reaches a prefix of its agent's items
    ordered best first (see :func:`slot_reaches`), and the prefixes of
    one agent are nested.  So each agent grows one sorted row through
    them, in order of growing reach (ascending slots for goods, descending
    for chores), and each slot keeps a copy with its ranks read from the
    agent's rank-of-item table.
    """
    chores = instance.kind == CHORES
    slots: list[Slot] = []
    adjacency: list[tuple[int, ...]] = []
    ranks: list[tuple[int, ...]] = []
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
        rank_of = _rank_table(best_first).__getitem__
        ranks += (tuple(map(rank_of, row)) for row in rows)
        slots += (Slot(agent=i, position=ell) for ell in range(1, len(reaches) + 1))
    return AllocationGraph(
        left_labels=tuple(_slot_label(s) for s in slots),
        right_labels=instance.items,
        adjacency=tuple(adjacency),
        ranks=tuple(ranks),
        kind=instance.kind,
        slots=tuple(slots),
        real_item_count=instance.m,
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
            raise InternalError("chores graph has fewer slots than chores")
        items = graph.right_labels + tuple(f"~d{k + 1}" for k in range(q))
        dummy_indices = tuple(range(m, m + q))
        dummy_ranks = tuple(range(m + 1, m + q + 1))
        extended = AllocationGraph(
            left_labels=graph.left_labels,
            right_labels=items,
            adjacency=tuple(row + dummy_indices for row in graph.adjacency),
            ranks=tuple(row + dummy_ranks for row in graph.ranks),
            kind=instance.kind,
            slots=graph.slots,
            real_item_count=m,
            extended=True,
            dummy_count=q,
        )
    else:
        q = spare_slot_count(instance)
        if q < 0:
            raise InternalError("goods graph has more slots than goods")
        t = graph.left_count + instance.n * q - m
        if t < 0:
            raise InternalError("extended goods graph is not balanceable")
        items = graph.right_labels + tuple(f"~d{k + 1}" for k in range(t))
        dummy_ranks = tuple(range(m + 1, m + t + 1))
        slots = list(graph.slots)
        spare_ranks: list[tuple[int, ...]] = []
        for i, (best_first, reaches) in enumerate(slot_reaches(instance)):
            base = len(reaches)
            slots += (Slot(agent=i, position=base + s + 1, spare=True) for s in range(q))
            spare_ranks += (_rank_table(best_first) + dummy_ranks,) * q
        extended = AllocationGraph(
            left_labels=tuple(_slot_label(s) for s in slots),
            right_labels=items,
            adjacency=graph.adjacency + (tuple(range(m + t)),) * (instance.n * q),
            ranks=graph.ranks + tuple(spare_ranks),
            kind=instance.kind,
            slots=tuple(slots),
            real_item_count=m,
            extended=True,
            dummy_count=t,
            spare_per_agent=q,
        )
    if extended.left_count != extended.right_count:
        raise InternalError(
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

def graph_to_text(graph: AllocationGraph, instance: Instance) -> Iterator[str]:
    """Structured text listing vertices, edges and edge ranks.

    Yields one line at a time, newline included; ``"".join`` gives the text.
    """
    yield (
        f"allocation-graph kind={graph.kind} extended={str(graph.extended).lower()} "
        f"slots={graph.left_count} items={graph.right_count} real-items={graph.real_item_count}\n"
    )
    for idx, slot in enumerate(graph.slots):
        kind = "spare-slot" if slot.spare else "slot"
        yield f"{kind} {idx} agent={instance.agents[slot.agent].name} position={slot.position}\n"
    for j, label in enumerate(graph.right_labels):
        suffix = " dummy" if graph.is_dummy_item(j) else ""
        yield f"item {j} {label}{suffix}\n"
    for i in range(graph.left_count):
        for j, rank in zip(graph.adjacency[i], graph.ranks[i]):
            yield f"edge {i} {j} rank={rank}\n"


def graph_to_dot(graph: AllocationGraph, instance: Instance) -> Iterator[str]:
    """DOT export: slots on the left, items on the right, dummies dashed.

    Yields one line at a time, as :func:`graph_to_text` does.
    """
    yield "graph allocation {\n"
    yield "  rankdir=LR;\n"
    yield "  node [shape=box];\n"
    for idx, slot in enumerate(graph.slots):
        style = ' style=dashed' if slot.spare else ""
        label = f"{_dot_escape(instance.agents[slot.agent].name)}:{slot.position}"
        yield f'  s{idx} [label="{label}"{style}];\n'
    for j, label in enumerate(graph.right_labels):
        style = ' style=dashed' if graph.is_dummy_item(j) else ""
        yield f'  i{j} [label="{_dot_escape(label)}" shape=ellipse{style}];\n'
    for i in range(graph.left_count):
        for j, rank in zip(graph.adjacency[i], graph.ranks[i]):
            style = ' style=dashed' if graph.is_dummy_item(j) else ""
            yield f'  s{i} -- i{j} [label="{rank}"{style}];\n'
    yield "}\n"


def _dot_escape(name: str) -> str:
    # in a quoted DOT label a double quote ends the string and a backslash
    # starts an escape such as \n, so both are escaped, the backslash first
    return name.replace("\\", "\\\\").replace('"', '\\"')
