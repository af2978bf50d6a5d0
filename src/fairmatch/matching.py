"""Matching machinery over ranked bipartite graphs.

This module bundles every matching primitive the library needs:

* maximum-cardinality bipartite matching: Hopcroft-Karp over the adjacency
  lists, in pure Python;
* one exact minimum-cost matching kernel: successive shortest paths with
  Dijkstra over the sparse adjacency lists and integer potentials, where
  a right vertex may take several left vertices up to its capacity (the
  spare slots of one agent as one vertex).  It serves both exact
  assignment (rational costs scaled once to integers, lexicographic cost
  vectors read as digits of one integer) and rank-maximal matching (an
  edge of rank ``r`` weighs ``B**(w - r)``);
* rank-maximal perfect matchings, signatures, slot-order normalization;
* picking-sequence extraction from a rank-maximal matching;
* Birkhoff-von Neumann decomposition of exact doubly stochastic matrices,
  given as sparse ``{column: entry}`` rows.

No floating point anywhere: matching costs are integers after clearing
denominators, and the decomposition scales the sparse rows once by the
least common multiple of their denominators and subtracts integers, not
rationals, until every row is empty.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .allocgraph import AllocationGraph, BipartiteGraph
from .core import Instance, IntegralAllocation
from .fairness import InstanceTooLarge


class NoPerfectMatching(ValueError):
    """The graph admits no perfect matching under the given constraints."""


class NotRankMaximal(ValueError):
    """Picking-sequence extraction certified the matching is not rank-maximal."""


class NotDoublyStochastic(ValueError):
    """Matrix rows/columns do not all sum to exactly one."""


class MatchingInternalError(AssertionError):
    """An invariant the theory guarantees failed; indicates a construction bug."""


@dataclass(frozen=True)
class Matching:
    """A set of (left, right) pairs with no vertex repeated.

    A capacitated assignment (:func:`assignment_min_cost`) repeats a right
    vertex up to its capacity.
    """

    pairs: tuple[tuple[int, int], ...]

    def left_map(self) -> dict[int, int]:
        return {i: j for i, j in self.pairs}

    def right_map(self) -> dict[int, int]:
        return {j: i for i, j in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PickingSequence:
    """Agent order whose greedy simulation reproduces an allocation.

    ``sequence`` holds agent indices (dummy-matched slots already dropped);
    ``slots`` the underlying left-vertex order including the dummy tail.
    """

    sequence: tuple[int, ...]
    slots: tuple[int, ...]


class LexCost:
    """Per-rank count vector ordered lexicographically; addition is componentwise."""

    __slots__ = ("counts",)

    def __init__(self, counts: Sequence[int]):
        self.counts = tuple(int(c) for c in counts)

    @classmethod
    def unit(cls, rank: int, width: int) -> "LexCost":
        counts = [0] * width
        counts[rank - 1] = 1
        return cls(counts)

    def __add__(self, other: "LexCost") -> "LexCost":
        return LexCost(tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "LexCost") -> "LexCost":
        return LexCost(tuple(a - b for a, b in zip(self.counts, other.counts)))

    def __lt__(self, other: "LexCost") -> bool:
        return self.counts < other.counts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LexCost) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def __repr__(self) -> str:
        return f"LexCost{self.counts}"


# ---------------------------------------------------------------------------
# Maximum-cardinality matching
# ---------------------------------------------------------------------------

def max_matching(graph: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching by Hopcroft-Karp; deterministic.

    Each phase layers the left vertices by a BFS from the free ones, in
    index order; ``up`` is the first layer whose scan reaches a free right
    vertex.  Phases stop when no layer does or when one side is covered.
    Then each free left vertex, in index order, runs a depth-first search
    with a LIFO stack.  A popped vertex scans its neighbours in ascending
    order: a free right vertex ends the search if the vertex sits one
    layer short of ``up``; otherwise every matched row on the next layer
    that this search has not visited is pushed.  A vertex whose scan finds
    nothing leaves the layering for the rest of the phase.  The first
    phase is the greedy pass.  Keep this order: the decomposition in
    :func:`bvn_decompose`, and so every lottery, depends on which perfect
    matching each round finds.
    """
    adjacency = graph.adjacency
    left = graph.left_count
    inf = left + 1
    mate = [-1] * left  # right vertex matched to each left vertex
    owner = [-1] * graph.right_count  # left vertex matched to each right one
    size = 0
    # a matching that covers one side is maximum: skip the last, empty phase
    while size < min(left, graph.right_count):
        free = [i for i in range(left) if mate[i] < 0]
        dist = [inf] * left
        for i in free:
            dist[i] = 0
        up = inf
        queue = list(free)
        for i in queue:  # appended to while read, so a FIFO queue
            d = dist[i] + 1
            if d >= up:
                continue
            for j in adjacency[i]:
                k = owner[j]
                if k < 0:
                    up = d
                elif dist[k] == inf:
                    dist[k] = d
                    queue.append(k)
        if up == inf:
            break
        for s in free:
            parent = {s: -1}  # also the vertices this search has visited
            stack = [s]
            while stack:
                i = stack.pop()
                d = dist[i] + 1
                for j in adjacency[i]:
                    k = owner[j]
                    if k < 0:
                        if d == up:
                            break
                    elif dist[k] == d and k not in parent:
                        parent[k] = i
                        stack.append(k)
                else:
                    dist[i] = inf
                    continue
                while i >= 0:  # augment back along the parent links
                    mate[i], j = j, mate[i]
                    owner[mate[i]] = i
                    i = parent[i]
                size += 1
                break
    return Matching(pairs=tuple((i, j) for i, j in enumerate(mate) if j >= 0))


def signature(matching: Matching, graph: BipartiteGraph) -> tuple[int, ...]:
    """Per-rank edge counts of a matching, indexed by rank 1..max_rank."""
    width = graph.max_rank()
    counts = [0] * width
    for i, j in matching.pairs:
        counts[graph.rank_of(i, j) - 1] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# Exact minimum-cost matching: the one kernel behind assignment and
# rank-maximal matching
# ---------------------------------------------------------------------------

def _min_cost_matching(
    adjacency: Sequence[Sequence[int]],
    costs: Sequence[Sequence[int]],
    right_count: int,
    capacity: Sequence[int] | None = None,
) -> list[int]:
    """Min-cost matching saturating every left vertex, over integer costs.

    Successive shortest paths: each left vertex, in index order, augments
    along a shortest alternating path to a right vertex with room left.
    Right vertex ``j`` takes up to ``capacity[j]`` left vertices (one
    each when ``capacity`` is omitted) and need not be filled.  Paths are
    found by Dijkstra over the reduced costs ``c - u[i] - v[j]``, which
    stay nonnegative under exact integer potentials (``u`` starts at the
    row minimum, ``v`` at zero).  A settled right vertex with room ends
    the search; a full one relaxes every left vertex matched to it, all
    of which share its distance because their edges to it are tight.
    Heap entries are ``(distance, right)``, so ties break by vertex
    index.  ``costs[i]`` is aligned with ``adjacency[i]``.  Returns the
    right vertex matched to each left vertex; raises
    :class:`NoPerfectMatching` when some left vertex cannot be saturated.
    """
    u = [min(row, default=0) for row in costs]
    v = [0] * right_count
    room = [1] * right_count if capacity is None else list(capacity)
    # a unit right vertex keeps its left vertex in ``owner``; any other
    # keeps its left vertices in ``held``, in the order they arrived
    owner = [-1] * right_count
    held: dict[int, dict[int, None]] = {j: {} for j, c in enumerate(room) if c != 1}
    mate = [-1] * len(adjacency)
    for s in range(len(adjacency)):
        dist: list[int | None] = [None] * right_count
        via = [-1] * right_count
        heap = []
        us = u[s]
        for j, c in zip(adjacency[s], costs[s]):
            d = c - us - v[j]
            dist[j] = d
            via[j] = s
            heap.append((d, j))
        heapq.heapify(heap)
        settled: list[int] = []
        while True:
            if not heap:
                raise NoPerfectMatching("graph admits no perfect matching")
            d, j = heapq.heappop(heap)
            if d != dist[j]:
                continue  # superseded by a shorter path
            settled.append(j)
            if room[j]:
                break
            i = owner[j]
            # a settled vertex never improves (reduced costs are
            # nonnegative), so it needs no separate check here
            for i in (i,) if i >= 0 else held[j]:
                off = d - u[i]
                for k, c in zip(adjacency[i], costs[i]):
                    nd = off + c - v[k]
                    old = dist[k]
                    if old is None or nd < old:
                        dist[k] = nd
                        via[k] = i
                        heapq.heappush(heap, (nd, k))
        # shift the potentials so the reduced costs stay nonnegative and
        # every edge of the path just found becomes tight
        for k in settled:
            delta = d - dist[k]
            if delta:
                v[k] -= delta
                i = owner[k]
                for i in (i,) if i >= 0 else held[k]:
                    u[i] += delta
        u[s] += d
        room[j] -= 1
        while True:
            i = via[j]
            if j in held:
                held[j][i] = None
            else:
                owner[j] = i
            mate[i], j = j, mate[i]
            if i == s:
                break
            if j in held:
                del held[j][i]
    return mate


def _lex_to_int(counts: Sequence[int], base: int) -> int:
    value = 0
    for c in counts:
        value = value * base + c
    return value


def assignment_min_cost(
    graph: BipartiteGraph,
    cost: Callable[[int, int], object],
    maximize: bool = False,
    capacity: Sequence[int] | None = None,
) -> Matching:
    """Perfect matching minimizing the total edge cost, exactly.

    ``cost`` must be defined on every edge of the graph and return either
    exact integers/rationals or :class:`LexCost` vectors of a common
    width.  Integers are used as they are; rationals are scaled once by
    the least common multiple of their denominators; lex vectors are read
    as digits of one integer in a base wider than any difference of two
    matching totals, which keeps their order.  Ties break
    deterministically by vertex order.

    Without ``capacity`` the graph must be balanced.  With it, right
    vertex ``j`` takes up to ``capacity[j]`` left vertices, so it may
    appear that many times in the pairs, and the cheapest matching that
    covers every left vertex is returned.
    """
    p = graph.left_count
    if capacity is None:
        if p != graph.right_count:
            raise NoPerfectMatching(
                f"graph is unbalanced ({p} left vs {graph.right_count} right)"
            )
    elif len(capacity) != graph.right_count:
        raise ValueError("capacity needs one entry per right vertex")
    if p == 0:
        return Matching(pairs=())
    rows = [[cost(i, j) for j in graph.adjacency[i]] for i in range(p)]
    values = [c for row in rows for c in row]
    if not values:
        raise NoPerfectMatching("graph has no edges")
    if isinstance(values[0], LexCost):
        width = len(values[0].counts)
        if any(not isinstance(c, LexCost) or len(c.counts) != width for c in values):
            raise ValueError("all LexCost values must share one width")
        base = 2 * p * max((abs(x) for c in values for x in c.counts), default=0) + 1
        rows = [[_lex_to_int(c.counts, base) for c in row] for row in rows]
    elif not all(isinstance(c, int) for c in values):
        denom = math.lcm(*(Fraction(c).denominator for c in values))
        rows = [[int(Fraction(c) * denom) for c in row] for row in rows]
    if maximize:
        rows = [[-c for c in row] for row in rows]
    mate = _min_cost_matching(graph.adjacency, rows, graph.right_count, capacity)
    return Matching(pairs=tuple(enumerate(mate)))


# ---------------------------------------------------------------------------
# Rank-maximal perfect matching
# ---------------------------------------------------------------------------

def rank_maximal_perfect_matching(graph: BipartiteGraph) -> Matching:
    """Matching saturating the left side with the greatest signature.

    Reduced to minimum-cost matching (Michail, "Reducing rank-maximal to
    maximum weight matching", TCS 2007): an edge of rank ``r`` costs
    ``-B**(w - r)`` with ``w`` the largest rank.  While no rank count
    reaches ``B``, the total is the signature read as base-``B`` digits
    and the cheapest matching is rank-maximal.  A general graph takes
    ``B = left + 1``.  An allocation graph takes ``B = n + 1`` with ``n``
    the agents that own a slot: a rank depends only on the agent and the
    item, so all of an agent's rank-``r`` edges go to one item, and a
    matching holds at most ``n`` edges of each rank.  With fewer left
    than right vertices the left side is saturated without padding.

    On an extended allocation graph every dummy item is matched in every
    perfect matching, each contributing one edge at its own rank, so the
    dummy tail of the signature is constant; dummy edges therefore cost
    zero and ``w`` only ranges over the real ranks, which keeps the costs
    short.
    """
    left, right = graph.left_count, graph.right_count
    if left > right:
        raise NoPerfectMatching("left side larger than right side")
    real, base = right, left + 1
    if isinstance(graph, AllocationGraph):
        base = len({slot.agent for slot in graph.slots}) + 1
        if graph.extended:
            real = graph.real_item_count
    width = max(
        (r for adj, ranks in zip(graph.adjacency, graph.ranks)
         for j, r in zip(adj, ranks) if j < real),
        default=0,
    )
    weight = [-(base ** (width - r)) for r in range(width + 1)]
    costs = [
        [weight[r] if j < real else 0 for j, r in zip(adj, ranks)]
        for adj, ranks in zip(graph.adjacency, graph.ranks)
    ]
    mate = _min_cost_matching(graph.adjacency, costs, right)
    return Matching(pairs=tuple(enumerate(mate)))


# ---------------------------------------------------------------------------
# Slot-order normalization and picking-sequence extraction
# ---------------------------------------------------------------------------

def normalize_slot_order(matching: Matching, graph: AllocationGraph) -> Matching:
    """Redistribute each agent's matched items across its matched slots.

    After normalization, among the slots of one agent that hold real items,
    a higher slot position holds a strictly better matching-rank for chores
    and a strictly worse one for goods; dummy-held slots keep dummy items
    (sorted by index).  The signature is unchanged because ranks depend
    only on the agent and the item, and every reassigned edge exists by the
    nesting of slot neighborhoods.  Idempotent.
    """
    by_agent: dict[int, list[tuple[int, int]]] = {}
    for slot_idx, item_idx in matching.pairs:
        by_agent.setdefault(graph.slots[slot_idx].agent, []).append((slot_idx, item_idx))
    new_pairs: list[tuple[int, int]] = []
    for agent, assigned in sorted(by_agent.items()):
        real = [(s, b) for s, b in assigned if not graph.is_dummy_item(b)]
        dummy = [(s, b) for s, b in assigned if graph.is_dummy_item(b)]
        real_slots = sorted((s for s, _ in real), key=lambda s: graph.slots[s].position)
        real_items = [b for _, b in sorted((graph.rank_of(s, b), b) for s, b in real)]
        if graph.kind == "chores":
            real_items.reverse()
        dummy_slots = sorted((s for s, _ in dummy), key=lambda s: graph.slots[s].position)
        dummy_items = sorted(b for _, b in dummy)
        for s, b in zip(real_slots, real_items):
            if not graph.has_edge(s, b):
                raise MatchingInternalError(
                    f"normalization produced a missing edge ({s}, {b})"
                )
            new_pairs.append((s, b))
        for s, b in zip(dummy_slots, dummy_items):
            new_pairs.append((s, b))
    return Matching(pairs=tuple(sorted(new_pairs)))


def extract_picking_sequence(matching: Matching, graph: BipartiteGraph) -> PickingSequence:
    """Order the matched left vertices so greedy picking reproduces the matching.

    Processes rank groups in increasing matched-rank order; within a group,
    repeatedly emits the lowest-index vertex that has no edge to a still
    available item it ranks better than its own match.  If at some step
    every remaining group member has such an edge, the matching was not
    rank-maximal and :class:`NotRankMaximal` is raised.  For allocation
    graphs the dummy-matched slots form the tail and are dropped; the
    remaining slots are replaced by their owning agents.
    """
    left_map = matching.left_map()
    if len(left_map) != graph.left_count:
        raise ValueError("matching must cover every left vertex")
    matched_rank = {s: graph.rank_of(s, b) for s, b in left_map.items()}
    groups: dict[int, list[int]] = {}
    for s, r in matched_rank.items():
        groups.setdefault(r, []).append(s)
    # adjacency restricted to strictly-better-ranked items, per left vertex
    better: dict[int, tuple[int, ...]] = {}
    for s in left_map:
        r = matched_rank[s]
        better[s] = tuple(
            j for j, rj in zip(graph.adjacency[s], graph.ranks[s]) if rj < r
        )
    available = set(range(graph.right_count))
    order: list[int] = []
    for r in sorted(groups):
        pending = sorted(groups[r])
        while pending:
            chosen = -1
            for s in pending:
                if not any(j in available for j in better[s]):
                    chosen = s
                    break
            if chosen < 0:
                raise NotRankMaximal(
                    "no slot is free of better available items; "
                    "the matching is not rank-maximal"
                )
            pending.remove(chosen)
            available.discard(left_map[chosen])
            order.append(chosen)
    if isinstance(graph, AllocationGraph):
        agents = tuple(
            graph.slots[s].agent
            for s in order
            if not graph.is_dummy_item(left_map[s])
        )
    else:
        agents = tuple(order)
    return PickingSequence(sequence=agents, slots=tuple(order))


# ---------------------------------------------------------------------------
# Birkhoff-von Neumann decomposition
# ---------------------------------------------------------------------------

def bvn_decompose(
    rows: Sequence[Mapping[int, Fraction]],
) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Decompose an exact doubly stochastic matrix into permutation matrices.

    The matrix comes as sparse rows: ``rows[i]`` maps a column to its
    entry, and absent columns are zero.  Returns ``[(weight, perm), ...]``
    with ``perm[row] = column``, weights summing to exactly 1 and
    ``sum(weight * permutation) == matrix``.  Each round finds a perfect
    matching on the support (one exists by Hall's condition while the
    matrix stays doubly stochastic), peels off the minimum entry along it,
    and repeats; at least one entry is zeroed per round, so the part count
    is at most ``p*p - p + 2``.

    The columns are ordered and validated once.  The matrix is then scaled
    by the least common multiple of its denominators, and each row is kept
    as a ``{column: int}`` map of its positive entries, so a round costs
    time in the size of the support and subtracts integers, not rationals.
    """
    p = len(rows)
    work: list[dict] = []
    for row in rows:
        entries = {}
        for j in sorted(row):
            if not 0 <= j < p:
                raise NotDoublyStochastic("a column lies outside the matrix")
            x = row[j]
            if x:
                x = Fraction(x)
                if x.numerator < 0:
                    raise NotDoublyStochastic("matrix has a negative entry")
                entries[j] = x
        work.append(entries)
    denom = math.lcm(*(x.denominator for row in work for x in row.values()))
    # scaled in place; built in ascending column order and only ever shrunk,
    # so the keys of every row stay sorted, as a graph's adjacency must be
    for row in work:
        for j, x in row.items():
            row[j] = x.numerator * (denom // x.denominator)
    column_sums = [0] * p
    for row in work:
        if sum(row.values()) != denom:
            raise NotDoublyStochastic("a row does not sum to 1")
        for j, x in row.items():
            column_sums[j] += x
    if any(total != denom for total in column_sums):
        raise NotDoublyStochastic("a column does not sum to 1")

    labels = tuple(str(i) for i in range(p))
    bound = p * p - p + 2
    parts: list[tuple[int, tuple[int, ...]]] = []
    remaining = denom
    while remaining > 0:
        adjacency = tuple(tuple(row) for row in work)
        support = BipartiteGraph(
            left_labels=labels,
            right_labels=labels,
            adjacency=adjacency,
            ranks=tuple((1,) * len(adj) for adj in adjacency),
        )
        match = max_matching(support)
        if len(match) != p:
            raise MatchingInternalError(
                "doubly stochastic support lost its perfect matching"
            )
        left = match.left_map()
        perm = tuple(left[i] for i in range(p))
        weight = min(work[i][perm[i]] for i in range(p))
        for i, j in enumerate(perm):
            rest = work[i][j] - weight
            if rest:
                work[i][j] = rest
            else:
                del work[i][j]
        parts.append((weight, perm))
        if len(parts) > bound:
            raise MatchingInternalError(
                f"decomposition exceeded {bound} parts for p = {p}"
            )
        remaining -= weight
    if any(work):
        raise MatchingInternalError("decomposition left a nonzero residual")
    return [(Fraction(weight, denom), perm) for weight, perm in parts]


# ---------------------------------------------------------------------------
# End-to-end: fair allocation from a perfect matching
# ---------------------------------------------------------------------------

def allocation_from_matching(
    matching: Matching, graph: AllocationGraph, instance: Instance
) -> IntegralAllocation:
    """Bundle each real matched item with the agent owning its slot."""
    bundles: list[set[str]] = [set() for _ in range(instance.n)]
    for slot_idx, item_idx in matching.pairs:
        if not graph.is_dummy_item(item_idx):
            bundles[graph.slots[slot_idx].agent].add(graph.right_labels[item_idx])
    return IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))


def solve_with_sequence(
    instance: Instance,
) -> tuple[IntegralAllocation, PickingSequence]:
    """Fair allocation together with a picking sequence that reproduces it.

    Chores run the rank-maximal pipeline on the extended graph (rank-maximal
    perfect matching, slot-order normalization, sequence extraction; the
    dummy-matched slots form the dropped tail).  Goods run it on the plain
    graph, whose slot-perfect rank-maximal matching yields a partial
    allocation; the sequence is then continued round-robin over the agents
    so that the leftover goods are picked too, which keeps the completed
    allocation both fair and reproducible from the sequence.  Simulating
    the returned sequence (:func:`fairmatch.fairness.simulate_picking_sequence`)
    rebuilds the returned allocation item for item.
    """
    from .allocgraph import build_allocation_graph, extend_allocation_graph
    from .core import CHORES, GOODS

    plain = build_allocation_graph(instance)
    if instance.kind == CHORES:
        graph = extend_allocation_graph(plain, instance)
    else:
        graph = plain
    match = rank_maximal_perfect_matching(graph)
    match = normalize_slot_order(match, graph)
    sequence = extract_picking_sequence(match, graph)
    allocation = allocation_from_matching(match, graph, instance)
    if instance.kind == GOODS:
        taken = {item for bundle in allocation.bundles for item in bundle}
        bundles = [set(b) for b in allocation.bundles]
        order = list(sequence.sequence)
        agent = 0
        while len(taken) < instance.m:
            pick = next(
                item
                for item in instance.agents[agent].ranking
                if item not in taken
            )
            taken.add(pick)
            bundles[agent].add(pick)
            order.append(agent)
            agent = (agent + 1) % instance.n
        allocation = IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))
        sequence = PickingSequence(sequence=tuple(order), slots=sequence.slots)
    return allocation, sequence


def enumerate_side_perfect_matchings(
    graph: BipartiteGraph, saturate: str, cap: int | None = None
) -> list[Matching]:
    """All matchings saturating one side, by backtracking; for small graphs.

    ``saturate`` is ``"left"`` or ``"right"``.  Used as a brute-force
    oracle against the solvers and for the matching-versus-enumeration
    cross-check.  With a ``cap``, the search stops with
    :class:`InstanceTooLarge` as soon as it finds more than ``cap``
    matchings.
    """
    if saturate == "left":
        count = graph.left_count
        neighbors = [list(graph.adjacency[i]) for i in range(count)]
    elif saturate == "right":
        count = graph.right_count
        neighbors = [[] for _ in range(count)]
        for i in range(graph.left_count):
            for j in graph.adjacency[i]:
                neighbors[j].append(i)
    else:
        raise ValueError("saturate must be 'left' or 'right'")
    results: list[Matching] = []
    taken: set[int] = set()
    chosen: list[int] = []

    def backtrack(v: int) -> None:
        if v == count:
            if saturate == "left":
                pairs = tuple(sorted((i, chosen[i]) for i in range(count)))
            else:
                pairs = tuple(sorted((chosen[j], j) for j in range(count)))
            results.append(Matching(pairs=pairs))
            if cap is not None and len(results) > cap:
                raise InstanceTooLarge(f"side-perfect matchings exceed cap {cap}")
            return
        for w in neighbors[v]:
            if w not in taken:
                taken.add(w)
                chosen.append(w)
                backtrack(v + 1)
                chosen.pop()
                taken.discard(w)

    backtrack(0)
    return results


def perfect_allocation(instance: Instance) -> IntegralAllocation:
    """A fair allocation via a side-perfect matching of the plain graph.

    Chores: a matching saturating every chore always exists; its slot
    owners define a complete allocation.  Goods: a matching saturating
    every slot always exists and yields a partial allocation, which is then
    completed by handing each leftover good to a spare slot of the extended
    graph (leftover goods in item order, spare slots in slot order, which
    is agent-major: agent 0 takes the first ``q`` leftovers, agent 1 the
    next ``q``, and so on); any completion of a fair partial allocation
    stays fair.
    """
    from .allocgraph import build_allocation_graph, spare_slot_count

    graph = build_allocation_graph(instance)
    match = max_matching(graph)
    if instance.kind == "chores":
        if len(match) != instance.m:
            raise MatchingInternalError(
                "no chore-perfect matching found; the construction guarantees one"
            )
        return allocation_from_matching(match, graph, instance)
    if len(match) != graph.left_count:
        raise MatchingInternalError(
            "no slot-perfect matching found; the construction guarantees one"
        )
    allocation = allocation_from_matching(match, graph, instance)
    matched_items = {j for _, j in match.pairs}
    leftovers = [j for j in range(instance.m) if j not in matched_items]
    if leftovers:
        q = spare_slot_count(instance)
        if len(leftovers) > instance.n * q:
            raise MatchingInternalError("not enough spare slots to complete")
        bundles = [set(b) for b in allocation.bundles]
        for k, j in enumerate(leftovers):
            bundles[k // q].add(instance.items[j])
        allocation = IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))
    return allocation
