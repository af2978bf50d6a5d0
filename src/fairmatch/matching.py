"""Matching machinery over ranked bipartite graphs.

This module bundles every matching primitive the library needs:

* maximum-cardinality bipartite matching: Hopcroft-Karp over plain
  adjacency rows, in pure Python, from scratch or grown from a starting
  matching, serving the rows of each decomposition round;
* one exact minimum-cost matching kernel over integer cost rows: a
  maximum matching of the edges left tight by row reduction, then
  successive shortest paths from the rows it leaves free, with Dijkstra
  over the sparse adjacency lists and integer potentials.  Columns
  chained into runs, each reaching the rows of the one before it at the
  same cost, are listed once per row and reached lazily.  It serves
  both ``optimize``, whose costs arrive as integers over one common
  denominator, and rank-maximal matching (an edge of rank ``r`` weighs
  ``B**(w - r)``);
* rank-maximal perfect matchings (the paper's construction, kept as a
  reference), slot-order normalization and picking-sequence extraction;
* fair allocations, with or without a picking sequence, from one serial
  dictatorship over the best-first slot prefixes, narrowest first, with
  no graph built;
* Birkhoff-von Neumann decomposition of exact doubly stochastic matrices,
  given as sparse ``{column: int}`` rows over one denominator, each
  round's matching grown from the last round's permutation.

The brute-force enumeration of side-perfect matchings, and its
cross-check against the enumerated fair allocations, are in
:mod:`fairmatch.oracle`.

No floating point and no rationals anywhere: both kernels take
integers only.  The callers clear the denominators once, where the
rationals enter (the costs in ``optimize.CostSpec`` and its file
parser, the entitlements in ``bobw``), and the decomposition subtracts
integers over one given denominator until every row is empty.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .allocgraph import AllocationGraph, BipartiteGraph, slot_reaches
from .core import GOODS, Instance, IntegralAllocation, InternalError, allocation_from_owners


class NoPerfectMatching(ValueError):
    """The graph admits no perfect matching under the given constraints."""


class NotRankMaximal(ValueError):
    """Picking-sequence extraction certified the matching is not Pareto-optimal for its slots."""


class NotDoublyStochastic(ValueError):
    """Matrix rows/columns do not all sum to exactly one."""


@dataclass(frozen=True)
class Matching:
    """A set of (left, right) pairs with no vertex repeated."""

    pairs: tuple[tuple[int, int], ...]

    def left_map(self) -> dict[int, int]:
        return {i: j for i, j in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PickingSequence:
    """Agent order whose greedy simulation reproduces an allocation.

    ``sequence`` holds agent indices (dummy-matched slots already dropped);
    ``slots`` the underlying left-vertex order including the dummy tail.
    A goods sequence from :func:`solve_with_sequence` ends with the picks
    of spare slots, which ``slots``, the plain graph's, does not hold.
    """

    sequence: tuple[int, ...]
    slots: tuple[int, ...]


# ---------------------------------------------------------------------------
# Maximum-cardinality matching
# ---------------------------------------------------------------------------

def max_matching(
    adjacency: Sequence[Iterable[int]],
    right_count: int,
    start: Sequence[int] | None = None,
) -> Matching:
    """Maximum-cardinality matching by Hopcroft-Karp; deterministic.

    Left vertex ``i`` is adjacent to the right vertices that
    ``adjacency[i]`` yields, each below ``right_count``, and every scan
    of a row reads them in the order it yields them.  The rows are only
    read, so the ``{column: entry}`` rows of :func:`bvn_decompose` serve
    as they are.

    ``start``, if given, is a matching to grow: ``start[i]`` is the right
    vertex matched to left vertex ``i``, or -1.  It is copied, not
    mutated; each of its pairs must be an edge, and a right vertex it
    repeats (or one outside ``0 .. right_count - 1``) raises
    :class:`ValueError`.  Augmenting paths only rematch vertices along
    them, so every start pair no augmenting path needs is kept, a
    maximum start comes back unchanged, and each round of the
    decomposition re-augments only the rows its last round freed.

    Each phase layers the left vertices by a BFS from the free ones, in
    index order; ``up`` is the first layer whose scan reaches a free right
    vertex.  Phases stop when no layer does or when one side is covered.
    Then each free left vertex, in index order, runs a depth-first search
    with a LIFO stack.  A popped vertex one layer short of ``up`` scans
    its row for a free right vertex, which ends the search; a vertex on
    an earlier layer pushes, in row order, every row on the next layer
    that this search has not visited.  Every popped vertex but the one
    that ends the search leaves the layering for the rest of the phase.
    With no start, the first phase is the greedy pass.  The lotteries
    depend on which perfect matching each round of :func:`bvn_decompose`
    finds, so a change to this order changes them.
    """
    left = len(adjacency)
    inf = left + 1
    mate = [-1] * left  # right vertex matched to each left vertex
    owner = [-1] * right_count  # left vertex matched to each right one
    size = 0
    if start is not None:
        if len(start) != left:
            raise ValueError(f"start has {len(start)} entries for {left} left vertices")
        for i, j in enumerate(start):
            if j == -1:
                continue
            if not 0 <= j < right_count:
                raise ValueError(f"start matches left vertex {i} to {j}, not a right vertex")
            if owner[j] >= 0:
                raise ValueError(f"start matches right vertex {j} twice")
            mate[i] = j
            owner[j] = i
            size += 1
    # a matching that covers one side is maximum: skip the last, empty phase
    while size < min(left, right_count):
        free = [i for i in range(left) if mate[i] < 0]
        dist = [inf] * (left + 1)  # dist[-1], read for a free right vertex, stays inf
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
                if d < up:
                    # no free right vertex lies this close, or the BFS
                    # would have stopped here: push the next layer
                    for j in adjacency[i]:
                        k = owner[j]
                        if dist[k] == d and k not in parent:
                            parent[k] = i
                            stack.append(k)
                    dist[i] = inf
                    continue
                for j in adjacency[i]:
                    if owner[j] < 0:
                        break
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


# ---------------------------------------------------------------------------
# Exact minimum-cost matching: the one kernel behind optimize and
# rank-maximal matching
# ---------------------------------------------------------------------------

def assignment_min_cost(
    adjacency: Sequence[Sequence[int]],
    costs: Sequence[Sequence[int]],
    right_count: int,
    after: Sequence[int] | None = None,
) -> Matching:
    """Min-cost matching saturating every left vertex, over integer costs.

    ``costs[i]`` is aligned with ``adjacency[i]``.  Each right vertex takes
    at most one left vertex and need not be matched.  Returns one pair per
    left vertex, in left order; raises :class:`NoPerfectMatching` when
    some left vertex cannot be saturated.

    ``after`` chains the right vertices into runs: ``after[j]`` is the
    next vertex of ``j``'s run, or -1, and each vertex of a run reaches
    every left vertex its predecessor reaches, at the same cost.  A row
    lists, of each run it reaches, only the earliest vertex it reaches,
    and reaches the rest of the run through ``after``.  With no
    ``after``, every right vertex is its own run.

    The potentials start at ``u`` = row minimum and ``v`` = 0, so every
    reduced cost ``c - u[i] - v[j]`` is nonnegative and each row's
    cheapest edges are tight (reduced cost zero).  The tight start of
    Jonker and Volgenant ("A shortest augmenting path algorithm for dense
    and sparse linear assignment problems", Computing 38, 1987) begins
    from a maximum matching (:func:`max_matching`) of the tight edges,
    each tight entry expanded through its run, tight too while ``v`` = 0.
    The duals stay feasible and complementary: every matched edge is
    tight, every reduced cost is nonnegative, and every right vertex
    still has ``v`` = 0, the value an unmatched one must have.  So the
    optimum is the one the searches alone would reach; only among
    equal-cost matchings may the start pick another.

    Successive shortest paths then saturate the left vertices the start
    leaves free, in index order: each augments along a shortest
    alternating path to an unmatched right vertex, found by Dijkstra over
    the reduced costs, which stay nonnegative under exact integer
    potentials.  A settled unmatched right vertex ends the search; a
    matched one relaxes the row of its left vertex, at its distance
    because their edge is tight.  The heap orders ``(distance, full,
    right)``, full meaning matched: at equal distance an unmatched right
    vertex pops first and ends the search, where a search that settled
    matched vertices first would relax their rows for nothing, and other
    ties break by vertex index.  Each entry is that triple packed into
    one integer, ``(2 * distance + full) * right_count + right``, which
    orders the same way; unlike a tuple, an integer is no container the
    garbage collector counts, so the pushes of a long search trigger no
    collections over the caller's objects.

    A matched vertex ``j`` that settles at distance ``d`` also offers
    ``k = after[j]`` the distance ``d + v[j] - v[k]``, the offer that
    ``j``'s best row makes to ``k``.  This is exact.  If ``j`` is matched
    to row ``r``, the edge ``(r, k)`` has the cost of the tight
    ``(r, j)`` and a nonnegative reduced cost, so ``v[k] <= v[j]``; if
    ``j`` is unmatched, ``v[j]`` = 0 >= ``v[k]``.  So ``v`` never grows
    along a run, no row's offers shrink along it, and each vertex of a
    run gets its best offer through the chain by the time it could
    settle.  Every settled distance, and with it every potential update,
    is then the one a search over the runs written out in full would
    find; only the order of equal distances can differ.
    """
    if after is None:
        after = [-1] * right_count
    u = [min(row, default=0) for row in costs]
    v = [0] * right_count
    owner = [-1] * right_count
    mate = [-1] * len(adjacency)
    tight = []
    for row, cost, ui in zip(adjacency, costs, u):
        reach = []
        for j in [j for j, c in zip(row, cost) if c == ui]:
            while j >= 0:
                reach.append(j)
                j = after[j]
        tight.append(reach)
    for i, j in max_matching(tight, right_count).pairs:
        mate[i] = j
        owner[j] = i
    for s in range(len(adjacency)):
        if mate[s] >= 0:
            continue
        dist: list[int | None] = [None] * right_count
        via = [-1] * right_count
        heap = []
        us = u[s]
        for j, c in zip(adjacency[s], costs[s]):
            d = c - us - v[j]
            dist[j] = d
            via[j] = s
            heap.append((d << 1 | (owner[j] >= 0)) * right_count + j)
        heapq.heapify(heap)
        settled: list[int] = []
        while True:
            if not heap:
                raise NoPerfectMatching("graph admits no perfect matching")
            d, j = divmod(heapq.heappop(heap), right_count)
            d >>= 1
            if d != dist[j]:
                continue  # superseded by a shorter path
            settled.append(j)
            i = owner[j]
            if i < 0:
                break
            k = after[j]
            if k >= 0:
                nd = d + v[j] - v[k]
                old = dist[k]
                if old is None or nd < old:
                    dist[k] = nd
                    via[k] = via[j]
                    heapq.heappush(heap, (nd << 1 | (owner[k] >= 0)) * right_count + k)
            # a settled vertex never improves (reduced costs are
            # nonnegative), so it needs no separate check here
            off = d - u[i]
            for k, c in zip(adjacency[i], costs[i]):
                nd = off + c - v[k]
                old = dist[k]
                if old is None or nd < old:
                    dist[k] = nd
                    via[k] = i
                    heapq.heappush(heap, (nd << 1 | (owner[k] >= 0)) * right_count + k)
        # shift the potentials so the reduced costs stay nonnegative and
        # every edge of the path just found becomes tight; only the last
        # settled vertex, at distance d, is unmatched
        for k in settled:
            delta = d - dist[k]
            if delta:
                v[k] -= delta
                u[owner[k]] += delta
        u[s] += d
        while True:
            i = via[j]
            owner[j] = i
            mate[i], j = j, mate[i]
            if i == s:
                break
    return Matching(pairs=tuple(enumerate(mate)))


# ---------------------------------------------------------------------------
# Rank-maximal perfect matching
# ---------------------------------------------------------------------------

def rank_maximal_perfect_matching(graph: BipartiteGraph) -> Matching:
    """Matching saturating the left side with the greatest rank profile.

    The rank profile of a matching counts its edges of rank 1, 2, ...;
    profiles compare lexicographically.  Reduced to minimum-cost matching
    (Michail, "Reducing rank-maximal to maximum weight matching", TCS
    2007): an edge of rank ``r`` costs
    ``-B**(w - r)`` with ``w`` the largest rank.  While no rank count
    reaches ``B``, the total is the rank profile read as base-``B`` digits
    and the cheapest matching is rank-maximal.  A general graph takes
    ``B = left + 1``.  An allocation graph takes ``B = n + 1`` with ``n``
    the agents that own a slot: a rank depends only on the agent and the
    item, so all of an agent's rank-``r`` edges go to one item, and a
    matching holds at most ``n`` edges of each rank.  With fewer left
    than right vertices the left side is saturated without padding.

    On an extended allocation graph every dummy item is matched in every
    perfect matching, each contributing one edge at its own rank, so the
    dummy tail of the rank profile is constant; dummy edges therefore cost
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
    return assignment_min_cost(graph.adjacency, costs, right)


# ---------------------------------------------------------------------------
# Slot-order normalization and picking-sequence extraction
# ---------------------------------------------------------------------------

def normalize_slot_order(matching: Matching, graph: AllocationGraph) -> Matching:
    """Redistribute each agent's matched items across its matched slots.

    After normalization, among the slots of one agent that hold real items,
    a higher slot position holds a strictly better matching-rank for chores
    and a strictly worse one for goods; slots holding dummy items keep
    dummy items (sorted by index).  The rank profile is unchanged because
    ranks depend only on the agent and the item, and every reassigned
    edge exists by the nesting of slot neighborhoods.  Idempotent.
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
                raise InternalError(
                    f"normalization produced a missing edge ({s}, {b})"
                )
            new_pairs.append((s, b))
        for s, b in zip(dummy_slots, dummy_items):
            new_pairs.append((s, b))
    return Matching(pairs=tuple(sorted(new_pairs)))


def extract_picking_sequence(matching: Matching, graph: BipartiteGraph) -> PickingSequence:
    """Order the matched left vertices so greedy picking reproduces the matching.

    Repeatedly emits the first pending vertex, in (matched rank, index)
    order, that has no edge to a still available item it ranks better than
    its own match.  If none does, every pending vertex sees a better
    available item: following vertex, that item, the vertex holding it,
    and so on reaches an unmatched item or closes a cycle, and moving
    every vertex on the way to the item it sees makes none worse and one
    better.  So on a matching that is Pareto-optimal for the left vertices
    (a rank-maximal one, or the serial dictatorship behind
    :func:`solve_with_sequence`) such a vertex
    always exists, though not always among those of the lowest pending
    rank; otherwise :class:`NotRankMaximal` is raised.  On an allocation
    graph every item a slot's agent ranks above the slot's match is
    adjacent to the slot, so a slot's pick is also its agent's.  For
    allocation graphs the dummy-matched slots are dropped (a dummy is
    worse than every real item, so they come last); the remaining slots
    are replaced by their owning agents.
    """
    left_map = matching.left_map()
    if len(left_map) != graph.left_count:
        raise ValueError("matching must cover every left vertex")
    matched_rank = {s: graph.rank_of(s, b) for s, b in left_map.items()}
    # adjacency restricted to strictly-better-ranked items, per left vertex
    better: dict[int, tuple[int, ...]] = {}
    for s in left_map:
        r = matched_rank[s]
        better[s] = tuple(
            j for j, rj in zip(graph.adjacency[s], graph.ranks[s]) if rj < r
        )
    available = set(range(graph.right_count))
    order: list[int] = []
    pending = sorted(left_map, key=lambda s: (matched_rank[s], s))
    while pending:
        for k, s in enumerate(pending):
            if available.isdisjoint(better[s]):
                break
        else:
            raise NotRankMaximal(
                "no slot is free of better available items; "
                "the matching is not Pareto-optimal for its slots"
            )
        del pending[k]
        available.discard(left_map[s])
        order.append(s)
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
    rows: Sequence[Mapping[int, int]], denominator: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Decompose an exact doubly stochastic matrix into permutation matrices.

    The matrix comes as sparse rows of integers over ``denominator``:
    ``rows[i]`` maps a column to its entry, and absent columns are zero.
    Returns ``[(weight, perm), ...]`` with ``perm[row] = column`` and each
    weight an integer over ``denominator``; the weights sum to exactly
    ``denominator`` and ``sum(weight * permutation) == matrix``.  A
    denominator below 1 raises ``ValueError``.

    Each round finds a perfect matching on the support (one exists by
    Hall's condition while the matrix stays doubly stochastic), peels off
    the minimum entry along it, and repeats; at least one entry is zeroed
    per round, so the part count is at most ``p*p - p + 2``.  A round
    starts :func:`max_matching` from the last round's permutation minus
    the entries it zeroed, so only the freed rows are re-augmented.

    The columns are ordered and validated once, and each row is kept as a
    ``{column: int}`` map of its positive entries, so a round costs time
    in the size of the support.
    """
    if denominator < 1:
        raise ValueError(f"denominator must be at least 1, got {denominator}")
    p = len(rows)
    # built in ascending column order and only ever shrunk, so the keys of
    # every row stay sorted and each round hands the rows to
    # :func:`max_matching` as they are
    work: list[dict] = []
    for row in rows:
        entries = {}
        for j in sorted(row):
            if not 0 <= j < p:
                raise NotDoublyStochastic("a column lies outside the matrix")
            x = row[j]
            if x:
                if x < 0:
                    raise NotDoublyStochastic("matrix has a negative entry")
                entries[j] = x
        work.append(entries)
    column_sums = [0] * p
    for row in work:
        if sum(row.values()) != denominator:
            raise NotDoublyStochastic("a row does not sum to 1")
        for j, x in row.items():
            column_sums[j] += x
    if any(total != denominator for total in column_sums):
        raise NotDoublyStochastic("a column does not sum to 1")

    bound = p * p - p + 2
    parts: list[tuple[int, tuple[int, ...]]] = []
    remaining = denominator
    start = None
    while remaining > 0:
        match = max_matching(work, p, start)
        if len(match) != p:
            raise InternalError(
                "doubly stochastic support lost its perfect matching"
            )
        perm = tuple([j for _, j in match.pairs])
        weight = min(map(dict.__getitem__, work, perm), default=remaining)
        start = list(perm)
        for i, j in enumerate(perm):
            rest = work[i][j] - weight
            if rest:
                work[i][j] = rest
            else:
                del work[i][j]
                start[i] = -1
        parts.append((weight, perm))
        if len(parts) > bound:
            raise InternalError(
                f"decomposition exceeded {bound} parts for p = {p}"
            )
        remaining -= weight
    if any(work):
        raise InternalError("decomposition left a nonzero residual")
    return parts


# ---------------------------------------------------------------------------
# End-to-end: fair allocations
# ---------------------------------------------------------------------------

def _serial_dictatorship(
    instance: Instance,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Each slot, narrowest first, takes its agent's best item still free.

    The slots of :func:`~fairmatch.allocgraph.slot_reaches`, numbered as in
    the plain allocation graph, go in a stable sort on the reach, so ties
    stay agent-major.  For goods, one spare slot per agent follows, each
    reaching every good, by the gap ``g_i = ceil(m*alpha_i) - m*alpha_i``,
    smallest first, ties by index.  Every plain slot picks, so agent ``i``
    then holds ``ceil(m*alpha_i) - 1`` goods, ``1 - g_i`` below
    ``m*alpha_i``: the agents furthest below their share pick first, and
    the ``n - sum(g_i) <= n`` leftover goods need no agent twice.  One
    forward pointer per agent finds the first free item of a slot's reach: an
    agent's slots come in order of growing reach, so every item its
    pointer has passed is taken.  A slot that finds nothing is matched to
    a dummy, and the pass stops once every item is taken.  So the picks in
    order are a picking sequence, and the slot matching is Pareto-optimal
    (Abraham, Cechlárová, Manlove and Mehlhorn, ISAAC 2004).

    At most ``r - 1`` goods slots reach ``r`` goods or fewer, and at most
    ``r + d - 1`` chores slots reach ``r`` chores or fewer (``d`` dummy
    chores), so a chore left over, or a plain goods slot that picks
    nothing, raises :class:`~fairmatch.core.InternalError`.  Returns the
    picks in order as ``(slot, agent)``, with slot ``-1`` for a spare
    slot, the plain slots narrowest first, and the owner of each item.
    """
    m = instance.m
    best_first: list[tuple[int, ...]] = []
    reach: list[int] = []  # of each plain slot
    agent: list[int] = []
    for i, (row, reaches) in enumerate(slot_reaches(instance)):
        best_first.append(row)
        reach += reaches
        agent += [i] * len(reaches)
    order = sorted(range(len(reach)), key=reach.__getitem__)
    goods = instance.kind == GOODS
    spares = []
    if goods:
        # g_i = ((-m*a) mod b) / b for alpha_i = a/b, as an integer over
        # the common denominator: a Fraction key made the call 80% slower
        ratios = [x.entitlement.as_integer_ratio() for x in instance.agents]
        lcm = math.lcm(*(b for _, b in ratios))
        gap = [-m * a % b * (lcm // b) for a, b in ratios]
        spares = [(-1, m, i) for i in sorted(range(instance.n), key=gap.__getitem__)]
    plain = zip(order, map(reach.__getitem__, order), map(agent.__getitem__, order))
    owner = [-1] * m
    point = [0] * instance.n
    picks: list[tuple[int, int]] = []
    for s, r, i in chain(plain, spares):
        if len(picks) == m:
            break
        row, k = best_first[i], point[i]
        while k < r and owner[row[k]] >= 0:
            k += 1
        if k < r:
            owner[row[k]] = i
            picks.append((s, i))
            k += 1
        elif goods and s >= 0:
            raise InternalError(f"goods slot {s} reaches no free good")
        point[i] = k
    if len(picks) != m:
        raise InternalError(f"{m - len(picks)} of {m} items left unassigned")
    return picks, order, owner


def solve_with_sequence(
    instance: Instance,
) -> tuple[IntegralAllocation, PickingSequence]:
    """Fair allocation together with a picking sequence that reproduces it.

    The allocation is :func:`perfect_allocation`'s, and the sequence lists
    the agents of the serial dictatorship's picks in order, spare slots
    included for goods, so every item is picked.  ``slots`` holds the
    plain graph's slots that picked, in pick order, then its empty-handed
    ones, narrowest first.  Simulating the returned sequence
    (:func:`fairmatch.fairness.simulate_picking_sequence`) rebuilds the
    returned allocation item for item.
    """
    picks, order, owner = _serial_dictatorship(instance)
    picked = [s for s, _ in picks if s >= 0]
    taken = set(picked)
    sequence = PickingSequence(
        sequence=tuple(i for _, i in picks),
        slots=tuple(picked + [s for s in order if s not in taken]),
    )
    return allocation_from_owners(instance, owner), sequence


def perfect_allocation(instance: Instance) -> IntegralAllocation:
    """A fair allocation via a side-perfect matching of the plain graph.

    Each slot, narrowest first, takes its agent's best free item within
    its reach, a prefix of the agent's items best first, with no graph
    built.  Chores: every chore is taken, and the dummy-matched slots
    hold nothing.  Goods: every slot takes a good, and the leftover goods
    go one each to the agents furthest below ``m*alpha``, through one
    spare slot of the extended graph per agent.  Any completion of a fair
    partial allocation stays fair.
    """
    _, _, owner = _serial_dictatorship(instance)
    return allocation_from_owners(instance, owner)
