"""Matching machinery over ranked bipartite graphs.

This module bundles every matching primitive the library needs:

* maximum-cardinality bipartite matching (scipy's Hopcroft-Karp backend);
* an exact minimum-cost assignment solver over any linearly ordered
  abelian cost group, instantiated twice: scaled big integers for rational
  costs, and per-rank count vectors compared lexicographically (stored as
  int64 arrays so the inner loops vectorize) for rank-maximal matching;
* rank-maximal perfect matchings, signatures, slot-order normalization;
* picking-sequence extraction from a rank-maximal matching;
* Birkhoff-von Neumann decomposition of exact doubly stochastic matrices.

No floating point anywhere: assignment costs are integers after clearing
denominators, and the decomposition scales the matrix once by the least
common multiple of its denominators and subtracts integers, not
rationals, until the matrix is identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .allocgraph import AllocationGraph, BipartiteGraph
from .core import Instance, IntegralAllocation


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
    """A set of (left, right) pairs with no vertex repeated."""

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
    """Maximum-cardinality matching; deterministic for a fixed vertex order."""
    left, right = graph.left_count, graph.right_count
    nnz = sum(len(row) for row in graph.adjacency)
    if left == 0 or right == 0 or nnz == 0:
        return Matching(pairs=())
    indptr = np.zeros(left + 1, dtype=np.int64)
    for i, row in enumerate(graph.adjacency):
        indptr[i + 1] = indptr[i] + len(row)
    indices = np.fromiter(
        (j for row in graph.adjacency for j in row), dtype=np.int64, count=nnz
    )
    data = np.ones(nnz, dtype=np.int8)
    matrix = csr_matrix((data, indices, indptr), shape=(left, right))
    row_match = maximum_bipartite_matching(matrix, perm_type="column")
    pairs = tuple((i, int(j)) for i, j in enumerate(row_match) if j >= 0)
    return Matching(pairs=pairs)


def signature(matching: Matching, graph: BipartiteGraph) -> tuple[int, ...]:
    """Per-rank edge counts of a matching, indexed by rank 1..max_rank."""
    width = graph.max_rank()
    counts = [0] * width
    for i, j in matching.pairs:
        counts[graph.rank_of(i, j) - 1] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# Exact assignment (minimum-cost perfect matching on a balanced graph)
#
# Both kernels implement the same O(p^3) successive-shortest-path scheme
# with dual potentials; they only differ in the cost arithmetic.  The
# algorithm uses nothing beyond +, -, < and a zero element, so it is exact
# over integers and over lexicographically ordered count vectors alike.
# ---------------------------------------------------------------------------

def _hungarian_scalar(cost: list[list[object]]) -> list[int]:
    """Min-cost perfect matching for a square matrix of ints (None = no edge).

    Returns ``row_of_col``: for each column, the matched row (0-based).
    """
    p = len(cost)
    u = [0] * (p + 1)
    v = [0] * (p + 1)
    match_col = [0] * (p + 1)  # column -> matched row, 1-based; 0 = free
    way = [0] * (p + 1)
    for i in range(1, p + 1):
        match_col[0] = i
        j0 = 0
        minv: list[object] = [None] * (p + 1)
        used = [False] * (p + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            row = cost[i0 - 1]
            delta = None
            j1 = -1
            for j in range(1, p + 1):
                if used[j]:
                    continue
                c = row[j - 1]
                if c is not None:
                    cur = c - u[i0] - v[j]
                    if minv[j] is None or cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] is not None and (delta is None or minv[j] < delta):
                    delta = minv[j]
                    j1 = j
            if delta is None:
                raise NoPerfectMatching("graph admits no perfect matching")
            for j in range(p + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    return [match_col[j] - 1 for j in range(1, p + 1)]


def _lex_lt_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b for two (k, width) int arrays."""
    d = a - b
    nz = d != 0
    any_nz = nz.any(axis=1)
    first = nz.argmax(axis=1)
    return any_nz & (d[np.arange(d.shape[0]), first] < 0)


def _lex_argmin(matrix: np.ndarray, rows: np.ndarray) -> int:
    """Index (into ``matrix``) of the lexicographically smallest row among ``rows``."""
    cand = rows
    for col in range(matrix.shape[1]):
        vals = matrix[cand, col]
        mn = vals.min()
        cand = cand[vals == mn]
        if cand.size == 1:
            break
    return int(cand[0])


def _hungarian_lex(
    row_cost: Callable[[int], np.ndarray],
    row_finite: Callable[[int], np.ndarray],
    p: int,
    width: int,
) -> list[int]:
    """Lexicographic-cost variant of :func:`_hungarian_scalar`.

    ``row_cost(i)`` yields the (p, width) int64 cost vectors of row ``i``;
    ``row_finite(i)`` the (p,) mask of existing edges.  Returns
    ``row_of_col`` like the scalar kernel.
    """
    u = np.zeros((p + 1, width), dtype=np.int64)
    v = np.zeros((p + 1, width), dtype=np.int64)
    match_col = np.zeros(p + 1, dtype=np.int64)
    way = np.zeros(p + 1, dtype=np.int64)
    for i in range(1, p + 1):
        match_col[0] = i
        j0 = 0
        minv = np.zeros((p + 1, width), dtype=np.int64)
        minv_fin = np.zeros(p + 1, dtype=bool)
        used = np.zeros(p + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = int(match_col[j0])
            cur = row_cost(i0 - 1) - u[i0] - v[1:]
            cand = row_finite(i0 - 1) & ~used[1:]
            improve = cand & (~minv_fin[1:] | _lex_lt_rows(cur, minv[1:]))
            hit = np.nonzero(improve)[0]
            if hit.size:
                minv[hit + 1] = cur[hit]
                minv_fin[hit + 1] = True
                way[hit + 1] = j0
            legal = np.nonzero(minv_fin & ~used)[0]
            if legal.size == 0:
                raise NoPerfectMatching("graph admits no perfect matching")
            j1 = _lex_argmin(minv, legal)
            delta = minv[j1].copy()
            used_cols = np.nonzero(used)[0]
            u[match_col[used_cols]] += delta
            v[used_cols] -= delta
            open_cols = np.nonzero(minv_fin & ~used)[0]
            minv[open_cols] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            match_col[j0] = match_col[j1]
            j0 = j1
    if max(int(np.abs(u).max()), int(np.abs(v).max())) > 2**52:
        raise MatchingInternalError("lex potentials grew past the safe integer range")
    return [int(match_col[j]) - 1 for j in range(1, p + 1)]


def assignment_min_cost(
    graph: BipartiteGraph,
    cost: Callable[[int, int], object],
    maximize: bool = False,
) -> Matching:
    """Perfect matching minimizing the total edge cost, exactly.

    ``cost`` must be defined on every edge of the (balanced) graph and
    return either exact rationals/integers or :class:`LexCost` vectors of a
    common width.  Rational costs are scaled to integers by clearing
    denominators; lex costs run on the vectorized kernel.  Ties break
    deterministically by vertex order.
    """
    p = graph.left_count
    if p != graph.right_count:
        raise NoPerfectMatching(
            f"graph is unbalanced ({p} left vs {graph.right_count} right)"
        )
    if p == 0:
        return Matching(pairs=())
    values: dict[tuple[int, int], object] = {}
    for i in range(p):
        for j in graph.adjacency[i]:
            values[(i, j)] = cost(i, j)
    if not values:
        raise NoPerfectMatching("graph has no edges")
    sample = next(iter(values.values()))
    if isinstance(sample, LexCost):
        width = len(sample.counts)
        tensor = np.zeros((p, p, width), dtype=np.int64)
        finite = np.zeros((p, p), dtype=bool)
        sign = -1 if maximize else 1
        for (i, j), val in values.items():
            if not isinstance(val, LexCost) or len(val.counts) != width:
                raise ValueError("all LexCost values must share one width")
            tensor[i, j] = np.asarray(val.counts, dtype=np.int64) * sign
            finite[i, j] = True
        row_of_col = _hungarian_lex(
            lambda i: tensor[i], lambda i: finite[i], p, width
        )
    else:
        denom = math.lcm(
            *(Fraction(val).denominator for val in values.values())
        )
        sign = -1 if maximize else 1
        matrix: list[list[object]] = [[None] * p for _ in range(p)]
        for (i, j), val in values.items():
            scaled = Fraction(val) * denom * sign
            matrix[i][j] = scaled.numerator
        row_of_col = _hungarian_scalar(matrix)
    pairs = sorted((row, col) for col, row in enumerate(row_of_col))
    return Matching(pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# Rank-maximal perfect matching
# ---------------------------------------------------------------------------

def rank_maximal_perfect_matching(graph: BipartiteGraph) -> Matching:
    """Perfect matching with the lexicographically greatest signature.

    Implemented as exact assignment with the per-edge cost ``ones minus the
    unit vector at the edge's rank``: minimizing that total lexicographically
    maximizes the count of rank-1 edges, then rank-2, and so on.  An
    unbalanced graph with fewer left than right vertices is padded with
    virtual left vertices adjacent to everything at one rank beyond the
    worst, so the result saturates the left side (every perfect matching
    carries the same constant count at the padding rank).

    On an extended allocation graph every dummy item is matched in every
    perfect matching, each contributing one edge at its own rank, so the
    dummy tail of the signature is constant; dummy edges therefore get a
    constant cost and the vectors only need the real ranks, which keeps
    them short.
    """
    left, right = graph.left_count, graph.right_count
    if left > right:
        raise NoPerfectMatching("left side larger than right side")
    flat_items = None
    if isinstance(graph, AllocationGraph) and graph.extended:
        flat_items = graph.real_item_count
    width = 0
    for i in range(left):
        for j, r in zip(graph.adjacency[i], graph.ranks[i]):
            if flat_items is None or j < flat_items:
                width = max(width, r)
    pad = right - left
    pad_rank = width + 1 if pad else max(width, 1)
    if right == 0:
        return Matching(pairs=())

    ranks = np.zeros((right, right), dtype=np.int64)
    finite = np.zeros((right, right), dtype=bool)
    for i in range(left):
        cols = np.asarray(graph.adjacency[i], dtype=np.int64)
        if cols.size:
            ranks[i, cols] = np.asarray(graph.ranks[i], dtype=np.int64)
            finite[i, cols] = True
    if flat_items is not None:
        ranks[:, flat_items:] = 0  # constant-cost edges, no rank column
    if pad:
        ranks[left:, :] = pad_rank
        finite[left:, :] = True

    def row_cost(i: int) -> np.ndarray:
        out = np.ones((right, pad_rank), dtype=np.int64)
        rows = np.nonzero(finite[i] & (ranks[i] > 0))[0]
        out[rows, ranks[i, rows] - 1] = 0
        return out

    row_of_col = _hungarian_lex(row_cost, lambda i: finite[i], right, pad_rank)
    pairs = sorted((row, col) for col, row in enumerate(row_of_col) if row < left)
    return Matching(pairs=tuple(pairs))


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

DoublyStochasticMatrix = Sequence[Sequence[Fraction]]


def bvn_decompose(
    matrix: DoublyStochasticMatrix,
) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Decompose an exact doubly stochastic matrix into permutation matrices.

    Returns ``[(weight, perm), ...]`` with ``perm[row] = column``, weights
    summing to exactly 1 and ``sum(weight * permutation) == matrix``.  Each
    round finds a perfect matching on the support (one exists by Hall's
    condition while the matrix stays doubly stochastic), peels off the
    minimum entry along it, and repeats; at least one entry is zeroed per
    round, so the part count is at most ``p*p - p + 2``.

    The matrix is scaled once by the least common multiple of its
    denominators, and each row is kept as a ``{column: int}`` map of its
    positive entries, so a round costs time in the size of the support.
    """
    p = len(matrix)
    rows: list[dict[int, Fraction]] = []
    for row in matrix:
        if len(row) != p:
            raise NotDoublyStochastic("matrix is not square")
        entries = {}
        for j, x in enumerate(row):
            if x:
                x = Fraction(x)
                if x.numerator < 0:
                    raise NotDoublyStochastic("matrix has a negative entry")
                entries[j] = x
        rows.append(entries)
    denom = math.lcm(*(x.denominator for row in rows for x in row.values()))
    # built in ascending column order and only ever shrunk, so the keys of
    # every row stay sorted, as a graph's adjacency must be
    work = [
        {j: x.numerator * (denom // x.denominator) for j, x in row.items()}
        for row in rows
    ]
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
    graph: BipartiteGraph, saturate: str
) -> list[Matching]:
    """All matchings saturating one side, by backtracking; for small graphs.

    ``saturate`` is ``"left"`` or ``"right"``.  Used as a brute-force
    oracle against the solvers and for the matching-versus-enumeration
    cross-check.
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
