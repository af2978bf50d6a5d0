"""Ranked bipartite graphs built by hand, their rank profiles, the
min-cost kernel before its searches were cut short, and the kernel's
prefix input written out as plain rows.

The tests state the paper's rank-maximal construction on small graphs
given as an edge-to-rank map; no command builds such a graph.
"""

import heapq
from typing import Sequence

from fairmatch.allocgraph import BipartiteGraph
from fairmatch.matching import Matching, NoPerfectMatching, max_matching


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


def max_rank(graph: BipartiteGraph) -> int:
    """The largest edge rank of a graph, 0 without edges."""
    return max((max(r) for r in graph.ranks if r), default=0)


def signature(matching: Matching, graph: BipartiteGraph) -> tuple[int, ...]:
    """Per-rank edge counts of a matching, indexed by rank 1..max_rank."""
    counts = [0] * max_rank(graph)
    for i, j in matching.pairs:
        counts[graph.rank_of(i, j) - 1] += 1
    return tuple(counts)


def uncut_assignment_min_cost(
    adjacency: Sequence[Sequence[int]],
    costs: Sequence[Sequence[int]],
    right_count: int,
    after: Sequence[int] | None = None,
) -> Matching:
    """:func:`fairmatch.matching.assignment_min_cost` as it was before its
    searches skipped pushes that cannot pop before they end: every
    improved distance is pushed, and stale entries are skipped when
    popped.  The kernel must return the same pairs, and raise
    :class:`~fairmatch.matching.NoPerfectMatching` in the same cases.
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
    max_matching(tight, mate, owner)
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


def expand_prefixes(
    adjacency: Sequence[Sequence[int]],
    costs: Sequence[Sequence[int]],
    prefix: Sequence[tuple[int, int]],
) -> tuple[list[Sequence[int]], list[Sequence[int]]]:
    """One row and one cost row per left vertex of
    :func:`fairmatch.matching.assignment_min_cost` called with ``prefix``:
    ``prefix[i] = (g, length)`` becomes ``adjacency[g][:length]`` at
    ``costs[g][:length]``."""
    rows = [adjacency[g][:length] for g, length in prefix]
    return rows, [costs[g][:length] for g, length in prefix]
