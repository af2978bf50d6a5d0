"""Ranked bipartite graphs built by hand, and their rank profiles.

The tests state the paper's rank-maximal construction on small graphs
given as an edge-to-rank map; no command builds such a graph.
"""

from fairmatch.allocgraph import BipartiteGraph
from fairmatch.matching import Matching


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
