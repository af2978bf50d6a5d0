"""Test helper: exact assignment on a graph with a per-edge cost callback."""

import math
from fractions import Fraction

from fairmatch.matching import assignment_min_cost


def scaled_assignment(graph, cost, maximize=False, capacity=None):
    """``assignment_min_cost`` with ``cost(left, right)`` on every edge.

    The costs, integers or rationals, are scaled once to integers by the
    least common multiple of their denominators, and negated to maximize.
    """
    rows = [[Fraction(cost(i, j)) for j in adj] for i, adj in enumerate(graph.adjacency)]
    denom = math.lcm(*(c.denominator for row in rows for c in row))
    sign = -1 if maximize else 1
    costs = [[sign * int(c * denom) for c in row] for row in rows]
    return assignment_min_cost(graph.adjacency, costs, graph.right_count, capacity)
