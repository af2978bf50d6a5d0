"""Brute-force ground truth for the fairness characterization, in exact rationals.

The paper rests on two facts, checked here by brute force on small
instances and independently of the solvers:

* the fair allocations are exactly the side-perfect matchings of the
  allocation graph: :func:`enumerate_wsdprop1`,
  :func:`enumerate_side_perfect_matchings` and their cross-check
  :func:`matchings_agree_with`, which the ``oracle`` command runs;
* step valuations span every consistent valuation:
  :func:`step_valuation_oracle` applies the cardinal definition,
  :func:`check_wprop1_cardinal`, under each of them, and
  :func:`check_wsdef_fractional` checks every ranking prefix.

:func:`interval_set` gives the paper's interval sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .allocgraph import AllocationGraph, BipartiteGraph, build_allocation_graph
from .core import (
    CHORES,
    GOODS,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    StepValuation,
    allocation_from_owners,
)
from .fairness import MalformedAllocation, check_bundle
from .matching import Matching


class InstanceTooLarge(ValueError):
    """Enumeration would exceed the configured cap."""


class NegativeValue(ValueError):
    """Cardinal valuations must be nonnegative."""


@dataclass(frozen=True)
class IntervalSet:
    """Partition of the ranked-item line [0, m] into segments of length 1/alpha.

    Interval ``l`` (1-based) is [(l-1)/alpha, l/alpha], the last one clipped
    to m.  There are ceil(m*alpha) intervals; every interval except possibly
    the last has length exactly 1/alpha.  For m = 0 the set is empty.
    """

    agent: int
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def count(self) -> int:
        return len(self.intervals)


def interval_set(instance: Instance, agent: int) -> IntervalSet:
    """Interval set of an agent: ceil(m*alpha) segments tiling [0, m]."""
    alpha = instance.entitlement(agent)
    m = instance.m
    count = -(-m * alpha.numerator // alpha.denominator)
    intervals = []
    for ell in range(1, count + 1):
        lo = Fraction(ell - 1) / alpha
        hi = min(Fraction(ell) / alpha, Fraction(m))
        intervals.append((lo, hi))
    return IntervalSet(agent=agent, intervals=tuple(intervals))


def check_wprop1_cardinal(
    kind: str,
    bundle: Iterable[str],
    valuation: Mapping[str, Fraction],
    alpha: Fraction,
) -> bool:
    """Literal proportionality-up-to-one-item check for one cardinal valuation.

    Chores: some chore's removal brings the bundle disutility to at most
    ``alpha`` times the total (an empty bundle removes nothing).  Goods:
    some item's addition lifts the bundle utility to at least ``alpha``
    times the total.
    """
    values = {item: Fraction(v) for item, v in valuation.items()}
    if any(v < 0 for v in values.values()):
        raise NegativeValue("valuations must be nonnegative")
    bundle = list(bundle)
    unknown = [item for item in bundle if item not in values]
    if unknown:
        raise MalformedAllocation(f"valuation missing items: {unknown}")
    total = sum(values.values(), Fraction(0))
    bundle_value = sum((values[item] for item in bundle), Fraction(0))
    if kind == CHORES:
        drop = max((values[item] for item in bundle), default=Fraction(0))
        return bundle_value - drop <= alpha * total
    held = set(bundle)
    gain = max(
        (v for item, v in values.items() if item not in held),
        default=Fraction(0),
    )
    return bundle_value + gain >= alpha * total


def step_valuation_oracle(instance: Instance, agent: int, bundle: Iterable[str]) -> bool:
    """The cardinal condition under every step valuation of the agent.

    Step valuations are the extreme rays of the cone of consistent additive
    valuations, so quantifying over thresholds ``1..m`` is equivalent to
    quantifying over all of them.  Kept separate from
    :func:`~fairmatch.fairness.check_bundle` so the two can cross-validate
    each other.
    """
    bundle = list(bundle)
    alpha = instance.entitlement(agent)
    return all(
        check_wprop1_cardinal(
            instance.kind, bundle, StepValuation(k).values(instance, agent), alpha
        )
        for k in range(1, instance.m + 1)
    )


def check_wsdef_fractional(
    instance: Instance, allocation: FractionalAllocation
) -> bool:
    """Entitlement-normalized envy-freeness of a fractional allocation.

    For every ordered agent pair (i, k) and every prefix of agent i's own
    ranking, the prefix share of i divided by ``alpha_i`` must be at least
    (goods) or at most (chores) the same prefix share of k divided by
    ``alpha_k``.  Prefix sums over a ranking are exactly the step
    valuations, which span all consistent valuations.
    """
    shares = allocation.shares
    if len(shares) != instance.n or any(len(row) != instance.m for row in shares):
        raise MalformedAllocation("share matrix has the wrong shape")
    if any(x < 0 or x > 1 for row in shares for x in row):
        raise MalformedAllocation("shares must lie in [0, 1]")
    for j in range(instance.m):
        column = sum((shares[i][j] for i in range(instance.n)), Fraction(0))
        if column != 1:
            raise MalformedAllocation(f"column {j} sums to {column}, expected 1")
    item_index = {item: j for j, item in enumerate(instance.items)}
    for i in range(instance.n):
        order = [item_index[item] for item in instance.agents[i].ranking]
        alpha_i = instance.entitlement(i)
        for k in range(instance.n):
            if i == k:
                continue
            alpha_k = instance.entitlement(k)
            own = Fraction(0)
            other = Fraction(0)
            for j in order:
                own += shares[i][j]
                other += shares[k][j]
                if instance.kind == GOODS:
                    if own / alpha_i < other / alpha_k:
                        return False
                else:
                    if own / alpha_i > other / alpha_k:
                        return False
    return True


def enumerate_wsdprop1(
    instance: Instance, cap: int = 10**6
) -> list[IntegralAllocation]:
    """All complete allocations passing the bundle conditions, in
    deterministic item-major assignment order."""
    n, m = instance.n, instance.m
    if n**m > cap:
        raise InstanceTooLarge(f"{n}^{m} allocations exceed cap {cap}")
    found = []
    for assignment in itertools.product(range(n), repeat=m):
        allocation = allocation_from_owners(instance, assignment)
        if all(
            check_bundle(instance, i, allocation.bundles[i]).passes for i in range(n)
        ):
            found.append(allocation)
    return found


def allocation_from_matching(
    matching: Matching, graph: AllocationGraph, instance: Instance
) -> IntegralAllocation:
    """Bundle each real matched item with the agent owning its slot."""
    owner = [-1] * instance.m
    for s, j in matching.pairs:
        if not graph.is_dummy_item(j):
            owner[j] = graph.slots[s].agent
    return allocation_from_owners(instance, owner)


def enumerate_side_perfect_matchings(
    graph: BipartiteGraph, saturate: str, cap: int | None = None
) -> Iterator[Matching]:
    """Yield every matching saturating one side, by backtracking; for small graphs.

    ``saturate`` is ``"left"`` or ``"right"``.  Used as a brute-force
    oracle against the solvers and by :func:`matchings_agree_with`.  With
    a ``cap``, the search raises :class:`InstanceTooLarge` as soon as it
    visits more than ``cap`` matchings.  It saturates the vertices from
    an explicit stack, narrowest neighbourhood first (ties by index): one
    agent's neighbourhoods nest, so then no branch dead-ends.
    """
    if saturate == "left":
        neighbors = [list(row) for row in graph.adjacency]
    elif saturate == "right":
        neighbors = [[] for _ in range(graph.right_count)]
        for i, row in enumerate(graph.adjacency):
            for j in row:
                neighbors[j].append(i)
    else:
        raise ValueError("saturate must be 'left' or 'right'")
    order = sorted(range(len(neighbors)), key=lambda v: (len(neighbors[v]), v))

    def backtrack() -> Iterator[Matching]:
        visited = 0
        chosen: list[int] = []  # the partners of order[: len(chosen)]
        used: set[int] = set()
        stack: list[Iterator[int]] = []  # each vertex's untried neighbours
        while True:
            if len(chosen) == len(order):
                visited += 1
                if cap is not None and visited > cap:
                    raise InstanceTooLarge(f"side-perfect matchings exceed cap {cap}")
                pairs = zip(chosen, order) if saturate == "right" else zip(order, chosen)
                yield Matching(pairs=tuple(sorted(pairs)))
            else:
                stack.append(iter(neighbors[order[len(chosen)]]))
            while stack:  # the deepest vertex takes its next free neighbour
                if len(chosen) == len(stack):
                    used.discard(chosen.pop())
                w = next((w for w in stack[-1] if w not in used), -1)
                if w >= 0:
                    chosen.append(w)
                    used.add(w)
                    break
                stack.pop()
            else:
                return

    return backtrack()


def matchings_agree_with(
    instance: Instance,
    allocations: Iterable[IntegralAllocation],
    cap: int | None = None,
) -> bool:
    """Whether the plain graph's side-perfect matchings give the fair ``allocations``.

    Chores: the chore-saturating matchings give exactly ``allocations``.
    Goods: the slot-saturating matchings give partial allocations; each
    of ``allocations`` contains one, and each lies in one of them.  The
    matchings are folded into a set of bundles one at a time; ``cap``
    bounds those visited.
    """
    graph = build_allocation_graph(instance)
    side = "left" if instance.kind == GOODS else "right"
    matched = {
        allocation_from_matching(match, graph, instance).bundles
        for match in enumerate_side_perfect_matchings(graph, side, cap)
    }
    enumerated = {allocation.bundles for allocation in allocations}
    if instance.kind != GOODS:
        return matched == enumerated

    def contains(complete, partial):
        return all(p <= c for c, p in zip(complete, partial))

    return all(any(contains(c, p) for p in matched) for c in enumerated) and all(
        any(contains(c, p) for c in enumerated) for p in matched
    )
