"""Verification oracles for proportionality up to one item.

The central routine is :func:`check_bundle`, the exact characterization of
bundles that stay proportional-up-to-one-item under every valuation
consistent with the agent's ranking:

* chores, sorted in-bundle positions ``r_1 < ... < r_k``:
  ``k <= floor(m*alpha) + 1`` and ``r_l >= ceil((l-1)/alpha)`` for all l;
* goods: ``k >= ceil(m*alpha) - 1`` and ``r_l <= floor(l/alpha) + 1``.

Every failed check carries a step-valuation witness under which the bundle
provably violates the cardinal definition, so negative verdicts can be
re-checked independently via :func:`check_wprop1_cardinal`.  The module
also hosts the brute-force oracles used to validate the matching pipeline:
an exhaustive step-valuation check, a fractional envy-freeness check by
prefix sums, the greedy picking-sequence simulator, and full enumeration
of all fair allocations on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    CHORES,
    GOODS,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    StepValuation,
)


class MalformedAllocation(ValueError):
    """Allocation is inconsistent with the instance."""


class InstanceTooLarge(ValueError):
    """Enumeration would exceed the configured cap."""


class SequenceTooLongForItems(ValueError):
    """Picking sequence has more steps than there are items."""


class IncompleteChoresSequence(ValueError):
    """A chores picking sequence must allocate every chore."""


class NegativeValue(ValueError):
    """Cardinal valuations must be nonnegative."""


@dataclass(frozen=True)
class BundleReport:
    """Verdict for one agent's bundle, with a witness when it fails."""

    agent: int
    passes: bool
    condition: str | None = None  # "CountBound" or "RankBound"
    position: int | None = None  # the l of a failed rank bound
    witness: StepValuation | None = None


@dataclass(frozen=True)
class AllocationReport:
    reports: tuple[BundleReport, ...]
    passes: bool


def check_bundle(instance: Instance, agent: int, bundle: Iterable[str]) -> BundleReport:
    """Exact bundle check with a step-valuation witness on failure.

    The count-bound witness values every item at 1; a rank-bound witness at
    level ``l`` values exactly the ranking prefix that the offending item
    fails to reach.
    """
    positions = sorted(instance.position(agent, item) for item in bundle)
    return _check_positions(instance, agent, positions)


def _check_positions(instance: Instance, agent: int, positions: list[int]) -> BundleReport:
    # the bounds of the module docstring in integers, for alpha = a/b
    alpha = instance.entitlement(agent)
    a, b = alpha.numerator, alpha.denominator
    m = instance.m
    chores = instance.kind == CHORES
    if chores:
        count_fails = len(positions) > m * a // b + 1
    else:
        count_fails = len(positions) < -(-m * a // b) - 1
    if count_fails:
        return BundleReport(
            agent=agent,
            passes=False,
            condition="CountBound",
            witness=StepValuation(threshold=m),
        )
    for ell, r in enumerate(positions, start=1):
        if chores:
            bound = -(-(ell - 1) * b // a)
            failed, threshold = r < bound, bound - 1
        else:
            bound = ell * b // a + 1
            failed, threshold = r > bound, bound
        if failed:
            return BundleReport(
                agent=agent,
                passes=False,
                condition="RankBound",
                position=ell,
                witness=StepValuation(threshold=threshold),
            )
    return BundleReport(agent=agent, passes=True)


def check_allocation(
    instance: Instance, allocation: IntegralAllocation
) -> AllocationReport:
    """Check every bundle; the allocation passes iff all bundles do.

    Raises :class:`MalformedAllocation` when bundles overlap, mention
    unknown items, have the wrong agent count, or (for chores) fail to
    cover every item.  Goods allocations may be partial.  Each agent's
    in-bundle positions come sorted from one pass over its ranking, and
    the verdicts and witnesses are those of :func:`check_bundle`.
    """
    if len(allocation.bundles) != instance.n:
        raise MalformedAllocation(
            f"expected {instance.n} bundles, got {len(allocation.bundles)}"
        )
    item_set = set(instance.items)
    seen: set[str] = set()
    for bundle in allocation.bundles:
        for item in bundle:
            if item not in item_set:
                raise MalformedAllocation(f"unknown item {item!r}")
            if item in seen:
                raise MalformedAllocation(f"item {item!r} allocated twice")
            seen.add(item)
    if instance.kind == CHORES and seen != item_set:
        missing = sorted(item_set - seen)
        raise MalformedAllocation(f"chores left unallocated: {missing}")
    positions = range(1, instance.m + 1)
    reports = tuple(
        _check_positions(
            instance,
            i,
            list(itertools.compress(positions, map(bundle.__contains__, agent.ranking))),
        )
        for i, (agent, bundle) in enumerate(zip(instance.agents, allocation.bundles))
    )
    return AllocationReport(reports=reports, passes=all(r.passes for r in reports))


def step_valuation_oracle(instance: Instance, agent: int, bundle: Iterable[str]) -> bool:
    """Independent oracle: test the cardinal condition under every step valuation.

    Step valuations are the extreme rays of the cone of consistent additive
    valuations, so quantifying over thresholds ``1..m`` is equivalent to
    quantifying over all of them.  Kept deliberately separate from
    :func:`check_bundle` so the two can cross-validate each other.
    """
    alpha = instance.entitlement(agent)
    positions = sorted(instance.position(agent, item) for item in bundle)
    size = len(positions)
    for k in range(1, instance.m + 1):
        valued = 0
        for r in positions:
            if r <= k:
                valued += 1
            else:
                break
        if instance.kind == CHORES:
            # remove one item, preferring a valued one; empty bundle removes nothing
            best = valued - 1 if valued > 0 else 0
            if best > alpha * k:
                return False
        else:
            # add any item of the whole set; only helps if a valued one is left
            best = valued + 1 if valued < k else valued
            if best < alpha * k:
                return False
    return True


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
    gain = max(
        (v for item, v in values.items() if item not in set(bundle)),
        default=Fraction(0),
    )
    return bundle_value + gain >= alpha * total


def simulate_picking_sequence(
    instance: Instance, sequence: Sequence[int]
) -> IntegralAllocation:
    """Greedy simulation: each acting agent takes its most preferred available item.

    Most preferred means the lowest ranking position for goods and the
    highest position for chores.  Goods sequences may be shorter than m
    (leftover goods stay unallocated); chores sequences must pick every
    chore.
    """
    m = instance.m
    if len(sequence) > m:
        raise SequenceTooLongForItems(f"{len(sequence)} picks for {m} items")
    if instance.kind == CHORES and len(sequence) < m:
        raise IncompleteChoresSequence(
            f"chores sequence of length {len(sequence)} leaves items unallocated"
        )
    available = set(instance.items)
    bundles: list[set[str]] = [set() for _ in range(instance.n)]
    for agent in sequence:
        ranking = instance.agents[agent].ranking
        order = ranking if instance.kind == GOODS else reversed(ranking)
        pick = next(item for item in order if item in available)
        available.discard(pick)
        bundles[agent].add(pick)
    return IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))


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
    """All complete allocations passing :func:`check_allocation`, in
    deterministic item-major assignment order."""
    n, m = instance.n, instance.m
    if n**m > cap:
        raise InstanceTooLarge(f"{n}^{m} allocations exceed cap {cap}")
    found = []
    for assignment in itertools.product(range(n), repeat=m):
        bundles: list[set[str]] = [set() for _ in range(n)]
        for item, agent in zip(instance.items, assignment):
            bundles[agent].add(item)
        allocation = IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))
        if all(
            check_bundle(instance, i, allocation.bundles[i]).passes for i in range(n)
        ):
            found.append(allocation)
    return found


def render_report(instance: Instance, report: AllocationReport) -> str:
    """Structured text: per-agent verdicts, violated conditions, witnesses."""
    lines = []
    for entry in report.reports:
        name = instance.agents[entry.agent].name
        if entry.passes:
            lines.append(f"agent {name}: PASS")
            continue
        condition = entry.condition or "?"
        if entry.condition == "RankBound":
            condition = f"RankBound(l={entry.position})"
        witness = ""
        if entry.witness is not None:
            flavor = "worst chores" if instance.kind == CHORES else "best goods"
            witness = (
                f"; witness: step valuation threshold={entry.witness.threshold}"
                f" (value 1 on the {entry.witness.threshold} {flavor})"
            )
        lines.append(f"agent {name}: FAIL {condition}{witness}")
    lines.append(f"overall: {'PASS' if report.passes else 'FAIL'}")
    return "\n".join(lines) + "\n"
