"""The fairness verifier behind ``verify``, and picking-sequence replay.

The central routine is :func:`check_bundle`, the exact characterization of
bundles that stay proportional-up-to-one-item under every valuation
consistent with the agent's ranking:

* chores, sorted in-bundle positions ``r_1 < ... < r_k``:
  ``k <= floor(m*alpha) + 1`` and ``r_l >= ceil((l-1)/alpha)`` for all l;
* goods: ``k >= ceil(m*alpha) - 1`` and ``r_l <= floor(l/alpha) + 1``.

The bounds are checked in integers, on positions read from one pass over
the ranking; :func:`check_allocation` checks each bundle the same way.
Every failed check carries a step-valuation witness under which the
bundle provably violates the cardinal definition, so negative verdicts
can be re-checked independently via
:func:`fairmatch.oracle.check_wprop1_cardinal`.  The module also holds
the greedy picking-sequence simulator and the text report of ``verify``.
The brute-force checks, in exact rationals, are in :mod:`fairmatch.oracle`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import CHORES, GOODS, Instance, IntegralAllocation, StepValuation


class MalformedAllocation(ValueError):
    """Allocation is inconsistent with the instance."""


class SequenceTooLongForItems(ValueError):
    """Picking sequence has more steps than there are items."""


class IncompleteChoresSequence(ValueError):
    """A chores picking sequence must allocate every chore."""


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

    The in-bundle positions come sorted from one pass over the agent's
    ranking; an item the ranking lacks raises :class:`MalformedAllocation`.
    The count-bound witness values every item at 1; a rank-bound witness at
    level ``l`` values exactly the ranking prefix that the offending item
    fails to reach.
    """
    held = set(bundle)
    ranking = instance.agents[agent].ranking
    m = instance.m
    positions = list(itertools.compress(range(1, m + 1), map(held.__contains__, ranking)))
    if len(positions) != len(held):
        raise MalformedAllocation(f"unknown items {sorted(held.difference(ranking))}")
    # the bounds of the module docstring in integers, for alpha = a/b
    alpha = instance.entitlement(agent)
    a, b = alpha.numerator, alpha.denominator
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
    """Check every bundle with :func:`check_bundle`; pass iff all bundles do.

    Raises :class:`MalformedAllocation` when bundles overlap, mention
    unknown items, have the wrong agent count, or (for chores) fail to
    cover every item.  Goods allocations may be partial.
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
    reports = tuple(
        check_bundle(instance, i, bundle) for i, bundle in enumerate(allocation.bundles)
    )
    return AllocationReport(reports=reports, passes=all(r.passes for r in reports))


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
