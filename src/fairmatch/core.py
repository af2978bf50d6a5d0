"""Instance model for weighted fair division under ordinal preferences.

An instance consists of a set of indivisible items (all goods or all
chores), and a list of agents, each with an exact rational entitlement and
a strict ranking over all items.  Ranking position semantics depend on the
kind:

* goods:  position 1 is the agent's most favorite good;
* chores: position 1 is the agent's least favorite chore (positions grow
  toward the chores the agent minds least).

The paper's interval sets, used only by the brute-force checks, are in
:mod:`fairmatch.oracle`.  The serial dictatorship, ``optimize`` and the
oracle read their allocations back through :func:`allocation_from_owners`,
and every broken invariant of a construction raises
:class:`InternalError`.

All arithmetic is exact: rationals (``fractions.Fraction``) become
integers over one common denominator once, where they enter (entitlements
in ``bobw``; costs, as the integer pairs of :func:`rational_pair` from a
cost file or from ``optimize.CostSpec.scaled``, in one scaling step), and
the matching kernels take integers only.  Floating point is deliberately
absent, since the matching thresholds and the lottery decomposition both
break under one-ulp errors.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

GOODS = "goods"
CHORES = "chores"
_KINDS = (GOODS, CHORES)


class InstanceError(ValueError):
    """Invalid instance data. ``code`` identifies the violated rule."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class FormatError(ValueError):
    """Structurally malformed input file (unknown fields, bad types, ...)."""


class InternalError(AssertionError):
    """An invariant the construction guarantees failed: a bug, not bad input."""


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_pair(text: str) -> tuple[int, int]:
    """Parse an exact rational from a ``"p/q"`` or integer string, as the
    integers ``(p, q)`` in lowest terms with ``q >= 1``.

    Only ASCII digits, an optional leading ``-`` and one ``/`` are
    accepted: ``int`` alone would also take spaces, ``+``, ``_`` and
    non-ASCII digits.
    """
    if not isinstance(text, str):
        raise FormatError(f"expected rational string, got {text!r}")
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise FormatError(f"bad rational {text!r}: expected p/q or an integer")
    try:
        p, q = int(match[1]), int(match[2] or 1)
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"bad rational {text!r}: {exc}") from exc
    if not q:
        raise FormatError(f"bad rational {text!r}: Fraction({p}, 0)")
    g = math.gcd(p, q)
    return p // g, q // g


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a ``"p/q"`` or integer string (see
    :func:`rational_pair`)."""
    return Fraction(*rational_pair(text))


def format_rational(value: Fraction) -> str:
    """Render a rational so that ``parse_rational`` round-trips it."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Agent:
    """One agent: display name, entitlement, and full strict ranking."""

    name: str
    entitlement: Fraction
    ranking: tuple[str, ...]


@dataclass(frozen=True)
class Instance:
    """A validated allocation instance. Construct via :func:`validate_instance`."""

    kind: str
    items: tuple[str, ...]
    agents: tuple[Agent, ...]

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.items)

    def position(self, agent: int, item: str) -> int:
        """1-based position of ``item`` in agent's ranking (semantics per kind)."""
        return self.agents[agent].ranking.index(item) + 1

    def entitlement(self, agent: int) -> Fraction:
        return self.agents[agent].entitlement

    def agent_index(self, name: str) -> int:
        for i, agent in enumerate(self.agents):
            if agent.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class IntegralAllocation:
    """Per-agent bundles of item identifiers (pairwise disjoint)."""

    bundles: tuple[frozenset[str], ...]

    def owner_map(self) -> dict[str, int]:
        owners: dict[str, int] = {}
        for i, bundle in enumerate(self.bundles):
            for item in bundle:
                owners[item] = i
        return owners


def allocation_from_owners(instance: Instance, owner: Sequence[int]) -> IntegralAllocation:
    """Bundle item ``j`` with agent ``owner[j]``; an owner of -1 leaves it out."""
    bundles: list[list[str]] = [[] for _ in range(instance.n)]
    for item, i in zip(instance.items, owner):
        if i >= 0:
            bundles[i].append(item)
    return IntegralAllocation(bundles=tuple(map(frozenset, bundles)))


@dataclass(frozen=True)
class FractionalAllocation:
    """n x m matrix of exact shares; every column sums to 1."""

    shares: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class StepValuation:
    """0/1 valuation putting value 1 on the first ``threshold`` ranking positions.

    For chores that is the ``threshold`` worst chores, for goods the
    ``threshold`` best goods.  Step valuations respect the agent's ranking
    and are the extreme rays of the consistent-valuation cone, which makes
    them the canonical witnesses for failed fairness checks.
    """

    threshold: int

    def values(self, instance: Instance, agent: int) -> dict[str, Fraction]:
        ranking = instance.agents[agent].ranking
        one, zero = Fraction(1), Fraction(0)
        return {
            item: (one if pos <= self.threshold else zero)
            for pos, item in enumerate(ranking, start=1)
        }


def validate_instance(
    kind: str,
    items: Sequence[str],
    agents: Sequence[tuple[str, Fraction, Sequence[str]]],
) -> Instance:
    """Validate raw instance data and return an :class:`Instance`.

    Raises :class:`InstanceError` with one of the codes ``EmptyAgentList``,
    ``DuplicateAgentName``, ``ZeroEntitlement``, ``EntitlementSumNotOne``,
    ``DuplicateItemInRanking``, ``MissingItemInRanking``.  Agent names must
    be unique, since allocation and lottery files key bundles by name.
    Entitlements must sum to exactly 1; they are never renormalized, and a
    zero entitlement is rejected rather than the agent being silently
    dropped, so that the caller's agent indices stay stable.
    """
    if kind not in _KINDS:
        raise FormatError(f"kind must be one of {_KINDS}, got {kind!r}")
    items = tuple(items)
    if len(set(items)) != len(items):
        raise InstanceError("DuplicateItemInRanking", "item identifiers are not unique")
    if not agents:
        raise InstanceError("EmptyAgentList", "instance needs at least one agent")

    item_set = set(items)
    validated = []
    names = set()
    for name, entitlement, ranking in agents:
        if name in names:
            raise InstanceError("DuplicateAgentName", f"agent name {name!r} is used twice")
        names.add(name)
        entitlement = Fraction(entitlement)
        if entitlement <= 0:
            raise InstanceError(
                "ZeroEntitlement",
                f"agent {name!r} has entitlement {entitlement}; remove the agent instead",
            )
        ranking = tuple(ranking)
        # equal length and equal sets: every item known, none repeated
        if len(ranking) != len(items) or set(ranking) != item_set:
            _reject_ranking(name, ranking, item_set)
        validated.append(Agent(name=name, entitlement=entitlement, ranking=ranking))

    total = sum(agent.entitlement for agent in validated)
    if total != 1:
        raise InstanceError(
            "EntitlementSumNotOne",
            f"entitlements sum to {format_rational(Fraction(total))}, expected 1",
        )
    return Instance(kind=kind, items=items, agents=tuple(validated))


def _reject_ranking(name: str, ranking: tuple[str, ...], item_set: set[str]) -> None:
    """Raise the error of the first bad item of a ranking, else of the missing ones."""
    seen = set()
    for item in ranking:
        if item not in item_set:
            raise InstanceError(
                "MissingItemInRanking",
                f"agent {name!r} ranks unknown item {item!r}",
            )
        if item in seen:
            raise InstanceError(
                "DuplicateItemInRanking",
                f"agent {name!r} ranks item {item!r} twice",
            )
        seen.add(item)
    missing = sorted(item_set - seen)
    raise InstanceError(
        "MissingItemInRanking",
        f"agent {name!r} does not rank {missing}",
    )


def generate_instance(n: int, m: int, kind: str, seed: int) -> Instance:
    """Deterministic random instance: seeded rankings and entitlements.

    Entitlements are drawn as small random positive integers and divided by
    their total, so they sum to exactly 1 without any renormalization step.
    """
    if n < 1:
        raise InstanceError("EmptyAgentList", "need n >= 1")
    if m < 0:
        raise FormatError("need m >= 0")
    rng = random.Random(seed)
    items = tuple(f"b{j + 1}" for j in range(m))
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    agents = []
    for i in range(n):
        ranking = list(items)
        rng.shuffle(ranking)
        agents.append((f"a{i + 1}", Fraction(weights[i], total), ranking))
    return validate_instance(kind, items, agents)


# ---------------------------------------------------------------------------
# Instance file format (strict JSON)
# ---------------------------------------------------------------------------

def instance_to_json(instance: Instance) -> dict:
    return {
        "kind": instance.kind,
        "items": list(instance.items),
        "agents": [
            {
                "name": agent.name,
                "entitlement": format_rational(agent.entitlement),
                "ranking": list(agent.ranking),
            }
            for agent in instance.agents
        ],
    }


def instance_from_json(data: object) -> Instance:
    """Parse the strict instance object; unknown fields are rejected."""
    if not isinstance(data, dict):
        raise FormatError("instance file must contain a JSON object")
    extra = set(data) - {"kind", "items", "agents"}
    if extra:
        raise FormatError(f"unknown instance fields: {sorted(extra)}")
    for field in ("kind", "items", "agents"):
        if field not in data:
            raise FormatError(f"instance file missing field {field!r}")
    items = data["items"]
    if not isinstance(items, list) or not all(map(str.__instancecheck__, items)):
        raise FormatError("items must be an array of strings")
    raw_agents = data["agents"]
    if not isinstance(raw_agents, list):
        raise FormatError("agents must be an array")
    agents = []
    for entry in raw_agents:
        if not isinstance(entry, dict):
            raise FormatError("each agent must be an object")
        extra = set(entry) - {"name", "entitlement", "ranking"}
        if extra:
            raise FormatError(f"unknown agent fields: {sorted(extra)}")
        for field in ("name", "entitlement", "ranking"):
            if field not in entry:
                raise FormatError(f"agent entry missing field {field!r}")
        if not isinstance(entry["name"], str):
            raise FormatError("agent name must be a string")
        ranking = entry["ranking"]
        if not isinstance(ranking, list) or not all(map(str.__instancecheck__, ranking)):
            raise FormatError("agent ranking must be an array of item names")
        agents.append((entry["name"], parse_rational(entry["entitlement"]), ranking))
    return validate_instance(data["kind"], items, agents)


def dump_instance(instance: Instance) -> str:
    return json.dumps(instance_to_json(instance), indent=2) + "\n"


def parse_json(text: str, where: str = "") -> object:
    """Decode a JSON document whose objects repeat no key.

    ``json.loads`` alone keeps the last value of a repeated key, so a file
    naming ``"kind"`` or an agent twice would be read as its last value.
    Bad JSON and a repeated key raise :class:`FormatError`; ``where``, such
    as ``" in allocation file"``, goes into its message.
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError, FormatError) as exc:
        raise FormatError(f"invalid JSON{where}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"an object repeats the key {key!r}")
            seen.add(key)
    return data


def load_instance(text: str) -> Instance:
    return instance_from_json(parse_json(text))


# ---------------------------------------------------------------------------
# Allocation file format: map agent name -> array of item names
# ---------------------------------------------------------------------------

def allocation_to_json(instance: Instance, allocation: IntegralAllocation) -> dict:
    return next(_allocations_to_json(instance, (allocation,)))


def _allocations_to_json(
    instance: Instance, allocations: Iterable[IntegralAllocation]
) -> Iterator[dict]:
    # each allocation's bundles in instance item order, the order built once
    order = {item: j for j, item in enumerate(instance.items)}.__getitem__
    for allocation in allocations:
        yield {
            agent.name: sorted(allocation.bundles[i], key=order)
            for i, agent in enumerate(instance.agents)
        }


def allocation_from_json(instance: Instance, data: object) -> IntegralAllocation:
    """Parse an allocation file: either the bare agent->items map or an
    object wrapping it under an ``"allocation"`` key (as emitted by
    ``solve --seq`` and ``optimize``).  A wrapped map is an object and a
    bundle is an array, so an agent named ``"allocation"`` is read as an
    agent."""
    if isinstance(data, dict) and isinstance(data.get("allocation"), dict):
        extra = set(data) - {"allocation", "sequence", "objective", "direction"}
        if extra:
            raise FormatError(f"unknown allocation fields: {sorted(extra)}")
        data = data["allocation"]
    if not isinstance(data, dict):
        raise FormatError("allocation file must contain a JSON object")
    names = {agent.name for agent in instance.agents}
    extra = set(data) - names
    if extra:
        raise FormatError(f"allocation mentions unknown agents: {sorted(extra)}")
    item_set = set(instance.items)
    bundles = []
    for agent in instance.agents:
        raw = data.get(agent.name, [])
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise FormatError(f"bundle of {agent.name!r} must be an array of item names")
        unknown = [x for x in raw if x not in item_set]
        if unknown:
            raise FormatError(f"bundle of {agent.name!r} has unknown items: {unknown}")
        bundle = frozenset(raw)
        if len(bundle) != len(raw):
            repeated = sorted({x for x in raw if raw.count(x) > 1})
            raise FormatError(f"bundle of {agent.name!r} repeats items: {repeated}")
        bundles.append(bundle)
    return IntegralAllocation(bundles=tuple(bundles))
