"""Seeded inputs for the benchmark, made without importing fairmatch.

``generate`` repeats the draws of ``fairmatch.core.generate_instance``
(weights first, then one shuffle per agent), so ``generate(n, m, kind, S)``
is byte for byte what ``fairmatch gen --seed S`` prints.

A benchmark instance takes its entitlements from a fixed profile, the
weights of one such seed, and its rankings from the workload seed.
Profiles are picked by their make-up, computed from the entitlements
alone: for goods the spare-slot count q = m + n - sum(ceil(m*alpha_i)) of
each agent (the extended graph then has p = m + (n-1)*q left vertices),
for chores the dummy-chore count sum(floor(m*alpha_i) + 1) - m.  Another
workload seed gives inputs of the same make-up.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def weights(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(1, 9) for _ in range(n)]


def spare_slots(n: int, m: int, seed: int) -> int:
    """Spare slots per agent of the goods extended graph."""
    w = weights(n, seed)
    total = sum(w)
    return m + n - sum(-(-m * x // total) for x in w)


def dummy_chores(n: int, m: int, seed: int) -> int:
    """Dummy chores of the chores extended graph."""
    w = weights(n, seed)
    total = sum(w)
    return sum(m * x // total + 1 for x in w) - m


def generate(n: int, m: int, kind: str, seed: int) -> dict:
    """The instance object ``fairmatch gen`` writes for these arguments."""
    rng = random.Random(seed)
    items = [f"b{j + 1}" for j in range(m)]
    w = [rng.randint(1, 9) for _ in range(n)]
    total = sum(w)
    agents = []
    for i in range(n):
        ranking = list(items)
        rng.shuffle(ranking)
        alpha = Fraction(w[i], total)
        text = str(alpha.numerator) if alpha.denominator == 1 else f"{alpha.numerator}/{alpha.denominator}"
        agents.append({"name": f"a{i + 1}", "entitlement": text, "ranking": ranking})
    return {"kind": kind, "items": items, "agents": agents}


def pick_profiles(label: str, n: int, m: int, kind: str, extra: int, count: int) -> list[int]:
    """``count`` entitlement profiles whose spare (goods) or dummy (chores)
    count is ``extra``, as ``generate`` seeds.

    The profiles are fixed per label and do not depend on the workload
    seed: a lottery's part count, and with it most of its run time, is set
    by the entitlements, so keeping them fixed keeps the workload's cost
    steady from one workload seed to the next.
    """
    rng = random.Random(f"profile:{label}")
    measure = spare_slots if kind == "goods" else dummy_chores
    picked: list[int] = []
    for _ in range(100_000):
        if len(picked) == count:
            return picked
        candidate = rng.randrange(2**31)
        if measure(n, m, candidate) == extra and candidate not in picked:
            picked.append(candidate)
    raise ValueError(f"no {count} profiles of {n}x{m} {kind} with {extra} spare or dummy items")


def generate_with_profile(n: int, m: int, kind: str, profile: int, seed: int) -> dict:
    """The entitlements of ``generate(n, m, kind, profile)`` with rankings
    and agent order drawn from ``seed``."""
    instance = generate(n, m, kind, seed)
    entitlements = [a["entitlement"] for a in generate(n, 0, kind, profile)["agents"]]
    random.Random(seed).shuffle(entitlements)
    for agent, entitlement in zip(instance["agents"], entitlements):
        agent["entitlement"] = entitlement
    return instance


def costs(instance: dict, seed: int) -> list[list[Fraction]]:
    """Seeded rational costs, one row per agent and one column per item."""
    rng = random.Random(seed)
    m = len(instance["items"])
    return [
        [Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(m)]
        for _ in instance["agents"]
    ]


def costs_text(rows: list[list[Fraction]]) -> str:
    return "".join(
        " ".join(f"{c.numerator}/{c.denominator}" for c in row) + "\n" for row in rows
    )


def read_costs(path: str) -> list[list[Fraction]]:
    """Parse a cost file written by ``costs_text``."""
    with open(path) as f:
        return [[Fraction(t) for t in line.split()] for line in f if line.strip()]


def dump(instance: dict) -> str:
    return json.dumps(instance, indent=2) + "\n"
