"""Output checks written from the paper's definitions, apart from fairmatch.

An allocation is proportional up to one item under every valuation that
respects the agents' rankings exactly when it is so under every step
valuation (value 1 on a ranking prefix of length k, 0 elsewhere).  For a
bundle B of an agent with entitlement alpha that reads, for every prefix
P_k of the agent's ranking (position 1 first):

* chores (position 1 is the worst chore): |B & P_k| <= floor(alpha*k) + 1;
* goods (position 1 is the best good):     |B & P_k| >= ceil(alpha*k) - 1.

Every function returns ``None`` when the output passes and a one-line
reason when it does not.  Instances and outputs are the parsed JSON
objects the program reads and writes.
"""

from __future__ import annotations

from fractions import Fraction


def exactly_once(instance: dict, allocation: dict) -> str | None:
    names = [a["name"] for a in instance["agents"]]
    if sorted(allocation) != sorted(names):
        return f"agents {sorted(allocation)} != {sorted(names)}"
    seen: set[str] = set()
    for name in names:
        for item in allocation[name]:
            if item in seen:
                return f"item {item} allocated twice"
            seen.add(item)
    if seen != set(instance["items"]):
        return f"{len(set(instance['items']) - seen)} items unallocated, {len(seen - set(instance['items']))} unknown"
    return None


def prefix_violation(kind: str, alpha: Fraction, ranking: list[str], bundle) -> int | None:
    """First prefix length k whose step valuation the bundle fails, else None."""
    bundle = set(bundle)
    num, den = alpha.numerator, alpha.denominator
    count = 0
    for k, item in enumerate(ranking, start=1):
        count += item in bundle
        if kind == "chores":
            if count > num * k // den + 1:
                return k
        elif count < -(-num * k // den) - 1:
            return k
    return None


def fair_allocation(instance: dict, allocation: dict) -> str | None:
    """Every item once, and every bundle passes every prefix condition."""
    reason = exactly_once(instance, allocation)
    if reason:
        return reason
    for agent in instance["agents"]:
        alpha = Fraction(agent["entitlement"])
        k = prefix_violation(instance["kind"], alpha, agent["ranking"], allocation[agent["name"]])
        if k is not None:
            return f"agent {agent['name']} fails the prefix of length {k}"
    return None


def replay(instance: dict, sequence: list[str]) -> dict:
    """Greedy picking: each named agent takes its favourite item still free.

    The favourite is the lowest ranking position for goods and the highest
    for chores (chores are ranked from most to least burdensome).
    """
    rankings = {a["name"]: a["ranking"] for a in instance["agents"]}
    free = set(instance["items"])
    bundles: dict[str, list[str]] = {name: [] for name in rankings}
    for name in sequence:
        order = rankings[name] if instance["kind"] == "goods" else reversed(rankings[name])
        pick = next((item for item in order if item in free), None)
        if pick is None:
            break
        free.discard(pick)
        bundles[name].append(pick)
    return bundles


def sequenced(instance: dict, output: dict) -> str | None:
    """``solve --seq`` output: fair, and the sequence replays to it."""
    reason = fair_allocation(instance, output["allocation"])
    if reason:
        return reason
    if len(output["sequence"]) != len(instance["items"]):
        return f"sequence has {len(output['sequence'])} picks for {len(instance['items'])} items"
    replayed = replay(instance, output["sequence"])
    for name, bundle in output["allocation"].items():
        if sorted(replayed[name]) != sorted(bundle):
            return f"replaying the sequence gives agent {name} another bundle"
    return None


def lottery(instance: dict, parts: list[tuple[str, dict]]) -> str | None:
    """Positive probabilities summing to 1, exact mixture alpha, fair parts."""
    total = Fraction(0)
    share: dict[tuple[str, str], Fraction] = {}
    for probability, allocation in parts:
        weight = Fraction(probability)
        if weight <= 0:
            return f"probability {probability} is not positive"
        total += weight
        reason = fair_allocation(instance, allocation)
        if reason:
            return f"a part is not fair: {reason}"
        for name, bundle in allocation.items():
            for item in bundle:
                share[(name, item)] = share.get((name, item), Fraction(0)) + weight
    if total != 1:
        return f"probabilities sum to {total}"
    for agent in instance["agents"]:
        alpha = Fraction(agent["entitlement"])
        for item in instance["items"]:
            if share.get((agent["name"], item), Fraction(0)) != alpha:
                return f"agent {agent['name']} gets {share.get((agent['name'], item), 0)} of {item}, not {alpha}"
    return None


def objective(instance: dict, costs: list[list[Fraction]], allocation: dict) -> Fraction:
    column = {item: j for j, item in enumerate(instance["items"])}
    return sum(
        (costs[i][column[item]] for i, agent in enumerate(instance["agents"]) for item in allocation[agent["name"]]),
        Fraction(0),
    )


def optimized(instance: dict, costs: list[list[Fraction]], optimum: Fraction, output: dict) -> str | None:
    """Fair, the reported objective is the bundle sum, and it is the optimum."""
    reason = fair_allocation(instance, output["allocation"])
    if reason:
        return reason
    own = objective(instance, costs, output["allocation"])
    if Fraction(output["objective"]) != own:
        return f"reported objective {output['objective']} != bundle sum {own}"
    if own != optimum:
        return f"objective {own} != exact optimum {optimum}"
    return None
