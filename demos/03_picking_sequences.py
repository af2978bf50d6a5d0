"""Sequencible allocations from Pareto-optimal matchings.

Some perfect matchings of the allocation graph are special: no other one
gives some slot a better item without giving another slot a worse one.
The matched slots of such a Pareto-optimal matching can be ordered so
that greedy picking, each agent taking its most preferred remaining
item, reproduces the matching exactly.  The paper takes a rank-maximal
matching (lexicographically most rank-1 edges, then rank-2, ...), which
is one of them.  The library takes a serial dictatorship: each slot,
narrowest first, takes its agent's best item still free, so its picks
already are the sequence.  The allocation is then explainable as the
outcome of a simple turn order.
"""

from fractions import Fraction

from fairmatch import (
    simulate_picking_sequence,
    solve_with_sequence,
    validate_instance,
)

items = ["car", "piano", "boat", "desk"]
instance = validate_instance(
    "goods",
    items,
    [
        ("ada", Fraction(1, 4), ["piano", "car", "boat", "desk"]),
        ("ben", Fraction(1, 4), ["car", "piano", "boat", "desk"]),
        ("eve", Fraction(1, 2), ["desk", "boat", "car", "piano"]),
    ],
)

allocation, sequence = solve_with_sequence(instance)
names = [instance.agents[i].name for i in sequence.sequence]
print("picking order:", " -> ".join(names))
for agent, bundle in zip(instance.agents, allocation.bundles):
    print(f"  {agent.name}: {sorted(bundle)}")

replay = simulate_picking_sequence(instance, sequence.sequence)
assert replay.bundles == allocation.bundles
print("greedy replay reproduces the allocation exactly.")
