"""Optimizing over the set of all fair allocations.

Fair allocations are exactly the perfect matchings of the extended
allocation graph, and that matching polytope is integral, so any linear
objective, say each agent's competence at each chore, or the shipping
cost of sending a good to an agent, can be optimized exactly with one
min-cost matching, without giving up the fairness guarantee.  The solve
matches every item into the agents' slots; for goods, an agent's spare
slots are one vertex that takes up to q items.
"""

import itertools
from fractions import Fraction

from fairmatch import (
    CostSpec,
    check_allocation,
    enumerate_wsdprop1,
    optimize_allocation,
    validate_instance,
)

items = ["cook", "drive", "mow"]
instance = validate_instance(
    "chores",
    items,
    [("ada", Fraction(1, 2), items), ("ben", Fraction(1, 2), items)],
)

# one row per agent, one column per item, in instance order: the layout
# of a cost file
rows = [
    [Fraction(9, 10), Fraction(1, 10), Fraction(1, 2)],
    [Fraction(2, 10), Fraction(1), Fraction(3, 5)],
]
competence = {(i, item): row[j] for i, row in enumerate(rows) for j, item in enumerate(items)}
# the rows become integers over one common denominator, here 10
spec = CostSpec.scaled(rows, direction="maximize")
allocation, objective = optimize_allocation(instance, spec)
print("most competent fair split:", {
    a.name: sorted(b) for a, b in zip(instance.agents, allocation.bundles)
})
print("total competence:", objective)
assert check_allocation(instance, allocation).passes

# cross-check against brute force over every fair allocation
best = max(
    sum((competence[(alloc.owner_map()[item], item)] for item in items), Fraction(0))
    for alloc in enumerate_wsdprop1(instance)
)
assert objective == best
print(f"matches the brute-force optimum over {len(enumerate_wsdprop1(instance))} "
      "fair allocations.")
