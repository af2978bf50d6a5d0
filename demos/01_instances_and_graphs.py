"""Tour of the data model: instances, interval sets, allocation graphs.

Two agents with equal entitlements share three chores they rank the same
way (b1 is the one both dislike most).  Each agent's ranked-item line
[0, 3] splits into intervals of length 1/alpha = 2, and each interval
becomes a unit-capacity slot whose edges reach exactly the chores the
interval touches or anything the agent minds less.
"""

from fractions import Fraction

from fairmatch import (
    build_allocation_graph,
    extend_allocation_graph,
    interval_set,
    validate_instance,
)
from fairmatch.allocgraph import graph_to_text

items = ["b1", "b2", "b3"]
instance = validate_instance(
    "chores",
    items,
    [("ada", Fraction(1, 2), items), ("ben", Fraction(1, 2), items)],
)

for i, agent in enumerate(instance.agents):
    iset = interval_set(instance, i)
    pretty = ", ".join(f"[{lo}, {hi}]" for lo, hi in iset.intervals)
    print(f"{agent.name}: entitlement {agent.entitlement}, intervals {pretty}")

graph = build_allocation_graph(instance)
print("\nplain allocation graph:")
print("".join(graph_to_text(graph, instance)))

extended = extend_allocation_graph(graph, instance)
assert extended.left_count == extended.right_count
print(f"extended graph is balanced at {extended.left_count} vertices per side,")
print(f"with {extended.dummy_count} dummy chore(s) reachable from every slot.")
