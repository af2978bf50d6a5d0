"""Fair division of indivisible goods and chores via bipartite matchings.

A library (plus CLI) for computing, optimizing, verifying and randomizing
allocations that are proportional up to one item under every additive
valuation consistent with the agents' ordinal rankings, for arbitrary
rational entitlements.  Everything reduces to matchings on an allocation
graph, and all arithmetic is exact.
"""

from .allocgraph import (
    AllocationGraph,
    BipartiteGraph,
    Slot,
    build_allocation_graph,
    extend_allocation_graph,
    slot_count,
    slot_threshold,
)
from .bobw import (
    FractionalMatching,
    Lottery,
    build_fractional_matching,
    uniform_lottery,
)
from .core import (
    CHORES,
    GOODS,
    Agent,
    FractionalAllocation,
    Instance,
    InstanceError,
    IntegralAllocation,
    StepValuation,
    generate_instance,
    load_instance,
    validate_instance,
)
from .fairness import (
    AllocationReport,
    BundleReport,
    check_allocation,
    check_bundle,
    simulate_picking_sequence,
)
from .matching import (
    Matching,
    NoPerfectMatching,
    NotDoublyStochastic,
    NotRankMaximal,
    PickingSequence,
    assignment_min_cost,
    bvn_decompose,
    extract_picking_sequence,
    max_matching,
    normalize_slot_order,
    perfect_allocation,
    rank_maximal_perfect_matching,
    solve_with_sequence,
)
from .optimize import CostSpec, IncompleteCostSpec, optimize_allocation
from .oracle import (
    IntervalSet,
    check_wprop1_cardinal,
    check_wsdef_fractional,
    enumerate_wsdprop1,
    interval_set,
    step_valuation_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "AllocationGraph",
    "AllocationReport",
    "BipartiteGraph",
    "BundleReport",
    "CHORES",
    "CostSpec",
    "FractionalAllocation",
    "FractionalMatching",
    "GOODS",
    "IncompleteCostSpec",
    "Instance",
    "InstanceError",
    "IntegralAllocation",
    "IntervalSet",
    "Lottery",
    "Matching",
    "NoPerfectMatching",
    "NotDoublyStochastic",
    "NotRankMaximal",
    "PickingSequence",
    "Slot",
    "StepValuation",
    "assignment_min_cost",
    "build_allocation_graph",
    "build_fractional_matching",
    "bvn_decompose",
    "check_allocation",
    "check_bundle",
    "check_wprop1_cardinal",
    "check_wsdef_fractional",
    "enumerate_wsdprop1",
    "extend_allocation_graph",
    "extract_picking_sequence",
    "generate_instance",
    "interval_set",
    "load_instance",
    "max_matching",
    "normalize_slot_order",
    "optimize_allocation",
    "perfect_allocation",
    "rank_maximal_perfect_matching",
    "simulate_picking_sequence",
    "slot_count",
    "slot_threshold",
    "solve_with_sequence",
    "step_valuation_oracle",
    "uniform_lottery",
    "validate_instance",
]
