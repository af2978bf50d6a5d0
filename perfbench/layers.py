"""Outside-in layer trace of fairmatch, used only by traced runs.

``install`` wraps the public entry point of each layer and rebinds the
wrapper under every name a ``fairmatch`` module imported it by, so calls
between modules (``bobw.bvn_decompose``, ``matching.max_matching`` inside
the decomposition, the lazy ``allocgraph`` imports of ``matching``) pass
through it.  Inner-loop helpers such as ``matching_rank`` stay unwrapped:
wrapping them costs more than the layers they sit in.

A layer's self time is its span minus the spans of wrapped layers it
called.  Counts are recorded from each layer's result.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter

# Counts aggregated by maximum instead of sum.
PEAK_COUNTS = {"bobw.max_den_bits"}


class Tracer:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._children: list[float] = []

    def add(self, name: str, value: int) -> None:
        if name in PEAK_COUNTS:
            self.counts[name] = max(self.counts.get(name, 0), value)
        else:
            self.counts[name] = self.counts.get(name, 0) + value

    def record(self, layer: str, seconds: float) -> None:
        self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds

    def take(self) -> dict:
        """Self seconds and counts since the last call, then reset."""
        out = {"seconds": self.seconds, "counts": self.counts}
        self.seconds, self.counts = {}, {}
        return out

    def wrap(self, layer: str, fn, count=None):
        children = self._children

        @wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                inner = children.pop()
                self.record(layer, span - inner)
                if children:
                    children[-1] += span
            if count is not None:
                count(self, result)
            return result

        return traced


def _edges(tracer: Tracer, graph) -> None:
    tracer.add("allocgraph.edges", sum(map(len, graph.adjacency)))


def _extended(tracer: Tracer, graph) -> None:
    tracer.add("allocgraph.p", graph.left_count)
    tracer.add("allocgraph.spare_slots", sum(slot.spare for slot in graph.slots))
    tracer.add("allocgraph.dummy_items", graph.dummy_count)


def _max_matching(tracer: Tracer, _matching) -> None:
    tracer.add("matching.max_matching_calls", 1)


def _bvn(tracer: Tracer, parts) -> None:
    tracer.add("matching.bvn_parts", len(parts))


def _fractional(tracer: Tracer, fractional) -> None:
    tracer.add("bobw.support", len(fractional.weights))
    tracer.add("bobw.max_den_bits", max(w.denominator.bit_length() for w in fractional.weights.values()))


# (module, function, layer metric, count recorder)
TARGETS = [
    ("fairmatch.core", "load_instance", "core.load_instance_s", None),
    ("fairmatch.core", "allocation_to_json", "core.allocation_to_json_s", None),
    ("fairmatch.allocgraph", "build_allocation_graph", "allocgraph.build_s", _edges),
    ("fairmatch.allocgraph", "extend_allocation_graph", "allocgraph.extend_s", _extended),
    ("fairmatch.matching", "max_matching", "matching.max_matching_s", _max_matching),
    ("fairmatch.matching", "perfect_allocation", "matching.perfect_allocation_self_s", None),
    ("fairmatch.matching", "rank_maximal_perfect_matching", "matching.rank_maximal_s", None),
    ("fairmatch.matching", "normalize_slot_order", "matching.normalize_s", None),
    ("fairmatch.matching", "extract_picking_sequence", "matching.extract_sequence_s", None),
    ("fairmatch.matching", "solve_with_sequence", "matching.solve_with_sequence_self_s", None),
    ("fairmatch.matching", "bvn_decompose", "matching.bvn_self_s", _bvn),
    ("fairmatch.matching", "assignment_min_cost", "matching.assignment_s", None),
    ("fairmatch.bobw", "build_fractional_matching", "bobw.fractional_matching_s", _fractional),
    ("fairmatch.bobw", "uniform_lottery", "bobw.uniform_lottery_self_s", None),
    ("fairmatch.optimize", "optimize_allocation", "optimize.optimize_allocation_self_s", None),
    ("fairmatch.fairness", "check_allocation", "fairness.check_allocation_s", None),
    ("fairmatch.cli", "main", "cli.main_self_s", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it in each loaded fairmatch module."""
    modules = [m for name, m in sys.modules.items() if name == "fairmatch" or name.startswith("fairmatch.")]
    for module, function, layer, count in TARGETS:
        original = getattr(sys.modules[module], function)
        traced = tracer.wrap(layer, original, count)
        for mod in modules:
            for attr in [a for a, value in vars(mod).items() if value is original]:
                setattr(mod, attr, traced)
