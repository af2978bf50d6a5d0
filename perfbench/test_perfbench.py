"""Tests of the benchmark itself: its checker, exact optimum, trace and set-up.

Run from the repository root:
  PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import check
import instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def tiny_instances():
    for kind in ("goods", "chores"):
        for n, m, seed in [(2, 4, 1), (2, 5, 7), (3, 4, 3), (3, 5, 11)]:
            yield instances.generate(n, m, kind, seed)


def monotone_valuations(m: int, top: int = 3):
    """All valuations with integer values in 0..top, nonincreasing along the
    ranking: every valuation consistent with it, on a small grid."""
    for values in itertools.combinations_with_replacement(range(top, -1, -1), m):
        if any(values):
            yield values


def fair_by_definition(kind: str, alpha: Fraction, ranking: list[str], bundle: set[str]) -> bool:
    """Proportional up to one item, checked literally under every valuation
    of the grid (values indexed by ranking position)."""
    for values in monotone_valuations(len(ranking)):
        v = dict(zip(ranking, values))
        total = sum(values)
        own = sum(v[item] for item in bundle)
        if kind == "chores":
            if bundle and own - max(v[item] for item in bundle) > alpha * total:
                return False
            if not bundle and own > alpha * total:
                return False
        else:
            gain = max((v[item] for item in ranking if item not in bundle), default=0)
            if own + gain < alpha * total:
                return False
    return True


def all_allocations(instance: dict):
    names = [a["name"] for a in instance["agents"]]
    for owners in itertools.product(range(len(names)), repeat=len(instance["items"])):
        allocation = {name: [] for name in names}
        for item, owner in zip(instance["items"], owners):
            allocation[names[owner]].append(item)
        yield allocation


def test_prefix_check_matches_the_definition_on_every_bundle():
    checked = 0
    for instance in tiny_instances():
        items = instance["items"]
        for agent in instance["agents"]:
            alpha = Fraction(agent["entitlement"])
            for size in range(len(items) + 1):
                for bundle in itertools.combinations(items, size):
                    fast = check.prefix_violation(instance["kind"], alpha, agent["ranking"], bundle) is None
                    assert fast == fair_by_definition(instance["kind"], alpha, agent["ranking"], set(bundle))
                    checked += 1
    assert checked > 400


def test_fair_allocation_rejects_a_moved_item_and_bad_covers():
    instance = instances.generate(3, 5, "chores", 11)
    fair = [a for a in all_allocations(instance) if check.fair_allocation(instance, a) is None]
    unfair = [a for a in all_allocations(instance) if check.fair_allocation(instance, a) is not None]
    assert fair and unfair
    moved = 0
    for allocation in fair:
        for giver, taker in itertools.permutations(allocation, 2):
            for item in allocation[giver]:
                tampered = {k: list(v) for k, v in allocation.items()}
                tampered[giver].remove(item)
                tampered[taker].append(item)
                fair_after = all(
                    check.prefix_violation(instance["kind"], Fraction(a["entitlement"]), a["ranking"], tampered[a["name"]]) is None
                    for a in instance["agents"]
                )
                assert (check.fair_allocation(instance, tampered) is None) == fair_after
                moved += not fair_after
    assert moved > 0
    allocation = fair[0]
    giver = next(name for name in allocation if allocation[name])
    taker = next(name for name in allocation if name != giver)
    twice = {**allocation, taker: allocation[taker] + [allocation[giver][0]]}
    assert "twice" in check.fair_allocation(instance, twice)
    lost = {k: list(v) for k, v in allocation.items()}
    lost[giver].pop()
    assert "unallocated" in check.fair_allocation(instance, lost)


def two_agent_instance() -> dict:
    return {
        "kind": "goods",
        "items": ["b1", "b2"],
        "agents": [
            {"name": "a1", "entitlement": "1/2", "ranking": ["b1", "b2"]},
            {"name": "a2", "entitlement": "1/2", "ranking": ["b2", "b1"]},
        ],
    }


def test_lottery_check_rejects_a_changed_probability():
    instance = two_agent_instance()
    parts = [["1/2", {"a1": ["b1"], "a2": ["b2"]}], ["1/2", {"a1": ["b2"], "a2": ["b1"]}]]
    assert check.lottery(instance, parts) is None
    assert check.lottery(instance, [["2/3", parts[0][1]], ["1/3", parts[1][1]]]) is not None
    assert check.lottery(instance, [["1/2", parts[0][1]], ["1/3", parts[1][1]]]) is not None
    assert check.lottery(instance, [["0", parts[0][1]], ["1", parts[1][1]]]) is not None
    items = ["b1", "b2", "b3", "b4"]
    instance = {**instance, "items": items, "agents": [{**a, "ranking": items} for a in instance["agents"]]}
    unfair = [["1/2", {"a1": items, "a2": []}], ["1/2", {"a1": [], "a2": items}]]
    assert "not fair" in check.lottery(instance, unfair)


def test_sequence_check_replays_and_rejects_a_changed_order():
    instance = two_agent_instance()
    output = {"allocation": {"a1": ["b1"], "a2": ["b2"]}, "sequence": ["a1", "a2"]}
    assert check.sequenced(instance, output) is None
    instance["agents"][1]["ranking"] = ["b1", "b2"]
    assert "replaying" in check.sequenced(instance, {**output, "sequence": ["a2", "a1"]})


def test_optimize_check_rejects_a_wrong_objective_or_optimum():
    instance = two_agent_instance()
    costs = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1, 2)]]
    output = {"allocation": {"a1": ["b1"], "a2": ["b2"]}, "objective": "3/2"}
    assert check.optimized(instance, costs, Fraction(3, 2), output) is None
    assert "bundle sum" in check.optimized(instance, costs, Fraction(3, 2), {**output, "objective": "2"})
    assert "optimum" in check.optimized(instance, costs, Fraction(1), output)


@pytest.mark.parametrize("direction", ["minimize", "maximize"])
def test_exact_optimum_matches_brute_force(tmp_path, direction):
    import exact_opt

    for instance in tiny_instances():
        costs = instances.costs(instance, 5)
        best = None
        for allocation in all_allocations(instance):
            if check.fair_allocation(instance, allocation) is None:
                value = check.objective(instance, costs, allocation)
                if best is None or (value < best if direction == "minimize" else value > best):
                    best = value
        found = exact_opt.solve(instance, costs, direction)
        assert check.fair_allocation(instance, found["allocation"]) is None
        value = check.objective(instance, costs, found["allocation"])
        assert value == best
        assert value * found["scale"] == found["scaled_objective"]


def test_generate_matches_fairmatch_gen(tmp_path):
    out = tmp_path / "gen.json"
    subprocess.run(
        [sys.executable, "-m", "fairmatch.cli", "gen", "--agents", "4", "--items", "9", "--kind", "goods", "--seed", "43", "-o", str(out)],
        env=ENV, check=True,
    )
    assert out.read_text() == instances.dump(instances.generate(4, 9, "goods", 43))


def test_profiles_have_the_requested_make_up():
    for kind, measure in (("goods", instances.spare_slots), ("chores", instances.dummy_chores)):
        for profile in instances.pick_profiles("t", 8, 40, kind, 4, 3):
            assert measure(8, 40, profile) == 4
            instance = instances.generate_with_profile(8, 40, kind, profile, 99)
            weights = sorted(Fraction(a["entitlement"]) for a in instance["agents"])
            expected = sorted(Fraction(a["entitlement"]) for a in instances.generate(8, 0, kind, profile)["agents"])
            assert weights == expected


def imported_modules(argv: list[str], cwd: Path) -> set[str]:
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=ENV, cwd=cwd, capture_output=True, text=True, check=True)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:") and "|" in line} - {"imported package"}


def test_timed_processes_import_only_what_fairmatch_imports(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(instances.dump(instances.generate(3, 9, "goods", 1)))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"id": "x", "op": "lottery", "instance": str(path)}]))
    program = imported_modules(["-c", "import fairmatch.cli"], tmp_path)
    for argv in (["setup", str(path)], ["run", str(plan), str(tmp_path / "out.jsonl"), "0"]):
        extra = imported_modules([str(HERE / "worker.py"), *argv], tmp_path) - program
        assert not extra, f"worker {argv[0]} imports {sorted(extra)}"


def test_trace_rebinds_layers_and_self_times_add_up(tmp_path):
    script = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import fairmatch.cli
from fairmatch import bobw, core, matching
import layers
tracer = layers.Tracer()
layers.install(tracer)
assert bobw.bvn_decompose is matching.bvn_decompose and hasattr(bobw.bvn_decompose, "__wrapped__")
assert hasattr(fairmatch.cli.load_instance, "__wrapped__")
instance = core.generate_instance(6, 30, "goods", 43)
start = time.perf_counter()
bobw.uniform_lottery(instance)
span = time.perf_counter() - start
print(json.dumps([span, tracer.take()]))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(HERE)], env=ENV, capture_output=True, text=True, check=True)
    span, taken = json.loads(proc.stdout)
    seconds = taken["seconds"]
    assert {"matching.bvn_self_s", "matching.max_matching_s", "bobw.uniform_lottery_self_s"} <= set(seconds)
    assert abs(sum(seconds.values()) - span) < 0.05 * span
    assert taken["counts"]["matching.max_matching_calls"] == taken["counts"]["matching.bvn_parts"]


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_run_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER_SECONDS + run.PER_LAYER_COUNTS
    assert {m["unit"] for m in spec["per_layer"] if m["name"] in run.PER_LAYER_COUNTS} == {"count"}


def test_cli_checks_reject_a_failed_verify_and_an_unfair_solve():
    import run

    instance = two_agent_instance()
    verify = {"op": "verify"}
    assert run.check_one(verify, instance, "agent a1: PASS\nagent a2: PASS\noverall: PASS\n", {}) is None
    assert run.check_one(verify, instance, "agent a1: PASS\nagent a2: FAIL CountBound\noverall: FAIL\n", {}) is not None
    solve = {"op": "solve"}
    assert run.check_one(solve, instance, json.dumps({"a1": ["b1"], "a2": ["b2"]}), {}) is None
    assert run.check_one(solve, instance, json.dumps({"a1": ["b1"], "a2": []}), {}) is not None
