"""fairmatch benchmark: four closed-loop workloads, outputs checked apart.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload {cli,seq,lottery,optimize} \\
      --seed N --seconds S --trace {0,1}

One client (this process) drives one program process at a time.  The
program runs from the checkout's ``src``: in-process workloads in one
``worker.py`` process, ``cli`` as one ``fairmatch`` process per call.
This process writes the seeded inputs, times set-up in fresh
interpreters, runs whole passes over the workload's calls for about S
seconds, checks every output with ``check.py`` (and, for ``optimize``,
against an exact optimum from ``exact_opt.py``), and prints one JSON
object as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import check
import instances
from layers import PEAK_COUNTS

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 5
CHILD_LIMIT_S = 150


@dataclass(frozen=True)
class Group:
    """``count`` instances of one make-up; ``extra`` is the spare-slot
    count per agent (goods) or the dummy-chore count (chores)."""

    label: str
    kind: str
    n: int
    m: int
    extra: int
    count: int


# Why each workload exists is in README.md; the groups fix the make-up of
# its inputs, the workload seed picks the instances.
WORKLOADS: dict[str, tuple[str, list[Group]]] = {
    "cli": ("cli", [
        Group("goods", "goods", 150, 1500, 87, 1),
        Group("chores", "chores", 150, 1500, 75, 1),
    ]),
    "seq": ("seq", [
        Group("goods", "goods", 12, 60, 6, 8),
        Group("chores", "chores", 12, 60, 7, 4),
    ]),
    "lottery": ("lottery", [
        Group("goods-spare-heavy", "goods", 8, 40, 7, 5),
        Group("goods-spare-light", "goods", 8, 40, 1, 5),
        Group("chores", "chores", 8, 40, 4, 6),
    ]),
    "optimize": ("optimize", [
        Group("goods", "goods", 10, 50, 9, 5),
        Group("chores", "chores", 20, 100, 11, 5),
    ]),
}

END_TO_END = [
    ("setup_s", "s"),
    ("goods_call_s", "s"),
    ("chores_call_s", "s"),
    ("worst_call_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER_SECONDS = [
    "import.fairmatch_s",
    "import.numpy_scipy_s",
    "core.load_instance_s",
    "core.allocation_to_json_s",
    "cli.main_self_s",
    "cli.interpreter_s",
    "allocgraph.build_s",
    "allocgraph.extend_s",
    "matching.max_matching_s",
    "matching.perfect_allocation_self_s",
    "matching.rank_maximal_s",
    "matching.normalize_s",
    "matching.extract_sequence_s",
    "matching.solve_with_sequence_self_s",
    "matching.bvn_self_s",
    "matching.assignment_s",
    "bobw.fractional_matching_s",
    "bobw.uniform_lottery_self_s",
    "optimize.optimize_allocation_self_s",
    "fairness.check_allocation_s",
    "calls.traced_s",
]
PER_LAYER_COUNTS = [
    "allocgraph.edges",
    "allocgraph.p",
    "allocgraph.spare_slots",
    "allocgraph.dummy_items",
    "matching.max_matching_calls",
    "matching.bvn_parts",
    "bobw.support",
    "bobw.max_den_bits",
]


class Child:
    """Runs one child process to its end, with wall time and peak RSS."""

    def __init__(self, env: dict[str, str], log: Path):
        self.env = env
        self.log = log

    def run(self, argv: list[str], stdout: Path | None = None) -> tuple[int, float, float]:
        with open(stdout or os.devnull, "wb") as out, open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss / 1024


def write_inputs(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's instances (and costs); return one pass of calls.

    Groups are interleaved within the pass, so goods and chores alternate.
    """
    op, groups = WORKLOADS[workload]
    columns = []
    for group in groups:
        label = f"{workload}:{group.label}"
        profiles = instances.pick_profiles(label, group.n, group.m, group.kind, group.extra, group.count)
        rankings = random.Random(f"{label}:{seed}")
        column = []
        for k, profile in enumerate(profiles):
            ident = f"{group.label}-{k}"
            instance_seed = rankings.randrange(2**31)
            instance = instances.generate_with_profile(group.n, group.m, group.kind, profile, instance_seed)
            path = work / f"{ident}.json"
            path.write_text(instances.dump(instance))
            base = {"id": ident, "kind": group.kind, "m": group.m, "instance": str(path)}
            if op == "optimize":
                costs_path = work / f"{ident}.costs"
                costs_path.write_text(instances.costs_text(instances.costs(instance, instance_seed)))
                for direction in ("minimize", "maximize"):
                    column.append({**base, "id": f"{ident}-{direction[:3]}", "op": op, "costs": str(costs_path), "direction": direction})
            elif op == "cli":
                column.append({**base, "id": f"{ident}-solve", "op": "solve"})
                column.append({**base, "id": f"{ident}-verify", "op": "verify"})
            else:
                column.append({**base, "op": op})
        columns.append(column)
    calls = []
    for row in range(max(len(c) for c in columns)):
        calls.extend(c[row] for c in columns if row < len(c))
    return calls


def measure_setup(child: Child, files: list[str], work: Path, trace: bool) -> tuple[float, list[dict]]:
    """Median wall time of fresh interpreters that import fairmatch and load
    the workload's instances, and each start's layer spans when traced."""
    times, spans = [], []
    for start in range(SETUP_STARTS):
        argv = [sys.executable, str(HERE / "worker.py"), "setup"]
        if trace:
            span_file = work / f"setup-{start}.spans"
            argv += ["--spans", str(span_file)]
        code, seconds, _ = child.run(argv + files)
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        times.append(seconds)
        if trace:
            spans.append(json.loads(span_file.read_text()))
    return statistics.median(times), spans


def run_in_process(child: Child, calls: list[dict], work: Path, seconds: float, trace: bool) -> tuple[list[dict], float]:
    plan = work / "plan.json"
    plan.write_text(json.dumps(calls))
    results = work / "results.jsonl"
    argv = [sys.executable, str(HERE / "worker.py"), "run", str(plan), str(results), str(seconds)]
    code, _, rss = child.run(argv + (["--trace"] if trace else []))
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    by_id = {c["id"]: c for c in calls}
    records = []
    for line in results.read_text().splitlines():
        record = json.loads(line)
        records.append({**by_id[record["id"]], **record})
    return records, rss


def run_cli(child: Child, calls: list[dict], work: Path, seconds: float, trace: bool) -> tuple[list[dict], float]:
    """One ``fairmatch`` process per call, whole passes, about ``seconds`` long."""
    records, peak = [], 0.0
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for call in calls:
            out = work / f"{call['id']}.out"
            allocation = work / f"{call['id'].rsplit('-', 1)[0]}.allocation.json"
            if call["op"] == "solve":
                args, stdout = ["solve", call["instance"], "-o", str(allocation)], None
            else:
                args, stdout = ["verify", call["instance"], str(allocation)], out
            spans = work / f"{call['id']}.spans"
            if trace:
                argv = [sys.executable, str(HERE / "worker.py"), "cli", str(spans), *args]
            else:
                argv = [sys.executable, "-m", "fairmatch.cli", *args]
            code, wall, rss = child.run(argv, stdout)
            peak = max(peak, rss)
            record = {**call, "pass": passes}
            if code != 0:
                record["error"] = f"exit code {code}"
            else:
                record["seconds"] = wall
                source = allocation if call["op"] == "solve" else out
                record["output"] = source.read_text()
            if trace and spans.exists():
                record["layers"] = json.loads(spans.read_text())
                spans.unlink()
            records.append(record)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return records, peak


def exact_optima(child: Child, calls: list[dict], work: Path) -> dict[str, tuple[Fraction, str | None]]:
    """Exact optimum per optimize call, from ``exact_opt.py`` in its own process."""
    jobs = work / "jobs.json"
    jobs.write_text(json.dumps([{k: c[k] for k in ("instance", "costs", "direction")} for c in calls]))
    answer = work / "optima.json"
    code, _, _ = child.run([sys.executable, str(HERE / "exact_opt.py"), str(jobs)], answer)
    if code != 0:
        raise RuntimeError(f"exact_opt.py exited with {code}")
    optima = {}
    for call, found in zip(calls, json.loads(answer.read_text())):
        instance = json.loads(Path(call["instance"]).read_text())
        costs = instances.read_costs(call["costs"])
        reason = check.fair_allocation(instance, found["allocation"])
        value = check.objective(instance, costs, found["allocation"])
        if reason is None and value * found["scale"] != found["scaled_objective"]:
            reason = f"solver objective {found['scaled_objective']}/{found['scale']} != {value}"
        optima[call["id"]] = (value, reason and f"integer program: {reason}")
    return optima


def check_outputs(records: list[dict], optima: dict) -> list[str]:
    """Check every output; an output equal to one already checked for the
    same call passes or fails with it."""
    verdicts: dict[tuple[str, str], str | None] = {}
    problems = []
    for record in records:
        if "output" not in record:
            continue
        output = record["output"]
        key = (record["id"], output if isinstance(output, str) else json.dumps(output, sort_keys=True))
        if key not in verdicts:
            instance = json.loads(Path(record["instance"]).read_text())
            verdicts[key] = check_one(record, instance, output, optima)
        if verdicts[key]:
            problems.append(f"{record['id']} pass {record['pass']}: {verdicts[key]}")
    return problems


def check_one(record: dict, instance: dict, output, optima: dict) -> str | None:
    op = record["op"]
    if op == "solve":
        try:
            allocation = json.loads(output)
        except ValueError:
            return "solve output is not JSON"
        return check.fair_allocation(instance, allocation)
    if op == "verify":
        return None if output.splitlines()[-1:] == ["overall: PASS"] else "verify did not print overall: PASS"
    if op == "seq":
        return check.sequenced(instance, output)
    if op == "lottery":
        return check.lottery(instance, output)
    optimum, reason = optima[record["id"]]
    return reason or check.optimized(instance, instances.read_costs(record["costs"]), optimum, output)


def by_pass(records: list[dict]) -> list[list[dict]]:
    passes: dict[int, list[dict]] = {}
    for record in records:
        if "seconds" in record:
            passes.setdefault(record["pass"], []).append(record)
    return [passes[p] for p in sorted(passes)]


def median_over_passes(passes: list[list[dict]], value) -> float:
    values = [value(p) for p in passes]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def mean_call(kind: str):
    def value(records: list[dict]) -> float | None:
        times = [r["seconds"] for r in records if r["kind"] == kind]
        return statistics.fmean(times) if times else None

    return value


def end_to_end(records: list[dict], setup_s: float, rss: float) -> dict[str, float]:
    passes = by_pass(records)
    done = [r for p in passes for r in p]
    call_time = sum(r["seconds"] for r in done)
    return {
        "setup_s": setup_s,
        "goods_call_s": median_over_passes(passes, mean_call("goods")),
        "chores_call_s": median_over_passes(passes, mean_call("chores")),
        "worst_call_s": median_over_passes(passes, lambda p: max(r["seconds"] for r in p)),
        "items_per_s": sum(r["m"] for r in done) / call_time if call_time else 0.0,
        "peak_rss_mb": rss,
    }


def per_layer(records: list[dict], setup_spans: list[dict]) -> dict[str, float]:
    """Per-pass self seconds and counts of each layer, medians over passes."""
    passes = by_pass(records)
    totals: list[dict[str, float]] = []
    for records_of_pass in passes:
        total: dict[str, float] = {"calls.traced_s": 0.0}
        for record in records_of_pass:
            total["calls.traced_s"] += record["seconds"]
            layers = record.get("layers", {"seconds": {}, "counts": {}})
            for name, value in layers["seconds"].items():
                total[name] = total.get(name, 0.0) + value
            if record["op"] in ("solve", "verify"):
                inside = sum(layers["seconds"].values())
                total["cli.interpreter_s"] = total.get("cli.interpreter_s", 0.0) + record["seconds"] - inside
            for name, value in layers["counts"].items():
                if name in PEAK_COUNTS:
                    total[name] = max(total.get(name, 0), value)
                else:
                    total[name] = total.get(name, 0) + value
        totals.append(total)
    out = {}
    for name in PER_LAYER_SECONDS:
        out[name] = statistics.median(t.get(name, 0.0) for t in totals) if totals else 0.0
    for name in PER_LAYER_COUNTS:
        out[name] = statistics.median_low(t.get(name, 0) for t in totals) if totals else 0
    if setup_spans and not any(r["op"] in ("solve", "verify") for r in records):
        # in-process workloads import once per start, not once per pass
        for name in ("import.fairmatch_s", "import.numpy_scipy_s"):
            out[name] = statistics.median(s["seconds"][name] for s in setup_spans)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fairmatch" / "__init__.py").is_file():
        print("error: run from the root of a fairmatch checkout (no src/fairmatch here)", file=sys.stderr)
        return 2
    work = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    child = Child(env, work / "stderr.log")
    trace = bool(args.trace)
    try:
        calls = write_inputs(args.workload, args.seed, work)
        files = sorted({c["instance"] for c in calls})
        setup_s, setup_spans = measure_setup(child, files, work, trace)
        runner = run_cli if args.workload == "cli" else run_in_process
        records, rss = runner(child, calls, work, args.seconds, trace)
        optima = exact_optima(child, calls, work) if args.workload == "optimize" else {}
        problems = check_outputs(records, optima)
        if trace:
            values = per_layer(records, setup_spans)
            units = {name: "s" for name in PER_LAYER_SECONDS} | {name: "count" for name in PER_LAYER_COUNTS}
        else:
            values = end_to_end(records, setup_s, rss)
            units = dict(END_TO_END)
    except RuntimeError as exc:
        log = (work / "stderr.log").read_text()[-2000:] if (work / "stderr.log").exists() else ""
        print(f"error: {exc}\n{log}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    failed = sum("error" in r for r in records)
    for line in problems[:10] + [f"{r['id']} pass {r['pass']}: {r['error']}" for r in records if "error" in r][:10]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
