"""The benchmark's timed process: runs fairmatch and nothing else.

Usage:
  python3 worker.py setup [--spans FILE] INSTANCE...
      import fairmatch.cli and load (parse and validate) each instance;
  python3 worker.py run PLAN RESULTS SECONDS [--trace]
      closed loop of in-process calls, whole passes over PLAN's calls;
  python3 worker.py cli SPANS ARG...
      one traced ``fairmatch`` command line (the untraced one is
      ``python3 -m fairmatch.cli ARG...``).

``fairmatch`` must be importable (the caller puts the checkout's ``src``
on PYTHONPATH).  Untraced modes import nothing fairmatch does not import
itself, so their start-up time and peak memory are fairmatch's.  Results
go to files, one JSON object per line.
"""

import gc
import json
import sys
import time


def fraction_text(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def bundles_json(instance, allocation) -> dict:
    return {agent.name: sorted(allocation.bundles[i]) for i, agent in enumerate(instance.agents)}


def traced_imports(tracer) -> None:
    start = time.perf_counter()
    import numpy  # noqa: F401  (what fairmatch.matching imports)
    import scipy.sparse  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    middle = time.perf_counter()
    import fairmatch.cli  # noqa: F401
    tracer.record("import.numpy_scipy_s", middle - start)
    tracer.record("import.fairmatch_s", time.perf_counter() - middle)


def setup(argv: list[str]) -> None:
    tracer = None
    if argv[0] == "--spans":
        spans, argv = argv[1], argv[2:]
        import layers

        tracer = layers.Tracer()
        traced_imports(tracer)
        layers.install(tracer)
    import fairmatch.cli  # noqa: F401
    from fairmatch import core

    for path in argv:
        with open(path) as f:
            core.load_instance(f.read())
    if tracer is not None:
        with open(spans, "w") as f:
            json.dump(tracer.take(), f)


def cli(spans: str, argv: list[str]) -> int:
    import layers

    tracer = layers.Tracer()
    traced_imports(tracer)
    layers.install(tracer)
    import fairmatch.cli

    try:
        return fairmatch.cli.main(argv)
    finally:
        with open(spans, "w") as f:
            json.dump(tracer.take(), f)


def make_call(op: str):
    """The program call for one operation, and its output as JSON.

    Each call touches its result before returning, so the timed region
    covers a finished result.
    """
    from fairmatch import bobw, matching, optimize

    if op == "seq":
        def call(instance, _spec):
            allocation, sequence = matching.solve_with_sequence(instance)
            len(sequence.sequence)
            return allocation, sequence

        def out(instance, result):
            allocation, sequence = result
            return {
                "allocation": bundles_json(instance, allocation),
                "sequence": [instance.agents[i].name for i in sequence.sequence],
            }
    elif op == "lottery":
        def call(instance, _spec):
            lottery = bobw.uniform_lottery(instance)
            len(lottery.entries)
            return lottery

        def out(instance, lottery):
            return [[fraction_text(w), bundles_json(instance, a)] for w, a in lottery.entries]
    elif op == "optimize":
        def call(instance, spec):
            allocation, objective = optimize.optimize_allocation(instance, spec)
            objective.numerator
            return allocation, objective

        def out(instance, result):
            allocation, objective = result
            return {"allocation": bundles_json(instance, allocation), "objective": fraction_text(objective)}
    else:
        raise ValueError(f"unknown operation {op!r}")
    return call, out


def run(plan_path: str, results_path: str, seconds: float, trace: bool) -> None:
    import fairmatch.cli  # noqa: F401
    from fairmatch import core, optimize

    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    with open(plan_path) as f:
        plan = json.load(f)
    calls = []
    for entry in plan:
        with open(entry["instance"]) as f:
            text = f.read()
        costs = None
        if entry.get("costs"):
            with open(entry["costs"]) as f:
                costs = f.read()
        calls.append((entry, text, costs, *make_call(entry["op"])))

    with open(results_path, "w") as results:
        start = time.perf_counter()
        passes = 0
        while True:
            pass_start = time.perf_counter()
            for entry, text, costs, call, out in calls:
                if tracer is not None:
                    tracer.take()
                # a fresh Instance per call: its cached positions must not carry over
                instance = core.load_instance(text)
                spec = None
                if costs is not None:
                    spec = optimize.parse_costs(costs, instance, entry["direction"])
                gc.collect()
                record = {"pass": passes, "id": entry["id"]}
                try:
                    t0 = time.perf_counter()
                    result = call(instance, spec)
                    record["seconds"] = time.perf_counter() - t0
                except Exception as exc:  # a failed operation is counted, the loop goes on
                    record["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    record["output"] = out(instance, result)
                if tracer is not None:
                    record["layers"] = tracer.take()
                results.write(json.dumps(record) + "\n")
            passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest)
        return 0
    if mode == "run":
        run(rest[0], rest[1], float(rest[2]), rest[3:] == ["--trace"])
        return 0
    if mode == "cli":
        return cli(rest[0], rest[1:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
