"""Command-line interface.

Subcommands: ``gen``, ``graph``, ``solve``, ``optimize``, ``lottery``,
``verify``, ``oracle``.  All numeric output is exact rational text; every
output is a deterministic function of the input files, flags and seed.
Exit codes: 0 success, 1 verification failure, 2 input or usage error,
3 internal error (an invariant the construction guarantees broke; one
``error: internal:`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Iterable

from . import bobw, fairness, matching, optimize, oracle
from .allocgraph import build_allocation_graph, extend_allocation_graph, graph_to_dot, graph_to_text
from .core import (
    FormatError,
    Instance,
    InstanceError,
    InternalError,
    allocation_from_json,
    allocation_to_json,
    dump_instance,
    format_rational,
    generate_instance,
    load_instance,
    parse_json,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` as UTF-8 to the file ``out`` or to stdout.

    They are joined and written 4096 at a time: a generator of lines is
    never held whole, and a line costs no write call of its own.
    """
    chunks = iter(chunks)
    batches = ("".join(batch) for batch in iter(lambda: list(islice(chunks, 4096)), []))
    if out:
        with open(out, "w", encoding="utf-8") as file:
            file.writelines(batches)
        return
    # stdout's text layer encodes in the locale's encoding, which may not
    # cover every name, so the text goes to its byte layer as UTF-8
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(batches)
    else:
        sys.stdout.flush()
        buffer.writelines(batch.encode("utf-8") for batch in batches)


def _emit_json(data: object, out: str | None) -> None:
    # json.dumps(data, indent=2) runs this same encoder but holds every
    # chunk in a list, then the whole document as one string
    _emit(chain(json.JSONEncoder(indent=2).iterencode(data), ("\n",)), out)


def _load_instance_file(path: str) -> Instance:
    return load_instance(_read(path))


def cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(args.agents, args.items, args.kind, args.seed)
    _emit((dump_instance(instance),), args.output)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    instance = _load_instance_file(args.instance)
    graph = build_allocation_graph(instance)
    if args.extended:
        graph = extend_allocation_graph(graph, instance)
    render = graph_to_dot if args.dot else graph_to_text
    _emit(render(graph, instance), args.output)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance_file(args.instance)
    if args.seq:
        allocation, sequence = matching.solve_with_sequence(instance)
        payload = {
            "allocation": allocation_to_json(instance, allocation),
            "sequence": [instance.agents[i].name for i in sequence.sequence],
        }
        _emit_json(payload, args.output)
    else:
        allocation = matching.perfect_allocation(instance)
        _emit_json(allocation_to_json(instance, allocation), args.output)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    instance = _load_instance_file(args.instance)
    direction = optimize.MAXIMIZE if args.maximize else optimize.MINIMIZE
    spec = optimize.parse_costs(_read(args.costs), instance, direction)
    allocation, objective = optimize.optimize_allocation(instance, spec)
    payload = {
        "allocation": allocation_to_json(instance, allocation),
        "objective": format_rational(objective),
        "direction": direction,
    }
    _emit_json(payload, args.output)
    return 0


def cmd_lottery(args: argparse.Namespace) -> int:
    instance = _load_instance_file(args.instance)
    lottery = bobw.uniform_lottery(instance)
    _emit_json(bobw.lottery_to_json(instance, lottery), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance_file(args.instance)
    data = parse_json(_read(args.allocation), " in allocation file")
    allocation = allocation_from_json(instance, data)
    try:
        report = fairness.check_allocation(instance, allocation)
    except fairness.MalformedAllocation as exc:
        _emit((f"malformed allocation: {exc}\noverall: FAIL\n",), None)
        return 1
    _emit((fairness.render_report(instance, report),), None)
    return 0 if report.passes else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance_file(args.instance)
    allocations = oracle.enumerate_wsdprop1(instance, cap=args.cap)
    consistent = oracle.matchings_agree_with(instance, allocations, cap=args.cap)
    payload = {
        "count": len(allocations),
        "allocations": [allocation_to_json(instance, a) for a in allocations],
        "matching_cross_check": "ok" if consistent else "MISMATCH",
    }
    _emit_json(payload, args.output)
    return 0 if consistent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmatch",
        description=(
            "Fair division of indivisible goods and chores for agents with "
            "ordinal preferences and arbitrary entitlements, via matchings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--kind", choices=["goods", "chores"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("graph", help="emit the allocation graph")
    p.add_argument("instance")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("solve", help="compute a fair allocation")
    p.add_argument("instance")
    p.add_argument(
        "--seq",
        action="store_true",
        help=(
            "also emit a picking sequence that replays the allocation "
            "(the slots' picks in order)"
        ),
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("optimize", help="optimize a linear objective over fair allocations")
    p.add_argument("instance")
    p.add_argument("--costs", required=True, help="cost file: agent rows, item columns")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--minimize", action="store_true")
    group.add_argument("--maximize", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("lottery", help="uniform lottery over fair allocations")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_lottery)

    p = sub.add_parser("verify", help="verify an allocation file")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="enumerate all fair allocations (small instances)")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_oracle)

    return parser


# Failures no input can cause: valid instances always have the matchings
# and decompositions the solvers look for.
INTERNAL_ERRORS = (InternalError, matching.NoPerfectMatching, matching.NotDoublyStochastic)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, FormatError, oracle.InstanceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
