"""End-to-end tests for the command-line interface."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairmatch.bobw import lottery_from_json
from fairmatch.cli import main
from fairmatch.core import (
    allocation_to_json,
    dump_instance,
    generate_instance,
    load_instance,
    validate_instance,
)
from fairmatch.fairness import simulate_picking_sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_identical_chores(tmp_path, name="inst.json"):
    items = ["b1", "b2", "b3"]
    inst = validate_instance(
        "chores",
        items,
        [("a1", Fraction(1, 2), items), ("a2", Fraction(1, 2), items)],
    )
    path = tmp_path / name
    path.write_text(dump_instance(inst))
    return inst, path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_is_byte_deterministic(tmp_path, capsys):
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "gen", "--agents", "2", "--items", "3",
            "--kind", "chores", "--seed", "5", "-o", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    load_instance(out1.read_text())  # parses back


# ---------------------------------------------------------------------------
# solve / verify round trips
# ---------------------------------------------------------------------------

def test_solve_then_verify_round_trip(tmp_path, capsys):
    for kind in ("chores", "goods"):
        inst_path = tmp_path / f"{kind}.json"
        code, _, _ = run(
            capsys, "gen", "--agents", "3", "--items", "7",
            "--kind", kind, "--seed", "9", "-o", str(inst_path),
        )
        assert code == 0
        alloc_path = tmp_path / f"{kind}-alloc.json"
        code, _, _ = run(capsys, "solve", str(inst_path), "-o", str(alloc_path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(inst_path), str(alloc_path))
        assert code == 0
        assert "overall: PASS" in out


def test_solve_seq_emits_replayable_sequence(tmp_path, capsys):
    for kind in ("chores", "goods"):
        inst_path = tmp_path / f"{kind}.json"
        run(
            capsys, "gen", "--agents", "3", "--items", "6",
            "--kind", kind, "--seed", "2", "-o", str(inst_path),
        )
        out_path = tmp_path / f"{kind}-seq.json"
        code, _, _ = run(capsys, "solve", str(inst_path), "--seq", "-o", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"allocation", "sequence"}
        inst = load_instance(inst_path.read_text())
        indices = [inst.agent_index(name) for name in payload["sequence"]]
        replay = simulate_picking_sequence(inst, indices)
        expected = {
            inst.agents[i].name: sorted(replay.bundles[i]) for i in range(inst.n)
        }
        got = {name: sorted(items) for name, items in payload["allocation"].items()}
        assert got == expected
        # the wrapped file is accepted by verify
        code, out, _ = run(capsys, "verify", str(inst_path), str(out_path))
        assert code == 0


def test_solve_seq_when_the_lowest_rank_group_is_stuck(tmp_path, capsys):
    # the picking-sequence extraction that solve --seq once ran reached a
    # step here where every pending slot of the lowest matched rank still
    # saw a better available chore, but a higher one did not
    inst_path = tmp_path / "chores.json"
    run(
        capsys, "gen", "--agents", "6", "--items", "30",
        "--kind", "chores", "--seed", "5", "-o", str(inst_path),
    )
    out_path = tmp_path / "seq.json"
    code, _, err = run(capsys, "solve", str(inst_path), "--seq", "-o", str(out_path))
    assert code == 0 and err == ""
    payload = json.loads(out_path.read_text())
    inst = load_instance(inst_path.read_text())
    replay = simulate_picking_sequence(
        inst, [inst.agent_index(name) for name in payload["sequence"]]
    )
    assert {
        name: sorted(items) for name, items in payload["allocation"].items()
    } == {inst.agents[i].name: sorted(replay.bundles[i]) for i in range(inst.n)}
    code, out, _ = run(capsys, "verify", str(inst_path), str(out_path))
    assert code == 0 and "overall: PASS" in out


# the output sweep of the best-first prefix solve: seeds 0-19 at 3x9, 5x20,
# 8x40 and 12x60, seeds 0-4 at 20x100, and three instances where the old
# picking-sequence extraction once stalled; 176 instances over both kinds
SWEEP = [
    (n, m, seed)
    for n, m, seeds in [
        (3, 9, range(20)), (5, 20, range(20)), (8, 40, range(20)),
        (12, 60, range(20)), (20, 100, range(5)), (6, 30, (5, 28)), (8, 40, (30,)),
    ]
    for seed in seeds
]


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_solve_seq_prints_the_solve_allocation_and_replays(kind, tmp_path, capsys):
    path = tmp_path / "inst.json"
    for n, m, seed in SWEEP:
        inst = generate_instance(n, m, kind, seed)
        path.write_text(dump_instance(inst))
        code, plain, err = run(capsys, "solve", str(path))
        assert code == 0 and err == ""
        code, out, err = run(capsys, "solve", "--seq", str(path))
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert json.dumps(payload["allocation"], indent=2) + "\n" == plain, (n, m, seed)
        replay = simulate_picking_sequence(
            inst, [inst.agent_index(name) for name in payload["sequence"]]
        )
        assert payload["allocation"] == allocation_to_json(inst, replay), (n, m, seed)


def test_verify_reports_failure_with_exit_one(tmp_path, capsys):
    _, inst_path = write_identical_chores(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a1": ["b1", "b2", "b3"], "a2": []}))
    code, out, _ = run(capsys, "verify", str(inst_path), str(bad))
    assert code == 1
    assert "CountBound" in out
    assert "overall: FAIL" in out


def test_verify_rejects_double_allocation(tmp_path, capsys):
    _, inst_path = write_identical_chores(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a1": ["b1", "b2"], "a2": ["b2", "b3"]}))
    code, out, _ = run(capsys, "verify", str(inst_path), str(bad))
    assert code == 1
    assert "malformed" in out


# ---------------------------------------------------------------------------
# optimize / lottery / graph / oracle
# ---------------------------------------------------------------------------

def test_optimize_command(tmp_path, capsys):
    _, inst_path = write_identical_chores(tmp_path)
    costs = tmp_path / "costs.txt"
    costs.write_text("1 0 0\n0 1 1\n")
    out_path = tmp_path / "opt.json"
    code, _, _ = run(
        capsys, "optimize", str(inst_path), "--costs", str(costs), "--maximize",
        "-o", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["objective"] == "3"
    assert payload["allocation"] == {"a1": ["b1"], "a2": ["b2", "b3"]}
    # the optimize output is itself a valid allocation file
    code, out, _ = run(capsys, "verify", str(inst_path), str(out_path))
    assert code == 0 and "overall: PASS" in out


def test_optimize_accepts_no_items_with_empty_costs(tmp_path, capsys):
    # blank lines are skipped, so an instance without items has no cost rows
    costs = tmp_path / "costs.txt"
    costs.write_text("\n")
    for kind in ("chores", "goods"):
        inst_path = tmp_path / f"empty-{kind}.json"
        code, _, _ = run(capsys, "gen", "--agents", "2", "--items", "0", "--kind", kind,
                         "--seed", "1", "-o", str(inst_path))
        assert code == 0
        code, out, err = run(capsys, "optimize", str(inst_path), "--costs", str(costs),
                             "--minimize")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["objective"] == "0"
        assert all(bundle == [] for bundle in payload["allocation"].values())
    # the row count is still checked when there are items
    _, inst_path = write_identical_chores(tmp_path)
    code, _, err = run(capsys, "optimize", str(inst_path), "--costs", str(costs), "--minimize")
    assert code == 2 and "cost rows" in err


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_optimize_objective_is_the_cost_file_sum_over_the_allocation(kind, tmp_path, capsys):
    # the objective is recomputed from the cost text itself, with no
    # fairmatch parsing in between
    path, costs = tmp_path / "inst.json", tmp_path / "costs.txt"
    for n, m, seed in SWEEP:
        inst = generate_instance(n, m, kind, seed)
        path.write_text(dump_instance(inst))
        rng = random.Random(seed)
        costs.write_text("".join(
            " ".join(f"{rng.randint(0, 20)}/{rng.randint(1, 6)}" for _ in range(m)) + "\n"
            for _ in range(n)
        ))
        table = [dict(zip(inst.items, map(Fraction, line.split())))
                 for line in costs.read_text().splitlines()]
        for direction in ("--minimize", "--maximize"):
            out_path = tmp_path / "opt.json"
            code, _, err = run(capsys, "optimize", str(path), "--costs", str(costs),
                               direction, "-o", str(out_path))
            case = (n, m, seed, direction)
            assert code == 0 and err == "", case
            payload = json.loads(out_path.read_text())
            code, out, _ = run(capsys, "verify", str(path), str(out_path))
            assert code == 0 and "overall: PASS" in out, case
            total = sum(
                (table[inst.agent_index(name)][item]
                 for name, bundle in payload["allocation"].items() for item in bundle),
                Fraction(0),
            )
            assert Fraction(payload["objective"]) == total, case


def test_lottery_command_mixture_recomputable(tmp_path, capsys):
    inst, inst_path = write_identical_chores(tmp_path)
    code, out, _ = run(capsys, "lottery", str(inst_path))
    assert code == 0
    lottery = lottery_from_json(inst, json.loads(out))
    mix = lottery.mixture(inst)
    assert all(x == Fraction(1, 2) for row in mix.shares for x in row)


def test_graph_command_text_and_dot(tmp_path, capsys):
    _, inst_path = write_identical_chores(tmp_path)
    code, out, _ = run(capsys, "graph", str(inst_path))
    assert code == 0 and out.startswith("allocation-graph kind=chores")
    code, out, _ = run(capsys, "graph", str(inst_path), "--extended", "--dot")
    assert code == 0 and out.startswith("graph allocation {") and "dashed" in out


def test_oracle_command_cross_checks(tmp_path, capsys):
    _, inst_path = write_identical_chores(tmp_path)
    code, out, _ = run(capsys, "oracle", str(inst_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["matching_cross_check"] == "ok"
    # goods instance too
    items = ["b1", "b2", "b3"]
    goods = validate_instance(
        "goods", items,
        [("a1", Fraction(1, 2), items), ("a2", Fraction(1, 2), items)],
    )
    goods_path = tmp_path / "goods.json"
    goods_path.write_text(dump_instance(goods))
    code, out, _ = run(capsys, "oracle", str(goods_path))
    assert code == 0
    assert json.loads(out)["matching_cross_check"] == "ok"


def test_oracle_caps_the_matchings_it_enumerates(tmp_path, capsys):
    # 2^8 = 256 allocations pass the n^m check, but the chores graph has
    # 1,514 chore-saturating matchings: the cap must stop their enumeration
    path = tmp_path / "inst.json"
    code, _, _ = run(
        capsys, "gen", "--agents", "2", "--items", "8", "--kind", "chores",
        "--seed", "1", "-o", str(path),
    )
    assert code == 0
    code, out, err = run(capsys, "oracle", str(path), "--cap", "300")
    assert code == 2 and out == ""
    assert err == "error: side-perfect matchings exceed cap 300\n"


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_input_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "solve", str(missing))
    assert code == 2 and "error:" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _, err = run(capsys, "solve", str(bad_json))
    assert code == 2

    bad_sum = tmp_path / "badsum.json"
    bad_sum.write_text(
        json.dumps(
            {
                "kind": "chores",
                "items": ["b1"],
                "agents": [
                    {"name": "a1", "entitlement": "1/2", "ranking": ["b1"]},
                    {"name": "a2", "entitlement": "1/3", "ranking": ["b1"]},
                ],
            }
        )
    )
    code, _, err = run(capsys, "solve", str(bad_sum))
    assert code == 2 and "sum" in err

    unknown_field = tmp_path / "extra.json"
    unknown_field.write_text(
        json.dumps({"kind": "chores", "items": [], "agents": [], "colour": 1})
    )
    code, _, err = run(capsys, "solve", str(unknown_field))
    assert code == 2


def test_duplicate_agent_names_exit_two(tmp_path, capsys):
    path = tmp_path / "twins.json"
    path.write_text(
        json.dumps(
            {
                "kind": "goods",
                "items": ["b1", "b2"],
                "agents": [
                    {"name": "a", "entitlement": "1/2", "ranking": ["b1", "b2"]},
                    {"name": "a", "entitlement": "1/2", "ranking": ["b2", "b1"]},
                ],
            }
        )
    )
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert "'a'" in err


def test_entitlement_outside_the_rational_grammar_exits_two(tmp_path, capsys):
    inst, _ = write_identical_chores(tmp_path)
    data = json.loads(dump_instance(inst))
    for bad in ("1_0/2_0", " +1/2", "\uff11/\uff12", "1/-2"):
        data["agents"][0]["entitlement"] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2 and out == "", bad
        assert err.startswith("error:") and err.count("\n") == 1, bad


def test_output_file_is_utf8_under_an_ascii_locale(tmp_path):
    import fairmatch

    items = ["\u00e9", "b"]
    inst = validate_instance(
        "goods", items, [("a1", Fraction(1, 2), items), ("a2", Fraction(1, 2), items)]
    )
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(inst), encoding="utf-8")
    out_path = tmp_path / "out.txt"
    src = str(Path(fairmatch.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fairmatch.cli", "graph", str(inst_path), "-o", str(out_path)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "item 0 \u00e9" in out_path.read_bytes().decode("utf-8")


def test_stdout_is_utf8_under_an_ascii_locale(tmp_path):
    import fairmatch

    items = ["\u00e9", "b"]
    inst = validate_instance(
        "goods", items, [("\u00e5sa", Fraction(1, 2), items), ("a2", Fraction(1, 2), items)]
    )
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(inst), encoding="utf-8")
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"\u00e5sa": ["\u00e9"], "a2": ["b"]}), encoding="utf-8")
    src = str(Path(fairmatch.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def fairmatch_stdout(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "fairmatch.cli", *argv], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.decode("utf-8")

    assert "item 0 \u00e9" in fairmatch_stdout("graph", str(inst_path))
    assert 'label="\u00e9"' in fairmatch_stdout("graph", str(inst_path), "--dot")
    assert "agent \u00e5sa: PASS" in fairmatch_stdout("verify", str(inst_path), str(alloc_path))


def test_stdout_redirected_to_a_text_stream(tmp_path):
    # a text stream without a byte layer, as contextlib.redirect_stdout sets
    import contextlib
    import io

    _, inst_path = write_identical_chores(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["graph", str(inst_path)]) == 0
    assert out.getvalue().startswith("allocation-graph kind=chores")


def test_non_utf8_instance_exits_two(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UTF-8" in err
    assert err.count("\n") == 1


def test_deeply_nested_instance_exits_two(tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run(capsys, "solve", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1


def test_deeply_nested_allocation_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    _, inst_path = write_identical_chores(tmp_path)
    code, out, err = run(capsys, "verify", str(inst_path), str(deep))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON in allocation file") and err.count("\n") == 1


@pytest.mark.parametrize("repeat", ["kind", "ranking"])
def test_instance_with_a_repeated_key_exits_two(repeat, tmp_path, capsys):
    # json.loads alone keeps the last value of a repeated key
    agent = '{"name": "a1", "entitlement": "1", "ranking": ["b1", "b2"]%s}'
    text = '{"kind": "goods",%s "items": ["b1", "b2"], "agents": [%s]}' % (
        ' "kind": "chores",' if repeat == "kind" else "",
        agent % (', "ranking": ["b2", "b1"]' if repeat == "ranking" else ""),
    )
    path = tmp_path / "inst.json"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON") and f"{repeat!r}" in err
    assert err.count("\n") == 1


def test_allocation_with_a_repeated_agent_exits_two(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(generate_instance(2, 4, "goods", 1)))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text('{"a1": ["b1", "b2"], "a1": ["b3"], "a2": ["b4"]}')
    code, out, err = run(capsys, "verify", str(inst_path), str(alloc_path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON in allocation file") and "'a1'" in err
    assert err.count("\n") == 1


def test_repeated_item_in_bundle_exits_two(tmp_path, capsys):
    _, inst_path = write_identical_chores(tmp_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"a1": ["b1", "b2", "b1"], "a2": ["b3"]}))
    code, out, err = run(capsys, "verify", str(inst_path), str(alloc_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'b1'" in err


@pytest.mark.parametrize("kind", ["goods", "chores"])
def test_internal_error_exits_three(kind, tmp_path, capsys, monkeypatch):
    from fairmatch import allocgraph, matching

    def unreachable(instance):
        # every slot reaches nothing, which the construction rules out
        for best_first, reaches in allocgraph.slot_reaches(instance):
            yield best_first, (0,) * len(reaches)

    monkeypatch.setattr(matching, "slot_reaches", unreachable)
    # goods: one slot per agent, and the plain slot that picks nothing
    # raises before any spare slot picks
    items = ["b1", "b2", "b3", "b4"]
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(validate_instance(
        kind, items, [("a1", Fraction(1, 2), items), ("a2", Fraction(1, 2), items)]
    )))
    for flags in ([], ["--seq"]):
        code, out, err = run(capsys, "solve", *flags, str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: internal: InternalError: ")
        assert err.count("\n") == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fairmatch.cli", "gen", "--agents", "2",
         "--items", "2", "--kind", "goods", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["kind"] == "goods"


def test_cli_import_pulls_in_neither_numpy_nor_scipy():
    import fairmatch

    src = str(Path(fairmatch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import fairmatch.cli, sys; "
         "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
