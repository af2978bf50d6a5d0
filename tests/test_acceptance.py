"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact (rational equality) unless the
criterion is a wall-clock bound, in which case the stated limit is
asserted directly.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from fairmatch.allocgraph import build_allocation_graph, extend_allocation_graph, slot_count
from fairmatch.bobw import uniform_lottery
from fairmatch.core import (
    IntegralAllocation,
    generate_instance,
    validate_instance,
)
from fairmatch.fairness import check_allocation, check_bundle, simulate_picking_sequence
from fairmatch.matching import (
    Matching,
    extract_picking_sequence,
    normalize_slot_order,
    perfect_allocation,
    rank_maximal_perfect_matching,
    solve_with_sequence,
)
from fairmatch.optimize import MAXIMIZE, MINIMIZE, CostSpec, optimize_allocation
from fairmatch.oracle import (
    allocation_from_matching,
    enumerate_wsdprop1,
    matchings_agree_with,
    step_valuation_oracle,
)
from reference import ranked_graph, signature


def report(line):
    print(f"\nacceptance {line}")


def identical(kind, n, m, entitlements=None):
    items = [f"b{j + 1}" for j in range(m)]
    entitlements = entitlements or [Fraction(1, n)] * n
    return validate_instance(
        kind, items, [(f"a{i + 1}", entitlements[i], items) for i in range(n)]
    )


def test_criterion_01_existence_and_verification():
    # 1,000 random instances per kind, n <= 8, m <= 12: solving always
    # succeeds and the result verifies; the whole sweep stays under 10 s
    start = time.monotonic()
    rng = random.Random(101)
    for kind in ("chores", "goods"):
        for trial in range(1000):
            n = rng.randint(1, 8)
            m = rng.randint(0, 12)
            inst = generate_instance(n, m, kind, seed=trial * 7 + 3)
            allocation = perfect_allocation(inst)
            assert check_allocation(inst, allocation).passes, (kind, trial)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"existence sweep took {elapsed:.1f}s"
    report(f"01 existence: PASS (2000 instances in {elapsed:.1f}s)")


def test_criterion_02_characterization_equivalence():
    # both checkers depend on the bundle only through its ranking positions,
    # so identity rankings exhaust the space; a random-ranking sweep guards
    # the position-mapping code anyway
    start = time.monotonic()
    grids = {
        1: [(Fraction(6, 6),)],
        2: [(Fraction(k, 6), Fraction(6 - k, 6)) for k in range(1, 6)],
        3: [
            (Fraction(a, 6), Fraction(b, 6), Fraction(6 - a - b, 6))
            for a in range(1, 5)
            for b in range(1, 6 - a)
        ],
    }
    checked = 0
    for kind in ("chores", "goods"):
        for n, entitlement_grid in grids.items():
            for grid in entitlement_grid:
                for m in range(0, 7):
                    inst = identical(kind, n, m, entitlements=list(grid))
                    for i in range(n):
                        for size in range(m + 1):
                            for bundle in itertools.combinations(inst.items, size):
                                checked += 1
                                assert (
                                    check_bundle(inst, i, set(bundle)).passes
                                    == step_valuation_oracle(inst, i, set(bundle))
                                ), (kind, grid, m, i, bundle)
    rng = random.Random(202)
    for seed in range(40):
        kind = "chores" if seed % 2 else "goods"
        inst = generate_instance(1 + seed % 3, 1 + seed % 6, kind, seed)
        for i in range(inst.n):
            for _ in range(16):
                bundle = {b for b in inst.items if rng.random() < 0.5}
                checked += 1
                assert (
                    check_bundle(inst, i, bundle).passes
                    == step_valuation_oracle(inst, i, bundle)
                )
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(f"02 characterization equivalence: PASS ({checked} bundles in {elapsed:.1f}s)")


def test_criterion_03_matching_allocation_bijection():
    # chores: the set of allocations induced by all chore-saturating
    # matchings equals the enumerated fair set, exactly; goods mirror via
    # bundle containment (slot-perfect matchings are partial allocations)
    cases = 0
    for kind in ("chores", "goods"):
        for seed in range(20):
            inst = generate_instance(1 + seed % 3, 1 + seed % 6, kind, seed)
            assert matchings_agree_with(inst, enumerate_wsdprop1(inst)), (kind, seed)
            cases += 1
    report(f"03 matching-allocation bijection: PASS ({cases} instances)")


def test_criterion_04_four_agent_fixture():
    edges = {
        (0, 0): 2, (0, 1): 1,
        (1, 0): 1, (1, 1): 2,
        (2, 2): 2, (2, 3): 1,
        (3, 1): 1, (3, 3): 2,
    }
    graph = ranked_graph(["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"], edges)
    match = rank_maximal_perfect_matching(graph)
    assert signature(match, graph) == (2, 2)
    assert match.pairs == ((0, 1), (1, 0), (2, 2), (3, 3))
    sequence = extract_picking_sequence(match, graph)
    assert sequence.sequence == (0, 1, 3, 2)
    available = set(range(4))
    replay = {}
    for s in sequence.slots:
        pick = min(
            (j for j in graph.adjacency[s] if j in available),
            key=lambda j: graph.rank_of(s, j),
        )
        replay[s] = pick
        available.discard(pick)
    assert replay == match.left_map()
    report("04 four-agent fixture: PASS (signature (2,2), sequence a1,a2,a4,a3)")


def test_criterion_05_sequencibility_round_trip():
    # 500 random instances per kind: simulate(extract(normalize(rank-max)))
    # equals the matching's allocation item for item
    for kind in ("chores", "goods"):
        for trial in range(500):
            rng = random.Random(trial * 13 + 1)
            n = rng.randint(1, 5)
            m = rng.randint(0, 8)
            inst = generate_instance(n, m, kind, seed=trial)
            plain = build_allocation_graph(inst)
            graph = (
                extend_allocation_graph(plain, inst) if kind == "chores" else plain
            )
            match = normalize_slot_order(rank_maximal_perfect_matching(graph), graph)
            sequence = extract_picking_sequence(match, graph)
            expected = allocation_from_matching(match, graph, inst)
            replay = simulate_picking_sequence(inst, sequence.sequence)
            assert replay.bundles == expected.bundles, (kind, trial)
    report("05 sequencibility round trip: PASS (1000 instances)")


def test_criterion_05b_sequence_at_scale():
    # at 40x200 the serial dictatorship runs over 224 chores slots; the
    # whole solve_with_sequence call must stay well under 5 s per kind
    for kind in ("chores", "goods"):
        inst = generate_instance(40, 200, kind, 43)
        start = time.monotonic()
        allocation, sequence = solve_with_sequence(inst)
        elapsed = time.monotonic() - start
        assert elapsed < 5, f"solve_with_sequence {kind} 40x200 took {elapsed:.2f}s"
        replay = simulate_picking_sequence(inst, sequence.sequence)
        assert replay.bundles == allocation.bundles, kind
        assert check_allocation(inst, allocation).passes, kind
        report(
            f"05b sequence at scale: PASS ({kind} 40x200, "
            f"{len(sequence.sequence)} picks in {elapsed:.2f}s)"
        )


def test_criterion_05c_sequence_at_the_rank_maximal_cliffs():
    # these took 10.1 s (goods) and 16.4 s (chores) while solve_with_sequence
    # ran the big-integer rank-maximal kernel; the serial dictatorship must
    # keep each well under 5 s
    for kind, n, m in [("goods", 100, 1000), ("chores", 120, 600)]:
        inst = generate_instance(n, m, kind, 43)
        start = time.monotonic()
        allocation, sequence = solve_with_sequence(inst)
        elapsed = time.monotonic() - start
        assert elapsed < 5, f"solve_with_sequence {kind} {n}x{m} took {elapsed:.2f}s"
        replay = simulate_picking_sequence(inst, sequence.sequence)
        assert replay.bundles == allocation.bundles, kind
        assert check_allocation(inst, allocation).passes, kind
        report(
            f"05c sequence at the old cliffs: PASS ({kind} {n}x{m}, "
            f"{len(sequence.sequence)} picks in {elapsed:.2f}s)"
        )


def test_criterion_05d_sequence_replay_sweep():
    cases = 0
    for kind in ("goods", "chores"):
        for n, m, seeds in [(12, 60, 20), (20, 100, 5)]:
            for seed in range(seeds):
                inst = generate_instance(n, m, kind, seed)
                allocation, sequence = solve_with_sequence(inst)
                replay = simulate_picking_sequence(inst, sequence.sequence)
                assert replay.bundles == allocation.bundles, (kind, n, m, seed)
                assert check_allocation(inst, allocation).passes, (kind, n, m, seed)
                cases += 1
    report(f"05d sequence replay sweep: PASS ({cases} instances)")


def test_criterion_06_rank_maximality_brute_force():
    rng = random.Random(303)
    checked = 0
    while checked < 60:
        p = rng.randint(1, 6)
        edges = {
            (i, j): rng.randint(1, p)
            for i in range(p)
            for j in range(p)
            if rng.random() < 0.7
        }
        graph = ranked_graph(
            [f"l{i}" for i in range(p)], [f"r{j}" for j in range(p)], edges
        )
        adjacency = [set(row) for row in graph.adjacency]
        perfect = [
            perm
            for perm in itertools.permutations(range(p))
            if all(perm[i] in adjacency[i] for i in range(p))
        ]
        if not perfect:
            continue
        checked += 1
        best = signature(rank_maximal_perfect_matching(graph), graph)
        for perm in perfect:
            other = Matching(pairs=tuple((i, perm[i]) for i in range(p)))
            assert best >= signature(other, graph)
    report(f"06 rank-maximality: PASS ({checked} graphs against brute force)")


def test_criterion_07_uniform_lottery_guarantees():
    start = time.monotonic()
    rng = random.Random(404)
    for kind in ("chores", "goods"):
        for trial in range(200):
            n = rng.randint(1, 6)
            m = rng.randint(0, 10)
            inst = generate_instance(n, m, kind, seed=trial * 3 + 11)
            graph = extend_allocation_graph(build_allocation_graph(inst), inst)
            p = graph.left_count
            lottery = uniform_lottery(inst)
            assert sum(w for w, _ in lottery.entries) == 1
            assert len(lottery.entries) <= p * p - p + 2
            mix = lottery.mixture(inst)
            for i in range(inst.n):
                for j in range(inst.m):
                    assert mix.shares[i][j] == inst.entitlement(i)
            for _, allocation in lottery.entries:
                assert check_allocation(inst, allocation).passes
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(f"07 uniform lottery: PASS (400 instances in {elapsed:.1f}s)")


def test_criterion_07b_uniform_lottery_at_scale():
    # at 20x100 the extended goods graph has p = 442 and the lottery about
    # a hundred parts; the whole call must stay well under 10 s
    inst = generate_instance(20, 100, "goods", 43)
    graph = extend_allocation_graph(build_allocation_graph(inst), inst)
    p = graph.left_count
    start = time.monotonic()
    lottery = uniform_lottery(inst)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"uniform_lottery goods 20x100 took {elapsed:.2f}s"
    assert sum(w for w, _ in lottery.entries) == 1
    assert len(lottery.entries) <= p * p - p + 2
    mix = lottery.mixture(inst)
    for i in range(inst.n):
        assert all(share == inst.entitlement(i) for share in mix.shares[i])
    report(
        f"07b uniform lottery at scale: PASS (goods 20x100, "
        f"{len(lottery.entries)} parts in {elapsed:.2f}s)"
    )


def test_criterion_07c_uniform_lottery_at_the_cliffs():
    # these took 5.2 s (goods) and 3.4 s (chores) when every round ran
    # Hopcroft-Karp from scratch and the goods matrix kept a row per spare
    # slot; the uniform_lottery call alone must stay well under 5 s
    for kind in ("goods", "chores"):
        inst = generate_instance(100, 500, kind, 43)
        start = time.monotonic()
        lottery = uniform_lottery(inst)
        elapsed = time.monotonic() - start
        assert elapsed < 5, f"uniform_lottery {kind} 100x500 took {elapsed:.2f}s"
        # the mixture in integers over the common denominator of the weights
        denom = math.lcm(*(w.denominator for w, _ in lottery.entries))
        assert sum(w.numerator * (denom // w.denominator) for w, _ in lottery.entries) == denom
        index = {item: j for j, item in enumerate(inst.items)}
        mass = [[0] * inst.m for _ in range(inst.n)]
        for weight, allocation in lottery.entries:
            scaled = weight.numerator * (denom // weight.denominator)
            for i, bundle in enumerate(allocation.bundles):
                for item in bundle:
                    mass[i][index[item]] += scaled
        for i in range(inst.n):
            alpha = inst.entitlement(i)
            assert all(x * alpha.denominator == alpha.numerator * denom for x in mass[i]), (kind, i)
        for _, allocation in lottery.entries:
            assert check_allocation(inst, allocation).passes, kind
        rows = sum(slot_count(inst, i) + (kind == "goods") for i in range(inst.n))
        assert len(lottery.entries) <= rows * rows - rows + 2
        report(
            f"07c uniform lottery at the old cliffs: PASS ({kind} 100x500, "
            f"{len(lottery.entries)} parts in {elapsed:.2f}s)"
        )


def test_criterion_08_optimization_matches_brute_force():
    rng = random.Random(505)
    for trial in range(100):
        kind = "chores" if trial % 2 else "goods"
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        inst = generate_instance(n, m, kind, seed=trial + 99)
        rows = [
            [Fraction(rng.randint(-10, 10), rng.randint(1, 6)) for _ in inst.items]
            for _ in range(inst.n)
        ]
        values = {
            (i, item): rows[i][j] for i in range(inst.n) for j, item in enumerate(inst.items)
        }
        direction = MAXIMIZE if trial % 3 else MINIMIZE
        spec = CostSpec.scaled(rows, direction)
        allocation, objective = optimize_allocation(inst, spec)
        assert check_allocation(inst, allocation).passes

        best = None
        for candidate in enumerate_wsdprop1(inst):
            owners = candidate.owner_map()
            value = sum(
                (values[(owners[item], item)] for item in inst.items), Fraction(0)
            )
            best = (
                value
                if best is None
                else (max(best, value) if direction == MAXIMIZE else min(best, value))
            )
        assert objective == best, trial
    report("08 optimization optimality: PASS (100 instances, exact)")


def test_criterion_08b_optimization_at_scale():
    # at goods 80x400 the extended graph would have p = 2,691 rows; the
    # capacitated solve on the plain graph must stay well under 10 s
    inst = generate_instance(80, 400, "goods", 43)
    rng = random.Random(43)
    rows = [
        [Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in inst.items]
        for _ in range(inst.n)
    ]
    values = {(i, item): rows[i][j] for i in range(inst.n) for j, item in enumerate(inst.items)}
    spec = CostSpec.scaled(rows, MINIMIZE)
    start = time.monotonic()
    allocation, objective = optimize_allocation(inst, spec)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"optimize_allocation goods 80x400 took {elapsed:.2f}s"
    assert check_allocation(inst, allocation).passes
    # no fair allocation does better, the one from a plain matching included
    owners = perfect_allocation(inst).owner_map()
    assert objective <= sum(values[(owners[item], item)] for item in inst.items)
    report(f"08b optimization at scale: PASS (goods 80x400 in {elapsed:.2f}s)")


def test_criterion_09_appendix_fixtures():
    chores = identical("chores", 2, 3)
    good_split = IntegralAllocation(
        bundles=(frozenset({"b1", "b3"}), frozenset({"b2"}))
    )
    assert check_allocation(chores, good_split).passes
    hog = IntegralAllocation(bundles=(frozenset({"b1", "b2", "b3"}), frozenset()))
    verdict = check_allocation(chores, hog)
    assert not verdict.passes
    assert verdict.reports[0].condition == "CountBound"

    goods = identical("goods", 3, 3)
    for perm in itertools.permutations(["b1", "b2", "b3"]):
        allocation = IntegralAllocation(bundles=tuple(frozenset({b}) for b in perm))
        assert check_allocation(goods, allocation).passes
    report("09 appendix fixtures: PASS")


def test_criterion_10_performance(tmp_path):
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fairmatch.cli", *argv],
            capture_output=True,
            text=True,
        )

    lines = []
    for kind in ("chores", "goods"):
        big = tmp_path / f"big-{kind}.json"
        proc = cli("gen", "--agents", "50", "--items", "500", "--kind", kind,
                   "--seed", "42", "-o", str(big))
        assert proc.returncode == 0
        start = time.monotonic()
        proc = cli("solve", str(big), "-o", str(tmp_path / f"big-{kind}-out.json"))
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        assert elapsed < 2, f"solve {kind} 50x500 took {elapsed:.2f}s"
        lines.append(f"solve {kind} 50x500 {elapsed:.2f}s")

        seq = tmp_path / f"seq-{kind}.json"
        proc = cli("gen", "--agents", "20", "--items", "100", "--kind", kind,
                   "--seed", "43", "-o", str(seq))
        assert proc.returncode == 0
        start = time.monotonic()
        proc = cli("solve", str(seq), "--seq", "-o", str(tmp_path / f"seq-{kind}-out.json"))
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        assert elapsed < 10, f"solve --seq {kind} 20x100 took {elapsed:.2f}s"
        lines.append(f"--seq {kind} 20x100 {elapsed:.2f}s")
        payload = json.loads((tmp_path / f"seq-{kind}-out.json").read_text())
        assert set(payload) == {"allocation", "sequence"}
    report(f"10 performance: PASS ({'; '.join(lines)})")
