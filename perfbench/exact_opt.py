"""Exact optimum over all fair allocations, by integer programming.

Usage: python3 exact_opt.py JOBS.json

JOBS.json lists ``{"instance": path, "costs": path, "direction":
"minimize"|"maximize"}`` objects.  Prints one JSON list: per job the
optimal allocation found by ``scipy.optimize.milp`` over binary x[i][j]
(agent i owns item j) with every item owned once and the prefix bounds of
``check.py`` as linear constraints.  Costs are scaled to integers by the
common denominator, so the solver's objective is integral.  The
benchmark runs this in its own process, outside the timed region, and
recomputes the objective of the returned allocation exactly.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import lcm

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from instances import read_costs


def solve(instance: dict, costs: list[list[Fraction]], direction: str) -> dict:
    agents, items = instance["agents"], instance["items"]
    n, m = len(agents), len(items)
    column = {item: j for j, item in enumerate(items)}
    rows, cols, lower, upper = [], [], [], []
    for j in range(m):
        rows += [len(lower)] * n
        cols += [i * m + j for i in range(n)]
        lower.append(1)
        upper.append(1)
    for i, agent in enumerate(agents):
        alpha = Fraction(agent["entitlement"])
        num, den = alpha.numerator, alpha.denominator
        prefix = []
        for k, item in enumerate(agent["ranking"], start=1):
            prefix.append(i * m + column[item])
            # a prefix bound that the next (chores) or previous (goods)
            # prefix repeats is implied by it, since counts only grow with k
            if instance["kind"] == "chores":
                bound = num * k // den + 1
                if k < m and num * (k + 1) // den + 1 == bound:
                    continue
                lower.append(0)
                upper.append(bound)
            else:
                bound = -(-num * k // den) - 1
                if k > 1 and -(-num * (k - 1) // den) - 1 == bound:
                    continue
                lower.append(bound)
                upper.append(k)
            rows += [len(lower) - 1] * k
            cols += prefix
    a = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(lower), n * m)).tocsr()
    scale = lcm(*(c.denominator for row in costs for c in row))
    sign = 1 if direction == "minimize" else -1
    c = np.array([sign * int(x * scale) for row in costs for x in row], dtype=float)
    result = milp(
        c,
        constraints=LinearConstraint(a, lower, upper),
        integrality=np.ones(n * m),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if result.x is None:
        raise RuntimeError(f"milp found no solution: {result.message}")
    x = np.rint(result.x).astype(int)
    allocation = {
        agent["name"]: [items[j] for j in range(m) if x[i * m + j]] for i, agent in enumerate(agents)
    }
    return {"allocation": allocation, "scaled_objective": round(result.fun) * sign, "scale": scale}


def main(path: str) -> None:
    with open(path) as f:
        jobs = json.load(f)
    out = []
    for job in jobs:
        with open(job["instance"]) as f:
            instance = json.load(f)
        out.append(solve(instance, read_costs(job["costs"]), job["direction"]))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
