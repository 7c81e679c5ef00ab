#!/usr/bin/env python3
"""Sweep the refuter over the standard fixtures, all three modes and levels
2..6, and print for each row the path it ran on (``span``, ``gap``,
``reflex`` or ``scalar``, as ``lab.refute_path`` names it) and its
candidates (or decisions) per second.

Boxes stay inconclusive at every level and in every mode (they are
hyperconvex), the union [0,1]² ∪ [1,2]×[0,1], itself the box [0,2]×[0,1],
included.  The span decision answers the boxes in every mode, the unit
square written as 4 rows included (a polyhedron's box test reads its
cached extent), and refutes the half-spaces with two non-zero entries in
``external`` mode by two balls.  The gap decision answers the disconnected
unions in every mode with two balls for one unit of budget, the gap of
1/64 in [0, 1] ∪ [65/64, 2], narrower than the sampler's grid step,
included, and the two-point space with d(0, 1) = 1, by the balls of
radius 1/2 on its two points.  The reflex decision answers the connected
unions in every mode: it refutes the L-shaped union for one unit of
budget, and finds no pair on the box union, which spends the budget.  The
center modes on the half-spaces, and every mode on the unbounded 3-d
4-row polyhedron, show the rate of the exact scalar path.  Those rows cost
milliseconds per candidate and take the smaller of ``--budget`` and
``--scalar-budget``."""

import argparse
import time
from fractions import Fraction as F

from hyperball.lab import REFUTE_MODES, BoxUnion, refute_path, refute_search
from hyperball.linf import Box
from hyperball.lp import HPolyhedron, box_to_polyhedron, halfspace
from hyperball.metric import validate_metric
from hyperball.sets import FiniteSubset


def fixtures():
    unit = Box((F(0), F(0)), (F(1), F(1)))
    rows = (((1, 1, 0), 2), ((-1, 0, 1), 1), ((0, -1, -1), 1), ((1, -2, 1), 3))
    poly3 = HPolyhedron(3, tuple((tuple(F(c) for c in a), F(b)) for a, b in rows))
    slab = Box((F(-2), F(-1)), (F(3), F(5, 2)))
    union = BoxUnion((Box((F(0), F(0)), (F(1), F(1))), Box((F(3), F(0)), (F(4), F(1)))))
    gap = BoxUnion((Box((F(0),), (F(1),)), Box((F(65, 64),), (F(2),))))  # narrower than the grid step
    ell = BoxUnion((Box((F(0), F(0)), (F(2), F(1))), Box((F(0), F(0)), (F(1), F(2)))))  # connected
    wide = BoxUnion((unit, Box((F(1), F(0)), (F(2), F(1)))))  # connected, and a box
    return [
        ("unit box", unit),
        ("slab box", slab),
        ("two-box union", union),
        ("gap union [0,1]+[65/64,2]", gap),
        ("L-shaped union", ell),
        ("box union [0,2]x[0,1]", wide),
        ("two-point space", FiniteSubset(validate_metric([[0, 1], [1, 0]]), (0, 1))),
        ("diag half-plane x1+x2<=-1", halfspace([1, 1], -1)),
        ("axis half-plane x2>=0", halfspace([0, -1], 0)),
        ("3d diagonal x1+x2+x3>=0", halfspace([-1, -1, -1], 0)),
        ("unit square as 4 rows", box_to_polyhedron(unit)),
        ("3d 4-row polyhedron", poly3),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=10_000)
    parser.add_argument("--scalar-budget", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(
        f"{'fixture':>28} {'mode':>15} {'level':>6} {'verdict':>14} "
        f"{'used':>8} {'family':>7} {'path':>6} {'cand/s':>10}"
    )
    for name, subset in fixtures():
        for mode in REFUTE_MODES:
            row_path, budget = refute_path(subset, mode), args.budget
            if row_path == "scalar":
                budget = min(budget, args.scalar_budget)
            for level in range(2, 7):
                began = time.perf_counter()
                report = refute_search(subset, level, budget, args.seed + level, mode=mode)
                rate = report.budget_used / (time.perf_counter() - began)
                size = len(report.certificate["balls"]) if report.refuted else "-"
                print(
                    f"{name:>28} {mode:>15} {level:>6} {report.verdict:>14} "
                    f"{report.budget_used:>8} {size!s:>7} {row_path:>6} {rate:>10.0f}"
                )


if __name__ == "__main__":
    main()
