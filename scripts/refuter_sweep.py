#!/usr/bin/env python3
"""Sweep the seeded refuter over the standard fixtures, all three modes and
levels 2..6, and print for each row the path it ran on (``screen`` or
``scalar``) and its candidates per second.

Boxes should stay inconclusive at every level and in every mode (they are
hyperconvex); the two-box union falls quickly; half-spaces with diagonal
normals are refutable externally even though they are weakly externally
hyperconvex, and the sweep records at which budget the first certificate
appears.  Rows where ``lab.screen_applies`` holds run on the int64 screen
(boxes and unions in every mode, half-spaces only in ``external`` mode); the
center modes on half-spaces and every mode on the multi-row polyhedra show
the rate of the exact scalar path.  Those rows cost milliseconds per
candidate and take the smaller of ``--budget`` and ``--scalar-budget``."""

import argparse
import time
from fractions import Fraction as F

from hyperball.lab import REFUTE_MODES, BoxUnion, refute_search, screen_applies
from hyperball.linf import Box
from hyperball.lp import HPolyhedron, box_to_polyhedron, halfspace


def fixtures():
    unit = Box((F(0), F(0)), (F(1), F(1)))
    rows = (((1, 1, 0), 2), ((-1, 0, 1), 1), ((0, -1, -1), 1), ((1, -2, 1), 3))
    poly3 = HPolyhedron(3, tuple((tuple(F(c) for c in a), F(b)) for a, b in rows))
    slab = Box((F(-2), F(-1)), (F(3), F(5, 2)))
    union = BoxUnion((Box((F(0), F(0)), (F(1), F(1))), Box((F(3), F(0)), (F(4), F(1)))))
    return [
        ("unit box", unit),
        ("slab box", slab),
        ("two-box union", union),
        ("diag half-plane x1+x2<=-1", halfspace([1, 1], -1)),
        ("axis half-plane x2>=0", halfspace([0, -1], 0)),
        ("3d diagonal x1+x2+x3>=0", halfspace([-1, -1, -1], 0)),
        ("unit square as 4 rows", box_to_polyhedron(unit)),
        ("3d 4-row polyhedron", poly3),
    ]


def scalar_path(subset, mode) -> bool:
    """Whether the refuter tests every candidate of this row with exact
    rationals: wherever the int64 screen does not apply."""
    return not screen_applies(subset, mode)


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
    refute_search(fixtures()[0][1], 2, 1, args.seed)  # loads numpy outside the timed rows
    for name, subset in fixtures():
        for mode in REFUTE_MODES:
            budget, path = args.budget, "screen"
            if scalar_path(subset, mode):
                budget, path = min(budget, args.scalar_budget), "scalar"
            for level in range(2, 7):
                began = time.perf_counter()
                report = refute_search(subset, level, budget, args.seed + level, mode=mode)
                rate = report.budget_used / (time.perf_counter() - began)
                size = len(report.certificate["balls"]) if report.refuted else "-"
                print(
                    f"{name:>28} {mode:>15} {level:>6} {report.verdict:>14} "
                    f"{report.budget_used:>8} {size!s:>7} {path:>6} {rate:>10.0f}"
                )


if __name__ == "__main__":
    main()
