#!/usr/bin/env python3
"""Census of the exact LP kernel on a seeded corpus, by caller: planted
feasibility and minimization systems (dims 2-6, 2-14 rows), Helly families
(``helly_order_check`` on the optimal-order family at k = n and n + 1) and
distance queries (``dist_to_polyhedron`` from points outside small
polyhedra), distance-convexity checks (``distance_convexity_check``
along segments: a stretch of grid times starts with the polyhedron's zero
piece at a time inside it, a kept optimal basis that passes the checks at
its first time, or else with an LP, and one piece answers every time
between two times at which it passes, so stretches inside the polyhedron
are bisected too) and the
exact subset oracle (``almost_to_exact``, 40 iterations, on the
``lp-repeat`` refinements of ``bench/workloads.py``; an oracle query runs
a box search only when the last ball's center misses the subset or a
ball).
Each row prints the queries, the LPs run, LPs per query (per segment for
the convexity check, per 40-iteration run for ``almost_to_exact``), kept
piece checks (``lp._piece_vertex``) per query, rows per LP, pivots per
query and per LP, integers stored per pivot (the tableau's and its
objective rows' entries when the pivot starts) and the seconds spent in
``lp._solve``.

The counts come from wrapping ``lp._solve``, ``lp._piece_vertex`` and
``lp._Tableau._pivot`` in this script; the library keeps no counters.  A
first pass counts, a second pass, without the pivot and check wrappers,
times.  Each pass builds the corpus anew, so both start on polyhedra that
keep no distance piece or window."""

import argparse
import pathlib
import sys
import time
from fractions import Fraction as F

from hyperball import convexity, lab, lp
from hyperball.lab import helly_counterexample
from hyperball.lp import HPolyhedron
from hyperball.rng import SplitMix64

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
from workloads import LPRepeat  # noqa: E402  (the lp-repeat pool and its ball families)


def planted(rng, d, m):
    """m rows in dim d, each tight or loose at a planted point of the 1/2
    grid, or, one time in four, with a contradicting pair of rows."""
    x0 = [F(rng.randint(-6, 6), 2) for _ in range(d)]
    rows = []
    for _ in range(m):
        a = [F(rng.randint(-4, 4)) for _ in range(d)]
        rows.append((tuple(a), sum(c * v for c, v in zip(a, x0)) + max(0, rng.randint(-3, 5))))
    if rng.randint(0, 3) == 0:
        a, b = rows[0]
        rows[1] = (tuple(-c for c in a), -b - rng.randint(1, 3))
    return HPolyhedron(d, tuple(rows))


def corpus(seed, size):
    """(caller, query) pairs; each query is a no-argument call."""
    rng = SplitMix64(seed)
    out = []
    for d in range(2, 7):
        for m in range(2, 15, 2):
            for _ in range(size):
                p = planted(rng, d, m)
                c = [F(rng.randint(-3, 3)) for _ in range(d)]
                out.append(("lp_feasible", lambda p=p: lp.lp_feasible(p)))
                out.append(("lp_minimize", lambda p=p, c=c: lp.lp_minimize(c, p)))
    for n in range(3, 3 + 2 * size):
        for k in (n, n + 1):
            def helly(n=n, k=k):  # fresh polyhedra: no integer rows cached yet
                sets = [HPolyhedron(h.dim, h.rows) for h in helly_counterexample(n).halfspaces]
                return lab.helly_order_check(sets, k)
            out.append(("helly_order_check", helly))
    for _ in range(30 * size):
        d = rng.randint(2, 4)
        p = planted(rng, d, rng.randint(2, 6))
        x = tuple(F(rng.randint(-30, 30), 4) for _ in range(d))
        out.append(("dist_to_polyhedron",
                    lambda p=p, x=x: _empty_is_none(lp.dist_to_polyhedron, x, p)))
    for _ in range(10 * size):
        d = rng.randint(2, 3)
        p = planted(rng, d, rng.randint(2, 4))
        x, y = (tuple(F(rng.randint(-80, 80), 8) for _ in range(d)) for _ in range(2))
        out.append(("distance_convexity_check", lambda p=p, x=x, y=y: _empty_is_none(
            convexity.distance_convexity_check, p, x, y)))
    workload = LPRepeat(seed, smoke=False)
    for index in range(size):
        out.extend(("almost_to_exact", op.run) for op in workload.block(index)
                   if ".refine." in op.op_id)
    return out


def _empty_is_none(query, *args):
    try:
        return query(*args)
    except lp.EmptySet:
        return None


def census(seed, size):
    """{caller: [queries, LPs, rows, pivots, stored integers, seconds in
    _solve, piece checks]}."""
    table = {}
    for caller, _ in corpus(seed, size):
        table.setdefault(caller, [0, 0, 0, 0, 0, 0.0, 0])[0] += 1
    current = [None]
    real_solve, real_pivot, real_check = lp._solve, lp._Tableau._pivot, lp._piece_vertex

    def counted_solve(rows, *args, **kwargs):
        table[current[0]][1] += 1
        table[current[0]][2] += len(rows)
        return real_solve(rows, *args, **kwargs)

    def counted_pivot(self, objs, *rest):
        row = table[current[0]]
        row[3] += 1
        row[4] += sum(map(len, self.T)) + sum(map(len, objs))
        return real_pivot(self, objs, *rest)

    def counted_check(*args):
        table[current[0]][6] += 1
        return real_check(*args)

    def timed_solve(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real_solve(*args, **kwargs)
        finally:
            table[current[0]][5] += time.perf_counter() - start

    passes = ((counted_solve, counted_pivot, counted_check), (timed_solve, real_pivot, real_check))
    try:
        for solve, pivot, check in passes:
            lp._solve, lp._Tableau._pivot, lp._piece_vertex = solve, pivot, check
            for current[0], query in corpus(seed, size):  # a cold corpus for each pass
                query()
    finally:
        lp._solve, lp._Tableau._pivot, lp._piece_vertex = real_solve, real_pivot, real_check
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", type=int, default=10,
                        help="systems per planted cell; scales every part of the corpus")
    args = parser.parse_args(argv)
    table = census(args.seed, args.size)
    print(f"{'caller':<26}{'queries':>8}{'LPs':>7}{'LPs/q':>7}{'checks/q':>10}{'rows/LP':>9}"
          f"{'pivots/q':>10}{'pivots/LP':>11}{'ints/pivot':>12}{'solve s':>10}")
    for caller, (queries, lps, rows, pivots, ints, seconds, checks) in table.items():
        print(f"{caller:<26}{queries:>8}{lps:>7}{lps / queries:>7.2f}{checks / queries:>10.2f}"
              f"{rows / lps:>9.2f}{pivots / queries:>10.2f}{pivots / lps:>11.2f}"
              f"{ints / max(pivots, 1):>12.1f}{seconds:>10.6f}")


if __name__ == "__main__":
    main()
