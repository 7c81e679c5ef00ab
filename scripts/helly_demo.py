#!/usr/bin/env python3
"""Emit the optimal-order half-space families and verify both directions:
all n-fold intersections are witnessed non-empty while the total
intersection is exactly infeasible."""

import argparse
import time

from hyperball.lab import helly_counterexample, helly_order_check
from hyperball.lp import HPolyhedron, lp_feasible


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=8)
    args = parser.parse_args(argv)

    print(f"{'n':>3} {'sets':>5} {'n-fold':>8} {'total':>8} {'order-n':>10} {'ms':>8}")
    for n in range(2, args.max_dim + 1):
        started = time.monotonic()
        inst = helly_counterexample(n)
        leave_one_out_ok = all(
            all(hs.contains(w) for i, hs in enumerate(inst.halfspaces) if i != j)
            for j, w in enumerate(inst.witnesses)
        )
        total_rows = tuple(r for hs in inst.halfspaces for r in hs.rows)
        total_empty = not lp_feasible(HPolyhedron(n, total_rows)).feasible
        order = helly_order_check(inst.halfspaces, n)
        ms = (time.monotonic() - started) * 1000
        print(
            f"{n:>3} {len(inst.halfspaces):>5} "
            f"{'ok' if leave_one_out_ok else 'FAIL':>8} "
            f"{'empty' if total_empty else 'FAIL':>8} "
            f"{order.verdict:>10} {ms:>8.1f}"
        )


if __name__ == "__main__":
    main()
