#!/usr/bin/env python3
"""Measure observed contraction against the guaranteed rates for the three
refinement schemes and the intersection-property lift.

All four bounds, and each table's verdict, are the ones
``hyperball.refine.verify_trace`` checks on the scheme's trace."""

import argparse
from fractions import Fraction as F

from hyperball.barycenter import ip_lift
from hyperball.lab import LinfBallFamily
from hyperball.linf import Ball, Box, linf_dist
from hyperball.lp import halfspace
from hyperball.refine import (
    almost_to_exact,
    chain_walk,
    exact_subset_oracle,
    ip_constants,
    saturating_subset_oracle,
    triple_intersection,
    verify_trace,
)
from hyperball.rng import SplitMix64


def show_report(title, report):
    print(f"\n{title}: {'passed' if report.passed else 'FAILED'}")
    print(f"{'step':>5} {'observed':>14} {'bound':>14}")
    for i, (o, b) in enumerate(zip(report.observed, report.bounds)):
        print(f"{i:>5} {float(o):>14.3e} {float(b):>14.3e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=424242)
    args = parser.parse_args(argv)

    box = Box((F(0), F(0)), (F(2), F(2)))
    family = LinfBallFamily((Ball((F(3), F(1)), F(2)), Ball((F(-1), F(1)), F(2))), box)
    _, trace = almost_to_exact(
        saturating_subset_oracle(box), family, iterations=args.rounds
    )
    show_report("halving-slack steps vs 2^-(k+1) + 2^-(k+2)", verify_trace(trace))

    a0 = Box((F(4), F(0)), (F(6), F(2)))
    a1 = Box((F(0), F(0)), (F(5), F(1)))
    a2 = Box((F(0), F(1)), (F(5), F(3)))
    _, trace = triple_intersection(
        exact_subset_oracle(a0), exact_subset_oracle(a1), exact_subset_oracle(a2),
        (F(0), F(1)), rounds=args.rounds,
    )
    show_report("distance to the third set vs (3/4)^n r0", verify_trace(trace))

    _, trace = chain_walk(
        saturating_subset_oracle(halfspace([-1, 0], 0)),
        saturating_subset_oracle(halfspace([0, -1], 0)),
        (F(-3), F(-3)), F(3), (F(2), F(2)), F(1, 2), F(1, 4),
        rounds=5,
        ambient=exact_subset_oracle(Box((F(-50), F(-50)), (F(50), F(50))), level=3),
    )
    show_report("chain-walk pair gap vs eps/2^n", verify_trace(trace))

    rng = SplitMix64(args.seed)
    anchor = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
    balls = []
    for _ in range(5):
        c = (anchor[0] + F(rng.randint(-40, 40), 8), anchor[1] + F(rng.randint(-40, 40), 8))
        balls.append(Ball(c, linf_dist(c, anchor) + F(rng.randint(0, 8), 8)))
    params = ip_constants(4, 2, F(1, 64))
    _, trace = ip_lift(exact_subset_oracle(None), tuple(balls), params, rounds=args.rounds)
    show_report(f"ip-lift reach vs c^j R (c = {params.c})", verify_trace(trace))


if __name__ == "__main__":
    main()
