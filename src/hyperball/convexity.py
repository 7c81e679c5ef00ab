"""Geodesic-convexity checkers on the fixed sample of times t = k/16,
0 <= k <= 16: membership of the sampled geodesic points and exact midpoint
convexity of the distance-to-set function along segments."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvalidArgument
from .linf import Point, sigma
from .reports import HOLDS, REFUTED, PropertyReport
from .sets import subset_dist


def sigma_convexity_check(subset, pairs: Sequence[tuple[Point, Point]]) -> PropertyReport:
    """Check that the geodesic points at t = k/16 between in-set pairs stay
    in the set.

    Affine half-space systems pass for every pair by convexity; a union
    fixture is expected to produce a refuting (pair, t).
    """
    for x, y in pairs:
        if not subset.contains(x):
            raise InvalidArgument(f"{x} is not in the set")
        if not subset.contains(y):
            raise InvalidArgument(f"{y} is not in the set")
    for idx, (x, y) in enumerate(pairs):
        for k in range(17):
            t = Fraction(k, 16)
            if not subset.contains(sigma(x, y, t)):
                return PropertyReport(
                    REFUTED,
                    certificate={"pair_index": idx, "x": x, "y": y, "t": t},
                )
    return PropertyReport(HOLDS, certificate={"pairs": len(pairs), "grid": 17})


def distance_convexity_check(subset, x: Point, y: Point) -> PropertyReport:
    """Exact midpoint convexity of t -> d(sigma(x,y,t), subset) at t = k/16.

    For every s <= t of the sample the check asserts
    d(sigma((s+t)/2)) <= (d(sigma(s)) + d(sigma(t))) / 2 with exact rationals.
    A time is indexed by its numerator over 32, so the sample is the even
    numerators and every midpoint is an integer numerator too.  A kind that
    answers ``dists_along`` (a polyhedron) gives all 33 distances on the
    segment at once, a stretch of times at a time: one piece (the zero
    piece inside the polyhedron, else an LP piece, kept or fresh from one
    LP) answers every time between the two ends of the stretch at which it
    passes its checks.  Any other kind is asked
    ``dist`` point by point.
    """
    along = getattr(subset, "dists_along", None)
    if along is None:
        dists = {k: subset_dist(subset, sigma(x, y, Fraction(k, 32))) for k in range(33)}
    else:
        dists = along(x, y, 32, range(33))
    # The distances as integers over one denominator: the pair loop below
    # compares ints only.
    den = lcm(*(v.denominator for v in dists.values()))
    num = {k: v.numerator * (den // v.denominator) for k, v in dists.items()}
    for s in range(0, 33, 2):
        for t in range(s, 33, 2):
            mid = (s + t) // 2
            if 2 * num[mid] > num[s] + num[t]:
                return PropertyReport(
                    REFUTED,
                    certificate={
                        "s": Fraction(s, 32),
                        "t": Fraction(t, 32),
                        "d_s": dists[s],
                        "d_t": dists[t],
                        "d_mid": dists[mid],
                    },
                )
    return PropertyReport(HOLDS, certificate={"grid": 17})
