"""Geodesic-convexity checkers: membership of sampled geodesic points and
exact midpoint convexity of the distance-to-set function along segments."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvalidArgument
from .linf import Point, sigma
from .rational import DYADIC_GRID_16
from .reports import HOLDS, REFUTED, PropertyReport
from .sets import subset_dist


def _check_grid(grid: Sequence[Fraction]) -> None:
    """Every grid time lies in [0, 1], checked before any point is built."""
    for t in grid:
        if not (0 <= t <= 1):
            raise InvalidArgument(f"interpolation time {t} outside [0, 1]")


def sigma_convexity_check(
    subset,
    pairs: Sequence[tuple[Point, Point]],
    grid: Sequence[Fraction] = DYADIC_GRID_16,
) -> PropertyReport:
    """Check that sampled geodesic points between in-set pairs stay in the set.

    Affine half-space systems pass for every pair by convexity; a union
    fixture is expected to produce a refuting (pair, t).
    """
    _check_grid(grid)
    for x, y in pairs:
        if not subset.contains(x):
            raise InvalidArgument(f"{x} is not in the set")
        if not subset.contains(y):
            raise InvalidArgument(f"{y} is not in the set")
    if not grid:
        return PropertyReport(
            HOLDS, certificate={"pairs": len(pairs)}, notes=("empty grid: vacuous",)
        )
    for idx, (x, y) in enumerate(pairs):
        for t in grid:
            if not subset.contains(sigma(x, y, t)):
                return PropertyReport(
                    REFUTED,
                    certificate={"pair_index": idx, "x": x, "y": y, "t": t},
                )
    return PropertyReport(HOLDS, certificate={"pairs": len(pairs), "grid": len(grid)})


def distance_convexity_check(
    subset,
    x: Point,
    y: Point,
    grid: Sequence[Fraction] = DYADIC_GRID_16,
) -> PropertyReport:
    """Exact midpoint convexity of t -> d(sigma(x,y,t), subset) on grid pairs.

    For every s, t in the grid the check asserts
    d(sigma((s+t)/2)) <= (d(sigma(s)) + d(sigma(t))) / 2 with exact rationals.
    A time t is indexed by its numerator k over n, twice the lcm of the
    grid's denominators, so every midpoint is an integer k too.  A kind that
    answers ``dists_along`` (a polyhedron) gives all distances on the
    segment at once, a stretch of times at a time: one piece (the zero
    piece inside the polyhedron, else an LP piece, kept or fresh from one
    LP) answers every time between the two ends of the stretch at which it
    passes its checks.  Any other kind is asked
    ``dist`` point by point.
    """
    _check_grid(grid)
    if not grid:
        return PropertyReport(HOLDS, notes=("empty grid: vacuous",))
    n = 2 * lcm(*(t.denominator for t in grid))
    ks = sorted({t.numerator * (n // t.denominator) for t in grid})
    times = {(s + t) // 2 for i, s in enumerate(ks) for t in ks[i:]}
    along = getattr(subset, "dists_along", None)
    if along is None:
        dists = {k: subset_dist(subset, sigma(x, y, Fraction(k, n))) for k in times}
    else:
        dists = along(x, y, n, times)
    # The distances as integers over one denominator: the pair loop below
    # compares ints only.
    den = lcm(*(v.denominator for v in dists.values()))
    num = {k: v.numerator * (den // v.denominator) for k, v in dists.items()}
    for i, s in enumerate(ks):
        for t in ks[i:]:
            mid = (s + t) // 2
            if 2 * num[mid] > num[s] + num[t]:
                return PropertyReport(
                    REFUTED,
                    certificate={
                        "s": Fraction(s, n),
                        "t": Fraction(t, n),
                        "d_s": dists[s],
                        "d_t": dists[t],
                        "d_mid": dists[mid],
                    },
                )
    return PropertyReport(HOLDS, certificate={"grid": len(ks)})
