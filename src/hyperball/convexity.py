"""Geodesic-convexity checkers: membership of sampled geodesic points and
exact midpoint convexity of the distance-to-set function along segments."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import HyperballError
from .linf import Point, sigma
from .rational import DYADIC_GRID_16
from .reports import HOLDS, REFUTED, PropertyReport
from .sets import subset_dist


class PointNotInSet(HyperballError):
    """A point asserted to lie in the set does not."""


def sigma_convexity_check(
    subset,
    pairs: Sequence[tuple[Point, Point]],
    grid: Sequence[Fraction] = DYADIC_GRID_16,
) -> PropertyReport:
    """Check that sampled geodesic points between in-set pairs stay in the set.

    Affine half-space systems pass for every pair by convexity; a union
    fixture is expected to produce a refuting (pair, t).
    """
    for x, y in pairs:
        if not subset.contains(x):
            raise PointNotInSet(f"{x} is not in the set")
        if not subset.contains(y):
            raise PointNotInSet(f"{y} is not in the set")
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
    """
    cache: dict[Fraction, Fraction] = {}

    def dist_at(t: Fraction) -> Fraction:
        if t not in cache:
            cache[t] = subset_dist(subset, sigma(x, y, t))
        return cache[t]

    if not grid:
        return PropertyReport(HOLDS, notes=("empty grid: vacuous",))
    ts = sorted(set(grid))
    for i, s in enumerate(ts):
        for t in ts[i:]:
            mid = (s + t) / 2
            if 2 * dist_at(mid) > dist_at(s) + dist_at(t):
                return PropertyReport(
                    REFUTED,
                    certificate={
                        "s": s,
                        "t": t,
                        "d_s": dist_at(s),
                        "d_t": dist_at(t),
                        "d_mid": dist_at(mid),
                    },
                )
    return PropertyReport(HOLDS, certificate={"grid": len(ts)})
