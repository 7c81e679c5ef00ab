"""Exact geometry of (R^n, max norm): points, balls-as-boxes, the linear
geodesic selection and the clamp retraction.

Points are plain tuples of Fractions.  Balls of the max norm are axis
boxes; most witness searches below reduce to per-coordinate interval
arithmetic, which is the fast exact path everything else cross-checks
against.  Distances, ball tests and the balls' box run on integers over
one common denominator (the lcm of every denominator involved), so they
compare integers and build a Fraction only for a returned distance or
box side.  ``within_balls`` tests a point against a whole ball family in
one such pass, reading each ball's integer form, which a ball builds once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Any, Mapping, Sequence

from .errors import DimMismatch, EmptySet, InvalidArgument

Point = tuple[Fraction, ...]


def linf_dist(p: Point, q: Point) -> Fraction:
    """Chebyshev distance max_k |p_k - q_k|: with p = P/D and q = Q/D, D
    the common denominator, max_k |P_k - Q_k| / D."""
    if len(p) != len(q):
        raise DimMismatch(f"points of dim {len(p)} and {len(q)}")
    D = lcm(*[v.denominator for v in (*p, *q)])
    return Fraction(max((abs(a.numerator * (D // a.denominator) - b.numerator * (D // b.denominator))
                         for a, b in zip(p, q)), default=0), D)


def linf_within(p: Point, q: Point, *bounds: Fraction) -> bool:
    """linf_dist(p, q) <= sum(bounds), decided on integers over the common
    denominator of p, q and the bounds: no Fraction is built."""
    if len(p) != len(q):
        raise DimMismatch(f"points of dim {len(p)} and {len(q)}")
    D = lcm(*[v.denominator for v in (*p, *q, *bounds)])
    R = sum(b.numerator * (D // b.denominator) for b in bounds)
    for a, b in zip(p, q):
        if abs(a.numerator * (D // a.denominator) - b.numerator * (D // b.denominator)) > R:
            return False
    return R >= 0


def within_balls(p: Point, balls: Sequence["Ball"], slack: Fraction) -> bool:
    """Whether p lies in every ball inflated by slack: the verdict of
    ``linf_within(p, b.center, b.radius, slack)`` over all the balls (True
    on none), with its ``DimMismatch`` on any ball of another dimension.
    p and the slack are scaled once to the common denominator L of p, the
    slack and every ball's integer form, then only integers compare: no
    Fraction is built."""
    for b in balls:
        if len(b.center) != len(p):
            raise DimMismatch(f"points of dim {len(p)} and {len(b.center)}")
    forms = [b._integer_form for b in balls]
    L = lcm(slack.denominator, *[v.denominator for v in p], *[D for D, _, _ in forms])
    P = [v.numerator * (L // v.denominator) for v in p]
    S = slack.numerator * (L // slack.denominator)
    for D, C, R in forms:
        f = L // D
        reach = R * f + S
        if reach < 0:
            return False
        for x, c in zip(P, C):
            if abs(x - c * f) > reach:
                return False
    return True


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius) of the max norm."""

    center: Point
    radius: Fraction

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidArgument("ball radius must be >= 0")

    @property
    def dim(self) -> int:
        return len(self.center)

    def to_box(self) -> "Box":
        r = self.radius
        return Box(tuple(c - r for c in self.center), tuple(c + r for c in self.center))

    def contains(self, p: Point) -> bool:
        return linf_within(self.center, p, self.radius)

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...], int]:
        """(D, C, R) with center C/D and radius R/D, D the lcm of their
        denominators; built once, not a dataclass field (``within_balls``)."""
        D = lcm(self.radius.denominator, *[c.denominator for c in self.center])
        return (D, tuple(c.numerator * (D // c.denominator) for c in self.center),
                self.radius.numerator * (D // self.radius.denominator))


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of closed intervals [lo_k, hi_k]."""

    lo: Point
    hi: Point

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DimMismatch("box bounds of different dims")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        return any(l > h for l, h in zip(self.lo, self.hi))

    def first_empty_coordinate(self) -> int | None:
        for k, (l, h) in enumerate(zip(self.lo, self.hi)):
            if l > h:
                return k
        return None

    def contains(self, p: Point) -> bool:
        if len(p) != self.dim:
            raise DimMismatch("point dim does not match box dim")
        return all(l <= x <= h for l, x, h in zip(self.lo, p, self.hi))

    def intersect(self, other: "Box") -> "Box":
        if self.dim != other.dim:
            raise DimMismatch("boxes of different dims")
        return Box(
            tuple(max(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(min(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def clamp(self, p: Point) -> Point:
        if len(p) != self.dim:
            raise DimMismatch("point dim does not match box dim")
        if self.is_empty():
            raise EmptySet("cannot clamp onto an empty box")
        return tuple(min(max(x, l), h) for l, x, h in zip(self.lo, p, self.hi))

    def dist(self, p: Point) -> Fraction:
        """Chebyshev distance from p to the box (0 when inside)."""
        if len(p) != self.dim:
            raise DimMismatch("point dim does not match box dim")
        if self.is_empty():
            raise EmptySet("distance to an empty box is undefined")
        gaps = [max(l - x, x - h, Fraction(0)) for l, x, h in zip(self.lo, p, self.hi)]
        return max(gaps) if gaps else Fraction(0)

    nearest = clamp

    def witness(self) -> Point | None:
        return None if self.is_empty() else self.lo

    def window(self) -> "Box":
        if self.is_empty():
            raise EmptySet("empty box has no window")
        return self

    @property
    def boxes(self) -> tuple["Box", ...]:
        """A box is the union of one box."""
        return (self,)


def balls_box(balls: Sequence[Ball]) -> Box:
    """Intersection of max-norm balls as a single (possibly empty) box:
    each side's max and min taken over integers on the balls' common
    denominator."""
    if not balls:
        raise InvalidArgument("need at least one ball")
    dim = balls[0].dim
    for b in balls:
        if b.dim != dim:
            raise DimMismatch("balls of different dims")
    D = lcm(*[v.denominator for b in balls for v in (b.radius, *b.center)])
    scaled = [(b.radius.numerator * (D // b.radius.denominator),
               [c.numerator * (D // c.denominator) for c in b.center]) for b in balls]
    return Box(tuple(Fraction(max(C[k] - R for R, C in scaled), D) for k in range(dim)),
               tuple(Fraction(min(C[k] + R for R, C in scaled), D) for k in range(dim)))


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of an exact witness search.

    A "witness" result carries a point that satisfies every constraint with
    exact rational arithmetic.  An "infeasible" result carries a certificate
    (the empty coordinate for interval systems, Farkas multipliers for
    linear programs).
    """

    status: str  # "witness" | "infeasible"
    witness: Point | None = None
    certificate: Mapping[str, Any] | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "witness"


def ball_family_intersection(balls: Sequence[Ball]) -> FeasibilityResult:
    """Exact intersection of max-norm balls by per-coordinate intervals.

    The witness is the lowest admissible value in every coordinate, which
    makes reports reproducible.  Infeasibility names the first empty
    coordinate.
    """
    box = balls_box(balls)
    k = box.first_empty_coordinate()
    if k is not None:
        return FeasibilityResult("infeasible", certificate={"coordinate": k})
    return FeasibilityResult("witness", witness=box.witness())


def sigma(x: Point, y: Point, t: Fraction) -> Point:
    """Linear constant-speed geodesic (1-t)x + ty.

    Satisfies d(sigma(s), sigma(t)) = |s-t| d(x,y) and the symmetry
    sigma(y, x, t) = sigma(x, y, 1-t) exactly.
    """
    if len(x) != len(y):
        raise DimMismatch(f"points of dim {len(x)} and {len(y)}")
    if not (0 <= t <= 1):
        raise InvalidArgument(f"interpolation time {t} outside [0, 1]")
    return tuple(a + t * (b - a) for a, b in zip(x, y))


def box_retraction(region: Box | Ball, x: Point) -> Point:
    """Coordinatewise clamp onto a non-empty box.

    The clamp is a 1-Lipschitz idempotent retraction, realizes the exact
    distance d(x, box), and satisfies d(clamp(x), y) <= max(d(x,y), d(box,y))
    for every y.
    """
    box = region.to_box() if isinstance(region, Ball) else region
    if box.is_empty():
        raise EmptySet("retraction target is empty")
    return box.clamp(x)


def conical_bound(x: Point, y: Point, x2: Point, y2: Point, t: Fraction) -> Fraction:
    """(1-t) d(x,x') + t d(y,y'): the weak-convexity bound for geodesic pairs."""
    return (1 - t) * linf_dist(x, x2) + t * linf_dist(y, y2)


def mean_point(points: Sequence[Point]) -> Point:
    """Coordinatewise arithmetic mean (exact)."""
    if not points:
        raise InvalidArgument("mean of no points")
    dim = len(points[0])
    n = len(points)
    return tuple(sum((p[k] for p in points), Fraction(0)) / n for k in range(dim))
