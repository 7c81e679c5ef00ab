"""Barycenters over the max norm's linear geodesic selection, their three
contract checks, and the ball-family intersection-property threshold with
its lifting iteration, which needs only the balls' box (Helly on the line).

The leave-one-out barycenter (Es-Sahib and Heinich 1999; Descombes 2016)
maps a tuple (x_1, ..., x_m) to (bar(x̂^1), ..., bar(x̂^m)) and takes the
limit.  Over a linear selection each round keeps the tuple's mean and
shrinks its diameter by 1/(m-1), so the limit is the arithmetic mean, and
``barycenter`` returns that mean exactly: it contracts (the distance of two
barycenters is at most the min-matching average) and commutes with every
isometry, with no stop tolerance.

``ip_lift`` and ``default_ip_eps`` load ``refine`` and ``lab`` when they
are called, so the barycenter and ``ip_threshold`` need neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import inf, isqrt, lcm
from typing import TYPE_CHECKING, Sequence

from .errors import DimMismatch, InvalidArgument
from .linf import Ball, Point, balls_box, linf_dist
from .reports import HOLDS, REFUTED, PropertyReport

if TYPE_CHECKING:
    from .refine import EpsOracle, IPParams, RefinementTrace


def barycenter(points: Sequence[Point]) -> Point:
    """The arithmetic mean of m >= 1 points, the leave-one-out limit:
    each coordinate's integer numerators over the common denominator Q of
    every coordinate are summed once and put over m Q."""
    pts = tuple(points)
    if not pts:
        raise InvalidArgument("barycenter of no points")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise DimMismatch(f"points of dim {dim} and {len(p)}")
    Q = lcm(*(v.denominator for p in pts for v in p))
    mQ = len(pts) * Q
    return tuple(Fraction(sum(v.numerator * (Q // v.denominator) for v in col), mQ) for col in zip(*pts))


# ---------------------------------------------------------------------------
# Contract checks


def min_matching_average(xs: Sequence[Point], ys: Sequence[Point]) -> Fraction:
    """min over permutations pi of (1/m) sum d(x_i, y_pi(i)), m >= 1, as an
    assignment problem: the m x m distances, built once as integers over
    the common denominator Q of every coordinate, go to `_assignment_minimum`.
    Points of different dims raise ``DimMismatch``."""
    if len(xs) != len(ys):
        raise InvalidArgument("tuples of different sizes")
    m = len(xs)
    if not m:
        raise InvalidArgument("matching of no points")
    dim = len(xs[0])
    for p in (*xs, *ys):
        if len(p) != dim:
            raise DimMismatch(f"points of dim {dim} and {len(p)}")
    Q = lcm(*(v.denominator for p in (*xs, *ys) for v in p))
    X = [[v.numerator * (Q // v.denominator) for v in p] for p in xs]
    Y = [[v.numerator * (Q // v.denominator) for v in p] for p in ys]
    cost = [[max((abs(a - b) for a, b in zip(x, y)), default=0) for y in Y] for x in X]
    return Fraction(_assignment_minimum(cost), Q * m)


def _assignment_minimum(cost: list[list[int]]) -> int:
    """min over permutations pi of sum_i cost[i][pi(i)], by the Hungarian
    method (Kuhn 1955; Munkres 1957) in O(m^3) integer steps.  Potentials
    u (rows) and v (columns) keep cost[i][j] >= u[i] + v[j], with equality
    on matched pairs; each row in turn joins along a shortest augmenting
    path from it, found Dijkstra-style on the reduced costs.  Column 0 is
    the path's root, and ``row_of[j]`` is the row matched to column j
    (rows and columns count from 1, 0 for none)."""
    m = len(cost)
    u, v, row_of = [0] * (m + 1), [0] * (m + 1), [0] * (m + 1)
    for i in range(1, m + 1):
        row_of[0], j0 = i, 0
        slack, prev, reached = [inf] * (m + 1), [0] * (m + 1), [False] * (m + 1)
        while row_of[j0]:  # column j0 is matched: grow the tree from its row
            reached[j0] = True
            i0, delta, j1 = row_of[j0], inf, 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if not reached[j]:
                    reduced = row[j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], prev[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if reached[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # augment: shift the matching back along the path
            j1 = prev[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return sum(cost[row_of[j] - 1][j - 1] for j in range(1, m + 1))


def barycenter_contraction_check(xs: Sequence[Point], ys: Sequence[Point]):
    """d(bar(xs), bar(ys)) <= the min-matching average."""
    left = linf_dist(barycenter(xs), barycenter(ys))
    right = min_matching_average(xs, ys)
    return PropertyReport(HOLDS if left <= right else REFUTED, certificate={"left": left, "right": right})


@dataclass(frozen=True)
class Isometry:
    """Coordinate permutation followed by a translation (both preserve the
    linear geodesic selection)."""

    perm: tuple[int, ...]
    shift: tuple[Fraction, ...]

    def apply(self, p: Point) -> Point:
        return tuple(p[self.perm[k]] + self.shift[k] for k in range(len(self.perm)))


def equivariance_check(iso: Isometry, xs: Sequence[Point]):
    """iso(bar(xs)) = bar(iso(xs)): the gap d between them is 0."""
    gap = linf_dist(iso.apply(barycenter(xs)), barycenter(tuple(iso.apply(p) for p in xs)))
    return PropertyReport(HOLDS if gap == 0 else REFUTED, certificate={"gap": gap})


# ---------------------------------------------------------------------------
# (n, k) intersection property: threshold and lift (the constants live in
# ``refine``, beside the trace check that recomputes them)


def ip_threshold(k: int) -> int:
    """Least n >= k from which the n-ball intersection property lifts to
    all sizes: the minimal integer with 2(n-k+2)(n-k+1) > n(n+1).

    With m = n - k the condition reads m^2 + (5 - 2k)m + 4 - k^2 - k > 0,
    whose larger root is r = (2k - 5 + sqrt(8k^2 - 16k + 9))/2 >= 1 for
    k >= 2 (the smaller is negative), so the least m is floor(r) + 1.
    The integer square root puts floor(r) at m0 or m0 + 1, where
    m0 = (2k - 5 + isqrt(8k^2 - 16k + 9)) // 2, and one test decides."""
    if k < 2:
        raise InvalidArgument("k must be >= 2")
    n = k + (2 * k - 5 + isqrt(8 * k * k - 16 * k + 9)) // 2 + 1
    if 2 * (n - k + 2) * (n - k + 1) <= n * (n + 1):
        n += 1
    return n


def default_ip_eps(n: int, k: int) -> Fraction:
    """Largest eps on the 1/1024 grid keeping c <= (1 + c0)/2, where c0 is
    the eps = 0 constant; a concrete rule so runs are reproducible.

    c = c0 (1 + eps)^2, so with c0 = P/Q and eps = j/1024 the rule reads
    (1024 + j)^2 <= 1024^2 (Q + P)/(2P), whose largest j one integer square
    root gives; j >= 0 since c0 < 1."""
    from .refine import ip_constants

    c0 = ip_constants(n, k).c
    if c0 >= 1:
        return Fraction(0)
    P, Q = c0.numerator, c0.denominator
    return Fraction(isqrt(1024**2 * (Q + P) // (2 * P)) - 1024, 1024)


def ip_lift(
    oracle: EpsOracle,
    balls: Sequence[Ball],
    params: IPParams,
    rounds: int = 30,
) -> tuple[Point, RefinementTrace]:
    """Lift the (n,k)-intersection property to n+1 balls by iteration over
    the max norm.

    Every k-subfamily meets when the balls' box does (Helly on the line), so
    an empty box is refused.  From a base point, each round asks the oracle
    for a witness inside every (n-1)-subfamily within (1+eps) of the current
    reach R_j (``refine.ip_reach``), with slack 0, and barycenters them; R_j
    contracts by the factor c < 1.  The trace records the iterates, the
    balls, k and eps; ``refine.verify_trace`` derives the reaches and steps
    from them, recomputes c and re-checks the bounds.
    """
    from .lab import LinfBallFamily
    from .refine import RefinementTrace, ip_reach

    balls = tuple(balls)
    n, k = params.n, params.k
    if len(balls) != n + 1:
        raise InvalidArgument(f"need n+1 = {n + 1} balls")
    if rounds < 0:
        raise InvalidArgument("rounds must be >= 0")
    if params.c >= 1:
        raise InvalidArgument(f"c = {params.c} is not < 1")
    axis = balls_box(balls).first_empty_coordinate()
    if axis is not None:  # the first ball with the top low side misses the first with the bottom high side
        lows, highs = ([b.center[axis] + s * b.radius for b in balls] for s in (-1, 1))
        pair = {lows.index(max(lows)), highs.index(min(highs))}
        padding = [m for m in range(n + 1) if m not in pair][: k - 2]
        raise InvalidArgument(f"k-subfamily {tuple(sorted([*pair, *padding]))} has empty intersection")
    omega = list(combinations(balls, n - 1))
    reach = ip_reach(balls)
    iterates = [barycenter(tuple(b.center for b in balls))]
    for j in range(rounds):
        R_j = reach(iterates[-1])
        if R_j == 0:
            break
        window = Ball(iterates[-1], (1 + params.eps) * R_j)
        witnesses = [
            oracle.ask(alpha + (window,), Fraction(0), call)
            for call, alpha in enumerate(omega, j * len(omega))
        ]
        iterates.append(barycenter(tuple(witnesses)))
    trace = RefinementTrace("ip-lift", tuple(iterates), LinfBallFamily(balls), aux={"eps": params.eps, "k": k})
    return iterates[-1], trace
