"""Exact rational linear feasibility and minimization over H-polyhedra.

One kernel: a simplex over Python ints on a dictionary that stores only the
nonbasic columns (Bland's rule against cycling, Bareiss's fraction-free
pivots dividing exactly by the previous pivot, as in lrs).  Each row
a . x <= b is scaled once to integers (s, a', b') = (s, s.a, s.b) by s > 0,
the lcm of its denominators; a polyhedron caches its scaled rows, and one
joined from others reuses theirs.  Fractions appear only at read-out.

Every outcome carries a certificate that is checked in integer arithmetic
on the caller's scaled rows, never on the tableau, before it is returned.
With the point X/D (D > 0) and the scaled objective c':

* a feasible point satisfies every row: a'.X <= b'.D;
* Farkas multipliers y >= 0 with y.A' = 0 and y.b' < 0 prove emptiness;
* duals y >= 0 with y.A' = -D.c' and -y.b' = c'.X prove an optimum;
* a ray d with A'.d <= 0 and c'.d < 0 proves unboundedness.

Each is the check on the original rows times a positive integer.  A failed
check is a kernel bug and raises LPKernelError.

Distances reuse optimal bases.  Only the right-hand side of the distance LP
depends on the point, so one optimal basis gives one affine piece of the
distance.  Each distance comes from a piece that passes the witness and
dual checks on the point's own rows, read in place (``_piece_vertex``):
p's zero piece at a point of p, else a kept basis (``_dist_at``), else a
fresh LP's.  The times of a segment at which one piece passes form an
interval, so it answers each stretch between two such times, inside p as
well (``dists_along_segment``).  A nearest point always comes from a fresh
LP.  A half-space's distance, at a point or along a segment, is a closed
form, and so is the proof that a box misses it (``halfspace_misses_box``).

A polyhedron also caches its extent: per coordinate, the least and the
greatest value over the set, or None on an unbounded side
(``HPolyhedron._extent``).  Its 2.dim coordinate LPs
(``polyhedron_coordinate_bounds``) run once per polyhedron; the window and
the refuter's box test in ``lab`` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul, sub
from typing import Reversible, Sequence

from .errors import DimMismatch, EmptySet, InternalError, InvalidArgument
from .linf import Ball, Box, FeasibilityResult, Point

Row = tuple[tuple[Fraction, ...], Fraction]  # a . x <= b
IntRow = tuple[int, Sequence[int], int]  # (s, s.a, s.b) with s > 0


class LPKernelError(InternalError):
    """Internal kernel failure (verification of its own output failed)."""


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of half-spaces a . x <= b; may be empty or unbounded."""

    dim: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        for a, _ in self.rows:
            if len(a) != self.dim:
                raise DimMismatch("row length does not match polyhedron dim")

    def contains(self, p: Point) -> bool:
        """Exact membership on the integer rows: with p = X/D (D > 0, the
        lcm of p's denominators), a'.X <= b'.D on every row."""
        if len(p) != self.dim:
            raise DimMismatch("point dim does not match polyhedron dim")
        D, X = _common_denominator(p)
        return all(_dot(a, X) <= b * D for _, a, b in self._integer_rows)

    def dist(self, p: Point) -> Fraction:
        """The distance to a non-empty polyhedron.  On a half-space a'.x <= b'
        it is max(0, a'.X - b'.D)/(D.|a'|_1) at p = X/D, as the l1 norm is
        the max norm's dual; else it comes from the zero piece, a kept piece
        or a fresh LP's, whichever first passes at p (see `_dist_at`)."""
        if len(p) != self.dim:
            raise DimMismatch("point dim does not match polyhedron dim")
        D, X = _common_denominator(p)
        if self._halfspace_row is not None:
            _, a, b = self._halfspace_row
            return Fraction(max(0, _dot(a, X) - b * D), D * sum(map(abs, a)))
        return _dist_at(self, D, X)[0]

    def nearest(self, p: Point) -> Point:
        return dist_to_polyhedron(p, self)[1]

    def dists_along(self, x: Point, y: Point, n: int, ks: Sequence[int]) -> dict[int, Fraction]:
        return dists_along_segment(self, x, y, n, ks)

    def witness(self) -> Point | None:
        return lp_feasible(self).witness

    def window(self) -> Box:
        """Exact coordinate bounds, with [-8, 8] standing in for an
        unbounded side, computed once from the extent.  Raises ``EmptySet``
        on an empty polyhedron, on every call: a raising cached_property
        keeps nothing."""
        return self._window

    @cached_property
    def _window(self) -> Box:
        fallback = Fraction(8)
        lo, hi = [], []
        for lo_k, hi_k in self._extent:
            lo.append(lo_k if lo_k is not None else -fallback)
            hi.append(hi_k if hi_k is not None else fallback)
            if lo[-1] > hi[-1]:  # bounded on one side beyond the fallback
                lo[-1], hi[-1] = min(lo[-1], hi[-1]), max(lo[-1], hi[-1])
        return Box(tuple(lo), tuple(hi))

    @cached_property
    def _extent(self) -> tuple:
        """Per coordinate k, ``polyhedron_coordinate_bounds(self, k)``: the
        least and the greatest x_k over the set, None where unbounded.  The
        2.dim LPs run once: the window and the refuter's box test share
        them.  Raises ``EmptySet`` on an empty polyhedron, on every call, as
        a raising cached_property keeps nothing."""
        if not self.dim and not self.contains(()):  # no coordinate LP runs
            raise EmptySet("cannot bound an empty polyhedron")
        return tuple(polyhedron_coordinate_bounds(self, k) for k in range(self.dim))

    def intersect(self, box: Box) -> "HPolyhedron":
        return intersection(self.dim, (self, box_to_polyhedron(box)))

    @cached_property
    def _integer_rows(self) -> tuple[IntRow, ...]:
        """The rows scaled to integers, built once; not a dataclass field."""
        return tuple(_integer_row(a, b) for a, b in self.rows)

    @cached_property
    def _halfspace_row(self) -> IntRow | None:
        """The integer row of a half-space, one row with a non-zero normal;
        None on any other polyhedron."""
        rows = self._integer_rows
        return rows[0] if len(rows) == 1 and any(rows[0][1]) else None

    @cached_property
    def _pieces(self) -> tuple:
        """The distance LP's optimal pieces met so far, oldest first (see
        `_dist_at`); not a dataclass field.  A query reads one tuple and a
        new piece replaces it whole, so threads never see it change."""
        return ()

    @cached_property
    def _zero_piece(self) -> tuple:
        """The piece (W, y, D, g) of r = 0, a = x: D = 2, W = 2.(0 | I), y = 1
        on both linking rows of the first coordinate, g = 0.  Its row check
        at a = X is the membership test and its other checks always hold,
        so it passes `_piece_vertex` exactly at the points of p."""
        d, m = self.dim, len(self._integer_rows)
        W = [[2 * (0 < i == j) for j in range(d + 1)] for i in range(d + 1)]
        return W, tuple(int(i in (m, m + 1)) for i in range(m + 2 * d)), 2, [0] * (d + 1)


def _common_denominator(p: Point) -> tuple[int, list[int]]:
    """(D, X) with p = X/D and D > 0 the lcm of p's denominators."""
    D = lcm(*(v.denominator for v in p))
    return D, [v.numerator * (D // v.denominator) for v in p]


def intersection(dim: int, parts: Sequence[HPolyhedron]) -> HPolyhedron:
    """The polyhedron in dim of all the parts' rows, in order.  Its integer
    rows are the parts' cached ones joined, so no row is scaled again."""
    joined = HPolyhedron(dim, tuple(r for q in parts for r in q.rows))
    joined.__dict__["_integer_rows"] = tuple(r for q in parts for r in q._integer_rows)
    return joined


def halfspace(a: Sequence[object], b: object) -> HPolyhedron:
    return HPolyhedron(
        len(tuple(a)), ((tuple(Fraction(c) for c in a), Fraction(b)),)
    )


def box_to_polyhedron(box: Box) -> HPolyhedron:
    rows: list[Row] = []
    d = box.dim
    for k in range(d):
        unit = tuple(Fraction(1) if i == k else Fraction(0) for i in range(d))
        neg = tuple(-u for u in unit)
        rows.append((unit, box.hi[k]))
        rows.append((neg, -box.lo[k]))
    return HPolyhedron(d, tuple(rows))


def _box_rows(box: Box) -> list[IntRow]:
    """x_k <= hi_k and -x_k <= -lo_k as integer rows; a ball's are its box's."""
    rows: list[IntRow] = []
    for k, (lo, hi) in enumerate(zip(box.lo, box.hi)):
        for sign, v in ((1, hi), (-1, lo)):
            a = [0] * box.dim
            a[k] = sign * v.denominator
            rows.append((v.denominator, a, sign * v.numerator))
    return rows


# ---------------------------------------------------------------------------
# Fraction-free simplex (Bareiss pivots, Bland's rule)


def _integer_row(a: Sequence[Fraction], b: Fraction) -> IntRow:
    """Scale a . x <= b by the lcm of its denominators: (scale, a', b')."""
    scale = lcm(b.denominator, *(v.denominator for v in a))
    return (
        scale,
        tuple(v.numerator * (scale // v.denominator) for v in a),
        b.numerator * (scale // b.denominator),
    )


class _Tableau:
    """Integer dictionary for min c.x s.t. A x <= b with free x.

    Variables are numbered x+ (dim), x- (dim), one slack per row, then one
    artificial per row: a row with b < 0 is negated and starts with its
    artificial basic.  A row stores only the nonbasic columns, named by
    ``cols``, then the right-hand side; a free variable is stored once, as
    x+, and x- is the negated column.  The integers are D times the true
    dictionary, D being the determinant of the basis (Bareiss).  Bland's rule
    and ratio ties go by variable number, so the pivots are those of a dense
    tableau.  The objective rows (phase 1, and c when minimizing) are carried
    through every pivot, so they are always in reduced-cost form.
    """

    def __init__(self, rows: Sequence[IntRow], dim: int, cost: Sequence[int] | None = None):
        self.dim = dim
        self.slack = 2 * dim
        self.nstruct = 2 * dim + len(rows)
        self.D = 1
        negated = [i for i, (_, _, b) in enumerate(rows) if b < 0]
        self.cols = [*range(dim), *(self.slack + i for i in negated)]
        self.T: list[list[int]] = []
        self.basis: list[int] = []
        for i, (_, a, b) in enumerate(rows):
            sg = 1 if b >= 0 else -1
            self.T.append([sg * v for v in a] + [-(i == j) for j in negated] + [sg * b])
            self.basis.append(self.slack + i if sg > 0 else self.nstruct + i)
        self.cost = None if cost is None else [*cost, *[0] * (len(negated) + 1)]

    def _pivot(self, objs: list[list[int]], r: int, s: int, enter: int) -> None:
        """``enter`` (in slot s, as x+ when it is x-) replaces the basic
        variable of row r, whose column takes slot s; a basic x- goes back
        as x+, and an artificial is dropped, as it never re-enters."""
        T, D = self.T, self.D
        sg = 1 if enter == self.cols[s] else -1
        leave = self.basis[r]
        back = -1 if self.dim <= leave < self.slack else 1  # x- is stored as x+
        pr = T[r]
        p = sg * pr[s]
        rows = T + objs
        for row in rows:
            if row is pr:
                continue
            f = sg * row[s]
            if f:
                row[:] = [(p * x - f * y) // D for x, y in zip(row, pr)]
            elif p != D:
                row[:] = [p * x // D for x in row]
            row[s] = -back * f
        pr[s] = back * D
        if leave >= self.nstruct:
            del self.cols[s]
            for row in rows:
                del row[s]
        else:
            self.cols[s] = leave if back > 0 else leave - self.dim
        self.D = p
        self.basis[r] = enter

    def _run(self, obj: list[int], objs: list[list[int]]) -> tuple[int | None, list[int] | None]:
        """Bland's-rule iterations on obj; (None, None) at the optimum, else
        the entering variable, with its column, along which obj is unbounded."""
        T, basis, dim = self.T, self.basis, self.dim
        while True:
            # x- enters where the stored reduced cost of x+ is positive.
            enter, slot = min(
                ((v if c < 0 else v + dim, s) for s, (v, c) in enumerate(zip(self.cols, obj))
                 if c < 0 or (c > 0 and v < dim)), default=(None, 0))
            if enter is None:
                return None, None
            sg = 1 if enter == self.cols[slot] else -1
            column = [sg * row[slot] for row in T]
            leave = None
            for r, q in enumerate(column):
                if q > 0:
                    if leave is None:
                        leave, lv, lq = r, T[r][-1], q
                        continue
                    here, best = T[r][-1] * lq, lv * q  # ratio test, cross-multiplied
                    if here < best or (here == best and basis[r] < basis[leave]):
                        leave, lv, lq = r, T[r][-1], q
            if leave is None:
                return enter, column
            self._pivot(objs, leave, slot, enter)

    def phase1(self) -> tuple[int, ...] | None:
        """Drive the artificials out; None when feasible, else Farkas
        multipliers for the scaled rows (times D), read off the phase-1
        reduced costs of the slacks."""
        arts = [r for r, col in enumerate(self.basis) if col >= self.nstruct]
        objs = [] if self.cost is None else [self.cost]
        if arts:
            obj = [-sum(col) for col in zip(*(self.T[r] for r in arts))]
            self._run(obj, objs + [obj])
            if obj[-1] < 0:  # obj[-1] is -D times the least sum of artificials
                return self._slacks(obj)
            # Pivot each basic artificial (at level 0) onto a structural
            # column, so that phase 2 can never make it positive again.  A
            # row with no such column is redundant and keeps its artificial.
            # Its right-hand side is 0, so negating the row keeps the pivot,
            # and with it D, positive.
            for r in arts:
                row = self.T[r]
                enter, slot = min(((v, s) for s, v in enumerate(self.cols) if row[s]),
                                  default=(None, 0))
                if self.basis[r] >= self.nstruct and enter is not None:
                    if row[slot] < 0:
                        row[:] = [-v for v in row]
                    self._pivot(objs, r, slot, enter)
        return None

    def phase2(self) -> tuple[int, ...] | None:
        """Minimize the cost row; None at the optimum, else a recession ray."""
        enter, column = self._run(self.cost, [self.cost])
        if enter is None:
            return None
        steps = [(col, -q) for col, q in zip(self.basis, column)]
        return tuple(self._unsplit([(enter, self.D)] + steps))

    def point(self) -> list[int]:
        """The basic solution times D."""
        return self._unsplit([(col, row[-1]) for col, row in zip(self.basis, self.T)])

    def rates(self) -> list[list[int]]:
        """Per row, D times the rate of change of the basic solution per
        unit of that row's right-hand side b_i.  With x_B = B^-1 (b - N x_N),
        and the slack of row i entering the rows just as b_i does, it is the
        stored column of that slack; a basic slack moves only itself, so
        its row's rate is 0."""
        slots = {v: s for s, v in enumerate(self.cols)}
        zero = [0] * self.dim
        return [zero if v not in slots else
                self._unsplit([(col, row[slots[v]]) for col, row in zip(self.basis, self.T)])
                for v in range(self.slack, self.nstruct)]

    def _unsplit(self, values: list[tuple[int, int]]) -> list[int]:
        """x = x+ - x-, from values on variables; slacks are dropped."""
        x = [0] * self.dim
        for col, v in values:
            if col < self.dim:
                x[col] += v
            elif col < self.slack:
                x[col - self.dim] -= v
        return x

    def _slacks(self, obj: list[int]) -> tuple[int, ...]:
        """The slacks' reduced costs on an objective row; a basic one is 0."""
        stored = dict(zip(self.cols, obj))
        return tuple(stored.get(v, 0) for v in range(self.slack, self.nstruct))

    def duals(self) -> tuple[int, ...]:
        """Optimal y >= 0 with y.A' = -D.c': the reduced costs of the slacks."""
        return self._slacks(self.cost)


def _solve(rows: Sequence[IntRow], dim: int, objective: Sequence[Fraction] | None = None,
           farkas_rows: Sequence[IntRow] | None = None, basis: bool = False):
    """Run the kernel and verify its outcome.  Feasibility returns
    ("witness", point) or ("infeasible", multipliers); minimization returns
    ("optimal", value, point), ("unbounded", None) or ("infeasible", ...).
    An infeasibility certificate must hold on `farkas_rows`, leading rows of
    `rows`, alone (all of `rows` by default).  With ``basis`` an optimum
    also returns its basis as (rates, y, D): the rows' ``_Tableau.rates``,
    and the duals and D, which do not depend on the right-hand sides."""
    scale, c, _ = (None, None, None) if objective is None else _integer_row(objective, 0)
    tab = _Tableau(rows, dim, c)
    y = tab.phase1()
    if y is not None:
        farkas_rows = rows if farkas_rows is None else farkas_rows
        _verify_farkas(farkas_rows, y[: len(farkas_rows)], tab.D)
        return "infeasible", tuple(Fraction(v * s, tab.D) for v, (s, _, _) in zip(y, rows))
    if c is not None:
        ray = tab.phase2()
        if ray is not None:
            _verify_ray(rows, c, ray)
            return "unbounded", None
    x, D = tab.point(), tab.D
    _verify_witness(rows, x, D)
    point = tuple(Fraction(v, D) for v in x)
    if c is None:
        return "witness", point
    y = tab.duals()
    _verify_dual(rows, c, y, D, x)
    outcome = "optimal", Fraction(_dot(c, x), D * scale), point
    return (*outcome, (tab.rates(), y, D)) if basis else outcome


# ---------------------------------------------------------------------------
# Public entry points


def _assemble(p: HPolyhedron | None, balls: Sequence[Ball]) -> tuple[list[IntRow], int]:
    rows: list[IntRow] = [] if p is None else list(p._integer_rows)
    dim = None if p is None else p.dim
    for ball in balls:
        box = ball.to_box() if isinstance(ball, Ball) else ball
        dim = box.dim if dim is None else dim
        if box.dim != dim:
            raise DimMismatch("ball dim mismatch")
        rows.extend(_box_rows(box))
    if dim is None:
        raise InvalidArgument("cannot infer dimension from empty input")
    return rows, dim


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, a, x))


def _verify_witness(rows: Sequence[IntRow], x: Sequence[int], D: int) -> None:
    """D > 0 and a'.x <= b'.D on every row: the point x/D satisfies them."""
    if D <= 0:
        raise LPKernelError("point has a non-positive denominator")
    if any(_dot(a, x) > b * D for _, a, b in rows):
        raise LPKernelError("witness fails a constraint")


def _combination(rows: Sequence[IntRow], y: Sequence[int], dim: int):
    """(y.A', y.b') for multipliers y >= 0, one per row; zero terms skipped."""
    if len(y) != len(rows) or any(v < 0 for v in y):
        raise LPKernelError("multipliers are not one non-negative value per row")
    support = [(v, a, b) for v, (_, a, b) in zip(y, rows) if v]
    return (
        [sum(v * a[k] for v, a, _ in support) for k in range(dim)],
        sum(v * b for v, _, b in support),
    )


def _verify_farkas(rows: Sequence[IntRow], y: Sequence[int], D: int) -> None:
    """y >= 0, y.A' = 0 and y.b' < 0 prove that no x has A x <= b; the
    multipliers read out, y_i s_i / D, need D > 0."""
    if D <= 0:
        raise LPKernelError("multipliers have a non-positive denominator")
    combo, bound = _combination(rows, y, len(rows[0][1]) if rows else 0)
    if any(combo):
        raise LPKernelError("Farkas combination does not vanish")
    if bound >= 0:
        raise LPKernelError("Farkas combination is not contradictory")


def _verify_dual(rows: Sequence[IntRow], c: Sequence[int], y: Sequence[int], D: int,
                 x: Sequence[int]) -> None:
    """y >= 0, y.A' = -D.c' and -y.b' = c'.x prove that c'.x/D is the minimum
    of c'.z (D > 0, checked with the witness): D.c'.z = -y.A' z >= -y.b'."""
    combo, bound = _combination(rows, y, len(c))
    if any(u != -D * v for u, v in zip(combo, c)):
        raise LPKernelError("dual does not reproduce the objective")
    if -bound != _dot(c, x):
        raise LPKernelError("dual bound differs from the optimum")


def _verify_ray(rows: Sequence[IntRow], c: Sequence[int], ray: Sequence[int]) -> None:
    """A'.d <= 0 and c'.d < 0: the objective falls without bound along d."""
    if any(_dot(a, ray) > 0 for _, a, _ in rows):
        raise LPKernelError("ray leaves the set")
    if _dot(c, ray) >= 0:
        raise LPKernelError("objective does not fall along the ray")


def lp_feasible(p: HPolyhedron | None, balls: Sequence[Ball] = ()) -> FeasibilityResult:
    """Exact feasibility of polyhedron rows plus ball (box) constraints."""
    rows, dim = _assemble(p, balls)
    status, payload = _solve(rows, dim)
    if status == "witness":
        return FeasibilityResult("witness", witness=payload)
    return FeasibilityResult("infeasible", certificate={"farkas": payload})


def halfspace_misses_box(p: HPolyhedron, box: Box) -> tuple[Fraction, ...] | None:
    """Farkas multipliers, as `lp_feasible` reads them out, proving that the
    half-space p (see `_halfspace_row`) misses the non-empty box, or None
    when they meet or p is no half-space.  The least a'.x over the box is
    at its corner c with c_k = lo_k where a'_k > 0, else hi_k.  When it
    exceeds b', the integer row plus |a'_k| times the box row that c_k
    bounds give 0 <= b' - a'.c < 0.  On the integer rows, where the kernel's
    check runs, the multipliers are L and |a'_k|.L/den(c_k), L the lcm of
    c's denominators; read out on the rows as given they are the row's
    scale s and |a'_k|."""
    row = p._halfspace_row
    if row is None:
        return None
    _, a, b = row
    corner = [lo if v > 0 else hi for v, lo, hi in zip(a, box.lo, box.hi)]
    if sum(map(mul, a, corner)) <= b:
        return None
    L = lcm(*(c.denominator for c in corner))
    y = [L]
    for v, c in zip(a, corner):  # the box rows of coordinate k: hi_k, then lo_k
        y += [-v * L // c.denominator, 0] if v < 0 else [0, v * L // c.denominator]
    rows = [row, *_box_rows(box)]
    _verify_farkas(rows, y, L)
    return tuple(Fraction(v * s, L) for v, (s, _, _) in zip(y, rows))


def lp_minimize(objective: Sequence[object], p: HPolyhedron | None, balls: Sequence[Ball] = ()):
    """Minimize objective . x over the rows; returns ("optimal", value, point),
    ("unbounded", None) or ("infeasible", multipliers)."""
    rows, dim = _assemble(p, balls)
    return _solve(rows, dim, tuple(Fraction(v) for v in objective))


def polyhedron_coordinate_bounds(
    p: HPolyhedron, k: int
) -> tuple[Fraction | None, Fraction | None]:
    """Exact (min, max) of coordinate k over the set; None where unbounded.
    Two LPs on every call; ``HPolyhedron._extent`` keeps their answers."""
    unit = [int(i == k) for i in range(p.dim)]
    low, high = lp_minimize(unit, p), lp_minimize([-u for u in unit], p)
    if low[0] == "infeasible" or high[0] == "infeasible":
        raise EmptySet("cannot bound an empty polyhedron")
    lo = low[1] if low[0] == "optimal" else None
    hi = -high[1] if high[0] == "optimal" else None
    return lo, hi


def _distance_rows(p: HPolyhedron, link: Sequence[tuple[int, int]], q: int = 1) -> list[IntRow]:
    """The rows, over (r, a_0 .. a_{d-1}), of the LP min r s.t. a in p and
    |x_k - a_k| <= r, with x_k = n/m for link[k] = (m, n): p's rows with
    their right-hand sides times q, then -m.r +- m.a_k <= +-n for each k.
    With every m = 1 and x = X/q, link[k] = (1, X_k) gives the same LP in
    the variables q.(r, a)."""
    d = p.dim
    rows: list[IntRow] = [(s, (0, *a), q * b) for s, a, b in p._integer_rows]
    for k, (m, n) in enumerate(link):
        for sign in (1, -1):
            a = [0] * (d + 1)
            a[0], a[k + 1] = -m, sign * m
            rows.append((m, a, sign * n))
    if not d:
        rows.append((1, (-1,), 0))  # r >= 0: no linking row bounds r
    return rows


def _distance_lp(p: HPolyhedron, rows: Sequence[IntRow], **basis):
    """The optimum of a distance LP built by `_distance_rows`; a ``basis=``
    flag goes on to `_solve`."""
    # Only the rows after p's carry r, each with a negative coefficient, so a
    # certificate's vanishing r column zeroes their multipliers: it must
    # prove p empty on p's rows alone.
    outcome = _solve(rows, p.dim + 1, (1,) + (0,) * p.dim, farkas_rows=p._integer_rows, **basis)
    if outcome[0] == "infeasible":
        raise EmptySet("polyhedron is empty")
    if outcome[0] != "optimal":
        raise LPKernelError("distance LP did not reach an optimum")
    return outcome


def dist_to_polyhedron(x: Point, p: HPolyhedron) -> tuple[Fraction, Point]:
    """Chebyshev distance from x to a non-empty polyhedron, with a nearest
    point, as the exact LP min r s.t. a in p, |x_k - a_k| <= r.  The witness
    check on the LP's rows proves that the point lies in p within r of x.
    A point of p is its own nearest point, the LP's optimum, without an LP.
    This LP starts from scratch every time: a degenerate optimum has more
    than one nearest point, and a kept piece could pick another."""
    if p.contains(x):
        return Fraction(0), tuple(Fraction(v) for v in x)
    rows = _distance_rows(p, [(v.denominator, v.numerator) for v in x])
    _, value, point = _distance_lp(p, rows)
    return value, point[1:]


# The most optimal distance-LP bases one polyhedron keeps, the oldest out
# first.  The 3-d box of the lp-repeat pool keeps 30 after 150 blocks.
_PIECE_CAP = 64


def _dist_at(p: HPolyhedron, q: int, X: Sequence[int]) -> tuple[Fraction, tuple]:
    """The distance from the point X/q (q > 0) to a non-empty polyhedron,
    with the piece (W, y, D, g) that answered, which passes `_piece_vertex`.

    In the variables w = q.(r, a) the distance LP (`_distance_rows` with
    link (1, X_k)) has fixed rows and right-hand sides linear in (q, X), so
    an optimal basis gives the vertex D.w = W.(q, X), duals y, D and the
    dual bound -g.(q, X)/(D.q), g = `_per_parameter(p, y)`, at every point
    (multiparametric LP).  A point of p gets the zero piece, whose row check
    is the row test below and whose other checks always hold (in dim 0 no
    piece passes).  Else the kept pieces that `_best_bounds` ranks first are
    tried, then a fresh LP's, kept up to _PIECE_CAP; a fresh W that fails
    at its own point, checked by the LP, is a kernel bug.  No kept piece has
    the fresh basis: it would have the largest bound and pass at the point."""
    if all(_dot(a, X) <= b * q for _, a, b in p._integer_rows):
        return Fraction(0), p._zero_piece
    params, pieces = (q, *X), p._pieces  # never changed in place: a miss publishes a new tuple
    for W, y, D, g in _best_bounds(pieces, params):
        w = _piece_vertex(p, params, W, y, D)  # None: it fails at the point
        if w is not None:
            return Fraction(w[0], D * q), (W, y, D, g)
    rows = _distance_rows(p, [(1, v) for v in X], q)
    _, value, _, (rates, y, D) = _distance_lp(p, rows, basis=True)
    W = [_per_parameter(p, [rate[i] for rate in rates]) for i in range(p.dim + 1)]
    if _piece_vertex(p, params, W, y, D) is None:
        raise LPKernelError("fresh distance piece fails the checks at its own point")
    piece = W, y, D, _per_parameter(p, y)
    p.__dict__["_pieces"] = (*pieces, piece)[-_PIECE_CAP:]
    return value / q, piece


def _piece_vertex(p: HPolyhedron, params: Sequence[int], W: Sequence[Sequence[int]],
                  y: Sequence[int], D: int) -> list[int] | None:
    """The vertex D.w = W.params of a piece (W, y, D) if it is optimal at
    the point X/q, params (q, X), else None.  These are the checks that
    `_verify_witness` and `_verify_dual` make on `_distance_rows(p, [(1,
    X_k)], q)`, with p's rows and the linking rows -r +- a_k <= +-X_k read
    in place, and w = (r, a):

    * D > 0 and one multiplier y >= 0 per row, p's rows first;
    * a'.a <= q.b'.D on p's rows and |a_k - X_k.D| <= r on the linking rows;
    * y.A' = -D.c': the linking multipliers sum to D, and on each a_k the
      column of p's rows cancels the two linking ones;
    * -y.b(q, X) = r.

    A dim-0 polyhedron keeps no piece, as its distance is 0 or it is empty,
    so the pass refuses there."""
    integer_rows, d = p._integer_rows, p.dim
    m = len(integer_rows)
    if D <= 0 or not d or len(y) != m + 2 * d or min(y) < 0:
        return None
    q, X = params[0], params[1:]
    w = [sum(map(mul, row, params)) for row in W]
    r, a = w[0], w[1:]
    qD = q * D
    for _, a_i, b in integer_rows:
        if sum(map(mul, a_i, a)) > b * qD:
            return None
    for u, x in zip(a, X):
        if abs(u - x * D) > r:
            return None
    up, down = y[m::2], y[m + 1::2]  # the multipliers of +a_k and of -a_k
    if sum(up) + sum(down) != D:
        return None
    net = list(map(sub, up, down))  # y.A' on the a-columns, p's rows added below
    bound = sum(map(mul, net, X))  # y.b(q, X)
    for v, (_, a_i, b) in zip(y, integer_rows):
        if v:
            net = [t + v * c for t, c in zip(net, a_i)]
            bound += v * b * q
    if any(net) or bound != -r:
        return None
    return w


def _per_parameter(p: HPolyhedron, values: Sequence[int]) -> list[int]:
    """sum_i values_i . db_i/dz for z = q, X_0, .., X_{d-1}, where b_i is
    the right-hand side of row i of the distance LP in the variables q.(r, a):
    q.b'_i on p's rows, +-X_k on the two linking rows of coordinate k."""
    m = len(p._integer_rows)
    return [sum(v * b for v, (_, _, b) in zip(values, p._integer_rows)),
            *(values[m + 2 * k] - values[m + 2 * k + 1] for k in range(p.dim))]


def _best_bounds(pieces: Reversible[tuple], params: Sequence[int]) -> list[tuple]:
    """The pieces (W, y, D, g) with the largest dual bound -g.(q, X)/(D.q) at
    the point X/q, params (q, X), newest first.  q is common, so bounds
    compare as -g.params/D, cross-multiplied in integers (D > 0 on a piece
    the LP made).  By weak duality no other piece can pass both checks."""
    best, top, top_D = [], 0, 1
    for piece in reversed(pieces):
        value, D = -_dot(piece[3], params), piece[2]
        if not best or value * top_D > top * D:
            best, top, top_D = [piece], value, D
        elif value * top_D == top * D:
            best.append(piece)
    return best


def dists_along_segment(p: HPolyhedron, x: Point, y: Point, n: int,
                        ks: Sequence[int]) -> dict[int, Fraction]:
    """The distance from x + (k/n)(y - x) to a non-empty polyhedron for each
    k in ks, answered one stretch of the sorted times at a time.

    With x = X/q and y = Y/q the point at time k has the parameters
    (q', X(k)) = (n.q, n.X + k.(Y - X)), affine in k, and no fraction to
    reduce.  The first time not yet answered asks `_dist_at`, whose piece
    (the zero piece inside p) passes `_piece_vertex` there.  Every check of
    `_piece_vertex` at the vertex W.(q', X(k)) is then a linear inequality
    in k, a test that does not depend on k, or the equality of two affine
    functions of k, so the times at which the piece passes form an
    interval.  Bisection over the later times, the last one first, finds
    its end, and every time up to it is answered as W_0.(q', X(k))/(D.q').
    A half-space a'.x <= b' takes `HPolyhedron.dist`'s closed form
    max(0, a'.X(k) - b'.q')/(q'.|a'|_1) at every time, with no LP and no
    piece.  n must be at least 1, so that q' > 0."""
    if n < 1:
        raise InvalidArgument(f"segment steps n must be >= 1, got {n}")
    if len(x) != p.dim or len(y) != p.dim:
        raise DimMismatch("point dim does not match polyhedron dim")
    q, XY = _common_denominator((*x, *y))
    q1, X, S = n * q, [n * u for u in XY[:p.dim]], [v - u for u, v in zip(XY, XY[p.dim:])]
    ks = sorted(set(ks))
    if p._halfspace_row is not None:
        _, a, b = p._halfspace_row
        base, slope, scale = _dot(a, X) - b * q1, _dot(a, S), q1 * sum(map(abs, a))
        return {k: Fraction(max(0, base + k * slope), scale) for k in ks}

    def at(k):
        return (q1, *(u + k * v for u, v in zip(X, S)))

    dists, i = {}, 0
    while i < len(ks):
        dists[ks[i]], (*piece, _) = _dist_at(p, q1, at(ks[i])[1:])  # piece: (W, y, D)
        W, _, D = piece
        lo, hi = i, len(ks) - 1  # the piece passes at ks[lo]; at ks[hi] it is untried
        if hi > lo and _piece_vertex(p, at(ks[hi]), *piece) is not None:
            lo = hi
        while hi - lo > 1:  # it fails at ks[hi]
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _piece_vertex(p, at(ks[mid]), *piece) is not None else (lo, mid)
        base, slope = _dot(W[0], at(0)), _dot(W[0][1:], S)
        for k in ks[i + 1:lo + 1]:
            dists[k] = Fraction(base + k * slope, D * q1)
        i = lo + 1
    return dists
