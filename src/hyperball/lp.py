"""Exact rational linear feasibility and minimization over H-polyhedra.

One kernel: a dense simplex over Python ints (Bland's rule against cycling,
Bareiss's fraction-free pivots dividing exactly by the previous pivot).
Each row is scaled to integers by the lcm of its denominators; Fractions
appear only when a result is read out, with the row scales multiplied back.

Every outcome carries a certificate that is checked by plain arithmetic on
the original rows before it is returned:

* a feasible point satisfies every row;
* Farkas multipliers lam >= 0 with lam.A = 0 and lam.b < 0 prove emptiness;
* duals y >= 0 with y.A = -c and -y.b equal to the value prove an optimum;
* a ray d with A.d <= 0 and c.d < 0 proves unboundedness.

A failed check is a kernel bug and raises LPKernelError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DimMismatch, HyperballError
from .linf import Ball, Box, FeasibilityResult, Point, linf_dist

Row = tuple[tuple[Fraction, ...], Fraction]  # a . x <= b


class EmptySet(HyperballError):
    """An operation that needs a non-empty set got an empty one."""


class LPKernelError(HyperballError):
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
        if len(p) != self.dim:
            raise DimMismatch("point dim does not match polyhedron dim")
        return all(sum(c * x for c, x in zip(a, p)) <= b for a, b in self.rows)


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


def ball_rows(ball: Ball) -> list[Row]:
    """|x_k - c_k| <= r as 2*dim half-space rows."""
    d = ball.dim
    rows: list[Row] = []
    for k in range(d):
        unit = tuple(Fraction(1) if i == k else Fraction(0) for i in range(d))
        neg = tuple(-u for u in unit)
        rows.append((unit, ball.center[k] + ball.radius))
        rows.append((neg, -(ball.center[k] - ball.radius)))
    return rows


# ---------------------------------------------------------------------------
# Fraction-free simplex (Bareiss pivots, Bland's rule)


def _integer_row(a: Sequence[Fraction], b: Fraction) -> tuple[int, list[int], int]:
    """Scale a . x <= b by the lcm of its denominators: (scale, a', b')."""
    scale = lcm(b.denominator, *(v.denominator for v in a))
    return (
        scale,
        [v.numerator * (scale // v.denominator) for v in a],
        b.numerator * (scale // b.denominator),
    )


class _Tableau:
    """Dense integer tableau for min c.x s.t. A x <= b with free x.

    Columns are x+ (dim), x- (dim), one slack per row, then the right-hand
    side; a row with b < 0 is negated and gets an artificial basic variable,
    whose column is never stored because it never re-enters.  The stored
    integers are D times the true tableau, D being the determinant of the
    current basis, so a pivot divides exactly by the previous pivot (Bareiss).
    The objective rows (phase 1, and c when minimizing) are carried through
    every pivot, so they are always in reduced-cost form.
    """

    def __init__(self, rows: Sequence[Row], dim: int, objective=None):
        self.dim = dim
        m = len(rows)
        self.slack = 2 * dim
        self.nstruct = 2 * dim + m
        self.D = 1
        self.T: list[list[int]] = []
        self.scales: list[int] = []
        self.basis: list[int] = []
        for i, (a, b) in enumerate(rows):
            scale, a, b = _integer_row(a, b)
            sg = 1 if b >= 0 else -1
            row = [sg * v for v in a] + [-sg * v for v in a] + [0] * m + [sg * b]
            row[self.slack + i] = sg
            self.T.append(row)
            self.scales.append(scale)
            self.basis.append(self.slack + i if sg > 0 else self.nstruct + i)
        self.cost = None
        if objective is not None:
            self.cost_scale, c, _ = _integer_row(objective, Fraction(0))
            self.cost = c + [-v for v in c] + [0] * (m + 1)

    def _pivot(self, objs: list[list[int]], r: int, col: int) -> None:
        T, D = self.T, self.D
        pr = T[r]
        p = pr[col]
        for row in T + objs:
            if row is pr:
                continue
            f = row[col]
            if f:
                row[:] = [(p * x - f * y) // D for x, y in zip(row, pr)]
            elif p != D:
                row[:] = [p * x // D for x in row]
        self.D = p
        self.basis[r] = col

    def _run(self, obj: list[int], objs: list[list[int]]) -> int | None:
        """Bland's-rule iterations on obj; returns None at the optimum, else
        the entering column along which the objective is unbounded."""
        T, basis = self.T, self.basis
        while True:
            enter = next((j for j in range(self.nstruct) if obj[j] < 0), None)
            if enter is None:
                return None
            leave = None
            for r, row in enumerate(T):
                q = row[enter]
                if q > 0:
                    if leave is None:
                        leave, lv, lq = r, row[-1], q
                        continue
                    here, best = row[-1] * lq, lv * q  # ratio test, cross-multiplied
                    if here < best or (here == best and basis[r] < basis[leave]):
                        leave, lv, lq = r, row[-1], q
            if leave is None:
                return enter
            self._pivot(objs, leave, enter)

    def phase1(self) -> tuple[Fraction, ...] | None:
        """Drive the artificials out; None when feasible, else Farkas
        multipliers, read off the phase-1 reduced costs of the slacks."""
        arts = [r for r, col in enumerate(self.basis) if col >= self.nstruct]
        objs = [] if self.cost is None else [self.cost]
        if arts:
            obj = [-sum(col) for col in zip(*(self.T[r] for r in arts))]
            self._run(obj, objs + [obj])
            if obj[-1] < 0:  # obj[-1] is -D times the least sum of artificials
                D = self.D
                return tuple(
                    Fraction(obj[self.slack + i] * s, D) for i, s in enumerate(self.scales)
                )
            # Pivot each basic artificial (at level 0) onto a structural
            # column, so that phase 2 can never make it positive again.  A
            # row with no such column is redundant and keeps its artificial.
            # Its right-hand side is 0, so negating the row keeps the pivot,
            # and with it D, positive.
            for r in arts:
                row = self.T[r]
                col = next((j for j in range(self.nstruct) if row[j]), None)
                if self.basis[r] >= self.nstruct and col is not None:
                    if row[col] < 0:
                        row[:] = [-v for v in row]
                    self._pivot(objs, r, col)
        return None

    def phase2(self) -> tuple[int, ...] | None:
        """Minimize the cost row; None at the optimum, else a recession ray."""
        enter = self._run(self.cost, [self.cost])
        if enter is None:
            return None
        ray = [0] * self.dim
        for col, step in [(enter, self.D)] + [
            (col, -row[enter]) for col, row in zip(self.basis, self.T)
        ]:
            if col < self.dim:
                ray[col] += step
            elif col < self.slack:
                ray[col - self.dim] -= step
        return tuple(ray)

    def point(self) -> Point:
        x = [0] * self.dim
        for col, row in zip(self.basis, self.T):
            if col < self.dim:
                x[col] += row[-1]
            elif col < self.slack:
                x[col - self.dim] -= row[-1]
        return tuple(Fraction(v, self.D) for v in x)

    def duals(self) -> tuple[Fraction, ...]:
        """Optimal y >= 0 with y.A = -c: the reduced costs of the slacks."""
        D = self.D * self.cost_scale
        return tuple(
            Fraction(self.cost[self.slack + i] * s, D) for i, s in enumerate(self.scales)
        )


def _solve(rows: Sequence[Row], dim: int, objective: Sequence[Fraction] | None = None):
    """Run the kernel and verify its outcome.  Feasibility returns
    ("witness", point) or ("infeasible", multipliers); minimization returns
    ("optimal", value, point), ("unbounded", None) or ("infeasible", ...)."""
    tab = _Tableau(rows, dim, objective)
    lam = tab.phase1()
    if lam is not None:
        _verify_farkas(rows, lam)
        return "infeasible", lam
    if objective is None:
        x = tab.point()
        _verify_witness(rows, x)
        return "witness", x
    ray = tab.phase2()
    if ray is not None:
        _verify_ray(rows, objective, ray)
        return "unbounded", None
    x = tab.point()
    value = sum((c * v for c, v in zip(objective, x)), Fraction(0))
    _verify_witness(rows, x)
    _verify_dual(rows, objective, tab.duals(), value)
    return "optimal", value, x


# ---------------------------------------------------------------------------
# Public entry points


def _assemble(
    p: HPolyhedron | None, balls: Sequence[Ball], dim: int | None
) -> tuple[list[Row], int]:
    rows: list[Row] = []
    if p is not None:
        dim = p.dim if dim is None else dim
        if p.dim != dim:
            raise DimMismatch("polyhedron dim mismatch")
        rows.extend(p.rows)
    for ball in balls:
        dim = ball.dim if dim is None else dim
        if ball.dim != dim:
            raise DimMismatch("ball dim mismatch")
        rows.extend(ball_rows(ball))
    if dim is None:
        raise ValueError("cannot infer dimension from empty input")
    return rows, dim


def _verify_witness(rows: Sequence[Row], x: Point) -> None:
    for a, b in rows:
        if sum(c * v for c, v in zip(a, x) if c) > b:
            raise LPKernelError("witness fails a constraint")


def _combination(rows: Sequence[Row], y: Sequence[Fraction], dim: int):
    """(y.A, y.b) for multipliers y >= 0, one per row; zero terms skipped."""
    if len(y) != len(rows) or any(v < 0 for v in y):
        raise LPKernelError("multipliers are not one non-negative value per row")
    support = [(v, a, b) for v, (a, b) in zip(y, rows) if v]
    return (
        [sum(v * a[k] for v, a, _ in support) for k in range(dim)],
        sum(v * b for v, _, b in support),
    )


def _verify_farkas(rows: Sequence[Row], lam: Sequence[Fraction]) -> None:
    """lam >= 0, lam.A = 0 and lam.b < 0 prove that no x has A x <= b."""
    combo, bound = _combination(rows, lam, len(rows[0][0]) if rows else 0)
    if any(combo):
        raise LPKernelError("Farkas combination does not vanish")
    if bound >= 0:
        raise LPKernelError("Farkas combination is not contradictory")


def _verify_dual(
    rows: Sequence[Row], c: Sequence[Fraction], y: Sequence[Fraction], value: Fraction
) -> None:
    """y >= 0, y.A = -c and -y.b = value prove value is the minimum of c.x:
    for any feasible x, c.x = -y.A x >= -y.b."""
    combo, bound = _combination(rows, y, len(c))
    if any(u != -v for u, v in zip(combo, c)):
        raise LPKernelError("dual does not reproduce the objective")
    if -bound != value:
        raise LPKernelError("dual bound differs from the optimum")


def _verify_ray(rows: Sequence[Row], c: Sequence[Fraction], ray: Sequence[int]) -> None:
    """A.d <= 0 and c.d < 0: the objective falls without bound along d."""
    if any(sum(a_k * d_k for a_k, d_k in zip(a, ray)) > 0 for a, _ in rows):
        raise LPKernelError("ray leaves the set")
    if sum(c_k * d_k for c_k, d_k in zip(c, ray)) >= 0:
        raise LPKernelError("objective does not fall along the ray")


def lp_feasible(
    p: HPolyhedron | None,
    balls: Sequence[Ball] = (),
    dim: int | None = None,
) -> FeasibilityResult:
    """Exact feasibility of polyhedron rows plus ball (box) constraints."""
    rows, dim = _assemble(p, balls, dim)
    status, payload = _solve(rows, dim)
    if status == "witness":
        return FeasibilityResult("witness", witness=payload)
    return FeasibilityResult("infeasible", certificate={"farkas": payload})


def lp_minimize(
    objective: Sequence[object],
    p: HPolyhedron | None,
    balls: Sequence[Ball] = (),
):
    """Minimize objective . x over the rows; returns ("optimal", value, point),
    ("unbounded", None) or ("infeasible", multipliers)."""
    rows, dim = _assemble(p, balls, None)
    return _solve(rows, dim, tuple(Fraction(v) for v in objective))


def polyhedron_coordinate_bounds(
    p: HPolyhedron, k: int
) -> tuple[Fraction | None, Fraction | None]:
    """Exact (min, max) of coordinate k over the set; None where unbounded."""
    unit = [Fraction(0)] * p.dim
    unit[k] = Fraction(1)
    low = lp_minimize(tuple(unit), p)
    high = lp_minimize(tuple(-u for u in unit), p)
    if low[0] == "infeasible" or high[0] == "infeasible":
        raise EmptySet("cannot bound an empty polyhedron")
    lo = low[1] if low[0] == "optimal" else None
    hi = -high[1] if high[0] == "optimal" else None
    return lo, hi


def dist_to_polyhedron(x: Point, p: HPolyhedron) -> tuple[Fraction, Point]:
    """Chebyshev distance from x to a non-empty polyhedron, with a nearest
    point, as the exact LP min r s.t. a in p, |x_k - a_k| <= r."""
    if len(x) != p.dim:
        raise DimMismatch("point dim does not match polyhedron dim")
    d = p.dim
    # Variables (r, a_0 .. a_{d-1}).
    rows: list[Row] = [((Fraction(0),) + tuple(a), b) for a, b in p.rows]
    for k in range(d):
        unit = [Fraction(0)] * d
        unit[k] = Fraction(1)
        rows.append(((Fraction(-1),) + tuple(unit), x[k]))
        rows.append(((Fraction(-1),) + tuple(-u for u in unit), -x[k]))
    if not d:
        rows.append(((Fraction(-1),), Fraction(0)))  # r >= 0: no linking row bounds r
    objective = (Fraction(1),) + tuple(Fraction(0) for _ in range(d))
    outcome = _solve(rows, d + 1, objective)
    if outcome[0] == "infeasible":
        # Only the rows after p's carry r, each with coefficient -1, so a
        # certificate's vanishing r column zeroes their multipliers: the
        # certificate restricted to p's rows proves p empty.
        lam = outcome[1][: len(p.rows)]
        _verify_farkas(p.rows, lam)
        raise EmptySet("polyhedron is empty")
    if outcome[0] != "optimal":
        raise LPKernelError("distance LP did not reach an optimum")
    r, nearest = outcome[1], outcome[2][1:]
    _check_distance(x, p, r, nearest)
    return r, nearest


def _check_distance(x: Point, p: HPolyhedron, r: Fraction, nearest: Point) -> None:
    if not p.contains(nearest):
        raise LPKernelError("nearest point lies outside the set")
    if linf_dist(x, nearest) > r:
        raise LPKernelError("nearest point farther than reported distance")
