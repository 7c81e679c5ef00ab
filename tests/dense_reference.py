"""The dense Bareiss tableau that ``hyperball.lp`` ran before its kernel
stored only the nonbasic columns, kept unchanged as a reference.

Every row carries x+, x-, the whole slack identity block and the right-hand
side.  Its pivots, points, Farkas multipliers, duals and rays are the ones
the condensed kernel must reproduce exactly; ``_solve`` runs it with the
same four certificate checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hyperball.lp import (
    IntRow, _dot, _integer_row, _verify_dual, _verify_farkas, _verify_ray, _verify_witness,
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

    def __init__(self, rows: Sequence[IntRow], dim: int, cost: Sequence[int] | None = None):
        self.dim = dim
        m = len(rows)
        self.slack = 2 * dim
        self.nstruct = 2 * dim + m
        self.D = 1
        self.T: list[list[int]] = []
        self.basis: list[int] = []
        for i, (_, a, b) in enumerate(rows):
            sg = 1 if b >= 0 else -1
            row = [sg * v for v in a] + [-sg * v for v in a] + [0] * m + [sg * b]
            row[self.slack + i] = sg
            self.T.append(row)
            self.basis.append(self.slack + i if sg > 0 else self.nstruct + i)
        self.cost = None if cost is None else [*cost, *(-v for v in cost), *[0] * (m + 1)]

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
                return tuple(obj[self.slack:self.nstruct])
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
        steps = [(col, -row[enter]) for col, row in zip(self.basis, self.T)]
        return tuple(self._unsplit([(enter, self.D)] + steps))

    def point(self) -> list[int]:
        """The basic solution times D."""
        return self._unsplit([(col, row[-1]) for col, row in zip(self.basis, self.T)])

    def _unsplit(self, values: list[tuple[int, int]]) -> list[int]:
        """x = x+ - x-, from values on columns; slack columns are dropped."""
        x = [0] * self.dim
        for col, v in values:
            if col < self.dim:
                x[col] += v
            elif col < self.slack:
                x[col - self.dim] -= v
        return x

    def duals(self) -> tuple[int, ...]:
        """Optimal y >= 0 with y.A' = -D.c': the reduced costs of the slacks."""
        return tuple(self.cost[self.slack:self.nstruct])


def _solve(rows: Sequence[IntRow], dim: int, objective: Sequence[Fraction] | None = None,
           farkas_rows: Sequence[IntRow] | None = None):
    """Run the kernel and verify its outcome.  Feasibility returns
    ("witness", point) or ("infeasible", multipliers); minimization returns
    ("optimal", value, point), ("unbounded", None) or ("infeasible", ...).
    An infeasibility certificate must hold on `farkas_rows`, leading rows of
    `rows`, alone (all of `rows` by default)."""
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
    _verify_dual(rows, c, tab.duals(), D, x)
    return "optimal", Fraction(_dot(c, x), D * scale), point
