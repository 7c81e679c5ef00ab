"""Fourier-Motzkin elimination, kept as an independent reference for the
simplex in hyperball.lp.

It shares no code with the simplex: it projects variables out pairwise,
tracking non-negative row multipliers, so its verdicts and exact minima
(through an objective variable placed at index 0) check the kernel's.  Its
row count can grow doubly exponentially, so only small systems belong here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hyperball.lp import LPKernelError, Row

_FM_ROW_BLOWUP = 4000


class _FMBlowup(Exception):
    pass


class _Infeasible(Exception):
    def __init__(self, lam):
        self.lam = lam


def _normalized(a, b, lam):
    scale = max((abs(c) for c in a if c != 0), default=None)
    if scale is None or scale == 1:
        return a, b, lam
    return tuple(c / scale for c in a), b / scale, tuple(x / scale for x in lam)


def fm_solve(rows: Sequence[Row], dim: int):
    """Eliminate variables dim-1 .. 0, then back-substitute a witness.

    Returns ("witness", point) or ("infeasible", multipliers).  The witness
    picks the lowest admissible value per variable (the upper bound when only
    bounded above, 0 when free), assigning variable 0 first — callers that
    want an exact minimum place the objective variable at index 0.
    """
    n = len(rows)
    system = []
    for i, (a, b) in enumerate(rows):
        lam = tuple(Fraction(1 if t == i else 0) for t in range(n))
        system.append((tuple(a), Fraction(b), lam))

    def is_constant(a, b, lam) -> bool:
        if all(c == 0 for c in a):
            if b < 0:
                raise _Infeasible(lam)
            return True
        return False

    stages: list[list] = [[] for _ in range(dim)]
    try:
        current = [row for row in system if not is_constant(*row)]
        for v in range(dim - 1, -1, -1):
            stages[v] = current
            uppers, lowers = [], []
            bucket: dict = {}

            def add(a, b, lam):
                if is_constant(a, b, lam):
                    return
                a, b, lam = _normalized(a, b, lam)
                prev = bucket.get(a)
                if prev is None or b < prev[0]:
                    bucket[a] = (b, lam)

            for a, b, lam in current:
                c = a[v]
                if c > 0:
                    uppers.append((a, b, lam))
                elif c < 0:
                    lowers.append((a, b, lam))
                else:
                    add(a, b, lam)
            for au, bu, lu in uppers:
                cu = au[v]
                for al, bl, ll in lowers:
                    mu, ml = -al[v], cu  # both positive
                    a_new = tuple(mu * au[i] + ml * al[i] for i in range(dim))
                    b_new = mu * bu + ml * bl
                    lam_new = tuple(mu * x + ml * y for x, y in zip(lu, ll))
                    add(a_new, b_new, lam_new)
                    if len(bucket) > _FM_ROW_BLOWUP:
                        raise _FMBlowup
            current = [(a, b, lam) for a, (b, lam) in bucket.items()]
    except _Infeasible as stop:
        return "infeasible", stop.lam

    x: list[Fraction] = [Fraction(0)] * dim
    for v in range(dim):
        lo = hi = None
        for a, b, _ in stages[v]:
            c = a[v]
            if c == 0:
                continue
            bound = (b - sum(a[i] * x[i] for i in range(v))) / c
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None and lo > hi:
            raise LPKernelError("FM back-substitution hit an empty interval")
        if lo is not None:
            x[v] = lo
        elif hi is not None:
            x[v] = hi
    return "witness", tuple(x)


def fm_lower_bound_exists(rows: Sequence[Row], dim: int) -> bool:
    """Project onto variable 0 and report whether a lower bound survives."""
    system = {tuple(a): Fraction(b) for a, b in rows}
    for v in range(dim - 1, 0, -1):
        uppers, lowers, rest = [], [], {}
        for a, b in system.items():
            c = a[v]
            if c > 0:
                uppers.append((a, b))
            elif c < 0:
                lowers.append((a, b))
            else:
                rest[a] = b
        for au, bu in uppers:
            for al, bl in lowers:
                mu, ml = -al[v], au[v]
                a_new = tuple(mu * au[i] + ml * al[i] for i in range(dim))
                b_new = mu * bu + ml * bl
                prev = rest.get(a_new)
                if prev is None or b_new < prev:
                    rest[a_new] = b_new
                if len(rest) > _FM_ROW_BLOWUP:
                    raise _FMBlowup
        system = rest
    return any(a[0] < 0 for a in system)


def fm_minimize(objective: Sequence[Fraction], rows: Sequence[Row], dim: int):
    """("optimal", value), ("unbounded", None) or ("infeasible", None), with
    the objective variable t = objective . x at index 0: FM assigns index 0
    first from its exact projection, so its lowest pick is the minimum."""
    c = tuple(Fraction(v) for v in objective)
    ext_rows: list[Row] = [
        ((Fraction(-1),) + c, Fraction(0)),
        ((Fraction(1),) + tuple(-v for v in c), Fraction(0)),
    ]
    ext_rows.extend(((Fraction(0),) + tuple(a), b) for a, b in rows)
    status, payload = fm_solve(ext_rows, dim + 1)
    if status == "infeasible":
        return "infeasible", None
    if not fm_lower_bound_exists(ext_rows, dim + 1):
        return "unbounded", None
    return "optimal", payload[0]
