from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperball.linf import Ball, Box, ball_family_intersection
from hyperball.lp import (
    EmptySet,
    HPolyhedron,
    box_to_polyhedron,
    dist_to_polyhedron,
    halfspace,
    lp_feasible,
    lp_minimize,
    polyhedron_coordinate_bounds,
)

from conftest import F, pt
from fm_reference import fm_minimize, fm_solve


def rows(*pairs):
    return tuple((tuple(Fraction(c) for c in a), Fraction(b)) for a, b in pairs)


def test_unbounded_halfspace_feasible():
    result = lp_feasible(halfspace([1, 1], -1))
    assert result.feasible
    x = result.witness
    assert x[0] + x[1] <= -1


def test_contradictory_rows_infeasible():
    p = HPolyhedron(1, rows(((1,), 0), ((-1,), -1)))
    result = lp_feasible(p)
    assert not result.feasible
    lam = result.certificate["farkas"]
    assert all(l >= 0 for l in lam)
    assert sum(l * b for l, (_, b) in zip(lam, p.rows)) < 0


def test_total_helly_intersection_infeasible():
    # x2 >= 0, x1 - x2 >= 0, x1 + x2 <= -1 cannot all hold
    p = HPolyhedron(
        2, rows(((0, -1), 0), ((-1, 1), 0), ((1, 1), -1))
    )
    assert not lp_feasible(p).feasible


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_fm_and_simplex_agree(seed):
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    dim = rng.randint(1, 3)
    m = rng.randint(1, 6)
    p = HPolyhedron(
        dim,
        tuple(
            (
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)),
                Fraction(rng.randint(-6, 6)),
            )
            for _ in range(m)
        ),
    )
    fm_status, _ = fm_solve(p.rows, dim)
    assert lp_feasible(p).feasible == (fm_status == "witness")


def test_interval_and_lp_routes_agree_on_1000_instances():
    from hyperball.rng import SplitMix64

    for seed in range(1000):
        rng = SplitMix64(seed)
        dim = rng.randint(1, 3)
        balls = tuple(
            Ball(
                tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(dim)),
                Fraction(rng.randint(0, 8), 2),
            )
            for _ in range(rng.randint(1, 4))
        )
        interval = ball_family_intersection(balls)
        lp = lp_feasible(None, balls)
        assert interval.feasible == lp.feasible
        if interval.feasible:
            w = interval.witness
            assert all(b.contains(w) for b in balls)


def test_dist_examples():
    hs = halfspace([1, 1], -1)
    d, nearest = dist_to_polyhedron(pt(1, -1), hs)
    assert d == Fraction(1, 2)
    assert nearest[0] + nearest[1] <= -1

    box = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    d2, nearest2 = dist_to_polyhedron(pt(3, 0), box)
    assert d2 == 2 and nearest2 == pt(1, 0)

    d3, _ = dist_to_polyhedron(pt(1, 0), box)
    assert d3 == 0

    assert dist_to_polyhedron((), HPolyhedron(0, ())) == (0, ())


def _fm_distance(x, p):
    """The distance LP of dist_to_polyhedron, solved by the FM reference."""
    d = p.dim
    dist_rows = [((F(0),) + tuple(a), b) for a, b in p.rows]
    for k in range(d):
        unit = tuple(F(int(i == k)) for i in range(d))
        dist_rows.append(((F(-1),) + unit, x[k]))
        dist_rows.append(((F(-1),) + tuple(-u for u in unit), -x[k]))
    return fm_minimize((F(1),) + (F(0),) * d, dist_rows, d + 1)


def test_dist_simplex_route_matches_fm():
    from hyperball.rng import SplitMix64

    hs = halfspace([1, 1], -1)
    d_sx, _ = dist_to_polyhedron(pt(1, -1), hs)
    assert _fm_distance(pt(1, -1), hs) == ("optimal", d_sx)
    assert d_sx == Fraction(1, 2)
    for seed in range(60):
        rng = SplitMix64(seed)
        dim = rng.randint(1, 2)
        p = HPolyhedron(dim, tuple(
            (tuple(F(rng.randint(-3, 3)) for _ in range(dim)), F(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 4))
        ))
        x = tuple(F(rng.randint(-9, 9), 2) for _ in range(dim))
        try:
            outcome = ("optimal", dist_to_polyhedron(x, p)[0])
        except EmptySet:
            outcome = ("infeasible", None)
        assert outcome == _fm_distance(x, p), seed


def test_dist_requires_nonempty():
    empty = HPolyhedron(1, rows(((1,), 0), ((-1,), -1)))
    with pytest.raises(EmptySet):
        dist_to_polyhedron(pt(0), empty)


def test_dist_zero_iff_member():
    box = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    inside, outside = pt(1, 1), pt(2, 0)
    assert dist_to_polyhedron(inside, box)[0] == 0
    assert dist_to_polyhedron(outside, box)[0] > 0
    assert box.contains(inside) and not box.contains(outside)


def test_dist_of_a_member_runs_no_lp(monkeypatch):
    from hyperball import lp

    calls, real = [], lp._solve
    monkeypatch.setattr(lp, "_solve", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    square = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    for member in (pt(F(1, 2), F(1, 3)), pt(1, F(1, 2))):  # interior, boundary
        assert dist_to_polyhedron(member, square) == (0, member)
        assert square.dist(member) == 0 and square.nearest(member) == member
    assert not calls
    assert dist_to_polyhedron(pt(3, 3), square) == (2, pt(1, 1))  # the unique nearest point
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_contains_on_integer_rows_matches_fractions(seed):
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    dim = rng.randint(0, 3)
    p = HPolyhedron(dim, tuple(
        (tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)),
         F(rng.randint(-4, 4), 3))
        for _ in range(rng.randint(0, 4))
    ))
    x = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
    assert p.contains(x) == all(sum(c * v for c, v in zip(a, x)) <= b for a, b in p.rows)


def test_empty_polyhedron_has_no_window():
    for empty in (HPolyhedron(0, rows(((), -1))), HPolyhedron(1, rows(((1,), 0), ((-1,), -1)))):
        with pytest.raises(EmptySet):
            empty.window()
    assert HPolyhedron(0, rows(((), 0))).window() == Box((), ())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_dist_agrees_with_box_clamp(seed):
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    dim = rng.randint(1, 3)
    lo = tuple(Fraction(rng.randint(-6, 2)) for _ in range(dim))
    hi = tuple(l + Fraction(rng.randint(0, 6)) for l in lo)
    box = Box(lo, hi)
    x = tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(dim))
    d, _ = dist_to_polyhedron(x, box_to_polyhedron(box))
    assert d == box.dist(x)


def test_minimize_and_bounds():
    box = box_to_polyhedron(Box(pt(-1, 2), pt(3, 5)))
    status, value, point_ = lp_minimize([1, 0], box)
    assert status == "optimal" and value == -1
    assert polyhedron_coordinate_bounds(box, 0) == (-1, 3)
    lo, hi = polyhedron_coordinate_bounds(halfspace([1, 0], 7), 0)
    assert lo is None and hi == 7
    whole_plane = HPolyhedron(2, ())
    assert lp_minimize([1, 0], whole_plane) == ("unbounded", None)
    assert lp_minimize([0, 0], whole_plane) == ("optimal", 0, pt(0, 0))


def test_minimize_infeasible_certificate():
    p = HPolyhedron(1, rows(((1,), -1), ((-1,), 0)))
    outcome = lp_minimize([1], p)
    assert outcome[0] == "infeasible"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_minimize_routes_agree(seed):
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    dim = rng.randint(1, 3)
    lo = tuple(Fraction(rng.randint(-5, 0)) for _ in range(dim))
    hi = tuple(l + Fraction(rng.randint(0, 7)) for l in lo)
    p = box_to_polyhedron(Box(lo, hi))
    extra = tuple(
        (
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)),
            Fraction(rng.randint(0, 9)),
        )
        for _ in range(rng.randint(0, 2))
    )
    p = HPolyhedron(dim, p.rows + extra)
    c = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
    fm = fm_minimize(c, p.rows, dim)
    sx = lp_minimize(c, p)
    assert fm[0] == sx[0]
    if fm[0] == "optimal":
        assert fm[1] == sx[1]


def _planted(seed: int, d: int, m: int, kind: str):
    """A system of m rows in dim d whose answer is known by construction.

    feasible: every row holds at a planted point x0.  infeasible: a group of
    rows whose normals sum to zero and whose bounds sum below zero.  optimal:
    the objective is minus a positive combination of rows tight at x0, so x0
    attains the minimum by weak duality.  unbounded: every row has
    a . dvec <= 0 and the objective is -dvec.
    """
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    x0 = [F(rng.randint(-6, 6), 2) for _ in range(d)]

    def dot(a, x):
        return sum(u * v for u, v in zip(a, x))

    def normal():
        while True:
            a = [F(rng.randint(-4, 4)) for _ in range(d)]
            if any(a):
                return a

    def loose(a):
        return tuple(a), dot(a, x0) + rng.randint(0, 5)

    objective = value = None
    if kind == "infeasible":
        size = rng.randint(2, 4)
        while True:
            group = [normal() for _ in range(size - 1)]
            last = [-sum(a[k] for a in group) for k in range(d)]
            if any(last):
                break
        bounds = [F(rng.randint(-5, 5)) for _ in range(size)]
        bounds[-1] -= sum(bounds) + rng.randint(1, 4)
        rows = [(tuple(a), b) for a, b in zip(group + [last], bounds)]
        rows += [loose(normal()) for _ in range(m - size)]
    elif kind == "unbounded":
        dvec = [rng.randint(-2, 2) for _ in range(d)]
        if not any(dvec):
            dvec[0] = 1
        rows = []
        for _ in range(m):
            a = normal()
            rows.append(loose([-c for c in a] if dot(a, dvec) > 0 else a))
        objective = tuple(F(-v) for v in dvec)
    else:
        tight = min(m, d) if kind == "optimal" else 0
        rows = [(tuple(a), dot(a, x0)) if i < tight else loose(a)
                for i, a in enumerate(normal() for _ in range(m))]
        if kind == "optimal":
            mu = [rng.randint(1, 3) for _ in range(tight)]
            objective = tuple(-sum(mu[i] * rows[i][0][k] for i in range(tight))
                              for k in range(d))
            value = dot(objective, x0)
    order = sorted(range(m), key=lambda i: rng.randint(0, 1 << 30))
    return HPolyhedron(d, tuple(rows[i] for i in order)), objective, value


PLANTED_SHAPES = [(5, 12)] + [(d, m) for d in range(4, 9) for m in (8, 14, 20)]


@pytest.mark.parametrize("kind", ["feasible", "infeasible", "optimal", "unbounded"])
def test_planted_systems_beyond_fm_reach(kind):
    for seed, (d, m) in enumerate(PLANTED_SHAPES * 2):
        p, objective, value = _planted(seed, d, m, kind)
        label = (seed, d, m)
        if kind in ("feasible", "infeasible"):
            result = lp_feasible(p)
            assert result.feasible == (kind == "feasible"), label
            if result.feasible:
                assert p.contains(result.witness), label
            else:
                lam = result.certificate["farkas"]
                assert all(l >= 0 for l in lam), label
                assert all(sum(l * a[k] for l, (a, _) in zip(lam, p.rows)) == 0
                           for k in range(d)), label
                assert sum(l * b for l, (_, b) in zip(lam, p.rows)) < 0, label
        else:
            outcome = lp_minimize(objective, p)
            assert outcome[0] == kind, label
            if kind == "optimal":
                assert outcome[1] == value, label
                assert sum(c * v for c, v in zip(objective, outcome[2])) == value, label
                assert p.contains(outcome[2]), label


def test_tampered_dual_and_ray_are_rejected(monkeypatch):
    from hyperball import lp

    box = box_to_polyhedron(Box(pt(-1, 2), pt(3, 5)))
    rows_ = box._integer_rows
    c = (1, 0)
    tab = lp._Tableau(rows_, 2, c)
    assert tab.phase1() is None and tab.phase2() is None
    x, D, y = tab.point(), tab.D, tab.duals()
    lp._verify_witness(rows_, x, D)
    lp._verify_dual(rows_, c, y, D, x)
    low = [x[0] - D, x[1]]  # the point (-2, 2): below the optimum, outside the box
    for bad_y, bad_x in [
        ((y[0] + 1,) + y[1:], x),         # y.A' no longer equals -D.c'
        (y, low),                         # bound below the optimum
        (tuple(-v for v in y), [D, x[1]]),  # negative multipliers
    ]:
        with pytest.raises(lp.LPKernelError):
            lp._verify_dual(rows_, c, bad_y, D, bad_x)
    for bad_x, bad_D in [
        (low, D),                   # a tampered witness
        ([-v for v in x], -D),      # the same point over a negative D
        ([0, 0], 0),                # D = 0 makes every row read 0 <= 0
    ]:
        with pytest.raises(lp.LPKernelError):
            lp._verify_witness(rows_, bad_x, bad_D)

    hs = halfspace([1, 0], 7)
    tab = lp._Tableau(hs._integer_rows, 2, c)
    assert tab.phase1() is None
    ray = tab.phase2()
    lp._verify_ray(hs._integer_rows, c, ray)
    for bad_ray in [tuple(-v for v in ray), (0, 1)]:
        with pytest.raises(lp.LPKernelError):
            lp._verify_ray(hs._integer_rows, c, bad_ray)

    empty = HPolyhedron(1, rows(((1,), 0), ((-1,), -1)))
    tab = lp._Tableau(empty._integer_rows, 1)
    lam = tab.phase1()
    lp._verify_farkas(empty._integer_rows, lam, tab.D)
    for bad_lam, bad_D in [
        ((lam[0] + 1, lam[1]), tab.D),  # the combination no longer vanishes
        ((0, 0), tab.D),                # 0 <= 0 is no contradiction
        ((-lam[0], -lam[1]), tab.D),    # negative multipliers
        (lam[:1], tab.D),               # not one multiplier per row
        (lam, -tab.D),                  # read out as negative multipliers
    ]:
        with pytest.raises(lp.LPKernelError):
            lp._verify_farkas(empty._integer_rows, bad_lam, bad_D)

    monkeypatch.setattr(lp._Tableau, "duals", lambda self: (0,) * len(self.T))
    with pytest.raises(lp.LPKernelError):
        lp_minimize(c, box)
    monkeypatch.setattr(lp._Tableau, "phase2", lambda self: (1, 0))
    with pytest.raises(lp.LPKernelError):
        lp_minimize(c, hs)
    monkeypatch.setattr(lp._Tableau, "point", lambda self: [7 * self.D, 0])
    with pytest.raises(lp.LPKernelError):
        lp_feasible(box)
    # A certificate that leans on the distance LP's linking rows proves
    # nothing about the polyhedron itself.
    monkeypatch.setattr(lp._Tableau, "phase1", lambda self: (0,) * 4 + (1,) * 4)
    with pytest.raises(lp.LPKernelError):
        dist_to_polyhedron(pt(9, 9), box)
    monkeypatch.setattr(lp._Tableau, "phase1", lambda self: (1,) * len(self.T))
    with pytest.raises(lp.LPKernelError):
        lp_feasible(box)


def test_cached_integer_rows_survive_every_entry_point():
    import dataclasses

    from hyperball import io, lp

    p = HPolyhedron(2, rows(
        ((1, F(1, 2)), F(7, 3)), ((-1, 0), F(5, 4)), ((0, -1), 3), ((F(-2, 3), 1), F(1, 6)),
    ))
    twin = HPolyhedron(p.dim, p.rows)
    before = (hash(p), io.to_jsonable(p), repr(p))
    cached = p._integer_rows
    assert not {"_integer_rows", "_pieces", "_window", "_extent"} & {f.name for f in dataclasses.fields(p)}

    def queries(i):
        ball = Ball(pt(F(i, 3), -1), F(i + 1, 2))
        return (
            lp_feasible(p), lp_feasible(p, [ball]),
            lp_minimize([1, -i], p), lp_minimize([-1, F(1, i + 1)], p, [ball]),
            polyhedron_coordinate_bounds(p, i % 2), dist_to_polyhedron(pt(i, -i), p),
            p.dist(pt(-i, i)), p.window(),
        )

    first = [queries(i) for i in range(12)]
    assert [queries(i) for i in range(12)] == first
    assert p._integer_rows is cached
    assert cached == tuple(lp._integer_row(a, b) for a, b in p.rows)
    assert p == twin and hash(p) == hash(twin)
    assert (hash(p), io.to_jsonable(p), repr(p)) == before


def _outcome(solve, *args, **kwargs):
    """A kernel outcome, or the exception it raised, for comparison."""
    try:
        return solve(*args, **kwargs)
    except Exception as exc:  # the reference must raise the same
        return type(exc).__name__, str(exc)


def _degenerate(seed: int):
    """Up to 8 small rows in dims 0-4 with zero rows, equalities (a row and
    its negation) and scaled duplicates, and an objective or None."""
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    d = rng.randint(0, 4)
    out = []
    for _ in range(rng.randint(0, 8)):
        a, b = tuple(F(rng.randint(-2, 2)) for _ in range(d)), F(rng.randint(-3, 3))
        kind = rng.randint(0, 3)
        a = (F(0),) * d if kind == 0 else a
        out.append((a, b))
        if kind == 1:
            out.append((tuple(-v for v in a), -b))
        elif kind == 2:
            k = rng.randint(2, 3)
            out.append((tuple(k * v for v in a), k * b))
    objective = None if rng.randint(0, 2) == 0 else tuple(F(rng.randint(-2, 2)) for _ in range(d))
    return HPolyhedron(d, tuple(out)), objective


# Every lp-distinct cell: dims 2-6, 2-14 rows, four kinds.
LP_DISTINCT_CELLS = [(d, m, kind) for d in range(2, 7) for m in range(2, 15, 2)
                     for kind in ("feasible", "infeasible", "optimal", "unbounded")]


def test_kernel_matches_the_dense_reference(monkeypatch):
    """Status, point, optimum, multipliers and exceptions equal those of the
    dense tableau, which stores every column."""
    import dense_reference
    from hyperball import lp
    from hyperball.rng import SplitMix64

    systems = [_planted(seed, d, m, kind) for seed in range(2)
               for d, m, kind in LP_DISTINCT_CELLS]
    systems += [_degenerate(seed) + (None,) for seed in range(400)]
    statuses = set()
    for p, objective, _ in systems:
        args = (p._integer_rows, p.dim, objective)
        outcome = _outcome(lp._solve, *args)
        assert outcome == _outcome(dense_reference._solve, *args), (p, objective)
        statuses.add(outcome[0])
    assert statuses == {"witness", "infeasible", "optimal", "unbounded"}

    # Distance LPs and ball rows: every kernel call the entry points make.
    calls, real = [], lp._solve

    def solve(*args, **kwargs):
        calls.append((args, kwargs, _outcome(real, *args, **kwargs)))
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "_solve", solve)
    for seed in range(150):
        rng = SplitMix64(seed)
        p, objective = _degenerate(seed)
        x = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(p.dim))
        ball = Ball(x, F(rng.randint(0, 6), 2))
        for query in (lambda: dist_to_polyhedron(x, p), lambda: lp_feasible(p, [ball]),
                      lambda: lp_minimize(objective or (0,) * p.dim, p, [ball])):
            _outcome(query)
    assert len(calls) > 300
    for args, kwargs, outcome in calls:
        assert outcome == _outcome(dense_reference._solve, *args, **kwargs), args


def test_stored_rows_hold_only_nonbasic_columns(monkeypatch):
    """A row stores dim + (rows with b < 0) columns and the right-hand side
    at set-up, never more, and never a basic variable's column."""
    from hyperball import lp

    pivots, real = [0], lp._Tableau._pivot

    def check(tab, width):
        assert len(tab.cols) + 1 <= width and not set(tab.cols) & set(tab.basis)
        for row in tab.T + ([tab.cost] if tab.cost else []):
            assert len(row) == len(tab.cols) + 1

    def pivot(self, *args):
        real(self, *args)
        pivots[0] += 1
        check(self, width)

    monkeypatch.setattr(lp._Tableau, "_pivot", pivot)
    for seed, (d, m, kind) in enumerate(LP_DISTINCT_CELLS):
        p, objective, _ = _planted(seed, d, m, kind)
        rows_ = p._integer_rows
        c = None if objective is None else lp._integer_row(objective, 0)[1]
        tab = lp._Tableau(rows_, d, c)
        width = d + sum(b < 0 for _, _, b in rows_) + 1
        assert all(len(row) == width for row in tab.T)
        check(tab, width)
        if tab.phase1() is None and c is not None:
            tab.phase2()
    assert pivots[0] > 500


def test_joined_polyhedra_scale_only_uncached_rows(monkeypatch):
    """helly_order_check, intersect and pair_witness join the parts' cached
    integer rows instead of scaling every row of every join again."""
    from hyperball import lp
    from hyperball.lab import helly_counterexample, helly_order_check
    from hyperball.sets import BoxUnion, pair_witness

    scaled, real = [0], lp._integer_row

    def integer_row(a, b):
        scaled[0] += 1
        return real(a, b)

    sets_ = [HPolyhedron(h.dim, h.rows) for h in helly_counterexample(6).halfspaces]
    monkeypatch.setattr(lp, "_integer_row", integer_row)
    assert helly_order_check(sets_, 6).refuted
    assert scaled[0] == 7  # one row per set; 7 * 6 + 7 = 49 when every join scaled its rows
    p = HPolyhedron(2, rows(((1, 1), 3), ((1, -1), 1), ((-1, 0), 2)))
    scaled[0] = 0
    assert lp_feasible(p.intersect(Box(pt(0, 0), pt(1, 1)))).feasible
    assert scaled[0] == 3 + 4
    union = BoxUnion((Box(pt(5, 5), pt(6, 6)), Box(pt(0, 0), pt(1, 1))))
    for first, second in ((p, union), (union, p)):
        scaled[0] = 0
        assert pair_witness(first, second) is not None
        assert scaled[0] == 0  # two box searches: cached rows plus integer box rows


# ---------------------------------------------------------------------------
# Kept distance pieces: HPolyhedron.dist answers from a checked optimal basis
# of an earlier distance LP, or solves one.


def _solves(monkeypatch):
    """The keyword arguments of every kernel call from now on."""
    from hyperball import lp

    calls, real = [], lp._solve
    monkeypatch.setattr(lp, "_solve", lambda *args, **kw: calls.append(kw) or real(*args, **kw))
    return calls


def _lp_repeat(monkeypatch, seed):
    """The lp-repeat workload of bench/workloads.py, with its polyhedron pool."""
    import pathlib

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    from workloads import LPRepeat

    return LPRepeat(seed=seed, smoke=False)


def _piece_corpus(workload):
    """Polyhedra in dims 0-3 with zero-coefficient rows, flat ones (a row
    and its opposite), boxes and the lp-repeat pool, each with query points
    inside and outside, some of them repeated."""
    from hyperball.rng import SplitMix64

    polys = [HPolyhedron(0, ()), HPolyhedron(0, rows(((), 2))),
             HPolyhedron(1, rows(((0,), 1), ((2,), 3), ((-1,), F(1, 2)))),
             HPolyhedron(2, rows(((1, -1), 1), ((-1, 1), -1))),  # the line x - y = 1
             HPolyhedron(3, rows(((0, 0, 0), 0), ((1, 1, 1), 2), ((-1, -1, -1), -2),
                                 ((0, 1, 0), 1))),  # a flat strip of a plane
             box_to_polyhedron(Box(pt(0, F(1, 3), -1), pt(1, 1, F(5, 2)))),
             *workload.pool, *workload.boxes]
    rng = SplitMix64(17)
    for i in range(40):
        d = rng.randint(1, 3)
        polys.append(HPolyhedron(d, tuple(
            (tuple(F(rng.randint(-3, 3)) for _ in range(d)), F(rng.randint(-2, 8), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 5)))))
    out = []
    for p in polys:
        points = [tuple(F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(p.dim))
                  for _ in range(12)]
        witness = p.witness()
        if witness is not None:
            points.append(witness)
        out.append((p, points + points[::3]))
    return out


def test_kept_distances_equal_fresh_lps_on_fresh_and_warm_polyhedra(monkeypatch):
    import random

    rng = random.Random(5)
    for p, points in _piece_corpus(_lp_repeat(monkeypatch, 3)):
        for q in (p, p, HPolyhedron(p.dim, p.rows)):  # cold, warm, then a fresh copy
            rng.shuffle(points)
            for x in points:
                try:
                    expected = dist_to_polyhedron(x, p)[0]
                except EmptySet:
                    with pytest.raises(EmptySet):
                        q.dist(x)
                    continue
                assert q.dist(x) == expected, (p, x)


def test_kept_distances_beyond_float_range_are_exact(monkeypatch):
    """Kept pieces are ranked in integers, so a point or a dual bound that no
    float holds is ranked like any other: the far quarter-plane keeps its
    piece, and a second far point on it is answered with no LP.  (A
    half-plane keeps none: its distance is a closed form.)"""
    big = F(10**400)
    square = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    far = HPolyhedron(2, rows(((1, 0), big), ((0, 1), big)))
    for p, x in ((square, pt(big, 0)), (square, pt(-big / 3, big)), (square, pt(1 / big, -3)),
                 (far, pt(10 * big, 0))):
        assert p.dist(x) == dist_to_polyhedron(x, p)[0], x
    assert square._pieces and len(far._pieces) == 1
    solves = _solves(monkeypatch)
    for x in (pt(10 * big, 1), pt(7 * big, -3)):
        assert far.dist(x) == x[0] - big
    assert not solves and len(far._pieces) == 1


def test_half_space_distances_and_box_searches_are_closed_forms(monkeypatch):
    """On a seeded corpus of one-row polyhedra with a non-zero normal (dims
    1-4, rational rows), the distance to each of 12 points equals
    ``dist_to_polyhedron``'s, and the box search around each point agrees
    with ``lp_feasible``: the LP's witness where they meet, else Farkas
    multipliers on the row and the box's rows that combine to 0 <= b < 0.
    No distance keeps a piece or runs an LP."""
    from hyperball.rng import SplitMix64
    from hyperball.sets import subset_witness_in_box

    rng, outcomes = SplitMix64(41), set()
    for _ in range(80):
        d = rng.randint(1, 4)
        a = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        if not any(a):
            continue
        h = HPolyhedron(d, rows((a, F(rng.randint(-6, 6), rng.randint(1, 4)))))
        for _ in range(12):
            x = tuple(F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(d))
            box = Box(x, tuple(v + F(rng.randint(0, 6), rng.randint(1, 3)) for v in x))
            expected, lp_result = dist_to_polyhedron(x, h)[0], lp_feasible(h, (box,))
            solves = _solves(monkeypatch)
            assert h.dist(x) == expected and not solves and not h._pieces, (h, x)
            result = subset_witness_in_box(h, box)
            assert result.feasible == lp_result.feasible, (h, box)
            if result.feasible:
                assert result.witness == lp_result.witness
            else:
                y = result.certificate["farkas"]
                system = h.rows + box_to_polyhedron(box).rows
                assert len(y) == len(system) and min(y) >= 0
                assert all(sum(v * r[0][k] for v, r in zip(y, system)) == 0 for k in range(d))
                assert sum(v * r[1] for v, r in zip(y, system)) < 0
            monkeypatch.undo()
            outcomes.add((expected > 0, result.feasible))
    assert outcomes == {(True, True), (True, False), (False, True)}


def test_a_warm_polyhedron_answers_repeat_queries_without_an_lp(monkeypatch):
    corpus = [(p, points) for p, points in _piece_corpus(_lp_repeat(monkeypatch, 3))
              if p.witness() is not None]
    first = [[p.dist(x) for x in points] for p, points in corpus]
    solves = _solves(monkeypatch)
    assert [[p.dist(x) for x in points[::-1]] for p, points in corpus] == [f[::-1] for f in first]
    assert not solves


@pytest.mark.parametrize("poly", [
    HPolyhedron(0, rows(((), -1))),
    HPolyhedron(2, rows(((1, 0), 0), ((-1, 0), -1))),
    HPolyhedron(3, rows(((0, 0, 0), -1))),
])
def test_dist_to_an_empty_polyhedron_raises_with_farkas_on_its_rows_every_time(poly, monkeypatch):
    from hyperball import lp

    checked, real = [], lp._verify_farkas
    monkeypatch.setattr(lp, "_verify_farkas", lambda rows, *args: checked.append(rows) or real(rows, *args))
    for x in (pt(*[0] * poly.dim), pt(*[3] * poly.dim)) * 2:
        with pytest.raises(EmptySet, match="^polyhedron is empty$"):
            poly.dist(x)
    assert checked == [poly._integer_rows] * 4 and not poly._pieces


@pytest.mark.parametrize("corrupt", [
    lambda W, y, D, bound: (W, [v + (i == y.index(max(y))) for i, v in enumerate(y)], D, bound),
    lambda W, y, D, bound: ([[v + 1 for v in W[0]], *W[1:]], y, D, bound),  # the radius
    lambda W, y, D, bound: ([W[0], [v + 5 * D for v in W[1]], *W[2:]], y, D, bound),  # a_0
    lambda W, y, D, bound: (W, y, D + 1, bound),
    lambda W, y, D, bound: (W, y, -D, bound),
], ids=["dual", "radius", "vertex", "denominator", "sign"])
def test_a_corrupt_piece_never_changes_an_answer(corrupt, monkeypatch):
    from hyperball import lp

    for p in (box_to_polyhedron(Box(pt(0, 0), pt(1, 1))), HPolyhedron(3, rows(
            ((1, 1, 0), 2), ((-1, 0, 1), 1), ((0, -1, -1), 1), ((1, -2, 1), 3)))):
        x = pt(*[F(7, 2), F(-5, 3), 4][:p.dim])
        expected = dist_to_polyhedron(x, p)[0]
        assert p.dist(x) == expected and len(p._pieces) == 1
        piece, = p._pieces
        p.__dict__["_pieces"] = (corrupt(*piece),)
        solves = _solves(monkeypatch)
        assert p.dist(x) == expected
        assert len(solves) == 1 and solves[0]["basis"]  # the corrupt piece was refused
        assert p._pieces == (corrupt(*piece), piece)  # the LP's piece is kept after it
        monkeypatch.undo()


def _fresh_piece(p, params):
    """(W, y, D) of the distance LP's optimal basis at the point X/q, params
    (q, X), built as `_dist_at` keeps it."""
    from hyperball import lp

    rows_ = lp._distance_rows(p, [(1, v) for v in params[1:]], params[0])
    _, _, _, (rates, y, D) = lp._distance_lp(p, rows_, basis=True)
    return [lp._per_parameter(p, [rate[i] for rate in rates]) for i in range(p.dim + 1)], y, D


def _generic_vertex(p, params, W, y, D):
    """The vertex W.params if the generic witness and dual checks pass on
    the distance LP's rows at the point, else None."""
    from hyperball import lp

    rows_ = lp._distance_rows(p, [(1, v) for v in params[1:]], params[0])
    w = [lp._dot(row, params) for row in W]
    try:
        lp._verify_witness(rows_, w, D)
        lp._verify_dual(rows_, (1,) + (0,) * p.dim, y, D, w)
    except lp.LPKernelError:
        return None
    return w


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_a_piece_passes_in_place_exactly_when_it_passes_the_generic_checks(seed):
    from hyperball import lp
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    d = rng.randint(1, 3)
    p = HPolyhedron(d, tuple(
        (tuple(F(rng.randint(-3, 3)) for _ in range(d)), F(rng.randint(-4, 8), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 5))) + rows(*[((0,) * d, 0)] * rng.randint(0, 1)))

    def point():
        return tuple(F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(d))

    def params_of(x):
        q, X = lp._common_denominator(x)
        return (q, *X)

    # A piece solved inside p has r = 0 there, where only the count of the
    # linking multipliers tells a doubled y from the LP's.
    witness = p.witness()
    at = witness if witness is not None and rng.randint(0, 3) == 0 else point()
    solved = params_of(at)
    try:
        W, y, D = _fresh_piece(p, solved)
    except EmptySet:
        return
    i, k = rng.randint(0, d), rng.randint(0, d)
    j = rng.randint(0, len(y) - 1)
    pieces = [
        (W, y, D),
        ([[v + (r == i and c == k) * rng.choice([-1, 1]) for c, v in enumerate(row)]
          for r, row in enumerate(W)], y, D),  # one W entry
        (W, tuple(v + (c == j) * rng.choice([-1, 1]) for c, v in enumerate(y)), D),  # one y entry
        (W, y, D + 1),
        (W, y, -D),
        (W, tuple(2 * v for v in y), D),
    ]
    nearby = tuple(v + F(rng.randint(-2, 2), 8) for v in at)
    params = [solved, (3 * solved[0], *(3 * v for v in solved[1:]))]
    params += [params_of(x) for x in (nearby, point(), point(), point())]
    assert lp._piece_vertex(p, solved, W, y, D) == _generic_vertex(p, solved, W, y, D) is not None
    for piece in pieces:
        for at_params in params:
            assert lp._piece_vertex(p, at_params, *piece) == _generic_vertex(p, at_params, *piece), (
                p, at_params, piece)


def test_a_dim_0_polyhedron_keeps_no_piece():
    """Its distance is 0 or it is empty, so no distance LP keeps a basis, and
    the in-place pass refuses even the piece of its LP's one row r >= 0."""
    from hyperball import lp

    for p, empty in ((HPolyhedron(0, ()), False), (HPolyhedron(0, rows(((), 2))), False),
                     (HPolyhedron(0, rows(((), -1))), True)):
        for _ in range(2):
            if empty:
                with pytest.raises(EmptySet):
                    p.dist(())
                with pytest.raises(EmptySet):
                    p.dists_along((), (), 4, range(5))
            else:
                assert p.dist(()) == 0
                assert p.dists_along((), (), 4, range(5)) == dict.fromkeys(range(5), 0)
        assert not p._pieces
    assert lp._piece_vertex(HPolyhedron(0, ()), (1,), [[0]], (1,), 1) is None


def test_the_zero_piece_passes_exactly_at_the_points_of_the_polyhedron(monkeypatch):
    """p's zero piece (r = 0, a = x) passes the in-place checks exactly where
    `contains` holds, with dual bound 0, and a point of p is answered with it."""
    from hyperball import lp
    from hyperball.rng import SplitMix64

    rng = SplitMix64(23)
    polys = [*_lp_repeat(monkeypatch, 1).pool, box_to_polyhedron(Box(pt(0, 0), pt(1, 1))),
             HPolyhedron(1, rows(((2,), 3), ((-1,), F(1, 2)))), HPolyhedron(2, ())]
    for p in polys:
        W, y, D, g = p._zero_piece
        assert g == lp._per_parameter(p, y) == [0] * (p.dim + 1)
        points = [p.witness(), *(tuple(F(rng.randint(-30, 30), rng.randint(1, 4))
                                       for _ in range(p.dim)) for _ in range(60))]
        verdicts = set()
        for x in points:
            q, X = lp._common_denominator(x)
            inside = p.contains(x)
            w = lp._piece_vertex(p, (q, *X), W, y, D)
            assert w == ([0, *(D * v for v in X)] if inside else None), (p, x)
            if inside:
                assert lp._dist_at(p, q, X) == (0, p._zero_piece)
            verdicts.add(inside)
        assert verdicts == ({True} if not p.rows else {True, False}), p


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_kept_pieces_are_ranked_exactly_newest_first(seed):
    """`_best_bounds` returns the pieces whose dual bound -g.(q, X)/(D.q) is
    the largest, newest first, as a `Fraction` reference does: also on exact
    ties between different (g, D) and at points beyond float range."""
    from hyperball import lp
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    d = rng.randint(1, 3)
    pieces = []
    for i in range(rng.randint(0, 12)):
        if pieces and rng.randint(0, 2) == 0:  # an exact tie: a multiple of an earlier piece
            _, _, D, g = pieces[rng.randint(0, len(pieces) - 1)]
            k = rng.randint(1, 3)
            D, g = k * D, [k * v for v in g]
        else:
            D, g = rng.randint(1, 4), [rng.randint(-3, 3) for _ in range(d + 1)]
        pieces.append((f"W{i}", f"y{i}", D, g))
    params = (rng.randint(1, 4), *(rng.randint(-5, 5) for _ in range(d)))
    if rng.randint(0, 3) == 0:
        params = (params[0], *(v * 10**400 for v in params[1:]))
    bounds = [Fraction(-sum(a * b for a, b in zip(g, params)), D * params[0])
              for _, _, D, g in pieces]
    top = max(bounds, default=None)
    expected = [piece for piece, bound in reversed(list(zip(pieces, bounds))) if bound == top]
    assert lp._best_bounds(pieces, params) == expected


@pytest.mark.parametrize("corrupt", ["per-parameter", "rates"])
def test_a_fresh_piece_that_fails_at_its_own_point_is_a_kernel_bug(corrupt, monkeypatch):
    """W comes from the tableau's rates; one that disagrees with the LP's own
    checked vertex raises, and the piece is not kept."""
    from hyperball import lp

    if corrupt == "rates":
        real_rates = lp._Tableau.rates
        monkeypatch.setattr(lp._Tableau, "rates",
                            lambda self: [[v + 1 for v in rate] for rate in real_rates(self)])
    else:
        real_per = lp._per_parameter
        monkeypatch.setattr(lp, "_per_parameter", lambda p, values: [v + 1 for v in real_per(p, values)])
    square = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    assert square.dist(pt(F(1, 2), 1)) == 0  # a point of p needs no LP
    with pytest.raises(lp.LPKernelError, match="^fresh distance piece fails"):
        square.dist(pt(3, F(1, 2)))
    assert not square._pieces
    assert dist_to_polyhedron(pt(3, F(1, 2)), square)[0] == 2  # the nearest point reads no rates


def test_kept_pieces_stay_within_the_cap(monkeypatch):
    import random

    from hyperball import lp

    box3 = _lp_repeat(monkeypatch, 1).boxes[1]  # the 3-d pool box
    rng = random.Random(2)
    points = [tuple(F(rng.randint(-200, 200), 16) for _ in range(3)) for _ in range(600)]
    for cap in (lp._PIECE_CAP, 5):
        monkeypatch.setattr(lp, "_PIECE_CAP", cap)
        p = HPolyhedron(box3.dim, box3.rows)
        for x in points:
            assert p.dist(x) == dist_to_polyhedron(x, p)[0]
            assert len(p._pieces) <= cap
    assert len(p._pieces) == 5


def test_a_store_never_holds_one_piece_twice(monkeypatch):
    """A fresh LP runs only where no kept piece passes, so its piece is never
    one the store holds already: over the segments of ten lp-repeat blocks
    and seeded points in its boxes, no store holds two equal (W, y, D)."""
    from hyperball import lp
    from hyperball.convexity import distance_convexity_check

    workload, real_dist_at, fresh = _lp_repeat(monkeypatch, 1), lp._dist_at, []

    def dist_at(p, q, X):
        count = len(p._pieces)
        answer = real_dist_at(p, q, X)
        kept = [(tuple(map(tuple, W)), tuple(y), D) for W, y, D, _ in p._pieces]
        assert len(set(kept)) == len(kept)
        fresh.append(len(p._pieces) - count)
        return answer

    monkeypatch.setattr(lp, "_dist_at", dist_at)
    for block in range(10):
        rng = workload.rng(block)
        for poly in workload.pool:
            x, y = (tuple(F(rng.randint(-80, 80), 8) for _ in range(poly.dim)) for _ in range(2))
            distance_convexity_check(poly, x, y)
        for poly in workload.boxes:
            for _ in range(8):
                x = tuple(F(rng.randint(-200, 200), 16) for _ in range(poly.dim))
                assert poly.dist(x) == dist_to_polyhedron(x, poly)[0]
    assert sum(fresh) > 50  # many fresh pieces were kept, each checked against the store


def test_replaying_a_block_of_pool_segments_runs_no_lp(monkeypatch):
    from hyperball import lp
    from hyperball.convexity import distance_convexity_check

    workload = _lp_repeat(monkeypatch, 11)
    rng = workload.rng(0)  # block 0's segments, drawn as the workload draws them
    segments = [(poly, tuple(F(rng.randint(-80, 80), 8) for _ in range(poly.dim)),
                 tuple(F(rng.randint(-80, 80), 8) for _ in range(poly.dim)))
                for poly in workload.pool]
    solves, built, real_rows = _solves(monkeypatch), [], lp._distance_rows
    monkeypatch.setattr(lp, "_distance_rows", lambda *args: built.append(args) or real_rows(*args))
    first = [distance_convexity_check(*segment) for segment in segments]
    assert solves and built  # a cold pool builds the LP's rows and solves its pieces
    del solves[:], built[:]
    assert [distance_convexity_check(*segment) for segment in segments] == first
    assert not solves and not built  # a hit is checked without building the rows


def test_the_window_is_computed_once_and_an_empty_one_raises_every_time(monkeypatch):
    p = HPolyhedron(2, rows(((1, 1), 3), ((-1, 0), 0), ((0, -1), 1)))
    solves = _solves(monkeypatch)
    window = p.window()
    assert window == Box(pt(0, -1), pt(4, 3)) and len(solves) == 4
    assert p.window() is window and len(solves) == 4
    for empty in (HPolyhedron(0, rows(((), -1))), HPolyhedron(1, rows(((1,), 0), ((-1,), -1)))):
        for _ in range(3):
            with pytest.raises(EmptySet):
                empty.window()


def test_threads_sharing_a_polyhedron_get_exact_distances():
    """Queries from more threads than cores on one cold polyhedron, with a
    short switch interval: each answer equals a fresh LP's, none raises,
    and the kept pieces stay within the cap."""
    import sys
    import threading

    from hyperball import lp

    p = box_to_polyhedron(Box(pt(0, F(1, 3), -1), pt(1, 1, F(5, 2))))
    points = [pt(F(i % 7 - 3, 2), F(i % 5 - 2, 3), F(i % 11 - 5, 4)) for i in range(120)]
    expected = [dist_to_polyhedron(x, p)[0] for x in points]
    shared = HPolyhedron(p.dim, p.rows)
    answers, errors = {}, []

    def work(t):
        try:
            for i in range(t, len(points) + t):
                answers[t, i % len(points)] = shared.dist(points[i % len(points)])
        except Exception as exc:  # reported below, with the thread that raised it
            errors.append((t, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert all(answers[t, i] == expected[i] for t in range(6) for i in range(len(points)))
    assert 0 < len(shared._pieces) <= lp._PIECE_CAP
