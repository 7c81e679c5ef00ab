from fractions import Fraction

import pytest

from hyperball import lp
from hyperball.convexity import PointNotInSet, distance_convexity_check, sigma_convexity_check
from hyperball.lab import BoxUnion, helly_counterexample
from hyperball.linf import Box, ParamOutOfRange, sigma
from hyperball.lp import EmptySet, HPolyhedron, box_to_polyhedron, dist_to_polyhedron, halfspace
from hyperball.rational import DYADIC_GRID_16
from hyperball.rng import SplitMix64, derive_seed

from conftest import F, pt

UNION = BoxUnion((Box(pt(0, 0), pt(1, 1)), Box(pt(3, 0), pt(4, 1))))


def test_halfspace_systems_are_sigma_convex():
    hs = halfspace([1, 1], -1)
    pairs = [(pt(-1, 0), pt(0, -1)), (pt(-2, -2), pt(-1, 0))]
    assert sigma_convexity_check(hs, pairs).holds


def test_union_fixture_is_refuted():
    pairs = [(pt(0, 0), pt(4, 1))]
    report = sigma_convexity_check(UNION, pairs)
    assert report.refuted
    assert "t" in report.certificate


def test_pairs_must_lie_in_set():
    with pytest.raises(PointNotInSet):
        sigma_convexity_check(UNION, [(pt(2, 0), pt(0, 0))])


def test_empty_grid_is_vacuous_with_warning():
    report = sigma_convexity_check(halfspace([1, 0], 0), [(pt(0, 0), pt(-1, 0))], grid=())
    assert report.holds and report.notes


def test_counterexample_halfspaces_pass_sampled_convexity():
    inst = helly_counterexample(3)
    for hs, w in zip(inst.halfspaces, reversed(inst.witnesses)):
        # pick two points of each set from the witness pool
        members = [v for v in inst.witnesses if hs.contains(v)]
        pairs = [(members[0], members[-1])]
        assert sigma_convexity_check(hs, pairs).holds


def test_distance_convexity_box_example():
    box = Box(pt(0, 0), pt(1, 1))
    grid = (F(0), F(1, 2), F(1))
    report = distance_convexity_check(box, pt(-2, 0), pt(2, 0), grid)
    assert report.holds
    # endpoint distances 2 and 1, midpoint 0: 0 <= (2 + 1) / 2


def test_distance_convexity_inside_is_constant_zero():
    box = Box(pt(0, 0), pt(4, 4))
    assert distance_convexity_check(box, pt(1, 1), pt(3, 3)).holds
    assert distance_convexity_check(box, pt(1, 1), pt(1, 1)).holds


def test_distance_convexity_needs_nonempty():
    empty = HPolyhedron(1, (((F(1),), F(0)), ((F(-1),), F(-1))))
    with pytest.raises(EmptySet):
        distance_convexity_check(empty, pt(0), pt(1))


def test_distance_convexity_random_polyhedra():
    for seed in range(15):
        rng = SplitMix64(seed)
        dim = rng.randint(2, 3)
        rows = tuple(
            (
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)),
                Fraction(rng.randint(0, 8)),
            )
            for _ in range(rng.randint(1, 4))
        )
        p = HPolyhedron(dim, rows)  # b >= 0 keeps the origin inside
        x = tuple(Fraction(rng.randint(-10, 10), 2) for _ in range(dim))
        y = tuple(Fraction(rng.randint(-10, 10), 2) for _ in range(dim))
        assert distance_convexity_check(p, x, y).holds


def test_distance_convexity_refutes_the_two_box_union():
    report = distance_convexity_check(UNION, pt(0, 0), pt(4, 0))
    assert report.refuted
    assert report.certificate == {"s": F(0), "t": F(11, 16), "d_s": F(0), "d_t": F(1, 4),
                                  "d_mid": F(3, 8)}
    assert all(type(v) is Fraction for v in report.certificate.values())


class _Spy:
    """A subset that counts the membership and distance questions put to it."""

    def __init__(self, inner):
        self.inner, self.asked = inner, 0

    def contains(self, p):
        self.asked += 1
        return self.inner.contains(p)

    def dist(self, p):
        self.asked += 1
        return self.inner.dist(p)


@pytest.mark.parametrize("late", [F(2), F(-1, 16)])
def test_grid_times_outside_the_unit_interval_raise_before_any_question(late, monkeypatch):
    # On the union a violation comes before the bad time, on the box none does:
    # both raise, and neither set is asked anything.
    grid = DYADIC_GRID_16 + (late,)
    for inner in (UNION, Box(pt(0, 0), pt(1, 1))):
        spy = _Spy(inner)
        with pytest.raises(ParamOutOfRange):
            distance_convexity_check(spy, pt(0, 0), pt(4, 0), grid)
        with pytest.raises(ParamOutOfRange):
            sigma_convexity_check(spy, [(pt(0, 0), pt(4, 1))], grid)
        assert spy.asked == 0
    solves = []
    monkeypatch.setattr(lp, "_solve", lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ParamOutOfRange):
        distance_convexity_check(box_to_polyhedron(Box(pt(0, 0), pt(1, 1))), pt(5, 0),
                                 pt(4, 0), grid)
    assert not solves


# Segment distances against one dist_to_polyhedron per grid time.

N = 32


def _assert_matches_per_point(poly, x, y):
    along = poly.dists_along(x, y, N, range(N + 1))
    assert along == {k: dist_to_polyhedron(sigma(x, y, F(k, N)), poly)[0] for k in range(N + 1)}


def test_segment_distances_match_per_point_lps_on_the_criterion_9_corpus():
    for i in range(200):
        rng = SplitMix64(derive_seed(91, i))
        dim = rng.randint(2, 3)
        rows = tuple(
            (tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)), Fraction(rng.randint(0, 8)))
            for _ in range(rng.randint(1, 4))
        )
        x = tuple(Fraction(rng.randint(-80, 80), 8) for _ in range(dim))
        y = tuple(Fraction(rng.randint(-80, 80), 8) for _ in range(dim))
        _assert_matches_per_point(HPolyhedron(dim, rows), x, y)


def test_segment_distances_match_per_point_lps_on_the_lp_repeat_pool(monkeypatch):
    import pathlib

    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from workloads import LPRepeat

    workload = LPRepeat(seed=1, smoke=False)
    for index in range(6):  # the segments of six blocks, drawn as the workload draws them
        rng = workload.rng(index)
        for poly in workload.pool:
            x = tuple(F(rng.randint(-80, 80), 8) for _ in range(poly.dim))
            y = tuple(F(rng.randint(-80, 80), 8) for _ in range(poly.dim))
            _assert_matches_per_point(poly, x, y)


@pytest.mark.parametrize("poly, x, y", [
    (HPolyhedron(0, ()), (), ()),
    (HPolyhedron(0, (((), F(1)),)), (), ()),
    (box_to_polyhedron(Box(pt(0, 0), pt(1, 1))), pt(3, F(5, 2)), pt(3, F(5, 2))),
    (halfspace([1, 1], -1), pt(2, 3), pt(-5, 1)),
    (halfspace([1, -2, 1], F(1, 3)), pt(-4, 1, 9), pt(F(7, 3), -2, 0)),
    (box_to_polyhedron(Box(pt(0, 0), pt(4, 4))), pt(1, 1), pt(3, F(7, 2))),
])
def test_segment_distances_on_edge_cases(poly, x, y):
    _assert_matches_per_point(poly, x, y)


def test_segment_inside_the_polyhedron_needs_no_lp(monkeypatch):
    solves = []
    monkeypatch.setattr(lp, "_solve", lambda *args, **kwargs: solves.append(args))
    poly = box_to_polyhedron(Box(pt(0, 0), pt(4, 4)))
    assert set(poly.dists_along(pt(1, 1), pt(3, F(7, 2)), N, range(N + 1)).values()) == {0}
    assert not solves


@pytest.mark.parametrize("poly", [
    HPolyhedron(0, (((), F(-1)),)),
    HPolyhedron(2, (((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1)))),
])
def test_segment_distances_to_an_empty_polyhedron_raise_with_farkas_on_its_rows(poly,
                                                                               monkeypatch):
    checked, real = [], lp._verify_farkas

    def verify(rows, *args):
        checked.append(rows)
        return real(rows, *args)

    monkeypatch.setattr(lp, "_verify_farkas", verify)
    x, y = (pt(0, 0), pt(3, -1)) if poly.dim else ((), ())
    with pytest.raises(EmptySet, match="^polyhedron is empty$"):
        poly.dists_along(x, y, N, range(N + 1))
    assert checked == [poly._integer_rows]


def test_one_affine_piece_costs_one_lp_and_every_time_is_verified(monkeypatch):
    # From (3, 1/2) to (5, 1/2) the distance to the unit square is 2 + 2t.
    # The first time is checked by the LP's own dual check, each later one
    # by a kept piece's check; both are recorded by the right-hand sides of
    # the distance LP's rows at that time.
    solves, duals = [], []
    real_solve, real_dual, real_piece = lp._solve, lp._verify_dual, lp._piece_vertex

    def solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    def dual(rows, *args):
        duals.append(tuple(b for _, _, b in rows))
        return real_dual(rows, *args)

    def piece(p, params, *args):
        rows = lp._distance_rows(p, [(1, v) for v in params[1:]], params[0])
        duals.append(tuple(b for _, _, b in rows))
        return real_piece(p, params, *args)

    monkeypatch.setattr(lp, "_solve", solve)
    monkeypatch.setattr(lp, "_verify_dual", dual)
    monkeypatch.setattr(lp, "_piece_vertex", piece)
    poly = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    along = poly.dists_along(pt(3, F(1, 2)), pt(5, F(1, 2)), N, range(N + 1))
    assert along == {k: 2 + F(2 * k, N) for k in range(N + 1)}
    assert len(solves) == 1
    assert len(set(duals)) == len(duals) == N + 1  # each time on its own rows


@pytest.mark.parametrize("n", [0, -1, -4])
def test_segment_steps_below_one_raise_before_any_lp(n, monkeypatch):
    # Time k/n needs n >= 1: n = 0 would put every point at q = 0, and read
    # d((3, 1/2), square) = 2 as 0; n < 0 would reach the kernel with a
    # negative denominator.
    solves, real_solve = [], lp._solve
    monkeypatch.setattr(lp, "_solve", lambda *args, **kw: solves.append(args) or real_solve(*args, **kw))
    poly = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    with pytest.raises(ValueError, match=f"^segment steps n must be >= 1, got {n}$"):
        poly.dists_along(pt(3, F(1, 2)), pt(5, F(1, 2)), n, [0])
    assert not solves and not poly._pieces
