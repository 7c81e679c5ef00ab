from fractions import Fraction

import pytest

from hyperball import lp
from hyperball.convexity import distance_convexity_check, sigma_convexity_check
from hyperball.lab import BoxUnion, helly_counterexample
from hyperball.errors import InvalidArgument
from hyperball.linf import Box, sigma
from hyperball.lp import EmptySet, HPolyhedron, box_to_polyhedron, dist_to_polyhedron, halfspace
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
    with pytest.raises(InvalidArgument, match=r"^\(Fraction\(2, 1\), Fraction\(0, 1\)\) is not in the set$"):
        sigma_convexity_check(UNION, [(pt(2, 0), pt(0, 0))])


def test_counterexample_halfspaces_pass_sampled_convexity():
    inst = helly_counterexample(3)
    for hs, w in zip(inst.halfspaces, reversed(inst.witnesses)):
        # pick two points of each set from the witness pool
        members = [v for v in inst.witnesses if hs.contains(v)]
        pairs = [(members[0], members[-1])]
        assert sigma_convexity_check(hs, pairs).holds


def test_distance_convexity_box_example():
    # d(sigma(t), box) = max(2 - 4t, 0, 4t - 3): endpoint distances 2 and 1,
    # midpoint 0, and convex on the whole sample.
    box = Box(pt(0, 0), pt(1, 1))
    report = distance_convexity_check(box, pt(-2, 0), pt(2, 0))
    assert (report.verdict, report.certificate) == ("holds", {"grid": 17})


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


# Both checkers against a brute force over the sample t = k/16.


def _sigma_reference(subset, pairs):
    for idx, (x, y) in enumerate(pairs):
        for k in range(17):
            if not subset.contains(sigma(x, y, F(k, 16))):
                return "refuted", {"pair_index": idx, "x": x, "y": y, "t": F(k, 16)}
    return "holds", {"pairs": len(pairs), "grid": 17}


def _distance_reference(subset, x, y):
    def dist(p):
        return dist_to_polyhedron(p, subset)[0] if isinstance(subset, HPolyhedron) else subset.dist(p)

    d = {k: dist(sigma(x, y, F(k, 32))) for k in range(33)}
    for s in range(0, 33, 2):
        for t in range(s, 33, 2):
            mid = (s + t) // 2
            if d[mid] > (d[s] + d[t]) / 2:
                return "refuted", {"s": F(s, 32), "t": F(t, 32), "d_s": d[s], "d_t": d[t],
                                   "d_mid": d[mid]}
    return "holds", {"grid": 17}


def _convexity_corpus(count=120):
    """Seeded (subset, in-set pairs, segment) cases: boxes, two-box unions
    and 1-4-row polyhedra through the origin, in dims 1-3."""

    def half(rng, lo, hi):
        return F(rng.randint(2 * lo, 2 * hi), 2)

    def box(rng, dim):
        lo = tuple(half(rng, -4, 4) for _ in range(dim))
        return Box(lo, tuple(v + half(rng, 0, 3) for v in lo))

    def inside(rng, b):
        return tuple(l + F(rng.randint(0, 4), 4) * (h - l) for l, h in zip(b.lo, b.hi))

    for i in range(count):
        rng = SplitMix64(derive_seed(34, i))
        dim, kind = rng.randint(1, 3), i % 3
        if kind == 0:
            subset = box(rng, dim)
            pairs = [(inside(rng, subset), inside(rng, subset)) for _ in range(2)]
        elif kind == 1:
            subset = BoxUnion((box(rng, dim), box(rng, dim)))
            pairs = [(inside(rng, rng.choice(subset.boxes)), inside(rng, rng.choice(subset.boxes)))
                     for _ in range(3)]
        else:
            rows = tuple((tuple(F(rng.randint(-3, 3)) for _ in range(dim)), F(rng.randint(0, 8)))
                         for _ in range(rng.randint(1, 4)))
            subset = HPolyhedron(dim, rows)
            drawn = [tuple(half(rng, -3, 3) for _ in range(dim)) for _ in range(4)]
            members = [p for p in drawn if subset.contains(p)] + [(F(0),) * dim]
            pairs = [(members[0], members[-1])]
        x = tuple(F(rng.randint(-40, 40), 8) for _ in range(dim))
        y = tuple(F(rng.randint(-40, 40), 8) for _ in range(dim))
        yield subset, pairs, x, y


def test_checkers_match_the_brute_force_on_a_seeded_corpus():
    verdicts = []
    for subset, pairs, x, y in _convexity_corpus():
        for report, expected in ((sigma_convexity_check(subset, pairs), _sigma_reference(subset, pairs)),
                                 (distance_convexity_check(subset, x, y),
                                  _distance_reference(subset, x, y))):
            assert (report.verdict, report.certificate) == expected, (subset, pairs, x, y)
            verdicts.append(report.verdict)
    assert 20 < verdicts.count("refuted") < len(verdicts) - 100


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
    # From (3, 1/2) to (5, 1/2) the distance to the unit square is 2 + 2t,
    # one affine piece.  The LP solves the first time; its piece then passes
    # the in-place checks at the first and the last time, and the times at
    # which a piece passes form an interval, so those two checks verify
    # every time between.
    solves, checked = [], []
    real_solve, real_piece = lp._solve, lp._piece_vertex

    def solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    def piece(p, params, *args):
        checked.append(tuple(F(v, params[0]) for v in params[1:]))
        return real_piece(p, params, *args)

    monkeypatch.setattr(lp, "_solve", solve)
    monkeypatch.setattr(lp, "_piece_vertex", piece)
    poly = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    along = poly.dists_along(pt(3, F(1, 2)), pt(5, F(1, 2)), N, range(N + 1))
    assert along == {k: 2 + F(2 * k, N) for k in range(N + 1)}
    assert len(solves) == 1
    assert checked == [pt(3, F(1, 2)), pt(5, F(1, 2))]


# Stretches of segment times, each answered by one piece checked at its ends.


def _on_line(x, y, k, n):
    """x + (k/n)(y - x) for any integer k, also outside [0, n]."""
    return tuple(u + F(k, n) * (v - u) for u, v in zip(x, y))


def _spy_lookups(monkeypatch):
    """The points that `lp._dist_at` is asked and the LPs run, as lists
    that fill while the test runs."""
    looked, solves = [], []
    real_dist_at, real_solve = lp._dist_at, lp._solve

    def dist_at(p, q, X):
        looked.append(tuple(F(v, q) for v in X))
        return real_dist_at(p, q, X)

    monkeypatch.setattr(lp, "_dist_at", dist_at)
    monkeypatch.setattr(lp, "_solve", lambda *a, **kw: solves.append(a) or real_solve(*a, **kw))
    return looked, solves


@pytest.mark.parametrize("ks", [[9, 3, 3, 27, 0, 9, 16], [-7, 40, 16, -1, 33, 64], [12], []],
                         ids=["unsorted-repeated", "outside", "one", "none"])
def test_segment_times_in_any_order_or_outside_the_segment(ks):
    triangle = HPolyhedron(2, ((pt(1, 1), F(2)), (pt(-1, 0), F(1)), (pt(0, -1), F(1))))
    for poly in (triangle, box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))):
        for x, y in ((pt(F(-7, 2), 3), pt(4, F(-5, 3))), (pt(3, F(-9, 4)), pt(3, F(-9, 4)))):
            along = poly.dists_along(x, y, N, ks)
            assert list(along) == sorted(set(ks))
            assert along == {k: dist_to_polyhedron(_on_line(x, y, k, N), poly)[0] for k in ks}


def test_a_segment_through_the_polyhedron_answers_its_boundary_time_from_a_stretch(monkeypatch):
    # From (-3, 0) to (5, 0) through [-1, 1]^2: the distance is 2 - k/4 up to
    # time 8, where it is 0 at the boundary, then 0 inside, then k/4 - 4.
    # The first piece answers times 0 to 8, the zero piece the inside times
    # 9 to 16, and a second piece answers from time 17 to the end.
    looked, solves = _spy_lookups(monkeypatch)
    poly = box_to_polyhedron(Box(pt(-1, -1), pt(1, 1)))
    x, y = pt(-3, 0), pt(5, 0)
    along = poly.dists_along(x, y, N, range(N + 1))
    assert along == {k: max(2 - F(k, 4), F(0), F(k, 4) - 4) for k in range(N + 1)}
    assert along[8] == 0 and looked == [_on_line(x, y, k, N) for k in (0, 9, 17)]
    assert len(solves) == 2


def test_a_segment_around_a_corner_solves_each_piece_once(monkeypatch):
    # From (3, 0) to (0, 3) around the corner (1, 1) of the unit square the
    # distance is 2 - 3t, then 3t - 1.  The optima are degenerate, so more
    # than one basis serves the segment; each is solved once.
    looked, solves = _spy_lookups(monkeypatch)
    poly = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    x, y = pt(3, 0), pt(0, 3)
    along = poly.dists_along(x, y, N, range(N + 1))
    assert along == {k: max(2 - F(3 * k, N), F(3 * k, N) - 1) for k in range(N + 1)}
    assert 2 <= len(solves) == len(poly._pieces) == len(looked) < N + 1
    assert poly.dists_along(x, y, N, range(N + 1)) == along
    assert len(solves) == len(poly._pieces)  # the warm pieces answer it again


def test_segment_distances_beyond_float_range_come_from_stretches(monkeypatch):
    # No float holds these points or the quarter-plane's dual bound; the
    # kept pieces are ranked in integers, so each segment's one stretch
    # costs one LP, the quarter-plane keeps its piece, and a second far
    # segment on it runs no LP.
    big = F(10**400)
    looked, solves = _spy_lookups(monkeypatch)
    square = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    far = HPolyhedron(2, ((pt(1, 0), big), (pt(0, 1), big)))
    for poly, x, y, lps in ((square, pt(big, 0), pt(big + 5, F(1, 2)), 1),
                            (far, pt(10 * big, 0), pt(10 * big - 3, 1), 1),
                            (far, pt(7 * big, 2), pt(8 * big, -5), 0)):
        del looked[:], solves[:]
        along = poly.dists_along(x, y, N, range(N + 1))
        assert len(looked) == 1 and len(solves) == lps
        assert along == {k: dist_to_polyhedron(sigma(x, y, F(k, N)), poly)[0] for k in range(N + 1)}
    assert len(far._pieces) == 1


@pytest.mark.parametrize("poly, x, y", [
    (halfspace([1, 1], -1), pt(2, 3), pt(-5, 1)),
    (halfspace([1, -2, 1], F(1, 3)), pt(-4, 1, 9), pt(F(7, 3), -2, 0)),
    (HPolyhedron(2, ((pt(1, 0), F(10**400)),)), pt(10**401, 0), pt(10**401 - 3, 1)),
    (halfspace([F(-3, 4), 0], F(5, 2)), pt(-9, F(1, 3)), pt(4, -7)),
])
def test_half_space_segment_distances_are_a_closed_form(poly, x, y, monkeypatch):
    # A one-row polyhedron with a non-zero normal answers every time from
    # its row: no LP, no piece lookup, nothing kept.
    looked, solves = _spy_lookups(monkeypatch)
    along = poly.dists_along(x, y, N, range(-3, N + 4))
    assert not looked and not solves and not poly._pieces
    assert along == {k: poly.dist(_on_line(x, y, k, N)) for k in range(-3, N + 4)}


def test_a_corrupt_piece_that_passes_at_one_time_answers_no_other(monkeypatch):
    # The unit square's piece along (3, 1/2) -> (5, 1/2), with W_0 tilted by
    # a vector v with v.(q', X(k)) = q'.(k - k0).4: the vertex is unchanged
    # at k0 only, and elsewhere its radius breaks the dual equality.
    poly = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
    x, y, k0 = pt(3, F(1, 2)), pt(5, F(1, 2)), N // 2
    q, XY = lp._common_denominator((*x, *y))
    assert poly.dist(_on_line(x, y, k0, N)) == 3
    (W, duals, D, bound), = poly._pieces
    tilt = [-N * XY[0] - k0 * (XY[2] - XY[0]), N * q, 0]  # c = (1, 0), S = (4, 0)
    tilted = [[v + t for v, t in zip(W[0], tilt)], *W[1:]], duals, D, bound
    poly.__dict__["_pieces"] = (tilted,)
    looked, solves = _spy_lookups(monkeypatch)
    along = poly.dists_along(x, y, N, range(k0, N + 1))
    assert along == {k: 2 + F(2 * k, N) for k in range(k0, N + 1)}
    assert looked == [_on_line(x, y, k, N) for k in (k0, k0 + 1)]
    assert len(solves) == 1 and poly._pieces == (tilted, (W, duals, D, bound))


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
