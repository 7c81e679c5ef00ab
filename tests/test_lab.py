import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperball.errors import DimMismatch, EmptySet, InvalidArgument, SizeCapExceeded
from hyperball.lab import (
    REFUTE_MODES,
    BoxUnion,
    FiniteBallFamily,
    LinfBallFamily,
    NotAdmissible,
    check_admissible,
    external_witness,
    four_to_n_consistency,
    graph_n_helly_bruteforce,
    helly_counterexample,
    helly_order_check,
    hyperconvex_witness,
    refute_path,
    refute_search,
    uniform_local_external_sample,
    verify_refutation,
    weakly_external_witness,
    _build_arena,
    _external_search,
    _family,
    _scalar_candidate,
    _tighten,
)
from hyperball.linf import Ball, Box, linf_dist
from hyperball.lp import HPolyhedron, box_to_polyhedron, halfspace, lp_feasible, polyhedron_coordinate_bounds
from hyperball.metric import Disconnected, GraphInstance, graph_metric, validate_metric
from hyperball.reports import PropertyReport
from hyperball.rng import SplitMix64
from hyperball.sets import FiniteSubset, subset_dist, subset_nearest

from conftest import F, pt, random_metric

UNION = BoxUnion((Box(pt(0, 0), pt(1, 1)), Box(pt(3, 0), pt(4, 1))))
# the same union with an empty third member (lo > hi in x)
UNION_EMPTY_MEMBER = BoxUnion(UNION.boxes + (Box(pt(2, 5), pt(1, 6)),))
DIAG = halfspace([1, 1], -1)
# a union whose refutations are rarer, so first hits come late
TIGHT = BoxUnion((Box(pt(0, 0), pt(4, 4)), Box(pt(5, 0), pt(6, 1))))
# unions whose members tie as nearest: one box cut in two, which never
# refutes, and two overlapping squares; and a union of three members
TOUCHING = BoxUnion((Box(pt(0, 0), pt(1, 1)), Box(pt(1, 0), pt(2, 1))))
OVERLAPPING = BoxUnion((Box(pt(0, 0), pt(2, 2)), Box(pt(1, 1), pt(3, 3))))
THREE = BoxUnion(UNION.boxes + (Box(pt(0, 3), pt(1, 4)),))
# a connected union that is refuted in the center modes
L_SHAPE = BoxUnion((Box(pt(0, 0), pt(2, 1)), Box(pt(0, 0), pt(1, 2))))
# the gap decision's balls on UNION, UNION_EMPTY_MEMBER and THREE: the
# first two members face at x = 1 and x = 3, and share y = 0
GAP_BALLS = (Ball(pt(1, 0), F(1)), Ball(pt(3, 0), F(1)))
TIGHT_GAP_BALLS = (Ball(pt(4, 0), F(1, 2)), Ball(pt(5, 0), F(1, 2)))
# multi-row polyhedra: the unit square as four rows, DIAG cut to a bounded
# non-box, and a 3-d one with four that is unbounded
SQUARE_ROWS = box_to_polyhedron(Box(pt(0, 0), pt(1, 1)))
DIAG_ROWS = DIAG.intersect(Box(pt(-8, -8), pt(8, 8)))
POLY3 = HPolyhedron(3, tuple(
    (pt(*a), F(b)) for a, b in (((1, 1, 0), 2), ((-1, 0, 1), 1), ((0, -1, -1), 1), ((1, -2, 1), 3))
))

C6 = graph_metric(GraphInstance(6, tuple((i, (i + 1) % 6) for i in range(6))))
C6_PART = FiniteSubset(C6, (0, 2, 3))


def test_admissible_examples():
    fam = LinfBallFamily((Ball(pt(0, 0), F(2)), Ball(pt(4, 0), F(2))))
    assert check_admissible(fam)
    bad = LinfBallFamily((Ball(pt(0, 0), F(1)), Ball(pt(4, 0), F(2))))
    result = check_admissible(bad)
    assert not result and result.kind == "pairwise" and result.indices == (0, 1)


def test_admissible_external_violation():
    fam = LinfBallFamily((Ball(pt(1, -1), F(1, 4)),), DIAG)
    result = check_admissible(fam)
    assert not result and result.kind == "external"  # d(x, A) = 1/2 > 1/4


def test_hyperconvex_witness_linf():
    fam = LinfBallFamily((Ball(pt(0, 0), F(2)), Ball(pt(4, 0), F(2))))
    result = hyperconvex_witness(fam)
    assert result.feasible and result.witness == pt(2, -2)
    single = LinfBallFamily((Ball(pt(3, 5), F(0)),))
    assert hyperconvex_witness(single).witness == pt(3, 5)


def test_hyperconvex_witness_requires_admissibility():
    fam = LinfBallFamily((Ball(pt(0, 0), F(1)), Ball(pt(4, 0), F(2))))
    with pytest.raises(NotAdmissible):
        hyperconvex_witness(fam)


def test_hyperconvex_witness_never_empty_on_linf_backend():
    from hyperball.rng import SplitMix64

    for seed in range(300):
        rng = SplitMix64(seed)
        dim = rng.randint(1, 4)
        anchor = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(dim))
        balls = []
        for _ in range(rng.randint(1, 5)):
            c = tuple(Fraction(rng.randint(-16, 16), 2) for _ in range(dim))
            balls.append(Ball(c, linf_dist(c, anchor) + Fraction(rng.randint(0, 4), 4)))
        result = hyperconvex_witness(LinfBallFamily(tuple(balls)))
        assert result.feasible


def test_finite_backend_witness(c5):
    fam = FiniteBallFamily(c5, ((0, F(1)), (2, F(1))))
    result = hyperconvex_witness(fam)
    assert result.feasible and result.witness == 1


def test_external_witness_box_always_found():
    from hyperball.rng import SplitMix64

    box = Box(pt(0, 0), pt(1, 1))
    for seed in range(200):
        rng = SplitMix64(seed ^ 0xBEEF)
        balls = []
        for _ in range(rng.randint(1, 4)):
            c = (Fraction(rng.randint(-12, 12), 2), Fraction(rng.randint(-12, 12), 2))
            slack = Fraction(rng.randint(0, 6), 2)
            balls.append(Ball(c, box.dist(c) + slack))
        fam = LinfBallFamily(tuple(balls))
        if not check_admissible(LinfBallFamily(fam.balls, box)):
            continue
        assert external_witness(box, fam).feasible


def test_external_witness_zero_balls_at_member():
    box = Box(pt(0, 0), pt(2, 2))
    fam = LinfBallFamily((Ball(pt(1, 1), F(0)), Ball(pt(1, 1), F(0))))
    result = external_witness(box, fam)
    assert result.witness == pt(1, 1)


def test_external_witness_diag_halfspace():
    inst = helly_counterexample(2)
    a3 = inst.halfspaces[2]  # x1 + x2 <= -1
    fam = LinfBallFamily((Ball(pt(0, 0), F(1, 2)), Ball(pt(-2, -2), F(3, 2))))
    result = external_witness(a3, fam)
    assert result.feasible
    w = result.witness
    assert w[0] + w[1] <= -1


def test_only_a_non_zero_normal_spares_the_non_emptiness_lp(monkeypatch):
    """A row 0.x <= b is the whole space or empty: ``external_witness``
    decides which with the non-emptiness LP before its search, and raises
    ``EmptySet`` after that LP alone on an empty one."""
    import hyperball.lp as lp

    feasibility, real = [], lp._solve

    def solve(rows, dim, objective=None, **kwargs):
        if objective is None:
            feasibility.append(len(rows))
        return real(rows, dim, objective, **kwargs)

    monkeypatch.setattr(lp, "_solve", solve)
    family = LinfBallFamily((Ball(pt(0, 0), F(1)), Ball(pt(1, 1), F(1))))
    assert external_witness(halfspace([0, 0], 1), family).feasible
    assert feasibility == [1, 1 + 2 * 2]
    del feasibility[:]
    with pytest.raises(EmptySet):
        external_witness(halfspace([0, 0], -1), family)
    assert feasibility == [1]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_external_search_on_a_halfspace_is_one_lp_over_the_balls_box(monkeypatch, k):
    """The balls enter the search as their box: one feasibility LP on the
    half-space's row plus 2*dim rows, however many balls there are, when
    the box meets the half-space, and none when it misses it."""
    import hyperball.lp as lp

    feasibility, real = [], lp._solve

    def solve(rows, dim, objective=None, **kwargs):
        if objective is None:
            feasibility.append(len(rows))
        return real(rows, dim, objective, **kwargs)

    monkeypatch.setattr(lp, "_solve", solve)
    balls = tuple(Ball(pt(j, -j - 1), F(k)) for j in range(k))  # centers on the boundary
    result = external_witness(DIAG, LinfBallFamily(balls))
    assert result.feasible and DIAG.contains(result.witness)
    assert feasibility == [1 + 2 * DIAG.dim]  # the search: a non-zero normal shows non-emptiness
    # Balls whose box misses the half-space: the box's lowest corner for
    # x1 + x2 decides, with 1 on the row and on both lower box rows.
    del feasibility[:]
    missing = tuple(Ball(pt(1, 1), F(1, 2) + j) for j in range(k))
    result = _external_search(DIAG, LinfBallFamily(missing))
    assert result.certificate == {"farkas": (1, 0, 1, 0, 1)} and feasibility == []


def test_weakly_external_witness_example():
    inner = LinfBallFamily((Ball(pt(-1, 0), F(1)),))
    result = weakly_external_witness(DIAG, pt(0, 0), F(1, 2), inner)
    assert result.feasible
    w = result.witness
    assert w[0] + w[1] <= -1
    assert linf_dist(w, pt(0, 0)) <= F(1, 2)
    assert linf_dist(w, pt(-1, 0)) <= 1
    # the canonical solution satisfies the same constraints
    cand = pt(F(-1, 2), F(-1, 2))
    assert cand[0] + cand[1] <= -1
    assert linf_dist(cand, pt(0, 0)) <= F(1, 2)
    assert linf_dist(cand, pt(-1, 0)) <= 1


def test_weakly_external_rejects_outside_center():
    inner = LinfBallFamily((Ball(pt(5, 5), F(1)),))
    with pytest.raises(InvalidArgument, match="^inner center 0 not in subset$"):
        weakly_external_witness(DIAG, pt(0, 0), F(1, 2), inner)


def test_refute_budget_zero():
    report = refute_search(Box(pt(0, 0), pt(1, 1)), 2, 0, seed=1)
    assert report.verdict == "inconclusive" and report.budget_used == 0


def test_refute_box_inconclusive():
    report = refute_search(Box(pt(0, 0), pt(1, 1)), 2, 10_000, seed=5)
    assert report.verdict == "inconclusive"
    assert report.budget_used == 10_000


def test_refute_union_found_and_reverifies():
    report = refute_search(UNION, 2, 1000, seed=7)
    assert report.refuted
    balls = report.certificate["balls"]
    assert verify_refutation(UNION, balls)
    assert len(balls) == 2


def _reference_pull(subset, balls, start):
    """The two-step center pull: move the centers of ``balls[start:]`` onto
    the subset (to a nearest point when outside), keep their radii, and
    re-tighten once in index order against fresh ``subset_dist`` floors."""
    centers = [b.center for b in balls]
    for i in range(start, len(centers)):
        if not subset.contains(centers[i]):
            centers[i] = subset_nearest(subset, centers[i])
    floor = [subset_dist(subset, c) for c in centers[:start]]
    floor += [F(0)] * (len(centers) - start)
    radii = [b.radius for b in balls]
    _tighten(floor, [[linf_dist(p, q) for q in centers] for p in centers], radii, range(len(radii)))
    return tuple(Ball(c, r) for c, r in zip(centers, radii))


def _scalar_reference(subset, level, budget, seed, mode="external", first=0):
    """First (index, balls) in [first, budget) whose exact candidate, with
    its centers pulled as the mode asks, passes the full external check
    (admissibility included) with an empty intersection; or None."""
    arena, start = _build_arena(subset, level), REFUTE_MODES[mode]
    for index in range(first, budget):
        balls = _scalar_candidate(subset, arena, seed, index, None)
        if start is not None:
            balls = _reference_pull(subset, balls, start)
        if not external_witness(subset, LinfBallFamily(balls)).feasible:
            return index, balls
    return None


CENTER_MODES = [mode for mode, start in REFUTE_MODES.items() if start is not None]


def test_refuter_scalar_vector_agreement():
    """Disconnected unions get the gap decision's balls at every level, with
    no index; on connected ones the search agrees with the exact scalar
    reference."""
    for subset, mode in product((UNION, UNION_EMPTY_MEMBER, THREE), CENTER_MODES):
        for level in range(2, 7):
            report = refute_search(subset, level, 250, seed=11, mode=mode)
            assert (report.certificate, report.budget_used) == ({"balls": GAP_BALLS, "mode": mode}, 1)
    for subset, mode in product((OVERLAPPING, L_SHAPE), CENTER_MODES):
        for level in range(2, 7):
            reference = _scalar_reference(subset, level, 250, 11, mode)
            report = refute_search(subset, level, 250, seed=11, mode=mode)
            if reference is None:
                assert report.verdict == "inconclusive" and report.budget_used == 250
            else:
                assert report.certificate["index"] == reference[0]
                assert report.certificate["balls"] == reference[1]


# The first hits on TIGHT at level 2 come late: at these indices.
LATE_HITS = {("weakly-external", 4): 44, ("hyperconvex", 3): 82, ("weakly-external", 0): 63}


@pytest.mark.parametrize(
    "mode, seed", [("weakly-external", 4), ("hyperconvex", 3), ("weakly-external", 0)]
)
def test_screen_finds_hits_past_the_first_batch(mode, seed):
    index, _ = _scalar_reference(TIGHT, 2, 300, seed, mode)
    assert index == LATE_HITS[mode, seed]
    report = refute_search(TIGHT, 2, 300, seed=seed, mode=mode)  # disconnected: the gap decision
    assert report.certificate == {"balls": TIGHT_GAP_BALLS, "mode": mode}


def _many_members():
    """A 3-d union of 50 members, 10 of them repeated."""
    rng = random.Random(23)
    corners = [[F(rng.randrange(-8, 9), 2) for _ in range(3)] for _ in range(40)]
    boxes = [Box(tuple(c), tuple(v + F(rng.randrange(0, 3), 2) for v in c)) for c in corners]
    return BoxUnion(tuple(boxes + boxes[:10]))


MANY = _many_members()
POINT_TWICE = BoxUnion((Box((), ()), Box((), ())))  # 0-dimensional: one point
FAR = 1 << 58  # far out: coordinates past 2**58
FAR_UNION = BoxUnion((Box((F(FAR),), (F(FAR + 1),)), Box((F(FAR + 3),), (F(FAR + 4),))))


def _is_box(union):
    """Whether the union equals its window, tested axis by axis at every
    member side and every midpoint between two neighbouring sides: exact,
    since membership of closed boxes is constant on each cell they cut."""
    members = [b for b in union.boxes if not b.is_empty()]
    axes = []
    for k in range(union.dim):
        sides = sorted({v for b in members for v in (b.lo[k], b.hi[k])})
        axes.append(sides + [(u + v) / 2 for u, v in zip(sides, sides[1:])])
    return all(union.contains(p) for p in product(*axes))


def _span_corpus():
    """300 unions (dims 1-3, 1-4 members, corners on the 1/2 grid) and 60
    one-row half-spaces with non-zero normals (dims 2-4), each with whether
    it is a box."""
    rng, corpus = random.Random(11), []
    for _ in range(300):
        dim, members = rng.randint(1, 3), []
        for _ in range(rng.randint(1, 4)):
            lo = [F(rng.randint(-6, 6), 2) for _ in range(dim)]
            members.append(Box(tuple(lo), tuple(v + F(rng.randint(0, 4), 2) for v in lo)))
        union = BoxUnion(tuple(members))
        corpus.append((union, _is_box(union)))
    rng = random.Random(5)
    while len(corpus) < 360:
        a = [rng.randint(-3, 3) for _ in range(rng.randint(2, 4))]
        if any(a):
            corpus.append((halfspace(a, rng.randint(-4, 4)), sum(map(bool, a)) == 1))
    return corpus


def test_span_decision_against_the_sampler_on_a_seeded_corpus():
    """A box is inconclusive with the budget spent in every mode; any other
    set is refuted at level 2 in ``external`` mode by two balls that
    verify; and wherever the exact sampler refutes, so does the span."""
    counts = {"both": 0, "box": 0, "span only": 0}
    for i, (subset, box) in enumerate(_span_corpus()):
        report = refute_search(subset, 2, 1000, seed=i)
        assert report.refuted == (not box), subset
        if box:
            counts["box"] += 1
            for mode in REFUTE_MODES:
                budget = 4 if getattr(subset, "rows", None) else 50
                report = refute_search(subset, 2, budget, seed=i, mode=mode)
                assert (report.verdict, report.budget_used) == ("inconclusive", budget), (subset, mode)
        else:
            balls = report.certificate["balls"]
            assert len(balls) == 2 and "index" not in report.certificate
            assert verify_refutation(subset, balls)
        sampled = _scalar_reference(subset, 2, 6 if getattr(subset, "rows", None) else 40, i)
        assert sampled is None or not box, subset
        if not box:
            counts["both" if sampled else "span only"] += 1
    assert counts == {"both": 225, "box": 109, "span only": 26}


def test_span_decision_pins():
    """Pinned cases: the narrow 1-d gap the sampler's grid misses, the far
    union, and a budget that ends on a covered grid point."""
    gap = BoxUnion((Box(pt(F(-7, 2)), pt(F(1, 2))), Box(pt(1), pt(2))))
    report = refute_search(gap, 2, 10, seed=0)
    assert report.refuted and report.budget_used == 2
    assert report.certificate["balls"] == (Ball(pt(F(5, 8)), F(1, 8)), Ball(pt(F(7, 8)), F(1, 8)))
    report = refute_search(FAR_UNION, 3, 40, seed=1)
    assert report.refuted and verify_refutation(FAR_UNION, report.certificate["balls"])
    assert refute_search(UNION, 2, 2, seed=0).refuted  # (1/2, 1/2) is covered, (2, 1/2) is not
    report = refute_search(UNION, 2, 1, seed=0)
    assert (report.verdict, report.budget_used) == ("inconclusive", 1)


def _finite_corpus():
    """60 subsets of ``random_metric`` spaces (``random.Random(61)``), each
    of two distinct points and 0-5 more, repeats allowed."""
    rng, corpus = random.Random(61), []
    for seed in range(60):
        space = random_metric(seed)
        indices = rng.sample(range(space.size), 2) + [rng.randrange(space.size) for _ in range(rng.randint(0, 5))]
        rng.shuffle(indices)
        corpus.append(FiniteSubset(space, tuple(indices)))
    return corpus


def test_external_mode_and_boxes_never_reach_the_sampler(monkeypatch):
    """No arena, no candidate and no tightened radius: in ``external`` mode
    on boxes, unions and one-row half-spaces with a non-zero normal; on a
    box, as a ``Box`` or as rows, in every mode; on a finite subset of two
    or more distinct points in every mode, where the closest pair refutes
    it with one unit of budget; and on a one-point finite subset and a
    union that is a box in the center modes, which spend the budget."""
    import hyperball.lab as lab

    def sampler(*args):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(lab, "_build_arena", sampler)
    monkeypatch.setattr(lab, "_scalar_candidate", sampler)
    monkeypatch.setattr(lab, "_tighten", sampler)
    for subset in (Box(pt(0, 0), pt(1, 1)), UNION, UNION_EMPTY_MEMBER, THREE, TOUCHING, DIAG,
                   halfspace([0, -1], 0), halfspace([2, -1, 3], 1), SQUARE_ROWS):
        assert refute_search(subset, 3, 100, seed=1).budget_used >= 1
    for subset in (Box(pt(0, 0), pt(2, 2)), SQUARE_ROWS, halfspace([0, -1], 0), HPolyhedron(2, ())):
        for mode in REFUTE_MODES:
            report = refute_search(subset, 4, 100, seed=1, mode=mode)
            assert (report.verdict, report.budget_used) == ("inconclusive", 100)
    two_points = FiniteSubset(validate_metric([[0, 1], [1, 0]]), (0, 1))
    for mode in REFUTE_MODES:
        report = refute_search(two_points, 2, 100, seed=1, mode=mode)
        assert (report.verdict, report.budget_used) == ("refuted", 1)
        assert report.certificate["balls"] == ((0, F(1, 2)), (1, F(1, 2)))
    for subset, mode in product([C6_PART] + _finite_corpus(), REFUTE_MODES):
        report = refute_search(subset, 2, 100, seed=1, mode=mode)
        assert (report.verdict, report.budget_used) == ("refuted", 1), (subset, mode)
        delta = min(subset.space.d(a, b) for a, b in combinations(set(subset.indices), 2))
        assert [r for _, r in report.certificate["balls"]] == [F(delta, 2)] * 2
        assert verify_refutation(subset, report.certificate["balls"], mode), (subset, mode)
    for subset, mode in product((FiniteSubset(C6, (2, 2)), TOUCHING), CENTER_MODES):
        report = refute_search(subset, 4, 100, seed=1, mode=mode)
        assert (report.verdict, report.budget_used) == ("inconclusive", 100)


def test_a_union_that_is_a_box_walks_its_grid_once(monkeypatch):
    """[0,1]² ∪ [1,2]×[0,1] is the box [0,2]×[0,1]: in the center modes the
    route's grid walk proves it and the span decision tests no point again,
    so every mode makes the 2 membership tests of the one walk and stays
    inconclusive with the budget spent."""
    tests, real = [], BoxUnion.contains
    monkeypatch.setattr(BoxUnion, "contains", lambda self, p: tests.append(p) or real(self, p))
    for mode in REFUTE_MODES:
        del tests[:]
        report = refute_search(TOUCHING, 4, 100, seed=1, mode=mode)
        assert (report.verdict, report.budget_used) == ("inconclusive", 100), mode
        assert len(tests) == 2, mode


def _polyhedron_corpus():
    """400 polyhedra (``random.Random(5)``, d = 1-3): the rows of [-2, 2]^d,
    each kept with probability 4/5, and 0-3 rows with entries in [-3, 3]
    and right-hand sides in [-4, 4]."""
    rng, corpus = random.Random(5), []
    for _ in range(400):
        d = rng.randint(1, 3)
        rows = [r for r in box_to_polyhedron(Box((F(-2),) * d, (F(2),) * d)).rows if rng.random() < 0.8]
        for _ in range(rng.randint(0, 3)):
            rows.append((tuple(F(rng.randint(-3, 3)) for _ in range(d)), F(rng.randint(-4, 4))))
        corpus.append(HPolyhedron(d, tuple(rows)))
    return corpus


def _polyhedron_is_box(p):
    """Whether p is a box: every corner of its bounding box lies in it, an
    unbounded side put at distance 100, far beyond the corpus's rows."""
    bounds = [polyhedron_coordinate_bounds(p, k) for k in range(p.dim)]
    sides = [(F(-100) if lo is None else lo, F(100) if hi is None else hi) for lo, hi in bounds]
    return all(p.contains(corner) for corner in product(*sides))


def test_polyhedron_span_decision_on_a_seeded_corpus():
    """A polyhedron that is a box takes the span path in every mode and
    reports what the sampler reports, since no candidate of it refutes:
    inconclusive with the budget spent.  One that is no box takes the
    sampler, apart from a half-space in ``external`` mode.  An empty one
    raises ``EmptySet``."""
    counts = dict.fromkeys(("box", "other", "empty"), 0)
    for i, p in enumerate(_polyhedron_corpus()):
        try:
            shape = "box" if _polyhedron_is_box(p) else "other"
        except EmptySet:
            counts["empty"] += 1
            with pytest.raises(EmptySet):
                refute_search(p, 2, 5, seed=i)
            continue
        counts[shape] += 1
        for mode in REFUTE_MODES:
            span = shape == "box" or mode == "external" and len(p.rows) == 1
            assert refute_path(p, mode) == ("span" if span else "scalar")
            if shape == "box":
                notes = ("no refutation found",) + ((mode,) if mode != "external" else ())
                expected = PropertyReport("inconclusive", seed=i, budget_used=6, notes=notes)
                assert refute_search(p, 2, 6, seed=i, mode=mode) == expected
                assert _scalar_reference(p, 4, 2, i, mode) is None, (p, mode)
    assert counts == {"box": 197, "other": 150, "empty": 53}


def _components(members):
    """Each member's component label, by search over the pairs of members
    whose ``Box.intersect`` is not empty."""
    label = {}
    for first in range(len(members)):
        todo = [] if first in label else [first]
        label.setdefault(first, first)
        while todo:
            i = todo.pop()
            for j, other in enumerate(members):
                if j not in label and not members[i].intersect(other).is_empty():
                    label[j] = first
                    todo.append(j)
    return label


def _box_gap(a, b):
    """d(a, b) for non-empty boxes: the clamp onto a of a point of b is a
    nearest point of a to b, axis by axis."""
    return b.dist(a.clamp(b.clamp(a.lo)))


def _gap_corpus():
    """``_span_corpus``'s unions, then 200 unions in dims 1-3 (corners on
    the 1/4 grid, ``random.Random(29)``) of 2-4 members, each after the
    first empty, touching a member, overlapping one, or apart from one."""
    unions = [subset for subset, _ in _span_corpus() if isinstance(subset, BoxUnion)]
    rng = random.Random(29)
    for _ in range(200):
        dim = rng.randint(1, 3)
        lo = [F(rng.randint(-8, 8), 4) for _ in range(dim)]
        members = [Box(tuple(lo), tuple(v + F(rng.randint(1, 8), 4) for v in lo))]
        for _ in range(rng.randint(1, 3)):
            base, k = rng.choice(members), rng.randrange(dim)
            kind = rng.choice(("empty", "touching", "overlapping", "apart"))
            if kind == "empty":
                members.append(Box(base.hi, tuple(v - F(k == j, 4) for j, v in enumerate(base.lo))))
                continue
            width = base.hi[k] - base.lo[k]
            shift = {"touching": width, "overlapping": width / 2,
                     "apart": width + F(rng.randint(1, 8), 4)}[kind]
            move = [F(0)] * dim
            move[k] = shift
            members.append(Box(tuple(map(sum, zip(base.lo, move))), tuple(map(sum, zip(base.hi, move)))))
        rng.shuffle(members)
        unions.append(BoxUnion(tuple(members)))
    return unions


def test_gap_decision_on_a_seeded_corpus():
    """In both center modes at level 2, every disconnected union is refuted
    with one unit of budget by two balls centered in it, of radius delta/2
    where delta is the least distance between members of different
    components, which verify in the mode; a connected union that is a box
    takes the span decision, and every other connected union of two or
    more non-empty members takes the sampler."""
    counts = {"one member": 0, "connected box": 0, "connected": 0, "disconnected": 0}
    for union in _gap_corpus():
        members = [b for b in union.boxes if not b.is_empty()]
        label = _components(members)
        cross = [_box_gap(members[i], members[j])
                 for i, j in combinations(range(len(members)), 2) if label[i] != label[j]]
        kind = ("one member" if len(members) < 2 else "disconnected" if cross
                else "connected box" if _is_box(union) else "connected")
        counts[kind] += 1
        for mode in CENTER_MODES:
            assert refute_path(union, mode) == {"one member": "span", "connected box": "span",
                                                "connected": "scalar", "disconnected": "gap"}[kind], (union, mode)
            if kind != "disconnected":
                continue
            report = refute_search(union, 2, 1, seed=0, mode=mode)
            assert (report.verdict, report.budget_used) == ("refuted", 1), (union, mode)
            assert set(report.certificate) == {"balls", "mode"}
            b1, b2 = balls = report.certificate["balls"]
            assert b1.radius == b2.radius == min(cross) / 2 == linf_dist(b1.center, b2.center) / 2
            assert union.contains(b1.center) and union.contains(b2.center)
            assert verify_refutation(union, balls, mode), (union, mode)
    assert counts == {"one member": 121, "connected box": 89, "connected": 24, "disconnected": 266}


def test_disconnected_unions_in_the_center_modes_never_reach_the_sampler(monkeypatch):
    """No arena and no candidate: the gap decision answers, with one unit of
    budget, or none when the budget is 0."""
    import hyperball.lab as lab

    def sampler(*args):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(lab, "_build_arena", sampler)
    monkeypatch.setattr(lab, "_scalar_candidate", sampler)
    for subset in (UNION, UNION_EMPTY_MEMBER, THREE, TIGHT, FAR_UNION, MANY):
        for mode, level in product(CENTER_MODES, (2, 6)):
            assert refute_search(subset, level, 4096, seed=1, mode=mode).budget_used == 1
            report = refute_search(subset, level, 0, seed=1, mode=mode)
            assert (report.verdict, report.notes) == ("inconclusive", ("budget exhausted",))


def test_gap_decision_pins():
    """The gap of 1/64, narrower than the sampler's grid step, is refuted in
    both center modes by the balls of radius 1/128 on its two sides."""
    gap = BoxUnion((Box(pt(0), pt(1)), Box(pt(F(65, 64)), pt(2))))
    for mode in CENTER_MODES:
        report = refute_search(gap, 3, 10_000, seed=0, mode=mode)
        assert (report.verdict, report.budget_used) == ("refuted", 1)
        assert report.certificate == {
            "balls": (Ball(pt(1), F(1, 128)), Ball(pt(F(65, 64)), F(1, 128))), "mode": mode}


def test_refute_linf_half_spaces_run_no_lp(monkeypatch):
    """A half-space's distance and its search in the balls' box are closed
    forms when the balls miss it, so every half-space op of a refute-linf
    block refutes and re-verifies with the LP kernel patched to raise."""
    import hyperball.lp as lp

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    from workloads import RefuteLinf

    ops = [op for op in RefuteLinf(seed=1, smoke=False).block(0) if ".halfspace." in op.op_id]

    def solve(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(lp, "_solve", solve)
    assert len(ops) == 10
    for op in ops:
        report = op.run()
        assert report.refuted and op.check(report) is None, op.op_id


def test_lp_repeat_box_refutes_run_no_lp_once_warm(monkeypatch):
    """The lp-repeat box polyhedra keep their extent, so after one pass over
    a block's refute ops the box test needs no LP: the ops of that block
    and the next pass again with the LP kernel patched to raise."""
    import hyperball.lp as lp

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    from workloads import LPRepeat

    workload = LPRepeat(seed=1, smoke=False)
    ops = [[op for op in workload.block(b) if ".refute." in op.op_id] for b in (0, 1)]
    assert [len(block) for block in ops] == [4, 4]
    for op in ops[0]:
        assert op.check(op.run()) is None, op.op_id

    def solve(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(lp, "_solve", solve)
    for op in ops[0] + ops[1]:
        assert op.check(op.run()) is None, op.op_id
    assert all("_extent" in vars(p) for p in workload.boxes)


def test_polyhedron_center_modes_refute_on_the_scalar_path():
    wedge = halfspace([1, 1, 1], 0)
    index, balls = _scalar_reference(wedge, 3, 40, 1, "hyperconvex")
    report = refute_search(wedge, 3, 40, seed=1, mode="hyperconvex")
    assert report.refuted and report.certificate["mode"] == "hyperconvex"
    assert report.certificate["index"] == index and report.certificate["balls"] == balls


@pytest.mark.parametrize("mode", list(REFUTE_MODES))
def test_multirow_polyhedron_matches_the_two_step_reference(mode):
    start = REFUTE_MODES[mode]
    for level, seed in ((2, 5), (4, 0)):
        arena = _build_arena(POLY3, level)
        for index in range(12):
            unpulled = _scalar_candidate(POLY3, arena, seed, index, None)
            expected = unpulled if start is None else _reference_pull(POLY3, unpulled, start)
            assert _scalar_candidate(POLY3, arena, seed, index, start) == expected
        reference = _scalar_reference(POLY3, level, 12, seed, mode)
        report = refute_search(POLY3, level, 12, seed=seed, mode=mode)
        if reference is None:
            assert report.verdict == "inconclusive" and report.budget_used == 12
        else:
            assert report.certificate["index"] == reference[0]
            assert report.certificate["balls"] == reference[1]


def test_exact_candidate_costs_at_most_k_plus_one_lps(monkeypatch):
    """At most one distance or nearest-point LP per center and one
    intersection LP per candidate, in the center modes on DIAG_ROWS, which
    keeps every candidate a non-hit.  Each mode starts on a fresh copy,
    with no extent or distance piece kept.  The square as four rows is a
    box, so no mode builds a candidate on it."""
    import hyperball.lab as lab
    import hyperball.lp as lp

    lps, builds = [0], []  # builds: (LP count at its start, family size)
    real_solve, real_build = lp._solve, lab._scalar_candidate

    def solve(*args, **kwargs):
        lps[0] += 1
        return real_solve(*args, **kwargs)

    def build(*args):
        begin = lps[0]
        balls = real_build(*args)
        builds.append((begin, len(balls)))
        return balls

    monkeypatch.setattr(lp, "_solve", solve)
    monkeypatch.setattr(lab, "_scalar_candidate", build)
    for mode in CENTER_MODES:
        del builds[:]
        lps[0] = 0
        poly = HPolyhedron(DIAG_ROWS.dim, DIAG_ROWS.rows)
        report = refute_search(poly, 4, 20, seed=5, mode=mode)
        assert report.verdict == "inconclusive" and len(builds) == 20
        assert builds[0][0] == 4  # set-up: the extent's 2 * dim LPs alone
        ends = [begin for begin, _ in builds[1:]] + [lps[0]]
        for (begin, k), end in zip(builds, ends):
            assert end - begin <= k + 1, (mode, end - begin, k)
    del builds[:]
    for mode in REFUTE_MODES:
        report = refute_search(SQUARE_ROWS, 4, 20, seed=5, mode=mode)
        assert (report.verdict, report.budget_used) == ("inconclusive", 20) and not builds, mode


def test_only_pulled_centers_ask_for_a_nearest_point(monkeypatch):
    """A floor is a distance; only the centers a mode pulls onto the subset
    ask for their nearest point, which on a polyhedron is a fresh LP."""
    import hyperball.lab as lab

    asked, real = [], lab.subset_nearest
    monkeypatch.setattr(lab, "subset_nearest", lambda subset, p: asked.append(p) or real(subset, p))
    for mode, start in REFUTE_MODES.items():
        del asked[:]
        balls = lab._scalar_candidate(POLY3, lab._build_arena(POLY3, 4), 3, 7, start)
        assert len(asked) == (0 if start is None else len(balls) - start), mode


def _count_lps(monkeypatch):
    """A one-item list that counts the calls of the LP kernel from now on."""
    import hyperball.lp as lp

    lps, real = [0], lp._solve

    def solve(*args, **kwargs):
        lps[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "_solve", solve)
    return lps


@pytest.mark.parametrize("subset", [SQUARE_ROWS, POLY3, DIAG])
def test_refute_setup_costs_two_lps_per_dimension(monkeypatch, subset):
    """The extent's coordinate LPs run on the first search of a polyhedron
    only: the box test and the window share them, and it keeps them.  The
    span decision takes a one-row half-space in ``external`` mode with no
    extent."""
    subset = HPolyhedron(subset.dim, subset.rows)  # no window kept yet
    lps = _count_lps(monkeypatch)
    first = int(len(subset.rows) == 1)  # a half-space is first sampled in a center mode
    for i, mode in enumerate((*REFUTE_MODES, "external")):
        lps[0] = 0
        assert refute_search(subset, 3, 0, seed=1, mode=mode).budget_used == 0
        assert lps[0] == (2 * subset.dim if i == first else 0), mode


def test_verify_refutation_costs_at_most_k_plus_two_lps(monkeypatch):
    """One non-emptiness LP, one distance LP per center outside the subset
    and one intersection LP: the hit is checked once, not twice."""
    lps = _count_lps(monkeypatch)
    for level in (2, 4):
        balls = refute_search(DIAG_ROWS, level, 100, seed=1).certificate["balls"]
        outside = sum(not DIAG_ROWS.contains(b.center) for b in balls)
        assert len(balls) == level and outside >= 2
        lps[0] = 0
        assert verify_refutation(DIAG_ROWS, balls)
        assert lps[0] <= outside + 2 <= len(balls) + 2, level


def test_verify_refutation_on_four_rows_costs_at_most_k_plus_one_lps(monkeypatch):
    """At most one distance LP per center outside the square, none for a
    distance piece the square keeps, and one intersection LP: the floors
    already prove the subset non-empty, so no feasibility LP runs first
    (k + 2 LPs before).  The count does not depend on whether the family
    refutes."""
    import hyperball.lp as lp

    centers = [pt(2, 0), pt(F(1, 2), 3), pt(-1, -1), pt(3, 2)]
    solves, real = [], lp._solve
    monkeypatch.setattr(lp, "_solve", lambda *args, **kw: solves.append(kw) or real(*args, **kw))
    for k in (2, 3, 4):
        square = HPolyhedron(SQUARE_ROWS.dim, SQUARE_ROWS.rows)  # no piece kept yet
        balls = tuple(Ball(c, F(3)) for c in centers[:k])
        for warm in (False, True):
            del solves[:]
            assert not verify_refutation(square, balls)
            distance = sum("farkas_rows" in kw for kw in solves)
            assert len(solves) - distance == 1 and distance <= (0 if warm else k), (k, warm)
        assert len(square._pieces) >= 2  # (2, 0) and (1/2, 3) need two pieces


@pytest.mark.parametrize(
    "subset, modes",
    [
        (Box(pt(0, 0), pt(1, 1)), set()),  # a box: the span decision, in every mode
        (UNION_EMPTY_MEMBER, set()),  # disconnected: the gap decision
        (L_SHAPE, set(CENTER_MODES)),
        (OVERLAPPING, set(CENTER_MODES)),
        (DIAG, set(CENTER_MODES)),  # a half-space: the span decision externally
        (BoxUnion((Box(pt(0, 0), pt(1, 1)), Box(pt(3, 0), pt(2, 1)))), set()),  # one non-empty member
        (halfspace([0, 0], 1), set()),  # the whole plane: no normal
        (SQUARE_ROWS, set()),
        (Box((), ()), set()),  # 0-dimensional: a point
        (BoxUnion((Box((), ()),)), set()),
        (HPolyhedron(0, (((), F(1)),)), set()),
        (C6_PART, set()),  # a finite subset: the gap decision's closest pair
        (POINT_TWICE, set()),  # one point twice: a union that is a box
        (TOUCHING, set()),  # [0,1]²∪[1,2]×[0,1], the box [0,2]×[0,1]: the span decision
    ],
)
def test_screen_applies_states_the_screens_reach(subset, modes):
    """The modes whose refute runs on the sampler: the center modes on a
    connected union of two or more non-empty members that is no box and on
    a polyhedron that is no box.  Every path is ``span``, ``gap`` or
    ``scalar``."""
    paths = {mode: refute_path(subset, mode) for mode in REFUTE_MODES}
    assert set(paths.values()) <= {"span", "gap", "scalar"}
    assert {mode for mode, path in paths.items() if path == "scalar"} == modes


@pytest.mark.parametrize(
    "subset",
    [Box((), ()), BoxUnion((Box((), ()),)), HPolyhedron(0, (((), F(1)),)), HPolyhedron(0, ()),
     POINT_TWICE],
)
def test_zero_dimensional_subsets_are_inconclusive_in_every_mode(subset):
    for mode in REFUTE_MODES:
        report = refute_search(subset, 3, 20, seed=2, mode=mode)
        assert report.verdict == "inconclusive" and report.budget_used == 20, mode


def test_whole_plane_takes_the_exact_path_without_warnings():
    import warnings

    plane = halfspace([0, 0], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for level in (2, 4):
            report = refute_search(plane, level, 30, seed=level)
            assert report.verdict == "inconclusive" and report.budget_used == 30


EMPTY_SUBSETS = {
    "box": (Box(pt(1), pt(0)), (Ball(pt(0), F(1)),)),
    "union": (BoxUnion((Box(pt(1), pt(0)), Box(pt(3), pt(2)))), (Ball(pt(0), F(1)),)),
    "polyhedron-1d": (HPolyhedron(1, (((F(1),), F(0)), ((F(-1),), F(-1)))), (Ball(pt(0), F(1)),)),
    "polyhedron-0d": (HPolyhedron(0, (((), F(-1)),)), (Ball((), F(1)),)),
    "finite": (FiniteSubset(C6, ()), ((0, F(1)),)),
    "finite-no-balls": (FiniteSubset(C6, ()), ()),
}


@pytest.mark.parametrize("kind", list(EMPTY_SUBSETS))
def test_empty_subsets_raise_empty_set(kind):
    subset, balls = EMPTY_SUBSETS[kind]
    for budget in (0, 5):
        with pytest.raises(EmptySet):
            refute_search(subset, 2, budget, seed=1)
    with pytest.raises(EmptySet):
        verify_refutation(subset, balls)
    with pytest.raises(EmptySet):
        external_witness(subset, _family(subset, balls))


ADMISSIBLE_FIXTURES = {
    "box": Box(pt(0, 0), pt(1, 1)),
    "union": UNION_EMPTY_MEMBER,
    "halfspace": DIAG,
    "square-rows": SQUARE_ROWS,
    "poly3": POLY3,
}


@pytest.mark.parametrize("mode", list(REFUTE_MODES))
@pytest.mark.parametrize("kind", list(ADMISSIBLE_FIXTURES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 10**6), level=st.integers(2, 6))
def test_every_exact_candidate_is_admissible(kind, mode, seed, index, level):
    """The refuter loop trusts this and runs only the witness search."""
    subset, start = ADMISSIBLE_FIXTURES[kind], REFUTE_MODES[mode]
    balls = _scalar_candidate(subset, _build_arena(subset, level), seed, index, start)
    assert check_admissible(LinfBallFamily(balls, subset))
    assert all(subset.contains(b.center) for b in balls[len(balls) if start is None else start:])


def test_center_modes_on_a_polyhedron_leave_numpy_unloaded():
    probe = (
        "import sys; from hyperball.lab import refute_search; from hyperball.linf import Box; "
        "from hyperball.lp import box_to_polyhedron, halfspace; "
        "refute_search(halfspace([1, 1], -1), 2, 2, 0, mode='hyperconvex'); "
        "refute_search(box_to_polyhedron(Box((0, 0), (1, 1))), 2, 2, 0); "  # external, 4 rows
        "assert 'numpy' not in sys.modules, 'numpy loaded'"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_span_decision_and_box_refutes_leave_numpy_unloaded():
    probe = (
        "import sys; from hyperball.lab import BoxUnion, refute_search; from hyperball.linf import Box; "
        "from hyperball.lp import halfspace; "
        "assert refute_search(BoxUnion((Box((0, 0), (1, 1)), Box((3, 0), (4, 1)))), 3, 50, 0).refuted; "
        "assert refute_search(halfspace([1, 1], -1), 3, 50, 0).refuted; "
        "refute_search(Box((0, 0), (1, 1)), 3, 50, 0, mode='hyperconvex'); "
        "assert 'numpy' not in sys.modules, 'numpy loaded'"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_only_the_sampler_pulls_centers_onto_the_subset(monkeypatch):
    import hyperball.lab as lab

    calls = []
    real = lab._scalar_candidate
    monkeypatch.setattr(lab, "_scalar_candidate", lambda *args: calls.append(1) or real(*args))
    report = refute_search(Box(pt(0, 0), pt(2, 2)), 3, 200, seed=3, mode="hyperconvex")
    assert report.verdict == "inconclusive" and not calls
    report = refute_search(TIGHT, 2, 300, seed=3, mode="hyperconvex")
    assert report.certificate == {"balls": TIGHT_GAP_BALLS, "mode": "hyperconvex"}
    index, balls = _scalar_reference(L_SHAPE, 2, 300, 3, "hyperconvex")
    report = refute_search(L_SHAPE, 2, 300, seed=3, mode="hyperconvex")
    assert report.certificate == {"balls": balls, "index": index, "mode": "hyperconvex"} and index == 14


@pytest.mark.parametrize("seed", [-1, 2**64 + 7])
def test_refuter_masks_out_of_range_seeds(seed):
    report = refute_search(UNION, 2, 1000, seed=seed, mode="hyperconvex")
    assert report.refuted and report.seed == seed
    assert report.budget_used == 1 and report.certificate["balls"] == GAP_BALLS
    index, balls = _scalar_reference(L_SHAPE, 2, 1000, seed, "hyperconvex")
    report = refute_search(L_SHAPE, 2, 1000, seed=seed, mode="hyperconvex")
    assert report.refuted and report.seed == seed
    assert report.budget_used == index + 1
    assert report.certificate["balls"] == balls


def test_refuter_rejects_unknown_mode(c5):
    # So does verify_refutation, which raised a bare KeyError from REFUTE_MODES.
    for subset, balls in ((UNION, (Ball(pt(0, 0), F(1)), Ball(pt(3, 0), F(1)))),
                          (FiniteSubset(c5, (0, 1, 2)), ((0, F(1)), (2, F(1))))):
        with pytest.raises(ValueError, match="unknown mode"):
            refute_search(subset, 2, 10, seed=0, mode="bogus")
        with pytest.raises(InvalidArgument, match="^unknown mode 'bogus'$"):
            verify_refutation(subset, balls, mode="bogus")


def test_antipodal_c6_family_not_admissible():
    g = GraphInstance(6, tuple((i, (i + 1) % 6) for i in range(6)))
    space = graph_metric(g)
    fam = FiniteBallFamily(space, ((0, F(1)), (3, F(1))))  # d = 3 > 1 + 1
    result = check_admissible(fam)
    assert not result and result.kind == "pairwise"


def test_refuter_center_in_subset_modes():
    # boxes stay safe under the center-in-subset variants as well
    box = Box(pt(0, 0), pt(2, 2))
    for mode in ("hyperconvex", "weakly-external"):
        report = refute_search(box, 2, 60, seed=3, mode=mode)
        assert report.verdict == "inconclusive"
    hit = refute_search(UNION, 2, 300, seed=3, mode="hyperconvex")
    if hit.refuted:
        assert verify_refutation(UNION, hit.certificate["balls"])


def test_four_to_n_flags_big_only_refutations(monkeypatch):
    """The inconsistency flag fires exactly when every verified refutation
    needs more than four balls; exercised with a stubbed search."""
    import hyperball.lab as lab

    big_family = tuple(Ball(pt(F(i), F(0)), F(1)) for i in range(5))

    def fake_search(subset, level, budget, seed, mode="external", **kwargs):
        from hyperball.reports import INCONCLUSIVE, REFUTED, PropertyReport

        if level >= 5:
            return PropertyReport(
                REFUTED, certificate={"balls": big_family}, seed=seed, budget_used=1
            )
        return PropertyReport(INCONCLUSIVE, seed=seed, budget_used=budget)

    monkeypatch.setattr(lab, "refute_search", fake_search)
    report = lab.four_to_n_consistency(Box(pt(0, 0), pt(1, 1)), 6, 100, seed=0)
    assert report.refuted
    assert report.certificate["flag"] == "THEOREM-INCONSISTENT"


def test_refuter_general_polyhedron_falls_back_to_lp():
    """An unbounded polyhedron of four rows that is no box runs the
    sampler's exact candidates, whose first one refutes it."""
    assert refute_path(POLY3, "external") == "scalar"
    report = refute_search(POLY3, 2, 40, seed=3)
    assert (report.verdict, report.budget_used, report.certificate["index"]) == ("refuted", 1, 0)
    assert verify_refutation(POLY3, report.certificate["balls"])


def test_refute_finite_backend(c5):
    subset = FiniteSubset(c5, (0, 1, 2, 3, 4))
    report = refute_search(subset, 2, 200, seed=2)
    assert report.verdict in ("inconclusive", "refuted")


def test_families_reject_subsets_and_balls_of_the_other_metric(c5):
    with pytest.raises(DimMismatch):
        external_witness(C6_PART, LinfBallFamily((Ball(pt(0), F(1)),)))
    with pytest.raises(DimMismatch):
        verify_refutation(C6_PART, (Ball(pt(0), F(1)),))
    with pytest.raises(DimMismatch):
        external_witness(Box(pt(0), pt(1)), FiniteBallFamily(C6, ((0, F(1)),)))
    with pytest.raises(DimMismatch):
        external_witness(FiniteSubset(c5, (0, 2)), FiniteBallFamily(C6, ((0, F(1)),)))
    with pytest.raises(DimMismatch):
        weakly_external_witness(Box(pt(0), pt(1)), pt(0), F(1), FiniteBallFamily(C6, ((0, F(1)),)))


def test_weakly_external_witness_finite():
    inner = FiniteBallFamily(C6, ((2, F(1)),))
    # C6_PART ∩ B(1, 1) ∩ B(2, 1) = {0, 2, 3} ∩ {0, 1, 2} ∩ {1, 2, 3}
    assert weakly_external_witness(C6_PART, 1, F(1), inner).witness == 2
    with pytest.raises(NotAdmissible, match=r"external violation at \(0,\)"):
        weakly_external_witness(C6_PART, 1, F(0), inner)  # d(1, subset) = 1 > 0
    with pytest.raises(NotAdmissible, match=r"pairwise violation at \(0, 1\)"):
        weakly_external_witness(C6_PART, 4, F(1), FiniteBallFamily(C6, ((0, F(0)),)))


def test_finite_admissible_family_with_empty_intersection():
    fam = FiniteBallFamily(C6, ((0, F(1)), (2, F(1)), (4, F(1))))
    assert check_admissible(fam)
    result = hyperconvex_witness(fam)
    assert not result.feasible and result.certificate == {"checked": 6}


def test_refute_finite_certificates_reverify():
    for mode in ("external", "hyperconvex", "weakly-external"):
        report = refute_search(C6_PART, 3, 200, seed=1, mode=mode)
        assert report.refuted
        items = report.certificate["balls"]
        assert verify_refutation(C6_PART, items) and verify_refutation(C6_PART, items, mode)
    assert not verify_refutation(C6_PART, ((1, F(0)),))  # d(1, subset) = 1 > 0
    assert not verify_refutation(C6_PART, ((1, F(1)),))  # meets the subset at 0


def test_verify_refutation_checks_the_centers_of_its_mode(monkeypatch):
    """On A = [0,1] ∪ [3,4] the balls B(3/2, 1/2) and B(5/2, 1/2) refute
    external hyperconvexity, but neither center lies in A; a family whose
    first center alone lies outside refutes the weakly-external mode only."""
    A = BoxUnion((Box(pt(0), pt(1)), Box(pt(3), pt(4))))
    outside = (Ball((F(3, 2),), F(1, 2)), Ball((F(5, 2),), F(1, 2)))
    first_outside = (Ball((F(3, 2),), F(1, 2)), Ball(pt(3), F(1)))  # meet at 2
    assert verify_refutation(A, outside) and verify_refutation(A, first_outside)
    verdicts = {mode: (verify_refutation(A, outside, mode), verify_refutation(A, first_outside, mode))
                for mode in REFUTE_MODES}
    assert verdicts == {"external": (True, True), "hyperconvex": (False, False),
                        "weakly-external": (False, True)}
    # over C6_PART = {0, 2, 3}: B(4, 1) ∩ B(0, 1) = {5}, B(4, 1) ∩ B(5, 1) = {4, 5}
    for items, expected in ((((4, F(1)), (0, F(1))), [True, False, True]),
                            (((4, F(1)), (5, F(1))), [True, False, False])):
        assert [verify_refutation(C6_PART, items, mode) for mode in REFUTE_MODES] == expected
    # refute_search re-verifies a hit in its own mode
    from hyperball import lab

    modes, real = [], lab.verify_refutation
    monkeypatch.setattr(lab, "verify_refutation",
                        lambda subset, balls, mode: modes.append(mode) or real(subset, balls, mode))
    for mode in REFUTE_MODES:
        assert refute_search(UNION, 2, 1000, seed=7, mode=mode).refuted
    assert modes == list(REFUTE_MODES)


def test_refute_finite_center_modes():
    """C6_PART = {0, 2, 3} has the closest pair 2, 3 at distance 1, so every
    mode reports B(2, 1/2) and B(3, 1/2), both centered in the subset."""
    for mode, seed in product(REFUTE_MODES, range(3)):
        report = refute_search(C6_PART, 3, 200, seed=seed, mode=mode)
        assert (report.verdict, report.budget_used) == ("refuted", 1)
        assert report.certificate["balls"] == ((2, F(1, 2)), (3, F(1, 2)))
        assert "index" not in report.certificate
        assert all(C6_PART.contains(c) for c, _ in report.certificate["balls"])


def test_four_to_n_runs_on_finite_subset():
    report = four_to_n_consistency(C6_PART, 5, 200, seed=3)
    assert report.verdict == "inconclusive" and report.notes == ("consistent",)
    assert any(v.get("family_size") for v in report.certificate["outcomes"].values())


def test_helly_counterexample_small_dims():
    inst = helly_counterexample(2)
    assert [hs.rows for hs in inst.halfspaces] == [
        (((F(0), F(-1)), F(0)),),
        (((F(-1), F(1)), F(0)),),
        (((F(1), F(1)), F(-1)),),
    ]
    assert inst.witnesses == (pt(0, -5), pt(-5, 0), pt(0, 0))
    with pytest.raises(InvalidArgument, match="^need dimension >= 2$"):
        helly_counterexample(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_helly_counterexample_verifies(n):
    inst = helly_counterexample(n)
    # witness j in every set except (possibly) j — enforced by the type,
    # checked here explicitly against the raw rows
    for j, w in enumerate(inst.witnesses):
        for i, hs in enumerate(inst.halfspaces):
            if i != j:
                assert hs.contains(w)
    total_rows = tuple(r for hs in inst.halfspaces for r in hs.rows)
    from hyperball.lp import HPolyhedron

    assert not lp_feasible(HPolyhedron(n, total_rows)).feasible
    assert helly_order_check(inst.halfspaces, n).refuted
    assert helly_order_check(inst.halfspaces, n + 1).holds


def test_helly_order_boxes_hold():
    boxes = [
        box_to_polyhedron(Box(pt(0, 0), pt(2, 2))),
        box_to_polyhedron(Box(pt(1, 1), pt(3, 3))),
        box_to_polyhedron(Box(pt(0, 1), pt(2, 3))),
    ]
    report = helly_order_check(boxes, 2)
    assert report.holds and "total_witness" in report.certificate


@pytest.mark.parametrize("k", [0, -1])
def test_helly_order_below_one_is_rejected(k):
    # k = 0 would read the empty 0-fold intersection and refute; k < 0
    # would reach itertools.combinations.
    with pytest.raises(InvalidArgument, match="^k must be >= 1$"):
        helly_order_check(helly_counterexample(2).halfspaces, k)


def test_graph_helly_k4_holds():
    edges = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    report = graph_n_helly_bruteforce(GraphInstance(4, edges), 3)
    assert report.holds


def test_graph_helly_c4_exhaustive():
    g = GraphInstance(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    report = graph_n_helly_bruteforce(g, 3)
    assert report.holds  # C4 is a product of paths; integer balls share vertices


def test_graph_helly_c6_refuted():
    g = GraphInstance(6, tuple((i, (i + 1) % 6) for i in range(6)))
    report = graph_n_helly_bruteforce(g, 3)
    assert report.refuted
    centers, radii = report.certificate["centers"], report.certificate["radii"]
    space = graph_metric(g)
    for i in range(3):
        for j in range(i + 1, 3):
            assert space.d(centers[i], centers[j]) <= radii[i] + radii[j]
    assert not any(
        all(space.d(v, centers[i]) <= radii[i] for i in range(3))
        for v in range(6)
    )


def _graph_helly_reference(g, n):
    """The enumeration graph_n_helly_bruteforce replaced: every radius tuple
    in product order, with no closed form for the last radius."""
    space = graph_metric(g)
    V = space.size
    diam = space.diameter()
    radius_hi = int(-(-diam.numerator // diam.denominator))
    families = comb(V + n - 1, n) * (radius_hi + 1) ** n
    d = space.dist
    for centers in combinations_with_replacement(range(V), n):
        for radii in product(range(radius_hi + 1), repeat=n):
            if any(d[centers[i]][centers[j]] > radii[i] + radii[j]
                   for i in range(n) for j in range(i + 1, n)):
                continue
            if not any(all(d[v][centers[i]] <= radii[i] for i in range(n)) for v in range(V)):
                return "refuted", {"centers": centers, "radii": radii}
    return "holds", {"families": families}


def _connected_graphs(max_vertices):
    """One graph per isomorphism class of connected graphs on 1..max_vertices
    vertices."""
    for V in range(1, max_vertices + 1):
        pairs, seen = list(combinations(range(V), 2)), set()
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            canon = min(tuple(sorted(tuple(sorted((pi[u], pi[v]))) for u, v in edges))
                        for pi in permutations(range(V)))
            if canon not in seen:
                seen.add(canon)
                g = GraphInstance(V, canon)
                try:
                    graph_metric(g)
                except Disconnected:
                    continue
                yield g


def test_graph_helly_matches_the_enumeration_of_every_radius():
    """Unit and fractional weights on every connected graph of up to 5
    vertices, levels 0-4 (0-3 on 5 vertices): same verdict, same first
    certificate, same family count."""
    refuted = 0
    for i, g in enumerate(_connected_graphs(5)):
        rng = SplitMix64(i)
        weighted = GraphInstance(g.n, g.edges, tuple(F(rng.randint(1, 4), 2) for _ in g.edges))
        for h in (g, weighted):
            for n in range(5 if g.n < 5 else 4):
                report = graph_n_helly_bruteforce(h, n)
                assert (report.verdict, report.certificate) == _graph_helly_reference(h, n), (h, n)
                refuted += report.refuted
    assert refuted > 40


def test_graph_helly_cap():
    edges = tuple((i, (i + 1) % 12) for i in range(12))
    with pytest.raises(SizeCapExceeded, match="^1456024024 families exceed cap 5000000$"):
        graph_n_helly_bruteforce(GraphInstance(12, edges), 6)


def test_cocktail_party_graph_needs_every_ball():
    """The discrete "4" fails: in the cocktail-party graph CP(k), K_2k less
    the perfect matching v ~ v + k, the ball B(v, 1) misses only v + k, so
    any 2k - 1 of these balls meet and all 2k do not.  Graph balls have
    integer radii, which the paper's theorem does not cover."""
    for k, levels in ((2, range(2, 5)), (3, range(2, 7))):
        V = 2 * k
        edges = tuple((u, v) for u, v in combinations(range(V), 2) if v - u != k)
        verdicts = [graph_n_helly_bruteforce(GraphInstance(V, edges), n) for n in levels]
        assert [r.verdict for r in verdicts] == ["holds"] * (V - 2) + ["refuted"], k
        assert verdicts[-1].certificate == {"centers": tuple(range(V)), "radii": (1,) * V}


def test_four_to_n_box_consistent():
    report = four_to_n_consistency(Box(pt(0, 0), pt(1, 1)), 6, 500, seed=9)
    assert report.verdict == "inconclusive" and report.notes == ("consistent",)
    assert all(v["verdict"] == "inconclusive" for v in report.certificate["outcomes"].values())


def test_four_to_n_union_consistent_via_small_refutation():
    report = four_to_n_consistency(UNION, 6, 500, seed=9)
    assert report.verdict == "inconclusive" and report.notes == ("consistent",)
    sizes = [v.get("family_size") for v in report.certificate["outcomes"].values()]
    assert any(s is not None and s <= 4 for s in sizes)


def test_four_to_n_budget_zero():
    report = four_to_n_consistency(UNION, 6, 0, seed=9)
    assert (report.verdict, report.budget_used, report.notes) == ("inconclusive", 0, ("budget exhausted",))


@pytest.mark.parametrize("n_max, budget, mode, message", [
    (6, -5, "external", "budget must be >= 0"),
    (2, 500, "external", "n_max must be >= 4"),
    (3, 0, "external", "n_max must be >= 4"),
    (6, 0, "strong", "unknown mode 'strong'"),
], ids=["negative-budget", "n_max-below-4", "n_max-below-4-no-budget", "unknown-mode-no-budget"])
def test_four_to_n_rejects_what_refute_search_rejects(n_max, budget, mode, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        four_to_n_consistency(Box(pt(0, 0), pt(1, 1)), n_max, budget, 9, mode=mode)


def test_uniform_local_sample_refutes_between_union_members():
    probe, radius = pt(1, F(1, 2)), F(2)
    report = uniform_local_external_sample(UNION, radius, (probe,), budget=50, seed=0)
    assert report.refuted and report.certificate["probe"] == probe
    local = UNION.intersect(Ball(probe, radius).to_box())
    assert verify_refutation(local, report.certificate["balls"])


def test_uniform_local_sample_decides_the_line_exactly():
    """On [0, 1] u [1 + g, 2 + g], probed at the two ends of the gap, the
    local parts are intervals while r < g, so the union is locally a box
    and the sample is inconclusive; from r = g on a local part has two
    members, and two balls that verify on it refute it."""
    for g in (F(1, 4), F(1, 2), F(1)):
        union = BoxUnion((Box(pt(0), pt(1)), Box(pt(1 + g), pt(2 + g))))
        probes = (pt(1), pt(1 + g))
        for r in (F(1, 8), F(1, 4), F(1, 2), F(1), F(2)):
            report = uniform_local_external_sample(union, r, probes, budget=10, seed=3)
            assert report.refuted == (r >= g), (g, r)
            if report.refuted:
                local = union.intersect(Ball(report.certificate["probe"], r).to_box())
                assert verify_refutation(local, report.certificate["balls"])
            else:
                assert report.budget_used == 10 * len(probes)


def test_uniform_local_sample_on_box():
    box = Box(pt(0, 0), pt(4, 4))
    report = uniform_local_external_sample(
        box, F(1), (pt(1, 1), pt(3, 3)), budget=100, seed=4
    )
    assert report.verdict == "inconclusive"  # no local refutation on a box
