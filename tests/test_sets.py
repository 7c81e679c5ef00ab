"""The subset protocol: every kind answers contains, dist, nearest and
witness for itself, and the max-norm kinds add window and intersect."""

import pytest

from hyperball.errors import EmptySet
from hyperball.linf import Ball, Box, linf_dist
from hyperball.lp import HPolyhedron, box_to_polyhedron, halfspace, intersection, lp_feasible
from hyperball.metric import GraphInstance, graph_metric
from hyperball.rng import SplitMix64
from hyperball.sets import BoxUnion, FiniteSubset, pair_witness, subset_nonempty, subset_witness_in_box

from conftest import F, pt

UNIT = Box(pt(0, 0), pt(1, 1))
EMPTY_BOX = Box(pt(2, 0), pt(1, 1))
PATH4 = graph_metric(GraphInstance(4, ((0, 1), (1, 2), (2, 3))))
TRIANGLE = HPolyhedron(2, (((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0)), ((F(1), F(1)), F(2))))

# (kind, empty?)
KINDS = {
    "box": (UNIT, False),
    "empty-box": (EMPTY_BOX, True),
    "union": (BoxUnion((UNIT, Box(pt(3, 0), pt(4, 1)))), False),
    "union-with-empty-member": (BoxUnion((EMPTY_BOX, Box(pt(3, 0), pt(4, 1)))), False),
    "empty-union": (BoxUnion((EMPTY_BOX, Box(pt(0, 3), pt(1, 2)))), True),
    "polyhedron": (TRIANGLE, False),
    "unbounded-polyhedron": (halfspace([1, 1], -1), False),
    "empty-polyhedron": (HPolyhedron(2, (((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1)))), True),
    "finite": (FiniteSubset(PATH4, (1, 3)), False),
    "empty-finite": (FiniteSubset(PATH4, ()), True),
}
LINF_PROBES = [pt(0, 0), pt(-3, 2), (F(1, 2), F(1, 2)), pt(5, -1), pt(3, 1), pt(2, 2)]
WINDOWS = [Box(pt(-1, -1), pt(2, 2)), Box(pt(3, 0), pt(5, 5)), Box(pt(10, 10), pt(11, 11)),
           Box(pt(1, 1), pt(0, 0))]


def _is_finite(subset):
    return isinstance(subset, FiniteSubset)


def _probes(subset):
    return range(subset.space.size) if _is_finite(subset) else LINF_PROBES


def _d(subset, p, q):
    return subset.space.d(p, q) if _is_finite(subset) else linf_dist(p, q)


@pytest.mark.parametrize("name", list(KINDS))
def test_witness_is_none_exactly_when_empty(name):
    subset, empty = KINDS[name]
    w = subset.witness()
    assert (w is None) == empty
    assert subset_nonempty(subset) == (not empty)
    if w is not None:
        assert subset.contains(w)


@pytest.mark.parametrize("name", [n for n, (_, empty) in KINDS.items() if not empty])
def test_nearest_realizes_dist_and_dist_vanishes_on_the_set(name):
    subset, _ = KINDS[name]
    for p in _probes(subset):
        q = subset.nearest(p)
        assert subset.contains(q)
        assert _d(subset, p, q) == subset.dist(p)
        assert (subset.dist(p) == 0) == subset.contains(p)


def _assert_certifies_none_in(subset, window, certificate):
    members = getattr(subset, "boxes", None)
    if members is None and "coordinate" in certificate:  # an empty window: no LP
        k = certificate["coordinate"]
        assert window.lo[k] > window.hi[k]
        return
    if members is None:  # Farkas multipliers on the subset's rows, then the window's
        rows = subset.rows + box_to_polyhedron(window).rows
        y = certificate["farkas"]
        assert len(y) == len(rows) and min(y) >= 0
        assert all(sum(v * a[k] for v, (a, _) in zip(y, rows)) == 0 for k in range(subset.dim))
        assert sum(v * b for v, (_, b) in zip(y, rows)) < 0
        return
    ks = (certificate["coordinate"],) if members[0] is subset else certificate["coordinates"]
    assert len(ks) == len(members)
    for member, k in zip(members, ks):
        joint = member.intersect(window)
        assert joint.lo[k] > joint.hi[k]


@pytest.mark.parametrize("name", [n for n in KINDS if not _is_finite(KINDS[n][0])])
def test_intersect_witness_lies_in_both_sets(name):
    subset, empty = KINDS[name]
    for window in WINDOWS:
        result = subset_witness_in_box(subset, window)
        w = result.witness
        assert w == subset.intersect(window).witness()
        assert result.feasible == (w is not None)
        if w is not None:
            assert subset.contains(w) and window.contains(w)
        else:
            _assert_certifies_none_in(subset, window, result.certificate)
        if empty or window.is_empty():
            assert w is None
    # a window around every example meets each non-empty one
    assert (subset.intersect(Box(pt(-8, -8), pt(8, 8))).witness() is None) == empty


@pytest.mark.parametrize("name", [n for n, (_, empty) in KINDS.items() if empty])
def test_empty_kinds_raise_empty_set(name):
    subset, _ = KINDS[name]
    p = 0 if _is_finite(subset) else pt(0, 0)
    with pytest.raises(EmptySet):
        subset.dist(p)
    with pytest.raises(EmptySet):
        subset.nearest(p)
    if not _is_finite(subset):
        with pytest.raises(EmptySet):
            subset.window()


@pytest.mark.parametrize("indices", [((F(0),),), (F(2),), (True,)])
def test_finite_subset_rejects_indices_that_are_not_ints(indices):
    with pytest.raises(ValueError, match="not an int"):
        FiniteSubset(PATH4, indices)


def test_finite_subset_stores_integer_types_as_ints():
    np = pytest.importorskip("numpy")

    subset = FiniteSubset(PATH4, (np.int64(1), np.intp(3)))
    assert subset.indices == (1, 3) and all(type(i) is int for i in subset.indices)


def test_a_box_is_a_union_of_one_box():
    assert UNIT.boxes == (UNIT,)
    assert UNIT.window() == BoxUnion((UNIT,)).window() == UNIT
    union = KINDS["union-with-empty-member"][0]
    assert union.window() == Box(pt(3, 0), pt(4, 1))
    assert union.nearest(pt(0, 0)) == pt(3, 0)


PAIR_SETS = {
    "box": Box(pt(0, 0), pt(2, 2)),
    "union": BoxUnion((Box(pt(-3, -1), pt(0, 1)), Box(pt(3, 0), pt(4, 1)))),
    "box-rows": box_to_polyhedron(Box(pt(1, -2), pt(3, 1))),
    "halfspace": halfspace([1, 1], 1),
}


def _rows(subset):
    """The subset as polyhedra: one per member box, or itself."""
    return [box_to_polyhedron(b) for b in subset.boxes] if hasattr(subset, "boxes") else [subset]


@pytest.mark.parametrize("first", list(PAIR_SETS))
@pytest.mark.parametrize("second", list(PAIR_SETS))
def test_pair_witness_finds_a_point_exactly_when_the_joined_rows_are_feasible(first, second):
    """Box-side pairs run the box search, two polyhedra one LP; either way a
    point comes back exactly when some member's rows joined with the other
    set's rows and the balls are feasible, and it lies in both sets and
    every ball."""
    a, b = PAIR_SETS[first], PAIR_SETS[second]
    rng = SplitMix64(17)
    families = [()] + [
        tuple(Ball(pt(rng.randint(-4, 4), rng.randint(-4, 4)), F(rng.randint(0, 6), 2))
              for _ in range(2))
        for _ in range(12)
    ]
    outcomes = set()
    for balls in families:
        expected = any(lp_feasible(intersection(2, (p, q)), balls).feasible
                       for p in _rows(a) for q in _rows(b))
        w = pair_witness(a, b, balls)
        assert (w is not None) == expected, balls
        if w is not None:
            assert a.contains(w) and b.contains(w) and all(ball.contains(w) for ball in balls)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_an_empty_box_on_a_polyhedron_runs_no_lp(monkeypatch):
    """The box's empty coordinate already certifies that no point of the
    polyhedron lies in it, so only the non-empty member asks the LP."""
    import hyperball.lp as lp

    calls, real = [], lp._solve
    monkeypatch.setattr(lp, "_solve", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    half = halfspace([1, 1], 1)
    assert pair_witness(BoxUnion((EMPTY_BOX, UNIT)), half) is not None
    assert len(calls) == 1
    result = subset_witness_in_box(half, EMPTY_BOX)
    assert not result.feasible and result.certificate == {"coordinate": 0}
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["box", "union", "union-with-empty-member", "polyhedron",
                                  "unbounded-polyhedron"])
def test_a_point_of_another_dim_raises_dim_mismatch(name):
    """Every max-norm kind refuses a point of another dimension; before,
    `Box.dist` and `Box.clamp` answered from the shorter zip, so the unit
    square's distance to (5,) read 4 and its convexity check held."""
    from hyperball.convexity import distance_convexity_check
    from hyperball.errors import DimMismatch
    from hyperball.linf import box_retraction

    subset, _ = KINDS[name]
    for p in (pt(5), pt(3, 1, 2)):
        for ask in (subset.contains, subset.dist, subset.nearest):
            with pytest.raises(DimMismatch):
                ask(p)
        with pytest.raises(DimMismatch):
            distance_convexity_check(subset, p, tuple(-v for v in p))
        if isinstance(subset, Box):
            with pytest.raises(DimMismatch):
                box_retraction(subset, p)
