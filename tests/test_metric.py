import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperball.errors import InvalidArgument, SizeCapExceeded
from hyperball.metric import (
    Asymmetric,
    Disconnected,
    GraphInstance,
    NegativeOrNonzeroDiagonal,
    TriangleViolation,
    graph_metric,
    gromov_product,
    is_modular,
    median_set,
    metric_interval,
    validate_metric,
)

from conftest import random_metric


def test_validate_two_point_metric():
    space = validate_metric([[0, 1], [1, 0]])
    assert space.size == 2
    assert space.d(0, 1) == 1


def test_validate_rejects_asymmetry():
    with pytest.raises(Asymmetric) as exc:
        validate_metric([[0, 1], [2, 0]])
    assert exc.value.indices == (0, 1)


def test_validate_rejects_triangle_violation():
    with pytest.raises(TriangleViolation) as exc:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert exc.value.indices == (0, 2, 1)


def test_validate_rejects_bad_diagonal():
    with pytest.raises(NegativeOrNonzeroDiagonal):
        validate_metric([[1, 1], [1, 0]])


def test_validate_accepts_rational_strings():
    space = validate_metric([["0/1", "1/2"], ["1/2", "0/1"]])
    assert space.d(0, 1) == Fraction(1, 2)


def test_graph_metric_path():
    space = graph_metric(GraphInstance(3, ((0, 1), (1, 2))))
    assert space.d(0, 2) == 2


def test_graph_metric_complete():
    edges = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    space = graph_metric(GraphInstance(4, edges))
    assert all(space.d(i, j) == 1 for i in range(4) for j in range(4) if i != j)


def test_graph_metric_cycle_bfs_oracle():
    g = GraphInstance(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    space = graph_metric(g)
    # independent oracle: breadth-first search per start vertex
    adj = {v: set() for v in range(5)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    for start in range(5):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        for v in range(5):
            assert space.d(start, v) == dist[v]


def test_graph_metric_disconnected():
    with pytest.raises(Disconnected):
        graph_metric(GraphInstance(3, ((0, 1),)))


def test_graph_metric_weighted():
    space = graph_metric(
        GraphInstance(3, ((0, 1), (1, 2), (0, 2)), (Fraction(1), Fraction(1), Fraction(5)))
    )
    assert space.d(0, 2) == 2  # path through the middle beats the heavy edge


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        GraphInstance(2, ((0, 0),))


def test_gromov_product_examples():
    space = validate_metric([[0, 4, 6], [4, 0, 8], [6, 8, 0]])
    assert gromov_product(space, 1, 2, 0) == 1
    assert gromov_product(space, 0, 1, 2) == 5
    # (x|x)_y = d(x, y)
    assert gromov_product(space, 0, 0, 1) == 4
    for index in (3, -1):
        with pytest.raises(InvalidArgument, match=f"^point index {index} out of range for size 3$"):
            gromov_product(space, 0, 1, index)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_gromov_identity_random(seed):
    space = random_metric(seed)
    n = space.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert gromov_product(space, y, z, x) >= 0
                # (y|z)_x + (x|z)_y = d(x, y)
                assert gromov_product(space, y, z, x) + gromov_product(
                    space, x, z, y
                ) == space.d(x, y)


def test_interval_contains_endpoints(c5):
    for x in range(5):
        for y in range(5):
            interval = metric_interval(c5, x, y)
            assert x in interval and y in interval


def test_interval_examples(c5):
    path = graph_metric(GraphInstance(3, ((0, 1), (1, 2))))
    assert metric_interval(path, 0, 2) == (0, 1, 2)
    assert metric_interval(path, 0, 0) == (0,)
    assert metric_interval(c5, 0, 2) == (0, 1, 2)


def test_median_examples(c5):
    assert median_set(c5, 0, 2, 4) == ()
    one = validate_metric([[0]])
    assert median_set(one, 0, 0, 0) == (0,)
    # 3 outer points plus their median m at index 3
    space = validate_metric(
        [[0, 4, 6, 1], [4, 0, 8, 3], [6, 8, 0, 5], [1, 3, 5, 0]]
    )
    assert median_set(space, 0, 1, 2) == (3,)


def test_is_modular_tree_and_cycle(c5):
    tree = graph_metric(GraphInstance(4, ((0, 1), (1, 2), (1, 3))))
    assert is_modular(tree).holds
    report = is_modular(c5)
    assert report.refuted
    triple = report.certificate["triple"]
    assert median_set(c5, *triple) == ()
    # the canonical refuting triple is also empty (1-based (1,3,5))
    assert median_set(c5, 0, 2, 4) == ()


def test_is_modular_single_point():
    assert is_modular(validate_metric([[0]])).holds


def test_enumeration_cap():
    big = [[0 if i == j else 1 for j in range(13)] for i in range(13)]
    space = validate_metric(big)
    with pytest.raises(SizeCapExceeded):
        is_modular(space)
    with pytest.raises(SizeCapExceeded):
        metric_interval(space, 0, 1)


@pytest.mark.parametrize("seed", range(8))
def test_scaled_metric_keeps_intervals_medians_and_certificates(seed):
    """Dividing a metric by 21 (entries with denominators) changes no
    interval, median set or modularity certificate."""
    space = random_metric(seed)
    n = space.size
    scaled = validate_metric([[space.d(i, j) / 21 for j in range(n)] for i in range(n)])
    assert is_modular(scaled) == is_modular(space)
    for x, y in itertools.product(range(n), repeat=2):
        assert metric_interval(scaled, x, y) == metric_interval(space, x, y)
    for x, y, z in itertools.combinations(range(n), 3):
        assert median_set(scaled, x, y, z) == median_set(space, x, y, z)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_median_gromov_identity_random(seed):
    """Median set == intersection of the three opposite-product balls."""
    space = random_metric(seed)
    n = space.size
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                rx = gromov_product(space, y, z, x)
                ry = gromov_product(space, x, z, y)
                rz = gromov_product(space, x, y, z)
                balls = tuple(
                    w
                    for w in range(n)
                    if space.d(w, x) <= rx and space.d(w, y) <= ry and space.d(w, z) <= rz
                )
                assert median_set(space, x, y, z) == balls


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_graph_metric_validates(seed):
    from hyperball.rng import SplitMix64

    rng = SplitMix64(seed)
    n = rng.randint(2, 8)
    edges = [(i, i + 1) for i in range(n - 1)]  # spanning path keeps it connected
    for _ in range(rng.randint(0, n)):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in edges)
    space = graph_metric(GraphInstance(n, tuple(edges), weights))
    validate_metric(space.dist)
