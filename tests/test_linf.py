import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperball.errors import DimMismatch, EmptySet, InvalidArgument
from hyperball.linf import (
    Ball,
    Box,
    ball_family_intersection,
    balls_box,
    box_retraction,
    conical_bound,
    linf_dist,
    linf_within,
    sigma,
    within_balls,
)
from hyperball.rng import SplitMix64

from conftest import F, pt

rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 8))


def test_linf_dist_examples():
    assert linf_dist(pt(0, 0), pt(0, 0)) == 0
    assert linf_dist(pt(1, -1), pt(4, 0)) == 3
    assert linf_dist(pt(0, 0, 0), pt(1, 2, -5)) == 5
    with pytest.raises(DimMismatch):
        linf_dist(pt(0), pt(0, 0))


# The integer kernel against plain Fraction arithmetic: coordinates and
# radii are ints or Fractions with denominators up to 2^40.
coordinate = st.one_of(st.integers(-1000, 1000),
                       st.builds(Fraction, st.integers(-(1 << 50), 1 << 50), st.integers(1, 1 << 40)))
radius = st.one_of(st.integers(0, 1000), st.builds(Fraction, st.integers(0, 1 << 50), st.integers(1, 1 << 40)))


def reference_dist(p, q):
    return max((abs(Fraction(a) - Fraction(b)) for a, b in zip(p, q)), default=Fraction(0))


def reference_box(balls):
    dim = len(balls[0].center)
    return Box(tuple(max(Fraction(b.center[k]) - b.radius for b in balls) for k in range(dim)),
               tuple(min(Fraction(b.center[k]) + b.radius for b in balls) for k in range(dim)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_kernel_matches_the_fraction_reference(data):
    dim = data.draw(st.integers(0, 4))
    point = st.tuples(*[coordinate] * dim)
    p, q = data.draw(point), data.draw(point)
    balls = [Ball(data.draw(point), r) for r in data.draw(st.lists(radius, min_size=1, max_size=4))]
    d = linf_dist(p, q)
    assert type(d) is Fraction and d == reference_dist(p, q)
    bounds = data.draw(st.lists(radius, max_size=3))
    assert linf_within(p, q, *bounds) == (d <= sum(bounds))
    for b in balls:
        exact = reference_dist(b.center, p)
        assert b.contains(p) == (exact <= b.radius)
        # a ball through p holds it, and one shrunk by any positive amount does not
        assert Ball(b.center, exact).contains(p)
        if exact:
            assert not Ball(b.center, exact * (1 - Fraction(1, 1 << 60))).contains(p)
    assert balls_box(balls) == reference_box(balls)
    longer = p + (Fraction(0),)
    for call in (lambda: linf_dist(p, longer), lambda: linf_within(longer, p, Fraction(1)),
                 lambda: balls[0].contains(longer), lambda: balls_box(balls + [Ball(longer, Fraction(1))])):
        with pytest.raises(DimMismatch):
            call()


def test_one_pass_ball_test_matches_the_per_ball_loop():
    """On 2,000 seeded asks (dims 0-4, 0-5 balls, slacks zero, positive and
    negative), ``within_balls`` gives the verdict of ``linf_within`` ball
    by ball, and both raise ``DimMismatch`` on a ball of another dim."""
    rng = random.Random(42)

    def value(spread):
        return Fraction(rng.randint(-spread, spread), rng.choice((1, 2, 3, 4, 8, 9, 1024)))

    verdicts = set()
    for _ in range(2000):
        dim = rng.randint(0, 4)
        balls = [Ball(tuple(value(24) for _ in range(dim)), abs(value(24))) for _ in range(rng.randint(0, 5))]
        p = tuple(value(24) for _ in range(dim))
        if balls and rng.random() < 0.5:  # near a ball's side, so both verdicts come up
            b = rng.choice(balls)
            p = tuple(c + rng.choice((-1, 1)) * b.radius + value(1) / 16 for c in b.center)
        slack = rng.choice((Fraction(0), abs(value(4)), -abs(value(4))))
        expected = all(linf_within(p, b.center, b.radius, slack) for b in balls)
        assert within_balls(p, balls, slack) == expected, (p, balls, slack)
        verdicts.add(expected)
    assert verdicts == {True, False}
    p = pt(0, 0)
    for balls in ([Ball(pt(0, 0, 0), F(1))], [Ball(pt(0, 0), F(1)), Ball(pt(0), F(1))]):
        with pytest.raises(DimMismatch):
            all(linf_within(p, b.center, b.radius, F(0)) for b in balls)
        with pytest.raises(DimMismatch):
            within_balls(p, balls, F(0))


def test_a_balls_integer_form_is_no_field_and_changes_nothing():
    ball, twin = Ball(pt(F(1, 2), F(-3, 4)), F(5, 6)), Ball(pt(F(1, 2), F(-3, 4)), F(5, 6))
    before = (hash(ball), repr(ball))
    assert ball._integer_form == (12, (6, -9), 10)
    assert [f.name for f in dataclasses.fields(Ball)] == ["center", "radius"]
    assert (hash(ball), repr(ball)) == before and ball == twin and hash(twin) == before[0]
    assert dataclasses.replace(ball) == ball and dataclasses.astuple(ball) == dataclasses.astuple(twin)


def test_ball_intersection_witness_is_lowest_corner():
    result = ball_family_intersection([Ball(pt(0, 0), F(2)), Ball(pt(4, 0), F(2))])
    assert result.feasible and result.witness == pt(2, -2)


def test_ball_intersection_reports_first_empty_coordinate():
    result = ball_family_intersection([Ball(pt(0, 0), F(1)), Ball(pt(4, 0), F(2))])
    assert not result.feasible
    assert result.certificate == {"coordinate": 0}


def test_single_ball_gives_its_corner():
    ball = Ball(pt(1, 1), F(1))
    result = ball_family_intersection([ball])
    assert result.witness == pt(0, 0)
    assert ball.contains(result.witness)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        Ball(pt(0), F(-1))


def test_sigma_endpoints_and_midpoint():
    x, y = pt(0, 0), pt(2, 4)
    assert sigma(x, y, F(0)) == x
    assert sigma(x, y, F(1)) == y
    assert sigma(x, y, F(1, 2)) == pt(1, 2)
    with pytest.raises(InvalidArgument, match=r"^interpolation time 3/2 outside \[0, 1\]$"):
        sigma(x, y, F(3, 2))


@settings(max_examples=50, deadline=None)
@given(st.lists(rational, min_size=2, max_size=2), st.lists(rational, min_size=2, max_size=2),
       st.integers(0, 16))
def test_sigma_symmetry_and_speed(xs, ys, k):
    x, y, t = tuple(xs), tuple(ys), Fraction(k, 16)
    assert sigma(y, x, t) == sigma(x, y, 1 - t)
    # constant speed: d(sigma(s), sigma(t)) = |s-t| d(x,y)
    s = Fraction(1, 4)
    assert linf_dist(sigma(x, y, s), sigma(x, y, t)) == abs(s - t) * linf_dist(x, y)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 16))
def test_sigma_conical_inequality(seed, k):
    rng = SplitMix64(seed)
    t = Fraction(k, 16)
    dim = rng.randint(1, 3)
    mk = lambda: tuple(Fraction(rng.randint(-16, 16), 4) for _ in range(dim))
    x, y, x2, y2 = mk(), mk(), mk(), mk()
    assert linf_dist(sigma(x, y, t), sigma(x2, y2, t)) <= conical_bound(x, y, x2, y2, t)


def test_retraction_examples():
    box = Box(pt(0, 0), pt(1, 1))
    assert box_retraction(box, pt(1, 1)) == pt(1, 1)
    assert box_retraction(box, pt(3, -2)) == pt(1, 0)
    # one-dimensional bound instance: d(rho(x), y) <= max(d(x,y), d(A,y))
    line = Box(pt(0), pt(1))
    rho_x = box_retraction(line, pt(5))
    assert linf_dist(rho_x, pt(-3)) == 4
    assert max(linf_dist(pt(5), pt(-3)), line.dist(pt(-3))) == 8


def test_retraction_accepts_ball_and_rejects_empty():
    assert box_retraction(Ball(pt(0, 0), F(1)), pt(5, 0)) == pt(1, 0)
    with pytest.raises(EmptySet, match="^retraction target is empty$"):
        box_retraction(Box(pt(1), pt(0)), pt(0))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 1_000_000))
def test_retraction_contract(seed):
    rng = SplitMix64(seed)
    dim = rng.randint(1, 4)
    q = lambda: Fraction(rng.randint(-24, 24), 4)
    lo = tuple(q() for _ in range(dim))
    hi = tuple(l + abs(q()) for l in lo)
    box = Box(lo, hi)
    x = tuple(q() for _ in range(dim))
    y = tuple(q() for _ in range(dim))
    rho_x, rho_y = box_retraction(box, x), box_retraction(box, y)
    assert linf_dist(rho_x, rho_y) <= linf_dist(x, y)  # 1-Lipschitz
    assert linf_dist(x, rho_x) == box.dist(x)  # proximinal
    assert box_retraction(box, rho_x) == rho_x  # idempotent
    assert linf_dist(rho_x, y) <= max(linf_dist(x, y), box.dist(y))
