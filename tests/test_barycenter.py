from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperball.barycenter import (
    MAX_ROUNDS,
    BarycenterConfig,
    Isometry,
    NoConvergence,
    barycenter,
    barycenter_contraction_check,
    default_ip_eps,
    equivariance_check,
    ip_lift,
    ip_threshold,
    min_matching_average,
)
from hyperball.errors import DimMismatch, EmptySet, HyperballError, InvalidArgument
from hyperball.lab import LinfBallFamily
from hyperball.linf import Ball, balls_box, linf_dist, mean_point, sigma
from hyperball.refine import (
    EpsOracle, OracleFailure, RefinementTrace, exact_subset_oracle, ip_constants, ip_reach,
    verify_trace,
)
from hyperball.rng import SplitMix64

from conftest import F, pt

CFG = BarycenterConfig()


def test_barycenter_trivial_sizes():
    assert barycenter((pt(7),), CFG) == pt(7)
    assert barycenter((pt(0), pt(1)), CFG) == pt(F(1, 2))


def test_barycenter_three_on_line_converges_to_mean():
    result = barycenter((pt(0), pt(1), pt(2)), CFG)
    assert linf_dist(result, pt(1)) <= CFG.tau


@pytest.mark.parametrize("points", [
    (pt(0, 1), pt(2)),
    (pt(0, 1), pt(2), pt(3, 4)),
    (pt(0, 1), pt(3, 4), pt(5, 6), pt(2)),
], ids=["m=2", "m=3", "m=4-last"])
def test_barycenter_rejects_points_of_different_dims(points):
    with pytest.raises(DimMismatch):
        barycenter(points, CFG)


def _barycenter_pointwise_reference(pts, tau):
    """The definition itself: every sub-barycenter is computed by recursion
    with a tolerance 2^9 times finer, the midpoint at m = 2."""
    m = len(pts)
    if m == 1:
        return pts[0]
    if m == 2:
        return sigma(pts[0], pts[1], Fraction(1, 2))
    current = pts
    for _ in range(MAX_ROUNDS):
        if max(linf_dist(p, q) for p, q in combinations(current, 2)) * 2 <= tau:
            return current[0]
        current = tuple(_barycenter_pointwise_reference(current[:i] + current[i + 1:], tau / (1 << 9))
                        for i in range(m))
    raise NoConvergence(f"no convergence within {MAX_ROUNDS} rounds")


def test_barycenter_weight_and_pointwise_paths_agree():
    points = (pt(0, 0), pt(3, 1), pt(-1, 4), pt(2, -2))
    fast = barycenter(points, CFG)
    slow = _barycenter_pointwise_reference(points, CFG.tau)
    assert linf_dist(fast, slow) <= 2 * CFG.tau
    assert linf_dist(fast, mean_point(points)) <= CFG.tau


def _barycenter_weights_reference(pts, tau):
    """The Fraction iteration the integer numerators replaced (m >= 3)."""
    m, dim = len(pts), len(pts[0])
    current = pts
    prev_diam = None
    for _ in range(MAX_ROUNDS):
        diam = max((linf_dist(p, q) for p, q in combinations(current, 2)), default=F(0))
        if prev_diam is not None and diam > prev_diam:
            raise HyperballError("leave-one-out round increased the diameter")
        prev_diam = diam
        if diam * 2 <= tau:
            return current[0]
        share = Fraction(1, m - 1)
        sums = tuple(sum((p[k] for p in current), Fraction(0)) for k in range(dim))
        current = tuple(tuple((sums[k] - p[k]) * share for k in range(dim))
                        for p in current)
    raise NoConvergence(f"no convergence within {MAX_ROUNDS} rounds")


def test_barycenter_weights_match_the_fraction_iteration():
    """Integer numerators over one denominator give the same point, or the
    same NoConvergence, as the iteration on Fractions."""
    taus = (CFG.tau, F(1, 64), F(3), F(1, 1 << 300), 0.001)  # a float tau is read exactly
    for seed in range(120):
        rng = SplitMix64(seed)
        dim, m = rng.randint(0, 3), rng.randint(3, 7)
        pts = tuple(tuple(F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(dim))
                    for _ in range(m))
        tau = taus[seed % len(taus)]
        try:
            expected = _barycenter_weights_reference(pts, tau)
        except NoConvergence:
            expected = NoConvergence
        if expected is NoConvergence:
            with pytest.raises(NoConvergence):
                barycenter(pts, BarycenterConfig(tau))
        else:
            assert barycenter(pts, BarycenterConfig(tau)) == expected, seed


def test_barycenter_pointwise_size_guard():
    # the weight iteration takes a tuple of any size
    points = tuple(pt(i) for i in range(7))
    assert linf_dist(barycenter(points, CFG), mean_point(points)) <= CFG.tau


def test_contraction_check_identity_and_permutation():
    xs = (pt(0, 0), pt(2, 1), pt(-1, 3))
    assert barycenter_contraction_check(xs, xs, CFG).holds
    ys = (xs[2], xs[0], xs[1])
    report = barycenter_contraction_check(xs, ys, CFG)
    assert report.holds
    assert report.certificate["right"] == 0  # permutation matches at zero cost


def test_contraction_check_random_tuples():
    for seed in range(25):
        rng = SplitMix64(seed)
        m = rng.randint(2, 4)
        mk = lambda: tuple(Fraction(rng.randint(-40, 40), 4) for _ in range(3))
        xs = tuple(mk() for _ in range(m))
        ys = tuple(mk() for _ in range(m))
        assert barycenter_contraction_check(xs, ys, CFG).holds


def _matching_reference(xs, ys):
    """The matching minimum by walking all m! permutations."""
    m = len(xs)
    best = None
    for pi in permutations(range(m)):
        cost = sum((linf_dist(xs[i], ys[pi[i]]) for i in range(m)), Fraction(0))
        if best is None or cost < best:
            best = cost
    return best / m


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 3), st.sampled_from([1, 3, 8]), st.integers(0, 100_000))
def test_matching_minimum_matches_the_permutation_walk(m, dim, spread, seed):
    # A small spread makes many equal distances, so ties are common.
    rng = SplitMix64(seed)
    mk = lambda: tuple(Fraction(rng.randint(-spread, spread), rng.randint(1, 4)) for _ in range(dim))
    xs = tuple(mk() for _ in range(m))
    ys = tuple(mk() for _ in range(m))
    assert min_matching_average(xs, ys) == _matching_reference(xs, ys)


def test_matching_minimum_has_no_size_cap():
    xs = tuple(pt(i, -i) for i in range(40))
    assert min_matching_average(xs, xs[::-1]) == 0
    assert min_matching_average(xs, tuple(pt(i + F(1, 3), 1 - i) for i in range(40))) == 1


def test_contraction_check_at_forty_points():
    rng = SplitMix64(40)
    mk = lambda: tuple(Fraction(rng.randint(-80, 80), 8) for _ in range(3))
    xs = tuple(mk() for _ in range(40))
    ys = tuple(mk() for _ in range(40))
    report = barycenter_contraction_check(xs, ys, CFG)
    assert report.holds
    assert 0 < report.certificate["right"] <= max(linf_dist(x, y) for x, y in zip(xs, ys))


def test_matching_minimum_of_points_of_different_dims_raises():
    with pytest.raises(DimMismatch, match="points of dim 2 and 1"):
        min_matching_average((pt(0, 0), pt(1, 1)), (pt(1, 1), pt(0)))


def test_matching_minimum_of_no_points_is_a_value_error():
    with pytest.raises(ValueError, match="no points"):
        min_matching_average((), ())
    with pytest.raises(ValueError, match="different sizes"):
        min_matching_average((pt(0),), ())


def test_equivariance_translation_and_permutation():
    xs = (pt(1, 2, 3), pt(4, 0, -2), pt(-3, 5, 1), pt(2, 2, 2))
    translation = Isometry((0, 1, 2), (F(1), F(1), F(1)))
    permutation = Isometry((2, 0, 1), (F(0), F(0), F(0)))
    both = Isometry((2, 0, 1), (F(1), F(-2), F(3)))
    for iso in (translation, permutation, both):
        report = equivariance_check(iso, xs, CFG)
        assert report.holds
        assert report.certificate["gap"] == 0  # linear selection commutes exactly


def test_ip_threshold_values():
    assert ip_threshold(2) == 4
    assert ip_threshold(3) == 7
    assert ip_threshold(4) == 10
    with pytest.raises(InvalidArgument, match="^k must be >= 2$"):
        ip_threshold(1)


def test_ip_threshold_closed_form_matches_the_scan():
    """The closed form equals the scan up from n = k that it replaced, and
    answers a k of a billion at once (the scan took minutes there)."""
    import time

    def scanned(k):
        n = k
        while 2 * (n - k + 2) * (n - k + 1) <= n * (n + 1):
            n += 1
        return n

    assert [ip_threshold(k) for k in range(2, 3001)] == [scanned(k) for k in range(2, 3001)]
    started = time.perf_counter()
    assert ip_threshold(10**9) == 3414213559
    assert time.perf_counter() - started < 1


def test_ip_threshold_matches_enumerated_constants():
    for k in range(2, 11):
        threshold = ip_threshold(k)
        enumerated = next(
            n for n in range(k, 41) if ip_constants(n, k).c < 1
        )
        assert threshold == enumerated


def test_ip_constants_examples():
    params = ip_constants(4, 2)
    assert (params.N, params.N_prime, params.c) == (10, 6, F(4, 5))
    params = ip_constants(3, 2)
    assert (params.N, params.N_prime, params.c) == (6, 3, F(1))
    for n in range(2, 7):
        same = ip_constants(n, n)
        assert same.N_prime == 1
        assert same.c >= 1 or same.N < 2


def test_ip_constants_match_closed_form_count():
    # N counts the (n-1)-subsets of {1..n+1}, N' those containing {1..k-1}.
    for k in range(2, 8):
        for n in range(k, 12):
            subsets = list(combinations(range(1, n + 2), n - 1))
            N_prime = sum(set(range(1, k)) <= set(alpha) for alpha in subsets)
            params = ip_constants(n, k, F(1, 64))
            assert (params.N, params.N_prime) == (len(subsets), N_prime)
            assert params.c == F(2 * (len(subsets) - N_prime), len(subsets)) * F(65, 64) ** 2


def test_default_eps_keeps_contraction():
    eps = default_ip_eps(4, 2)
    c0 = ip_constants(4, 2).c
    assert ip_constants(4, 2, eps).c <= (1 + c0) / 2
    assert eps > 0


def test_default_eps_matches_the_grid_search():
    def searched(n, k):
        c0 = ip_constants(n, k).c
        if c0 >= 1:
            return F(0)
        eps = F(0)
        while ip_constants(n, k, eps + F(1, 1024)).c <= (1 + c0) / 2:
            eps += F(1, 1024)
        return eps

    for n in range(2, 41):
        for k in range(2, n + 1):
            assert default_ip_eps(n, k) == searched(n, k), (n, k)


def test_default_eps_of_a_large_family_is_one_square_root():
    import time

    started = time.perf_counter()
    assert default_ip_eps(120, 2) == F(3023, 1024)
    assert time.perf_counter() - started < 1


def seeded_instance(seed, n=4, dim=2):
    rng = SplitMix64(seed)
    anchor = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
    balls = []
    for _ in range(n + 1):
        c = tuple(a + Fraction(rng.randint(-40, 40), 8) for a in anchor)
        slack = Fraction(rng.randint(0, 8), 8)
        balls.append(Ball(c, linf_dist(c, anchor) + slack))
    return tuple(balls)


def test_ip_lift_contracts():
    balls = seeded_instance(424242)
    params = ip_constants(4, 2, F(1, 64))
    final, trace = ip_lift(exact_subset_oracle(None), balls, params, rounds=20)
    assert verify_trace(trace).passed
    R = trace.slacks[0]
    assert R > 0
    for j, reach in enumerate(trace.slacks):
        assert reach <= params.c ** j * R + 3 * CFG.tau
    for j, step in enumerate(trace.steps):
        assert step <= params.c ** j * R + 3 * CFG.tau
    violation = max(
        max((linf_dist(final, b.center) - b.radius for b in balls), default=F(0)), F(0)
    )
    assert violation <= params.c ** len(trace.steps) * R + 3 * CFG.tau


def test_verify_trace_rejects_a_tampered_ip_lift_trace():
    balls = seeded_instance(424242)
    params = ip_constants(4, 2, F(1, 64))
    _, trace = ip_lift(exact_subset_oracle(None), balls, params, rounds=8)
    report = verify_trace(trace)
    assert report.passed and report.observed == trace.slacks and len(trace.steps) == 8
    assert len(report.step_ok) == len(trace.slacks) + len(trace.steps)
    # The reaches are derived from the balls, never recorded.
    assert trace.slacks == tuple(map(ip_reach(balls), trace.iterates))
    # One iterate moved along the coordinate that sets its step: the derived
    # step follows the move, and a move past the step's bound c^2 R + 3 tau fails.
    prev, p = trace.iterates[2], trace.iterates[3]
    k = max(range(2), key=lambda i: abs(p[i] - prev[i]))
    sign = 1 if p[k] >= prev[k] else -1

    def moved(by):
        point = tuple(x + sign * by if i == k else x for i, x in enumerate(p))
        return replace(trace, iterates=trace.iterates[:3] + (point,) + trace.iterates[4:])

    assert moved(F(1, 1 << 20)).steps[2] == trace.steps[2] + F(1, 1 << 20)
    past = verify_trace(moved(report.bounds[2] - trace.steps[2] + F(1, 1 << 20)))
    assert not past.passed and past.step_ok[len(trace.slacks) + 2] is False
    # c is recomputed from n, k and eps, never recorded.
    assert set(trace.aux) == {"eps", "k", "tau"}
    # A trace without its balls cannot pass by default.
    report = verify_trace(replace(trace, family=None))
    assert not report.passed and report.notes == ("no balls recorded",)


# The five balls of the ``ip`` instance under bench/instances.
IP_BALLS = (
    Ball(pt(-4, 4), F(6)), Ball(pt(-2, -5), F(6)), Ball(pt(-1, 5), F(6)),
    Ball(pt(2, 0), F(5)), Ball(pt(4, -3), F(3)),
)


def test_verify_trace_recomputes_the_ip_lift_constant():
    """A stalled trace (the base point eight times, so its reaches and steps
    follow) breaks the bounds under c = 845/1024, which ``verify_trace``
    recomputes; c >= 1 never passes."""
    params = ip_constants(4, 2, F(1, 64))
    _, trace = ip_lift(exact_subset_oracle(None), IP_BALLS, params, rounds=7)
    assert params.c == F(845, 1024) and verify_trace(trace).passed
    stalled = replace(trace, iterates=trace.iterates[:1] * 8)
    assert stalled.slacks == trace.slacks[:1] * 8 and stalled.steps == (F(0),) * 7
    assert trace.slacks[0] > 0 and not verify_trace(stalled).passed
    # c >= 1 never passes, even where eps makes it the recomputed value
    eps = F(1, 2)
    c = ip_constants(4, 2, eps).c
    assert c >= 1
    report = verify_trace(replace(stalled, aux={**stalled.aux, "eps": eps}))
    assert not report.passed and report.notes == (f"c = {c} is not below 1",)


@pytest.mark.parametrize("aux, note", [
    ({}, "no k recorded"),
    ({"eps": F(1, 64), "tau": F(0)}, "no k recorded"),
    ({"k": 2, "tau": F(0)}, "no eps recorded"),
    ({"k": 2, "eps": F(1, 64)}, "no tau recorded"),
    ({"k": 9, "eps": F(1, 64), "tau": F(0)}, "k = 9 is outside 2..4"),
    ({"k": 1, "eps": F(1, 64), "tau": F(0)}, "k = 1 is outside 2..4"),
    ({"k": 2, "eps": F(-1, 2), "tau": F(0)}, "eps = -1/2 is negative"),
], ids=["empty", "no-k", "no-eps", "no-tau", "k-above-n", "k-below-2", "negative-eps"])
def test_verify_trace_fails_a_malformed_ip_lift_aux_with_a_note(aux, note):
    """A saved trace whose ``aux`` lacks k, eps or tau, or holds a k outside
    2..n or a negative eps, fails with a note instead of raising."""
    _, trace = ip_lift(exact_subset_oracle(None), IP_BALLS, ip_constants(4, 2, F(1, 64)), rounds=3)
    assert verify_trace(trace).passed
    report = verify_trace(replace(trace, aux=aux))
    assert not report.passed and report.notes == (note,)


@pytest.mark.parametrize("breach", ["no point", "outside the window", "outside a subfamily ball"])
def test_ip_lift_fails_at_the_call_of_a_breaching_oracle_answer(breach):
    """Every answer of the lift goes through ``EpsOracle.ask``: a whole-space
    oracle that breaks its contract at its 14th query (round 1) fails the
    lift with ``OracleFailure`` at call 13, naming the ball it left."""
    exact, queries = exact_subset_oracle(None), []

    def query(balls, slack):
        queries.append(balls)
        p = exact.query(balls, slack)
        if len(queries) != 14:
            return p
        if breach == "no point":
            return None
        far = tuple(v + 100 for v in balls[-1].center)  # clamped onto the subfamily or shifted
        return balls_box(balls[:-1]).clamp(far) if breach == "outside the window" else far

    params = ip_constants(4, 2, F(1, 64))
    with pytest.raises(OracleFailure) as failure:
        ip_lift(EpsOracle(query, 4, None), IP_BALLS, params, rounds=5)
    assert failure.value.step == 13 and len(queries) == 14
    left = {"no point": "no point returned",
            "outside the window": f"around {queries[-1][-1].center}",
            "outside a subfamily ball": f"around {queries[-1][0].center}"}[breach]
    assert left in str(failure.value)
    with pytest.raises(ValueError, match="does not cover"):
        ip_lift(EpsOracle(query, 3, None), IP_BALLS, params, rounds=5)


def test_ip_lift_immediate_when_base_in_all():
    balls = tuple(Ball(pt(0, 0), F(5)) for _ in range(5))
    params = ip_constants(4, 2, F(1, 64))
    final, trace = ip_lift(exact_subset_oracle(None), balls, params, rounds=10)
    assert trace.steps == ()
    assert all(b.contains(final) for b in balls)


def test_ip_lift_rejects_c_at_least_one():
    balls = seeded_instance(7, n=3)
    with pytest.raises(InvalidArgument, match=f"^c = {ip_constants(3, 2).c} is not < 1$"):
        ip_lift(exact_subset_oracle(None), balls, ip_constants(3, 2), rounds=5)


def test_ip_lift_rejects_empty_k_subfamily():
    balls = (
        Ball(pt(0, 0), F(1)),
        Ball(pt(10, 0), F(1)),
        Ball(pt(0, 10), F(1)),
        Ball(pt(10, 10), F(1)),
        Ball(pt(5, 5), F(1)),
    )
    with pytest.raises(InvalidArgument, match=r"^k-subfamily \(0, 1\) has empty intersection$"):
        ip_lift(exact_subset_oracle(None), balls, ip_constants(4, 2, F(1, 64)), rounds=5)


def _enumerated_reach(balls, k, p):
    """The reach as the paper states it: the largest distance from p to a
    (k-1)-fold intersection, one box per (k-1)-subfamily."""
    return max(balls_box(tuple(balls[i] for i in J)).dist(p) for J in combinations(range(len(balls)), k - 1))


def test_ip_reach_is_the_enumerated_reach():
    """Seeded families in dims 1-3 of 3-7 balls, every 2 <= k <= n and 10
    rational points each: every k-subfamily meets exactly when the balls'
    box is non-empty, the enumeration raises only where the box is empty
    and k > 2, and wherever both return they agree."""
    compared = raised = 0
    for seed in range(150):
        rng = SplitMix64(seed)
        dim, size = rng.randint(1, 3), rng.randint(3, 7)
        balls = tuple(Ball(tuple(F(rng.randint(-12, 12), 2) for _ in range(dim)), F(rng.randint(2, 16), 2))
                      for _ in range(size))
        meets = not balls_box(balls).is_empty()
        points = [tuple(F(rng.randint(-40, 40), 4) for _ in range(dim)) for _ in range(10)]
        for k in range(2, size):
            assert meets == all(not balls_box(tuple(balls[i] for i in J)).is_empty()
                                for J in combinations(range(size), k)), (seed, k)
            for p in points:
                try:
                    expected = _enumerated_reach(balls, k, p)
                except EmptySet:
                    assert not meets and k > 2, (seed, k)
                    raised += 1
                    continue
                if meets:
                    assert ip_reach(balls)(p) == expected, (seed, k, p)
                    compared += 1
                else:  # k = 2: single balls always meet, their box does not
                    with pytest.raises(EmptySet):
                        ip_reach(balls)(p)
    assert compared > 1000 and raised > 1000


def test_ip_lift_names_an_empty_k_subfamily_padded_with_the_lowest_indices():
    """Balls 2 and 5 are the first with the top low side and the bottom high
    side on the first empty coordinate; at k = 3 index 0 pads them."""
    centers = (1, 1, 9, 2, 3, 1, 2, 3)
    balls = tuple(Ball(pt(c, 0), F(2) if i != 5 else F(1)) for i, c in enumerate(centers))
    params = ip_constants(7, 3)
    assert params.c < 1
    with pytest.raises(InvalidArgument, match=r"^k-subfamily \(0, 2, 5\) has empty intersection$"):
        ip_lift(exact_subset_oracle(None), balls, params, rounds=1)


@pytest.mark.parametrize("k", [2, 3])
def test_verify_trace_fails_an_ip_lift_trace_whose_balls_do_not_meet(k):
    """``ip_lift`` refuses these balls; a saved trace of them fails with a
    note before any reach is derived, whatever k says."""
    balls = tuple(Ball(pt(c), F(r)) for c, r in ((0, 1), (10, 1), (5, 1), (2, 9), (3, 9)))
    trace = RefinementTrace("ip-lift", (pt(5),), LinfBallFamily(balls),
                            aux={"k": k, "eps": F(0), "tau": F(1, 1024)})
    report = verify_trace(trace)
    assert not report.passed and report.notes == ("the balls do not meet",)


def _staircase_balls(n):
    """Centers (i, (i^2 mod 11)/3) and radii d(c, 0) + 1/8, i = 0..n: every
    ball holds a neighbourhood of the origin."""
    centers = [(F(i), F(i * i % 11, 3)) for i in range(n + 1)]
    return tuple(Ball(c, linf_dist(c, pt(0, 0)) + F(1, 8)) for c in centers)


def test_a_large_lift_does_not_stall():
    """(n, k) = (30, 8) has C(31, 8) = 7.9 million k-subfamilies; the lift
    reads one box, so 3 rounds and the trace check stay well under 2 s.
    At (20, 6) the reaches equal the enumeration over C(21, 5) folds."""
    import time

    started = time.perf_counter()
    params = ip_constants(30, 8, default_ip_eps(30, 8))
    _, trace = ip_lift(exact_subset_oracle(None), _staircase_balls(30), params, rounds=3)
    assert verify_trace(trace).passed
    assert time.perf_counter() - started < 2
    balls = _staircase_balls(20)
    _, trace = ip_lift(exact_subset_oracle(None), balls, ip_constants(20, 6, default_ip_eps(20, 6)), rounds=3)
    folds = [balls_box(tuple(balls[i] for i in J)) for J in combinations(range(21), 5)]
    assert trace.slacks == tuple(max(box.dist(p) for box in folds) for p in trace.iterates)
    assert len(trace.iterates) == 4 and trace.slacks[0] > trace.slacks[-1] > 0
