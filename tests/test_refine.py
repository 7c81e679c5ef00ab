import pathlib
from dataclasses import replace
from fractions import Fraction

import pytest

from hyperball.io import parse_instance
from hyperball.lab import LinfBallFamily, NotAdmissible
from hyperball.linf import Ball, Box, balls_box, linf_dist
from hyperball.lp import box_to_polyhedron, halfspace
from hyperball.refine import (
    EpsOracle,
    OracleFailure,
    PairwiseIntersectionUnverified,
    RefinementTrace,
    almost_to_exact,
    chain_walk,
    exact_subset_oracle,
    saturating_subset_oracle,
    triple_intersection,
    verify_trace,
)

from conftest import F, pt

BOX = Box(pt(0, 0), pt(2, 2))
INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "bench" / "instances"


def broken_oracle(subset, offset: Fraction, level: int = 64) -> EpsOracle:
    """Deliberately out-of-contract oracle for failure-path tests: the
    saturating oracle's answer shifted by offset in every coordinate."""
    inner = saturating_subset_oracle(subset, level)

    def query(balls, slack):
        hit = inner.query(balls, slack)
        return None if hit is None else tuple(c + offset for c in hit)

    return replace(inner, query=query)


def box_family():
    balls = (Ball(pt(3, 1), F(2)), Ball(pt(-1, 1), F(2)))
    return LinfBallFamily(balls, BOX)


def test_almost_to_exact_bounds_hold_exactly():
    fam = box_family()
    oracle = saturating_subset_oracle(BOX)
    final, trace = almost_to_exact(oracle, fam, iterations=40, scale=F(1))
    for i, step in enumerate(trace.steps):
        assert step <= Fraction(1, 1 << (i + 1)) + Fraction(1, 1 << (i + 2))
    violation = max(
        max((linf_dist(final, b.center) - b.radius for b in fam.balls), default=F(0)),
        F(0),
    )
    assert violation <= Fraction(1, 1 << 40)
    assert verify_trace(trace).passed


def test_almost_to_exact_scaled_schedule():
    fam = box_family()
    oracle = saturating_subset_oracle(BOX)
    scale = F(8)
    _, trace = almost_to_exact(oracle, fam, iterations=12, scale=scale)
    assert trace.aux["scale"] == scale
    for i, step in enumerate(trace.steps):
        assert step <= scale * (Fraction(1, 1 << (i + 1)) + Fraction(1, 1 << (i + 2)))


def test_almost_to_exact_constant_when_point_found():
    fam = LinfBallFamily((Ball(pt(1, 1), F(1)), Ball(pt(1, 1), F(2))), BOX)
    oracle = exact_subset_oracle(BOX)
    _, trace = almost_to_exact(oracle, fam, iterations=6)
    assert len(set(trace.iterates)) == 1
    assert all(step == 0 for step in trace.steps)


def test_almost_to_exact_oracle_contract_enforced():
    fam = box_family()
    with pytest.raises(OracleFailure) as exc:
        almost_to_exact(broken_oracle(BOX, F(10)), fam, iterations=4)
    assert exc.value.step == 0


def test_oracle_contract_is_exact_at_halving_denominators():
    """After 40 halvings the asked centers and slacks are over 2^40: a point
    exactly radius + slack from a center passes ``ask``, and the same point
    2^-60 further out is an ``OracleFailure`` at its call."""
    center = (F(-12345, 1 << 40), F(678901, 1 << 40))
    radius, slack = F(1, 1 << 39), F(1, 1 << 40)
    balls = (Ball(pt(0, 0), F(1)), Ball(center, radius))
    for k, sign in ((0, 1), (1, -1)):
        edge = tuple(c + sign * (radius + slack) if i == k else c for i, c in enumerate(center))
        beyond = tuple(c + sign * F(1, 1 << 60) if i == k else c for i, c in enumerate(edge))
        assert EpsOracle(lambda balls, slack: edge, 2, None).ask(balls, slack, 39) == edge
        with pytest.raises(OracleFailure, match="outside inflated ball") as failure:
            EpsOracle(lambda balls, slack: beyond, 2, None).ask(balls, slack, 39)
        assert failure.value.step == 39


def test_a_breach_names_the_first_ball_missed():
    """All the balls are tested in one pass; a miss then names the first
    ball, in asked order, that the answer lies outside."""
    balls = (Ball(pt(0, 0), F(2)), Ball(pt(3, 1), F(2)), Ball(pt(9, 9), F(1)))
    for answer, missed in ((pt(0, -2), "(Fraction(3, 1), Fraction(1, 1))"),
                           (pt(2, 1), "(Fraction(9, 1), Fraction(9, 1))")):
        with pytest.raises(OracleFailure) as failure:
            EpsOracle(lambda balls, slack: answer, 3, None).ask(balls, F(1, 4), 7)
        assert str(failure.value) == f"oracle contract violated at call 7: outside inflated ball around {missed}"


def test_almost_to_exact_rejects_inadmissible():
    balls = (Ball(pt(0, 0), F(1)), Ball(pt(9, 0), F(1)))
    with pytest.raises(NotAdmissible):
        almost_to_exact(exact_subset_oracle(BOX), LinfBallFamily(balls, BOX))


def test_almost_to_exact_level_guard():
    fam = box_family()
    with pytest.raises(ValueError):
        almost_to_exact(exact_subset_oracle(BOX, level=2), fam)


A_RIGHT = halfspace([-1, 0], 0)  # x >= 0
A_UP = halfspace([0, -1], 0)  # y >= 0


def test_chain_walk_crossing_halfplanes():
    x, y, r = pt(-3, -3), pt(2, 2), F(3)
    (a, a_prime), trace = chain_walk(
        saturating_subset_oracle(A_RIGHT),
        saturating_subset_oracle(A_UP),
        x, r, y, F(1, 2), F(1, 4),
    )
    s = linf_dist(x, y) - r
    assert a[0] >= 0  # a in A
    assert a_prime[1] >= 0  # a' in A'
    assert linf_dist(x, a) <= r + F(1, 4)
    assert linf_dist(x, a_prime) <= r + F(1, 4)
    assert linf_dist(a, a_prime) <= F(1, 2)
    assert linf_dist(y, a) <= s + F(1, 2)
    assert trace.aux["n0"] == int(s / (F(1, 4)))
    assert trace.iterates == (a, a_prime) and verify_trace(trace).passed


def test_chain_walk_zero_gap_single_round():
    # x in both sets with r = d(x, y): s = 0, no chain steps, two final picks
    _, trace = chain_walk(
        exact_subset_oracle(A_RIGHT),
        exact_subset_oracle(A_UP),
        pt(0, 0), F(3), pt(3, 0), F(1, 2), F(1, 4),
    )
    assert trace.aux["n0"] == 0 and trace.aux["calls"] == 2


def test_chain_walk_eps_larger_than_gap():
    _, trace = chain_walk(
        saturating_subset_oracle(A_RIGHT),
        saturating_subset_oracle(A_UP),
        pt(-3, -3), F(3), pt(2, 2), F(8), F(1, 4),
    )
    assert trace.aux["n0"] == 0 and trace.aux["calls"] == 2


def test_chain_walk_negative_gap_path():
    y = pt(2, 2)
    pair, trace = chain_walk(
        exact_subset_oracle(A_RIGHT),
        exact_subset_oracle(A_UP),
        pt(1, 1), F(5), y, F(1, 2), F(1, 4),
    )
    assert trace.aux["path"] == "negative-gap" and trace.aux["calls"] == 0
    assert pair == (y, y) and verify_trace(trace).passed
    # on the negative-gap path only (y, y) passes, even a pair within every bound
    q = (F(2), F(5, 2))  # in A ∩ A', within r + delta of x and eps of y
    assert A_RIGHT.contains(q) and A_UP.contains(q) and linf_dist(y, q) == F(1, 2)
    report = verify_trace(replace(trace, iterates=(q, q)))
    assert not report.passed and report.step_ok.count(False) == 1


def test_refine_cli_takes_the_chain_walk_verdict_from_its_trace(monkeypatch, capsys):
    """The chain walk on the bench instance records a passing trace; a
    trace that breaks a bound gives ``refuted`` (exit 1)."""
    from hyperball import cli, refine

    traces, real = [], refine.chain_walk

    def recorded(*args):
        traces.append(real(*args))
        return traces[-1]

    monkeypatch.setattr(refine, "chain_walk", recorded)
    argv = ["refine", "--instance", str(INSTANCES / "chain.json"), "--scheme", "chain-walk"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "chain-walk: holds  (path=chain n0=8 calls=10)\n"
    ((a, b), trace), = traces
    assert verify_trace(trace).passed
    # b moved within A' and within r + delta of x, but 1 away from a
    broken = _moved(trace, 1, (b[0] - 1, b[1]))
    monkeypatch.setattr(refine, "chain_walk", lambda *args: ((a, broken.iterates[1]), broken))
    assert cli.main(argv) == 1
    assert capsys.readouterr().out.startswith("chain-walk: refuted")


def outer_walk():
    ambient = exact_subset_oracle(Box(pt(-50, -50), pt(50, 50)), level=3)
    return chain_walk(
        saturating_subset_oracle(A_RIGHT),
        saturating_subset_oracle(A_UP),
        pt(-3, -3), F(3), pt(2, 2), F(1, 2), F(1, 4),
        rounds=5, ambient=ambient,
    )


def test_chain_walk_outer_rounds_contract():
    """``verify_trace`` checks each round's pair gap against eps/2^n (eps/2
    for round 1) along with the step, d_x and d_y bounds of rounds 2..5."""
    (a, a_prime), trace = outer_walk()
    assert len(trace.aux["centers"]) == 4 and len(trace.iterates) == 10
    report = verify_trace(trace)
    assert report.passed and report.observed == trace.slacks
    assert report.bounds == tuple(F(1, 2) / (1 << n) for n in range(1, 6))
    assert all(g <= b for g, b in zip(report.observed, report.bounds))
    assert linf_dist(a, a_prime) <= F(1, 2) / (1 << 5)
    # the last pair dropped: four pairs for the five passes the centers record
    cut = replace(trace, iterates=trace.iterates[:-2])
    assert not verify_trace(cut).passed


def _moved(trace, index, point):
    """The trace with iterate ``index`` replaced; its steps and gaps follow."""
    return replace(trace, iterates=trace.iterates[:index] + (point,) + trace.iterates[index + 1:])


def _shifted(trace, first, shift):
    """The chain-walk trace with the pairs of rounds ``first``.. and their
    ambient centers moved by ``shift`` along the first axis."""
    moved = lambda p: (p[0] + shift, p[1])
    for index in range(2 * first - 2, len(trace.iterates)):
        trace = _moved(trace, index, moved(trace.iterates[index]))
    centers = trace.aux["centers"]
    return replace(trace, aux={**trace.aux, "centers": centers[:first - 2] + tuple(map(moved, centers[first - 2:]))})


def test_chain_walk_trace_is_checked_from_its_subsets_and_inputs_alone():
    """Hand-made breaches fail: a' moved out of A', a pair gap above eps,
    an outer round's pair moved past its step bound or past its distance
    bound from x, and a trace without subsets."""
    _, single = chain_walk(
        saturating_subset_oracle(A_RIGHT), saturating_subset_oracle(A_UP),
        pt(-3, -3), F(3), pt(2, 2), F(1, 2), F(1, 4),
    )
    a, a_prime = single.iterates
    outside = _moved(single, 1, (a_prime[0], F(-1)))
    report = verify_trace(outside)
    assert not report.passed and report.notes == ("a pair lies outside A × A'",)
    # a' still in A' and within r + delta of x, but 3/4 away from a: only the gap check fails
    wide = verify_trace(_moved(single, 1, (a[0] - F(3, 4), a_prime[1])))
    assert wide.observed == (F(3, 4),) and wide.bounds == (F(1, 2),)
    assert not wide.passed and wide.step_ok[0] is False and all(wide.step_ok[1:])
    # each pass keeps its own bounds when its ambient center moves with it
    _, outer = outer_walk()
    step_bound = (2 * F(1, 2) + F(1, 4)) / 8  # round 3's (2 eps + delta)/2^3
    past = _shifted(outer, 3, step_bound + F(1, 64))
    assert linf_dist(past.iterates[2], past.iterates[4]) > step_bound
    report = verify_trace(past)
    assert not report.passed and not report.notes and report.step_ok.count(False) == 1
    # rounds 2..5 moved by 1/4: each step within bound, each pair past r + delta (1 - 2^-n) from x
    far = verify_trace(_shifted(outer, 2, F(1, 4)))
    assert not far.passed and far.step_ok.count(False) == 4
    # round 3's ambient center alone moved by 1: a_3 and a'_3 leave B(x_3, r_3 + delta_3)
    centers = outer.aux["centers"]
    off = (centers[0], (centers[1][0] + 1, centers[1][1])) + centers[2:]
    assert verify_trace(replace(outer, aux={**outer.aux, "centers": off})).step_ok.count(False) == 2
    bare = replace(single, aux={key: v for key, v in single.aux.items() if key != "subsets"})
    report = verify_trace(bare)
    assert not report.passed and report.notes == ("no subsets recorded",)


@pytest.mark.parametrize("key", ["x", "r", "y", "eps", "delta", "centers"])
def test_chain_walk_trace_without_an_input_fails_with_a_note(key):
    _, trace = outer_walk()
    assert verify_trace(trace).passed
    report = verify_trace(replace(trace, aux={k: v for k, v in trace.aux.items() if k != key}))
    assert not report.passed and report.notes == (f"no {key} recorded",)


def test_chain_walk_distance_from_y_is_checked_per_pass_and_per_round():
    """Over one box as both subsets, with x = 0, r = 1, y = (3, 0),
    eps = 1/2 and delta = 1/4 (so s = 2): a pair 3 from y breaks its pass's
    bound s + eps, and a second round ending 5/2 from y breaks the round
    bound s + eps (1 - 2^-2) while its own pass, around a far center, holds."""
    box = Box(pt(-10, -10), pt(10, 10))
    aux = {"subsets": (box, box), "x": pt(0, 0), "r": F(1), "y": pt(3, 0), "eps": F(1, 2), "delta": F(1, 4)}

    def report(*points, centers=()):  # the pairs (p, p)
        iterates = tuple(p for p in points for _ in range(2))
        return verify_trace(RefinementTrace("chain-walk", iterates, aux={**aux, "centers": centers}))

    assert report(pt(1, 0)).passed
    assert report(pt(0, F(-5, 4))).step_ok.count(False) == 1
    assert report(pt(F(3, 4), 0), pt(F(1, 2), 0), centers=(pt(F(21, 64), 0),)).step_ok.count(False) == 1


def test_chain_walk_outer_rounds_need_ambient():
    with pytest.raises(ValueError):
        chain_walk(
            exact_subset_oracle(A_RIGHT), exact_subset_oracle(A_UP),
            pt(-3, -3), F(3), pt(2, 2), F(1, 2), F(1, 4), rounds=3,
        )


def test_chain_walk_checks_its_ball_counts_and_rounds():
    """Every pick of the walk asks two balls, so level-1 subset oracles fail
    at the first ask; outer rounds need an ambient oracle of level 3, and
    at least one round is run."""
    with pytest.raises(ValueError, match="does not cover 2 balls"):
        chain_walk(
            exact_subset_oracle(A_RIGHT, level=1), exact_subset_oracle(A_UP, level=1),
            pt(-3, -3), F(3), pt(2, 2), F(1, 2), F(1, 4),
        )
    with pytest.raises(ValueError, match="does not cover 3 balls"):
        chain_walk(
            exact_subset_oracle(A_RIGHT), exact_subset_oracle(A_UP),
            pt(-3, -3), F(3), pt(2, 2), F(1, 2), F(1, 4),
            rounds=2, ambient=exact_subset_oracle(Box(pt(-50, -50), pt(50, 50)), level=2),
        )
    with pytest.raises(ValueError, match="rounds must be >= 1"):
        chain_walk(
            exact_subset_oracle(A_RIGHT), exact_subset_oracle(A_UP),
            pt(-3, -3), F(3), pt(2, 2), F(1, 2), F(1, 4), rounds=0,
        )


def triple_boxes():
    a0 = Box(pt(4, 0), pt(6, 2))
    a1 = Box(pt(0, 0), pt(5, 1))
    a2 = Box(pt(0, 1), pt(5, 3))
    return a0, a1, a2


def test_triple_intersection_contraction():
    a0, a1, a2 = triple_boxes()
    final, trace = triple_intersection(
        exact_subset_oracle(a0), exact_subset_oracle(a1), exact_subset_oracle(a2),
        pt(0, 1), rounds=40,
    )
    report = verify_trace(trace)
    assert report.passed
    r0 = report.observed[0]
    for n, gap in enumerate(report.observed):
        assert gap <= Fraction(3, 4) ** n * r0
    assert a1.contains(final) and a2.contains(final)
    assert a0.dist(final) <= Fraction(3, 4) ** 40 * r0
    # The gaps are derived from the iterates and A0, never recorded.
    assert trace.slacks == report.observed == tuple(a0.dist(p) for p in trace.iterates)


def test_triple_intersection_through_polyhedra_matches_boxes():
    """With A0 and A2 as four rows each, every pick on them is the box search
    of ``pair_witness`` on their rows and lands where the box picks land."""
    a0, a1, a2 = triple_boxes()
    runs = [
        triple_intersection(*(exact_subset_oracle(s) for s in sets), pt(0, 1), rounds=40)
        for sets in ((a0, a1, a2), (box_to_polyhedron(a0), a1, box_to_polyhedron(a2)))
    ]
    (box_final, box_report), (final, report) = ((p, verify_trace(trace)) for p, trace in runs)
    assert final == box_final and report.observed == box_report.observed
    assert len(report.observed) == 41 and report.passed


def test_exact_oracle_retries_with_the_inflated_balls():
    oracle = exact_subset_oracle(BOX)
    balls = (Ball(pt(3, 1), F(1, 2)),)  # misses BOX = [0, 2]^2 by 1/2
    assert oracle.query(balls, F(1, 4)) is None
    p = oracle.ask(balls, F(1, 2), 0)
    assert BOX.contains(p) and linf_dist(p, pt(3, 1)) == 1


def test_triple_intersection_constant_when_inside():
    a0, a1, a2 = triple_boxes()
    x0 = pt(5, 1)  # already in all three
    final, trace = triple_intersection(
        exact_subset_oracle(a0), exact_subset_oracle(a1), exact_subset_oracle(a2),
        x0, rounds=10,
    )
    report = verify_trace(trace)
    assert final == x0
    assert report.observed == (F(0),)


def test_triple_intersection_zero_rounds():
    a0, a1, a2 = triple_boxes()
    final, trace = triple_intersection(
        exact_subset_oracle(a0), exact_subset_oracle(a1), exact_subset_oracle(a2),
        pt(0, 1), rounds=0,
    )
    report = verify_trace(trace)
    assert final == pt(0, 1)
    assert report.observed[0] == a0.dist(pt(0, 1))


def test_triple_34_trace_is_checked_from_its_subsets_alone():
    """The gaps and r0 come from the recorded subsets: a stalled trace fails
    whatever r0 it records, and a trace without subsets, or with an iterate
    outside A1 ∩ A2, fails with a note."""
    a0, a1, a2 = triple_boxes()
    x0 = pt(0, 1)
    stalled = RefinementTrace("triple-34", (x0, x0), aux={"subsets": (a0, a1, a2)})
    assert stalled.slacks == (F(4), F(4)) and stalled.steps == (F(0),)
    assert not verify_trace(stalled).passed
    assert not verify_trace(replace(stalled, aux={**stalled.aux, "r0": F(100)})).passed
    bare = RefinementTrace("triple-34", (x0, x0), aux={"r0": F(0)})
    report = verify_trace(bare)
    assert not report.passed and report.notes == ("no subsets recorded",)
    # Over the boxes of the bench triple instance, (5, 5) is in neither A1 nor A2.
    kind, (subsets, _) = parse_instance(INSTANCES / "triple.json")
    assert kind == "triple" and subsets == (a0, a1, a2)
    outside = RefinementTrace("triple-34", (pt(5, 5),), aux={"subsets": subsets})
    report = verify_trace(outside)
    assert not report.passed and report.notes == ("an iterate lies outside A1 ∩ A2",)


def test_triple_intersection_reports_a_re_centering_outside_its_bounds(monkeypatch):
    """A re-centering pick far outside B(x_n, rho/2) is not raised inside the
    scheme: ``verify_trace``'s report carries the breach."""
    from hyperball import refine

    a0 = Box(pt(4, 0), pt(6, 2))
    a1, a2 = Box(pt(-90, -90), pt(90, 1)), Box(pt(-90, 1), pt(90, 90))
    real = refine.pair_witness

    def far(first, second, balls=()):
        p = real(first, second, balls)
        return (p[0] - 80, p[1]) if first is a1 and second is a2 and balls else p

    monkeypatch.setattr(refine, "pair_witness", far)
    final, trace = triple_intersection(
        *(exact_subset_oracle(s) for s in (a0, a1, a2)), pt(0, 1), rounds=1,
    )
    report = verify_trace(trace)
    assert a1.contains(final) and a2.contains(final)
    assert not report.passed and report.step_ok == (True, False, False)


def test_triple_intersection_requires_pairwise():
    a0 = Box(pt(10, 10), pt(11, 11))
    a1 = Box(pt(0, 0), pt(1, 1))
    a2 = Box(pt(0, 0), pt(1, 1))
    with pytest.raises(PairwiseIntersectionUnverified):
        triple_intersection(
            exact_subset_oracle(a0), exact_subset_oracle(a1), exact_subset_oracle(a2),
            pt(0, 0), rounds=2,
        )


def test_verify_trace_catches_perturbation():
    fam = box_family()
    _, trace = almost_to_exact(saturating_subset_oracle(BOX), fam, iterations=6)
    good = verify_trace(trace)
    assert good.passed
    tampered = RefinementTrace(
        trace.scheme,
        trace.iterates[:-1] + ((trace.iterates[-1][0] + 1, trace.iterates[-1][1]),),
        trace.family,
        trace.aux,
    )
    assert not verify_trace(tampered).passed


def test_verify_trace_checks_the_final_slack():
    """Six saturating steps end at (63/64, 0), exactly the final slack 1/64
    past B((3, 1), 2); moved to (251/256, 0), every step stays within its
    bound but the point leaves that slack, so only the last check fails."""
    _, trace = almost_to_exact(saturating_subset_oracle(BOX), box_family(), iterations=6)
    assert trace.iterates[-1] == (F(63, 64), F(0)) and trace.slacks[-1] == F(1, 64)
    assert verify_trace(trace).passed
    report = verify_trace(replace(trace, iterates=trace.iterates[:-1] + ((F(251, 256), F(0)),)))
    assert not report.passed and report.notes == ("final iterate violates the final slack",)
    assert report.step_ok[-1] is False and all(report.step_ok[:-1])


def test_verify_trace_checks_the_halving_slacks():
    _, trace = almost_to_exact(saturating_subset_oracle(BOX), box_family(), iterations=6, scale=F(4))
    assert trace.slacks == tuple(F(4, 1 << (i + 1)) for i in range(6))
    assert verify_trace(trace).passed
    # the slacks are derived from the scale and the iterates, one per iterate
    assert replace(trace, iterates=trace.iterates[:-1]).slacks == trace.slacks[:-1]
    forged = replace(trace, aux={"scale": F(8)})
    assert forged.slacks == tuple(F(8, 1 << (i + 1)) for i in range(6))
    # the trace alone cannot tell a forged scale from the one the run used:
    # a larger scale only loosens every bound (ROADMAP item 14)
    assert verify_trace(forged).passed


def test_verify_trace_refuses_unknown_schemes():
    """An unknown scheme raises ``ValueError``, even with an empty trace,
    and so does reading its slacks."""
    for iterates in ((), (pt(0, 0), pt(1, 1))):
        with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
            verify_trace(RefinementTrace("bogus", iterates))
        with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
            RefinementTrace("bogus", iterates).slacks


def test_verify_trace_fails_every_empty_trace():
    """No scheme returns a trace without iterates, so none passes."""
    for scheme in ("cauchy-halving", "chain-walk", "triple-34", "ip-lift"):
        report = verify_trace(RefinementTrace(scheme, ()))
        assert not report.passed and report.notes == ("no iterates recorded",), scheme


def _intersected_answer(subset, balls, *grows):
    """The box search's answer read from the balls' window grown by each of
    ``grows`` in turn: ``subset.intersect(window)``'s witness, or over the
    whole space (subset None) the window's clamp of the last ball's center."""
    for grow in grows:
        window = balls_box(tuple(Ball(b.center, b.radius + grow) for b in balls))
        if window.is_empty():
            continue
        hit = window.clamp(balls[-1].center) if subset is None else subset.intersect(window).witness()
        if hit is not None:
            return hit
    return None


def _center_first_answer(subset, balls, slack):
    """The exact oracle's contract: the last ball's center when it lies in
    the subset and in every ball, else the uninflated window's answer, else
    the one grown by slack."""
    center = balls[-1].center
    if (subset is None or subset.contains(center)) and all(b.contains(center) for b in balls):
        return center
    return _intersected_answer(subset, balls, F(0), slack)


def _checked(real, expected, answers):
    """``real`` (an oracle factory) with every query's answer asserted equal
    to ``expected(subset, balls, slack)`` and recorded in ``answers`` with
    its balls."""

    def checked(subset, level=64):
        oracle = real(subset, level)

        def query(balls, slack):
            hit = oracle.query(balls, slack)
            assert hit == expected(subset, balls, slack)
            answers.append((balls, hit))
            return hit

        return replace(oracle, query=query)

    return checked


def test_exact_oracle_answers_match_the_intersected_polyhedron_on_the_lp_repeat_pool(monkeypatch):
    """On the refinements of ten ``lp-repeat`` blocks every answer is the
    last center when that center lies in the subset and every asked ball,
    and otherwise ``subset.intersect(window)``'s witness; at least 1,560 of
    the 1,600 queries are center answers."""
    from hyperball import refine

    monkeypatch.syspath_prepend(str(INSTANCES.parent))
    from workloads import LPRepeat

    answers = []
    monkeypatch.setattr(refine, "exact_subset_oracle",
                        _checked(refine.exact_subset_oracle, _center_first_answer, answers))
    workload = LPRepeat(seed=7, smoke=False)
    for index in range(10):  # the 40 refinements of ten blocks, as the workload runs them
        for op in workload.block(index):
            if ".refine." in op.op_id:
                assert op.check(op.run()) is None
    assert len(answers) == 10 * len(workload.refined) * 40
    assert None not in (hit for _, hit in answers)
    assert sum(hit == balls[-1].center for balls, hit in answers) >= 1560


def _counted_solves(monkeypatch):
    from hyperball import lp

    solves, real = [], lp._solve
    monkeypatch.setattr(lp, "_solve", lambda *args, **kw: solves.append(args) or real(*args, **kw))
    return solves


def test_exact_oracle_answers_a_qualifying_center_without_an_lp(monkeypatch):
    poly = box_to_polyhedron(BOX)
    balls = (Ball(pt(3, 1), F(2)), Ball(pt(1, 1), F(1)))  # (1, 1) lies in BOX and both balls
    solves = _counted_solves(monkeypatch)
    assert exact_subset_oracle(poly).ask(balls, F(1, 4), 0) == pt(1, 1)
    assert solves == []


@pytest.mark.parametrize("balls", [
    (Ball(pt(1, 1), F(2)), Ball(pt(3, 1), F(2))),  # last center outside the subset
    (Ball(pt(3, 1), F(3, 2)), Ball(pt(1, 1), F(1))),  # last center outside the first ball
], ids=["outside-subset", "outside-ball"])
def test_exact_oracle_falls_back_to_the_box_search_when_the_center_misses(monkeypatch, balls):
    poly = box_to_polyhedron(BOX)
    solves = _counted_solves(monkeypatch)
    p = exact_subset_oracle(poly).ask(balls, F(1, 4), 0)
    assert p != balls[-1].center and len(solves) == 1
    assert p == _intersected_answer(poly, balls, F(0), F(1, 4))
    assert exact_subset_oracle(BOX).ask(balls, F(1, 4), 0) == _intersected_answer(BOX, balls, F(0), F(1, 4))


def test_saturating_oracle_answers_from_the_grown_window_even_at_a_qualifying_center():
    """The stress oracle keeps no center-first answer: it reads the window
    grown by the slack, here another point than the qualifying center."""
    poly = box_to_polyhedron(BOX)
    balls = (Ball(pt(3, 1), F(2)), Ball(pt(1, 1), F(1)))
    for subset in (poly, BOX):
        p = saturating_subset_oracle(subset).ask(balls, F(1, 4), 0)
        assert p == _intersected_answer(subset, balls, F(1, 4))
    assert saturating_subset_oracle(poly).ask(balls, F(1, 4), 0) != pt(1, 1)


def test_whole_space_oracle_answers_the_clamp_on_the_ip_instance(monkeypatch, capsys):
    """Over the whole space a center inside every ball is its own clamp, so
    ``ip-lift`` on the bench ``ip`` instance gets the answers of the
    window clamp alone, as before the center-first answer."""
    from hyperball import cli, refine

    answers = []
    monkeypatch.setattr(refine, "exact_subset_oracle",
                        _checked(refine.exact_subset_oracle,
                                 lambda subset, balls, slack: _intersected_answer(None, balls, F(0), slack),
                                 answers))
    assert cli.main(["ip-lift", "--instance", str(INSTANCES / "ip.json")]) == 0
    capsys.readouterr()
    assert answers and None not in (hit for _, hit in answers)
