"""Constructive refinement schemes over slack oracles.

A slack oracle answers "give me a point of the subset inside every ball,
each inflated by eps" — the almost-hyperconvexity interface.  The three
schemes here turn such answers into points, each returned with the
``RefinementTrace`` that certifies its error bounds:

* ``almost_to_exact``  — halving-slack Cauchy iteration ("cauchy-halving");
* ``chain_walk``       — the finite alternating walk between two subsets
                         ("chain-walk"), with an optional outer loop that
                         drives the pair distance to zero geometrically;
* ``triple_intersection`` — the 3/4-contraction onto a third subset
                         ("triple-34").

``EpsOracle.ask`` checks every ask, those of ``barycenter.ip_lift``
included: more balls than ``level`` is an ``InvalidArgument``, a breaching
answer an ``OracleFailure``, never absorbed.  A trace keeps only its
iterates and the inputs its bounds are stated in; its steps and slacks are
derived from them once.  ``verify_trace`` re-checks a cauchy-halving, chain-walk,
triple-34 or ip-lift trace on those derived values with exact rationals,
and is the one place that states scheme bounds: no scheme checks its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Any, Callable, Mapping

from .errors import HyperballError, InvalidArgument
from .lab import LinfBallFamily, NotAdmissible, _require_admissible
from .linf import Ball, Box, Point, balls_box, linf_dist, linf_within, within_balls
from .sets import pair_witness, subset_dist, subset_witness_in_box


class OracleFailure(HyperballError):
    """The oracle violated its contract at the given call index."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(f"oracle contract violated at call {step}: {message}")
        self.step = step


class PairwiseIntersectionUnverified(HyperballError):
    """A required intersection of two subsets (and a pick's balls) could not be certified non-empty."""


@dataclass(frozen=True)
class EpsOracle:
    """``query(balls, slack)`` -> point in subset ∩ (inflated balls).

    ``level`` declares how many balls the contract covers; ``subset`` is
    the set handle used for exact membership and distance verification,
    None for the whole max-norm space.
    """

    query: Callable[[tuple[Ball, ...], Fraction], Point | None]
    level: int
    subset: Any

    def ask(self, balls: tuple[Ball, ...], slack: Fraction, call: int) -> Point:
        """The query's answer, or ``OracleFailure`` at ``call`` if it breaks
        the contract; ``InvalidArgument`` if asked more balls than ``level``.
        All the balls are tested in one integer pass; only a miss tests them
        one by one, to name the first ball missed."""
        if len(balls) > self.level:
            raise InvalidArgument(f"oracle contract does not cover {len(balls)} balls (level {self.level})")
        p = self.query(balls, slack)
        if p is None:
            raise OracleFailure(call, "no point returned")
        if not within_balls(p, balls, slack):
            missed = next(b for b in balls if not linf_within(p, b.center, b.radius, slack))
            raise OracleFailure(call, f"outside inflated ball around {missed.center}")
        if self.subset is not None and not self.subset.contains(p):
            raise OracleFailure(call, "point not in subset")
        return p


def _grown_witness(subset, balls: tuple[Ball, ...], box: Box, slack: Fraction) -> Point | None:
    """The box search in the balls' box grown by slack: a point, or None.
    Over the whole space (subset None) the point is the grown box's clamp
    of the last ball's center."""
    grown = Box(tuple(v - slack for v in box.lo), tuple(v + slack for v in box.hi)) if slack else box
    if subset is not None:
        return subset_witness_in_box(subset, grown).witness
    return None if grown.is_empty() else grown.clamp(balls[-1].center)


def exact_subset_oracle(subset, level: int = 64) -> EpsOracle:
    """Oracle backed by the subset's exact witness search: returned points
    satisfy the *uninflated* constraints whenever that is possible.  The
    last ball's center is the answer when it lies in every ball (one
    integer pass) and then in the subset, as each later ask of
    ``almost_to_exact`` is centred on an answer; otherwise the box search
    runs.  With subset None it answers over the whole max-norm space."""

    def query(balls: tuple[Ball, ...], slack: Fraction) -> Point | None:
        center = balls[-1].center
        if within_balls(center, balls, 0) and (subset is None or subset.contains(center)):
            return center
        box = balls_box(balls)
        hit = _grown_witness(subset, balls, box, Fraction(0))
        return hit if hit is not None else _grown_witness(subset, balls, box, slack)

    return EpsOracle(query, level, subset)


def saturating_subset_oracle(subset, level: int = 64) -> EpsOracle:
    """Contract-conformant stress oracle: answers from the fully inflated
    system only, so returned points may violate the uninflated constraints
    by up to the whole slack."""

    def query(balls: tuple[Ball, ...], slack: Fraction) -> Point | None:
        return _grown_witness(subset, balls, balls_box(balls), slack)

    return EpsOracle(query, level, subset)


@dataclass(frozen=True)
class RefinementTrace:
    """What a run chose and the inputs its bounds are stated in: the
    iterates, the ball family and ``aux``.  ``steps`` and ``slacks`` are
    derived from these once, never recorded."""

    scheme: str  # "cauchy-halving" | "chain-walk" | "triple-34" | "ip-lift" (barycenter.ip_lift)
    iterates: tuple[Point, ...]
    family: LinfBallFamily | None = None
    aux: Mapping[str, Any] = field(default_factory=dict)

    @cached_property
    def steps(self) -> tuple[Fraction, ...]:
        """The step distances d(x_i, x_i+1)."""
        return tuple(linf_dist(p, q) for p, q in zip(self.iterates, self.iterates[1:]))

    @cached_property
    def slacks(self) -> tuple[Fraction, ...]:
        """Per scheme: the halving schedule scale * 2^-(i+1) per iterate, the
        chain-walk pair gaps, the triple-34 gaps d(x_n, A0), or the ip-lift
        reaches; ``InvalidArgument`` for an unknown scheme."""
        iterates, aux = self.iterates, self.aux
        if self.scheme == "cauchy-halving":
            return tuple(aux.get("scale", Fraction(1)) / (1 << (i + 1)) for i in range(len(iterates)))
        if self.scheme == "chain-walk":
            return tuple(linf_dist(a, b) for a, b in zip(iterates[::2], iterates[1::2]))
        if self.scheme == "triple-34":
            return tuple(subset_dist(aux["subsets"][0], p) for p in iterates)
        if self.scheme == "ip-lift":
            return tuple(map(ip_reach(self.family.balls), iterates))
        raise InvalidArgument(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class ContractionReport:
    scheme: str
    observed: tuple[Fraction, ...]
    bounds: tuple[Fraction, ...]
    step_ok: tuple[bool, ...]
    passed: bool
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Scheme 1: halving-slack Cauchy iteration


def almost_to_exact(
    oracle: EpsOracle,
    family: LinfBallFamily,
    iterations: int = 40,
    scale: Fraction = Fraction(1),
) -> tuple[Point, RefinementTrace]:
    """Iterate slack halving: point k+1 is asked to lie within
    scale * 2^-(k+1) of every target ball and within
    scale * (2^-k + 2^-(k+1)) of point k, so the sequence is Cauchy with an
    explicit geometric tail.

    The slack schedule assumes unit scale; ``scale`` stretches it to the
    instance's size and is recorded in the trace.
    """
    if iterations < 1:
        raise InvalidArgument("need at least one iteration")
    if scale <= 0:
        raise InvalidArgument("scale must be positive")
    _require_admissible(family if oracle.subset is None else replace(family, subset=oracle.subset))
    balls = family.balls
    iterates: list[Point] = []
    prev: Point | None = None
    for k in range(iterations):
        asked = balls if prev is None else balls + (Ball(prev, scale / (1 << k)),)
        prev = oracle.ask(asked, scale / (1 << (k + 1)), k)
        iterates.append(prev)
    return prev, RefinementTrace("cauchy-halving", tuple(iterates), family, aux={"scale": scale})


# ---------------------------------------------------------------------------
# Scheme 2: alternating chain walk between two subsets


def _chain_step(
    oracle_a: EpsOracle,
    oracle_b: EpsOracle,
    x: Point,
    r: Fraction,
    y: Point,
    eps: Fraction,
    delta: Fraction,
    call_base: int,
) -> tuple[Point, Point, int]:
    """One pass of the finite walk: n0 alternate slack-oracle picks marching
    from y toward the ball B(x, r), then two picks ending with a pair
    (a, a'); returns (a, a', n0) after n0 + 2 asks.  ``verify_trace``
    states the pair's bounds."""
    d_xy = linf_dist(x, y)
    s = d_xy - r
    eps_tilde = eps / 2
    n0 = int(s // eps_tilde) if s > 0 else 0
    delta_used = min(delta, eps_tilde / (n0 + 1))
    acc = Fraction(0)  # running sum of delta_used / 2^i
    prev = y
    for n in range(1, n0 + 1):
        target = oracle_a if n % 2 == 1 else oracle_b
        slack = delta_used / (1 << n)
        asked = (Ball(prev, eps_tilde + acc), Ball(x, d_xy - n * eps_tilde + acc))
        prev = target.ask(asked, slack, call_base + n - 1)
        acc += slack
    # prev sits in A' when n0 is even (y counts as both); finish with the
    # opposite set first so the pair straddles both subsets.
    first, second = (oracle_a, oracle_b) if n0 % 2 == 0 else (oracle_b, oracle_a)
    slack1 = delta_used / (1 << (n0 + 1))
    asked1 = (Ball(prev, eps_tilde + acc), Ball(x, r + acc))
    p1 = first.ask(asked1, slack1, call_base + n0)
    acc += slack1
    slack2 = delta_used / (1 << (n0 + 2))
    asked2 = (Ball(p1, eps_tilde + acc), Ball(x, r + acc))
    p2 = second.ask(asked2, slack2, call_base + n0 + 1)
    return (p1, p2, n0) if n0 % 2 == 0 else (p2, p1, n0)


def chain_walk(
    oracle_a: EpsOracle,
    oracle_b: EpsOracle,
    x: Point,
    r: Fraction,
    y: Point,
    eps: Fraction,
    delta: Fraction,
    rounds: int = 1,
    ambient: EpsOracle | None = None,
) -> tuple[tuple[Point, Point], RefinementTrace]:
    """Find a straddling pair near B(x, r) starting from a common point y.

    Preconditions (verified exactly): y lies in both subsets and
    d(x, A), d(x, A') <= r.  With s := d(x,y) - r < 0 the walk is skipped and
    (y, y) is returned on the "negative-gap" path.  ``rounds`` > 1 runs the
    outer double-sequence, re-centering through a 3-ball ambient oracle and
    halving both tolerances each round.  The trace's iterates are the pairs
    a_1, a'_1, a_2, a'_2, ..., whose gaps are its slacks; ``aux`` holds the
    subsets, the inputs, the ambient centers x_n of rounds 2.., and the
    path, the first pass's n0 and the number of asks.
    """
    if eps <= 0 or delta <= 0:
        raise InvalidArgument("eps and delta must be positive")
    if rounds < 1:
        raise InvalidArgument("rounds must be >= 1")
    for oracle, name in ((oracle_a, "A"), (oracle_b, "A'")):
        if not oracle.subset.contains(y):
            raise InvalidArgument(f"y is not in {name}")
        if subset_dist(oracle.subset, x) > r:
            raise NotAdmissible(f"d(x, {name}) > r")
    pairs, centers, n0, calls = [(y, y)], [], 0, 0
    if linf_dist(x, y) >= r:
        if rounds > 1 and ambient is None:
            raise InvalidArgument("outer rounds need a 3-ball ambient oracle")
        halve = 2 if rounds > 1 else 1
        a, b, n0 = _chain_step(oracle_a, oracle_b, x, r, y, eps / halve, delta / halve, 0)
        pairs, calls = [(a, b)], n0 + 2
        for n in range(2, rounds + 1):
            eps_n = eps / (1 << n)  # the third ball's radius is r + delta (1 - 2^-(n-1)) - eps_n
            asked = (Ball(a, eps_n), Ball(b, eps_n), Ball(x, r + delta - delta / (1 << (n - 1)) - eps_n))
            centers.append(ambient.ask(asked, delta / (1 << (n + 2)), calls))
            a, b, inner_n0 = _chain_step(oracle_a, oracle_b, centers[-1], eps_n + delta / (1 << (n + 2)),
                                         y, eps_n, delta / (1 << (n + 1)), calls + 1)
            pairs.append((a, b))
            calls += inner_n0 + 3
    trace = RefinementTrace(
        "chain-walk",
        tuple(p for pair in pairs for p in pair),
        aux={"subsets": (oracle_a.subset, oracle_b.subset), "x": x, "r": r, "y": y, "eps": eps,
             "delta": delta, "centers": tuple(centers), "path": "chain" if calls else "negative-gap",
             "n0": n0, "calls": calls},
    )
    return pairs[-1], trace


# ---------------------------------------------------------------------------
# Scheme 3: 3/4-contraction onto a third subset


def _pick(first, second, balls: tuple[Ball, ...], name: str):
    """``pair_witness``'s point, or ``PairwiseIntersectionUnverified`` naming the pair."""
    p = pair_witness(first, second, balls)
    if p is None:
        raise PairwiseIntersectionUnverified(name if not balls else f"{name} within the pick's balls")
    return p


def triple_intersection(
    oracle0: EpsOracle,
    oracle1: EpsOracle,
    oracle2: EpsOracle,
    x0: Point,
    rounds: int = 40,
) -> tuple[Point, RefinementTrace]:
    """March a point of A1 ∩ A2 toward A0 with ratio 3/4 per round.

    Requires all three subsets to pairwise intersect (certified up front).
    Each round asks oracle0 for 3 balls and re-centers exactly inside
    B(x_n, rho/2) ∩ B(xbar, 3/4 rho) with xbar in A0; ``verify_trace``
    states and re-checks the bounds that follow.  The trace's ``aux``
    holds the subsets, from which its slacks, the gaps d(x_n, A0), follow.
    """
    if rounds < 0:
        raise InvalidArgument("rounds must be >= 0")
    A0, A1, A2 = oracle0.subset, oracle1.subset, oracle2.subset
    if not (A1.contains(x0) and A2.contains(x0)):
        raise InvalidArgument("x0 must lie in A1 and A2")
    for left, right, name in ((A0, A1, "A0,A1"), (A0, A2, "A0,A2"), (A1, A2, "A1,A2")):
        _pick(left, right, (), name)
    iterates: list[Point] = [x0]
    gaps: list[Fraction] = [subset_dist(A0, x0)]
    for call in range(rounds):
        rho, xn = gaps[-1], iterates[-1]
        if rho == 0:
            break
        y = _pick(A0, A1, (Ball(xn, rho * Fraction(13, 12)),), "A0,A1")
        z = _pick(A0, A2, (Ball(xn, rho * Fraction(7, 6)), Ball(y, rho * Fraction(7, 6))), "A0,A2")
        asked = (Ball(xn, rho), Ball(y, rho * Fraction(7, 12)), Ball(z, rho * Fraction(7, 12)))
        xbar = oracle0.ask(asked, rho / 12, call)
        iterates.append(_pick(A1, A2, (Ball(xbar, rho * Fraction(3, 4)), Ball(xn, rho / 2)), "A1,A2"))
        gaps.append(subset_dist(A0, iterates[-1]))
    return iterates[-1], RefinementTrace("triple-34", tuple(iterates), aux={"subsets": (A0, A1, A2)})


# ---------------------------------------------------------------------------
# (n, k) intersection-property constants (the ``ip-lift`` contraction bound)


@dataclass(frozen=True)
class IPParams:
    n: int
    k: int
    N: int
    N_prime: int
    c: Fraction
    eps: Fraction


def ip_constants(n: int, k: int, eps: Fraction = Fraction(0)) -> IPParams:
    """N = C(n+1, 2) counts the (n-1)-subsets of {1..n+1} and
    N' = C(n-k+2, 2) those containing a fixed (k-1)-set;
    c = 2 (N - N')/N (1+eps)^2.  The tests count both by enumeration."""
    if k < 2:
        raise InvalidArgument("k must be >= 2")
    if not (k <= n):
        raise InvalidArgument("need k <= n")
    if eps < 0:
        raise InvalidArgument("eps must be >= 0")
    N, N_prime = comb(n + 1, 2), comb(n - k + 2, 2)
    c = Fraction(2 * (N - N_prime), N) * (1 + eps) ** 2
    return IPParams(n, k, N, N_prime, c, eps)


def ip_reach(balls: tuple[Ball, ...]) -> Callable[[Point], Fraction]:
    """The ``ip-lift`` reach: p -> the largest distance from p to a (k-1)-fold
    intersection of the balls, any k >= 2.  That is p's distance to their box,
    which every fold's box holds; the fold holding the ball that sets p's gap
    to it keeps that gap, and the folds meet when it does (Helly on the line)."""
    return balls_box(balls).dist


# ---------------------------------------------------------------------------
# Independent trace verification


#: The ``aux`` inputs each scheme's bounds are stated in.
_RECORDED = {"cauchy-halving": (), "chain-walk": ("subsets", "x", "r", "y", "eps", "delta", "centers"),
             "triple-34": ("subsets",), "ip-lift": ("k", "eps", "tau")}


def verify_trace(trace: RefinementTrace) -> ContractionReport:
    """Re-check the scheme's bounds on the trace's derived steps and slacks;
    a perturbed iterate fails at its step.  The one place that states the
    bounds of "cauchy-halving" (steps within the sum of the slacks around
    them, and the final iterate within the final slack of every ball),
    "chain-walk" (each pass's pair in A × A', within its radius plus delta
    of its center, at most its eps apart, and a within max(s, 0) + eps of
    y; each outer round n's pair moved at most (2 eps + delta)/2^n, within
    r + delta (1 - 2^-n) of x, and a within s + eps (1 - 2^-n) of y; a
    negative gap s gives the pair (y, y)), "triple-34" (iterates in
    A1 ∩ A2, gaps d(x_n, A0) at most r0 (3/4)^n with r0 the first, and
    steps at most half the gap before them) and "ip-lift" (reaches and
    steps at most c^j R + 3 tau, R the first reach and c
    ``ip_constants(len(balls) - 1, k, eps).c``, which must be below 1).
    A trace without iterates or without one of the ``aux`` inputs its
    bounds are stated in, and an ip-lift one without balls, with k outside
    2..n, with a negative eps or whose balls do not meet, fail with a note.
    Any other scheme raises ``InvalidArgument``."""
    scheme, aux = trace.scheme, trace.aux
    if scheme not in _RECORDED:
        raise InvalidArgument(f"unknown scheme {scheme!r}")
    missing = ("no iterates recorded" if not trace.iterates else
               "no balls recorded" if scheme == "ip-lift" and trace.family is None else
               next((f"no {key} recorded" for key in _RECORDED[scheme] if key not in aux), None))
    if missing is None and scheme == "ip-lift":
        n = len(trace.family.balls) - 1
        missing = (f"k = {aux['k']} is outside 2..{n}" if aux["k"] not in range(2, n + 1) else
                   f"eps = {aux['eps']} is negative" if aux["eps"] < 0 else
                   "the balls do not meet" if balls_box(trace.family.balls).is_empty() else None)
    if missing:
        return ContractionReport(scheme, (), (), (), False, notes=(missing,))
    steps, slacks = trace.steps, trace.slacks
    if scheme == "cauchy-halving":  # slacks hold the schedule scale * 2^-(i+1)
        bounds = tuple(a + b for a, b in zip(slacks, slacks[1:]))
        ok = tuple(s <= b for s, b in zip(steps, bounds))
        notes: tuple[str, ...] = ()
        if trace.family is not None:
            for b in trace.family.balls:
                if not linf_within(trace.iterates[-1], b.center, b.radius, slacks[-1]):
                    ok, notes = ok + (False,), notes + ("final iterate violates the final slack",)
        return ContractionReport(scheme, steps, bounds, ok, all(ok), notes)
    if scheme == "triple-34":  # slacks hold the gaps d(x_n, A0)
        _, A1, A2 = aux["subsets"]
        if not all(A1.contains(p) and A2.contains(p) for p in trace.iterates):
            return ContractionReport(scheme, (), (), (), False, notes=("an iterate lies outside A1 ∩ A2",))
        bounds = tuple(slacks[0] * Fraction(3, 4) ** n for n in range(len(slacks)))
        others = tuple(s <= g / 2 for s, g in zip(steps, slacks))
    elif scheme == "ip-lift":  # slacks hold the reaches
        c = ip_constants(len(trace.family.balls) - 1, aux["k"], aux["eps"]).c
        if c >= 1:
            return ContractionReport(scheme, slacks, (), (), False, notes=(f"c = {c} is not below 1",))
        bounds = tuple(c**j * slacks[0] + 3 * aux["tau"] for j in range(len(slacks)))
        others = tuple(s <= b for s, b in zip(steps, bounds))
    else:  # chain-walk: iterates a_1, a'_1, a_2, a'_2, ...; slacks hold the pair gaps
        A, A_prime = aux["subsets"]
        x, r, y, eps, delta, centers = (aux[key] for key in ("x", "r", "y", "eps", "delta", "centers"))
        pairs = tuple(zip(trace.iterates[::2], trace.iterates[1::2]))
        if not all(A.contains(a) and A_prime.contains(b) for a, b in pairs):
            return ContractionReport(scheme, (), (), (), False, notes=("a pair lies outside A × A'",))
        # each pass's (center, radius, eps, delta); round 1 halves eps and delta when outer rounds follow
        passes = [(x, r) + ((eps / 2, delta / 2) if centers else (eps, delta))] + [
            (c, eps / (1 << n) + delta / (1 << (n + 2)), eps / (1 << n), delta / (1 << (n + 1)))
            for n, c in enumerate(centers, start=2)
        ]
        bounds = tuple(e for _, _, e, _ in passes)  # also each outer round's pair-gap bound eps/2^n
        s = linf_dist(x, y) - r
        others = (len(trace.iterates) == 2 * len(passes), s >= 0 or pairs == ((y, y),))
        for (a, b), (c, radius, e, d) in zip(pairs, passes):
            others += (linf_within(c, a, radius, d), linf_within(c, b, radius, d),
                       linf_within(y, a, max(linf_dist(c, y) - radius, 0), e))
        for n, ((a_prev, _), (a, b)) in enumerate(zip(pairs, pairs[1:]), start=2):
            reach = r + delta - delta / (1 << n)
            others += (linf_within(a_prev, a, (2 * eps + delta) / (1 << n)),
                       linf_within(x, a, reach) and linf_within(x, b, reach),
                       linf_within(y, a, s + eps - eps / (1 << n)))
    # gap or reach checks, then the steps' and the other bounds' checks
    ok = tuple(g <= b for g, b in zip(slacks, bounds)) + others
    return ContractionReport(scheme, slacks, bounds, ok, all(ok))
