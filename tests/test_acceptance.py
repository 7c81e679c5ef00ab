"""Acceptance criteria, one test per criterion, exact tolerances as stated.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); a FAIL
line is printed before the failing assertion fires so the verdict is always
legible in the output.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from hyperball.barycenter import (
    BarycenterConfig,
    Isometry,
    barycenter,
    ip_lift,
    ip_threshold,
    min_matching_average,
)
from hyperball.convexity import distance_convexity_check
from hyperball.lab import (
    BoxUnion,
    LinfBallFamily,
    four_to_n_consistency,
    helly_counterexample,
    refute_search,
    verify_refutation,
)
from hyperball.linf import Ball, Box, box_retraction, linf_dist, mean_point
from hyperball.lp import HPolyhedron, halfspace, lp_feasible
from hyperball.metric import (
    FiniteMetricSpace,
    GraphInstance,
    graph_metric,
    gromov_product,
    is_modular,
    median_set,
)
from hyperball.refine import (
    exact_subset_oracle,
    almost_to_exact,
    ip_constants,
    saturating_subset_oracle,
    triple_intersection,
    verify_trace,
)
from hyperball.rng import SplitMix64, derive_seed

from conftest import F, pt, random_metric

TAU = Fraction(1, 1 << 30)
CFG = BarycenterConfig(tau=TAU)


def _line(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {name} ... {verdict}{suffix}")


def test_criterion_01_helly_counterexample():
    started = time.monotonic()
    for n in range(2, 7):
        inst = helly_counterexample(n)
        for j, witness in enumerate(inst.witnesses):
            for i, hs in enumerate(inst.halfspaces):
                if i != j:
                    assert hs.contains(witness)  # zero tolerance
        total = tuple(r for hs in inst.halfspaces for r in hs.rows)
        assert not lp_feasible(HPolyhedron(n, total)).feasible
    elapsed = time.monotonic() - started
    ok = elapsed < 1.0
    _line(1, "Helly counterexample dims 2..6", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_02_median_gromov_identity():
    failures = 0
    for i in range(200):
        space = random_metric(derive_seed(20260810, i), max_points=8)
        n = space.size
        for x, y, z in product(range(n), repeat=3):
            rx = gromov_product(space, y, z, x)
            ry = gromov_product(space, x, z, y)
            rz = gromov_product(space, x, y, z)
            balls = tuple(
                w
                for w in range(n)
                if space.d(w, x) <= rx and space.d(w, y) <= ry and space.d(w, z) <= rz
            )
            if median_set(space, x, y, z) != balls:
                failures += 1
    _line(2, "median = Gromov-ball intersection on 200 spaces", failures == 0)
    assert failures == 0


def _prufer_tree(n, code):
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    code = list(code)
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def _tree_metric(n, edges) -> FiniteMetricSpace:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = []
    for start in range(n):
        row = [-1] * n
        row[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[w] < 0:
                        row[w] = row[u] + 1
                        nxt.append(w)
            frontier = nxt
        dist.append([Fraction(d) for d in row])
    return FiniteMetricSpace(tuple(tuple(row) for row in dist))


def _all_labeled_trees(n):
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for code in product(range(n), repeat=n - 2):
        yield _prufer_tree(n, code)


def test_criterion_03_modularity_fixtures():
    tree_failures = 0
    trees = 0
    for n in range(1, 8):
        for edges in _all_labeled_trees(n):
            trees += 1
            if not is_modular(_tree_metric(n, edges)).holds:
                tree_failures += 1

    c5 = graph_metric(GraphInstance(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))))
    c5_report = is_modular(c5)
    c5_ok = (
        c5_report.refuted
        and median_set(c5, 0, 2, 4) == ()  # named witness (1,3,5), 1-based
        and median_set(c5, *c5_report.certificate["triple"]) == ()
    )

    # In K_n the interval of distinct x, y is {x, y}, so a distinct triple has
    # median set {x,y} & {y,z} & {x,z} = {}: K_n is modular only for n <= 2.
    complete_failures = []
    for n in range(1, 7):
        dist = [[Fraction(0 if i == j else 1) for j in range(n)] for i in range(n)]
        kn = FiniteMetricSpace(tuple(tuple(r) for r in dist))
        report = is_modular(kn)
        if n <= 2:
            right = report.holds and report.certificate["triples_checked"] == 0
        else:
            triple = report.certificate.get("triple", ())
            right = (
                report.refuted
                and len(set(triple)) == 3
                and median_set(kn, *triple) == ()
            )
        if not right:
            complete_failures.append(n)

    ok = tree_failures == 0 and c5_ok and not complete_failures
    detail = f"{trees} trees; K_1..K_2 hold, K_3..K_6 refuted by an empty-median triple"
    if complete_failures:
        detail = f"{trees} trees; wrong verdict or certificate on K_n for n in {complete_failures}"
    _line(3, "modularity fixtures (trees, complete graphs, C5)", ok, detail)
    assert tree_failures == 0, "some tree failed the modularity check"
    assert c5_ok, "C5 verdict or witness triple failed"
    assert not complete_failures, (
        f"complete graphs on {complete_failures} points got the wrong verdict: "
        "K_1 and K_2 must hold with no triple checked, and K_n for n >= 3 must "
        "be refuted by a distinct triple whose median set is empty"
    )


def test_criterion_04_barycenter_contract():
    ok = True
    for i in range(100):
        rng = SplitMix64(derive_seed(40, i))
        dim = rng.randint(1, 3)
        m = rng.randint(1, 5)
        mk = lambda: tuple(Fraction(rng.randint(-80, 80), 8) for _ in range(dim))
        xs = tuple(mk() for _ in range(m))
        ys = tuple(mk() for _ in range(m))
        bx = barycenter(xs, CFG)  # raises NoConvergence past 200 rounds
        ok &= linf_dist(bx, mean_point(xs)) <= TAU
        by = barycenter(ys, CFG)
        ok &= linf_dist(bx, by) <= min_matching_average(xs, ys) + 3 * TAU
        perm = tuple(rng.shuffled(list(range(dim))))
        shift = tuple(Fraction(rng.randint(-8, 8)) for _ in range(dim))
        iso = Isometry(perm, shift)
        mapped = barycenter(tuple(iso.apply(p) for p in xs), CFG)
        ok &= linf_dist(iso.apply(bx), mapped) <= 2 * TAU
        if not ok:
            break
    _line(4, "barycenter convergence, matching bound, equivariance (100 tuples)", ok)
    assert ok


def test_criterion_05_ip_threshold_two_routes():
    ok = ip_threshold(2) == 4 and ip_threshold(3) == 7 and ip_threshold(4) == 10
    for k in range(2, 11):
        enumerated = next(n for n in range(k, 41) if ip_constants(n, k).c < 1)
        ok &= ip_threshold(k) == enumerated
    _line(5, "intersection threshold, closed form vs enumeration (k<=10)", ok)
    assert ok


def test_criterion_06_ip_lift_contraction():
    rng = SplitMix64(424242)
    anchor = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
    balls = []
    for _ in range(5):
        c = (anchor[0] + F(rng.randint(-40, 40), 8), anchor[1] + F(rng.randint(-40, 40), 8))
        balls.append(Ball(c, linf_dist(c, anchor) + F(rng.randint(0, 8), 8)))
    params = ip_constants(4, 2, F(1, 64))
    final, trace = ip_lift(exact_subset_oracle(None), tuple(balls), params, rounds=30, cfg=CFG)
    R = trace.slacks[0]
    assert R > 0  # nontrivial instance
    rate = F(4, 5) + F(1, 20)
    steps_ok = all(s <= rate**j * R + 3 * TAU for j, s in enumerate(trace.steps))
    trace_ok = verify_trace(trace).passed
    violation = max(
        max((linf_dist(final, b.center) - b.radius for b in balls), default=F(0)), F(0)
    )
    final_ok = violation <= F(1, 10**6)
    _line(6, "ip-lift step bounds, trace re-check and final violation",
          steps_ok and trace_ok and final_ok, f"violation={float(violation):.2e}")
    assert steps_ok and trace_ok and final_ok


def test_criterion_07_refinement_schemes():
    # (a) halving-slack iteration under a slack-saturating oracle
    a_ok = True
    for i in range(50):
        rng = SplitMix64(derive_seed(7001, i))
        dim = rng.randint(1, 3)
        lo = tuple(Fraction(rng.randint(-6, 0)) for _ in range(dim))
        subset = Box(lo, tuple(l + Fraction(rng.randint(1, 6)) for l in lo))
        anchor = subset.clamp(tuple(Fraction(rng.randint(-6, 6)) for _ in range(dim)))
        balls = tuple(
            Ball(
                c := tuple(Fraction(rng.randint(-20, 20), 2) for _ in range(dim)),
                linf_dist(c, anchor) + Fraction(rng.randint(0, 4), 2),
            )
            for _ in range(rng.randint(2, 4))
        )
        scale = Fraction(1 << rng.randint(0, 4), 4)
        family = LinfBallFamily(balls, subset)
        final, trace = almost_to_exact(
            saturating_subset_oracle(subset), family, iterations=40, scale=scale
        )
        for k, step in enumerate(trace.steps):
            a_ok &= step <= scale * (Fraction(1, 1 << (k + 1)) + Fraction(1, 1 << (k + 2)))
        violation = max(
            max((linf_dist(final, b.center) - b.radius for b in balls), default=F(0)), F(0)
        )
        a_ok &= violation <= scale / (1 << 39)
        if not a_ok:
            break

    # (b) 3/4-contraction on pairwise-intersecting box triples
    b_ok = True
    nontrivial = 0
    for i in range(50):
        rng = SplitMix64(derive_seed(7002, i))
        dim = rng.randint(1, 3)
        mk = lambda: tuple(Fraction(rng.randint(-16, 16), 2) for _ in range(dim))
        w01, w02, w12 = mk(), mk(), mk()
        margin = lambda: Fraction(rng.randint(0, 4), 2)
        def hull(p, q):
            m = margin()
            return Box(
                tuple(min(a, b) - m for a, b in zip(p, q)),
                tuple(max(a, b) + m for a, b in zip(p, q)),
            )
        a0, a1, a2 = hull(w01, w02), hull(w01, w12), hull(w02, w12)
        x0 = w12
        final, trace = triple_intersection(
            exact_subset_oracle(a0), exact_subset_oracle(a1), exact_subset_oracle(a2),
            x0, rounds=40,
        )
        report = verify_trace(trace)
        r0 = report.observed[0]
        if r0 > 0:
            nontrivial += 1
        for n, gap in enumerate(report.observed):
            b_ok &= gap <= Fraction(3, 4) ** n * r0
        for n, step in enumerate(trace.steps):
            b_ok &= step <= Fraction(1, 2) * Fraction(3, 4) ** n * r0
        b_ok &= a1.contains(final) and a2.contains(final)
        b_ok &= a0.dist(final) <= Fraction(3, 4) ** 40 * r0
        if not b_ok:
            break
    b_ok &= nontrivial >= 10
    _line(7, "refinement schemes (halving slack; 3/4 contraction)", a_ok and b_ok,
          f"{nontrivial} nontrivial triples")
    assert a_ok and b_ok


def test_criterion_08_retraction_inequalities():
    failures = 0
    for i in range(1000):
        rng = SplitMix64(derive_seed(8, i))
        dim = rng.randint(1, 4)
        q = lambda: Fraction(rng.randint(-40, 40), 4)
        lo = tuple(q() for _ in range(dim))
        box = Box(lo, tuple(l + abs(q()) for l in lo))
        x = tuple(q() for _ in range(dim))
        y = tuple(q() for _ in range(dim))
        rho_x, rho_y = box_retraction(box, x), box_retraction(box, y)
        if linf_dist(rho_x, rho_y) > linf_dist(x, y):
            failures += 1
        if linf_dist(x, rho_x) != box.dist(x):
            failures += 1
        if linf_dist(rho_x, y) > max(linf_dist(x, y), box.dist(y)):
            failures += 1
    _line(8, "clamp retraction: Lipschitz, proximinal, max bound (1000 triples)", failures == 0)
    assert failures == 0


def test_criterion_09_convexity_consistency():
    # (a) exact midpoint convexity of distance along 200 seeded segments
    conv_ok = True
    for i in range(200):
        rng = SplitMix64(derive_seed(91, i))
        dim = rng.randint(2, 3)
        rows = tuple(
            (
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)),
                Fraction(rng.randint(0, 8)),
            )
            for _ in range(rng.randint(1, 4))
        )
        poly = HPolyhedron(dim, rows)  # origin feasible: non-empty by construction
        x = tuple(Fraction(rng.randint(-80, 80), 8) for _ in range(dim))
        y = tuple(Fraction(rng.randint(-80, 80), 8) for _ in range(dim))
        conv_ok &= distance_convexity_check(poly, x, y).holds
        if not conv_ok:
            break

    # (b) boxes survive the refuter at levels 2..6; the two-box fixture falls
    box_ok = True
    for i in range(100):
        rng = SplitMix64(derive_seed(92, i))
        dim = rng.randint(1, 3)
        lo = tuple(Fraction(rng.randint(-32, 24), 4) for _ in range(dim))
        subset = Box(lo, tuple(l + Fraction(rng.randint(1, 16), 4) for l in lo))
        for level in range(2, 7):
            report = refute_search(subset, level, 10_000, derive_seed(93 + i, level))
            box_ok &= report.verdict == "inconclusive"
        if not box_ok:
            break

    union = BoxUnion((Box(pt(0, 0), pt(1, 1)), Box(pt(3, 0), pt(4, 1))))
    fixture = refute_search(union, 2, 1_000, seed=7)
    union_ok = fixture.refuted and verify_refutation(union, fixture.certificate["balls"])

    ok = conv_ok and box_ok and union_ok
    _line(9, "distance convexity + box refuter consistency", ok)
    assert conv_ok and box_ok and union_ok


def test_criterion_10_ladder_consistency():
    fixtures = [
        Box(pt(0, 0), pt(1, 1)),
        Box(pt(-2, -1), pt(3, F(5, 2))),
        Box((F(0),), (F(4),)),
        BoxUnion((Box(pt(0, 0), pt(1, 1)), Box(pt(3, 0), pt(4, 1)))),
        BoxUnion((Box((F(0),), (F(1),)), Box((F(5),), (F(6),)))),
        halfspace([1, 1], -1),            # optimal-order family member
        halfspace([-1, 1], 0),            # coordinate-difference half-space
        halfspace([0, -1], 0),            # axis half-space
        halfspace([1, 1, 1], 0),          # undecided 3d diagonal half-space
    ]
    flagged = []
    for i, subset in enumerate(fixtures):
        report = four_to_n_consistency(subset, 6, 10_000, derive_seed(10_000, i))
        if report.refuted:
            flagged.append((i, report.certificate.get("flag")))
    _line(10, "ladder consistency over the fixture suite", not flagged,
          f"{len(fixtures)} fixtures")
    assert not flagged, f"THEOREM-INCONSISTENT flags: {flagged}"
