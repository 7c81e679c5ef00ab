"""Hyperconvexity predicates, witness searches, randomized refuters, and
Helly-order machinery over the max-norm and finite-metric backends.

Both ball-family kinds answer ``d`` (their metric) and ``items`` (their
(center, radius) pairs), so one path serves both metrics, and a family
rejects a subset, ball or pair of the other metric.  Only the witness
search differs by subset kind: enumeration, or ``subset_witness_in_box``.

Certificates are the contract: a refutation always carries a ball family
that re-verifies exactly (admissible, intersection certified empty), and a
randomized search that finds nothing reports "inconclusive", never "holds".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm
from typing import Sequence

from .errors import DimMismatch, EmptySet, InternalError, InvalidArgument, SizeCapExceeded
from .linf import (
    Ball, FeasibilityResult, Point, ball_family_intersection, balls_box, linf_dist,
)
from .lp import HPolyhedron, intersection, lp_feasible
from .metric import FiniteMetricSpace, GraphInstance, graph_metric, integer_matrix
from .rng import derive_seed, draw
from .reports import HOLDS, INCONCLUSIVE, REFUTE_MODES, REFUTED, PropertyReport
from .sets import (
    BoxUnion,  # re-exported: ``from hyperball.lab import BoxUnion``
    FiniteSubset,
    subset_dist,
    subset_nearest,
    subset_nonempty,
    subset_window,
    subset_witness_in_box,
)


class NotAdmissible(InvalidArgument):
    """Ball family violates an admissibility constraint."""


# ---------------------------------------------------------------------------
# Ball families and admissibility


@dataclass(frozen=True)
class LinfBallFamily:
    """Balls of the max norm, optionally tied to a subset constraint."""

    balls: tuple[Ball, ...]
    subset: object | None = None
    d = staticmethod(linf_dist)  # the family's metric

    def __post_init__(self):
        if not self.balls:
            raise InvalidArgument("family needs at least one ball")
        for b in self.balls:
            if not isinstance(b, Ball):
                raise DimMismatch(f"{b!r} is not a max-norm ball")
            if b.dim != self.dim:
                raise DimMismatch("balls of different dims")
        if self.subset is not None and getattr(self.subset, "dim", None) != self.dim:
            raise DimMismatch("subset is not a max-norm subset of the balls' dim")

    @property
    def dim(self) -> int:
        return self.balls[0].dim

    @property
    def items(self) -> tuple[tuple[Point, Fraction], ...]:
        return tuple((b.center, b.radius) for b in self.balls)

    def prepend(self, center: Point, radius: Fraction) -> "LinfBallFamily":
        """The family with B(center, radius) put first."""
        return replace(self, balls=(Ball(center, radius),) + self.balls)

    def __len__(self) -> int:
        return len(self.balls)


@dataclass(frozen=True)
class FiniteBallFamily:
    """Balls given by center indices and radii inside a finite metric space."""

    space: FiniteMetricSpace
    items: tuple[tuple[int, Fraction], ...]
    subset: FiniteSubset | None = None

    def __post_init__(self):
        for item in self.items:
            if isinstance(item, Ball) or not isinstance(item[0], int):
                raise DimMismatch(f"{item!r} is not a (center index, radius) pair")
            i, r = item
            if not (0 <= i < self.space.size):
                raise InvalidArgument(f"center index {i} out of range")
            if r < 0:
                raise InvalidArgument("radius must be >= 0")
        if self.subset is not None and getattr(self.subset, "space", None) != self.space:
            raise DimMismatch("subset is not a finite subset of the family's space")

    @property
    def d(self):
        return self.space.d

    def prepend(self, center: int, radius: Fraction) -> "FiniteBallFamily":
        """The family with B(center, radius) put first."""
        return replace(self, items=((center, radius),) + self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    kind: str | None = None  # "pairwise" | "external"
    indices: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_admissible(family: LinfBallFamily | FiniteBallFamily) -> AdmissibilityResult:
    """Exact pairwise admissibility d(x_i,x_j) <= r_i + r_j, plus
    d(x_i, A) <= r_i when the family carries a subset."""
    d, items = family.d, family.items
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (ci, ri), (cj, rj) = items[i], items[j]
            if d(ci, cj) > ri + rj:
                return AdmissibilityResult(False, "pairwise", (i, j))
    if family.subset is not None:
        for i, (c, r) in enumerate(items):
            if subset_dist(family.subset, c) > r:
                return AdmissibilityResult(False, "external", (i,))
    return AdmissibilityResult(True)


def _require_nonempty(subset) -> None:
    """``EmptySet`` unless the subset is non-empty; a half-space with a
    non-zero normal is, with no LP."""
    if getattr(subset, "_halfspace_row", None) is None and not subset_nonempty(subset):
        raise EmptySet("subset is empty")


def _require_admissible(family: LinfBallFamily | FiniteBallFamily) -> None:
    adm = check_admissible(family)
    if not adm:
        raise NotAdmissible(f"{adm.kind} violation at {adm.indices}")


def hyperconvex_witness(family: LinfBallFamily | FiniteBallFamily) -> FeasibilityResult:
    """Common point of a pairwise-admissible family, or certified emptiness.

    Max-norm balls always intersect when admissible (per-coordinate interval
    arithmetic); a finite family is an external one over the whole space.
    """
    if family.subset is not None:
        raise InvalidArgument("hyperconvex_witness takes a family without a subset")
    if isinstance(family, FiniteBallFamily):
        return external_witness(FiniteSubset(family.space, tuple(range(family.space.size))), family)
    _require_admissible(family)
    return ball_family_intersection(family.balls)


def external_witness(subset, family: LinfBallFamily | FiniteBallFamily) -> FeasibilityResult:
    """Point of subset inside every ball of an externally admissible family,
    or certified emptiness (a refutation certificate for external
    hyperconvexity at this family size).  Checks that the subset is
    non-empty and the family admissible, then runs ``_external_search``."""
    _require_nonempty(subset)
    family = replace(family, subset=subset)
    _require_admissible(family)
    return _external_search(subset, family)


def _external_search(subset, family: LinfBallFamily | FiniteBallFamily) -> FeasibilityResult:
    """The search of ``external_witness`` for a family known admissible:
    enumeration on a finite subset, else the box search in the balls' box."""
    if isinstance(subset, FiniteSubset):
        d = family.d
        for v in subset.indices:
            if all(d(v, c) <= r for c, r in family.items):
                return FeasibilityResult("witness", witness=v)
        return FeasibilityResult("infeasible", certificate={"checked": len(subset.indices)})
    return subset_witness_in_box(subset, balls_box(family.balls))


def weakly_external_witness(
    subset, x, r: Fraction, inner: LinfBallFamily | FiniteBallFamily
) -> FeasibilityResult:
    """Point of subset ∩ B(x, r) ∩ (inner balls), where inner centers lie in
    the subset and x is a single external center: the external witness of
    the family with (x, r) prepended, so admissibility covers d(x, subset)
    <= r and d(x, x_i) <= r + r_i."""
    family = replace(inner.prepend(x, r), subset=subset)
    for i, (c, _) in enumerate(inner.items):
        if not subset.contains(c):
            raise InvalidArgument(f"inner center {i} not in subset")
    return external_witness(subset, family)


def verify_refutation(subset, balls: Sequence, mode: str = "external") -> bool:
    """Exact re-verification in one pass: the subset is non-empty, the
    family externally admissible, every center from ``REFUTE_MODES[mode]``
    on in the subset, and the family's intersection with the subset
    certifiably empty.  Over a ``FiniteSubset`` the balls are (center index,
    radius) pairs.  The floors d(c_i, A) raise ``EmptySet`` on an empty
    subset; a family with no balls or a failed pair reaches none."""
    if mode not in REFUTE_MODES:
        raise InvalidArgument(f"unknown mode {mode!r}")
    family = _family(subset, balls)
    admissible = check_admissible(family)
    if not len(family) or admissible.kind == "pairwise":
        _require_nonempty(subset)
    start = REFUTE_MODES[mode]
    centered = start is None or all(subset.contains(c) for c, _ in family.items[start:])
    return bool(admissible) and centered and not _external_search(subset, family).feasible


def _family(subset, balls: Sequence) -> LinfBallFamily | FiniteBallFamily:
    """The family of ``balls`` over ``subset``, in the subset's metric."""
    if isinstance(subset, FiniteSubset):
        return FiniteBallFamily(subset.space, tuple(balls), subset)
    return LinfBallFamily(tuple(balls), subset)


# ---------------------------------------------------------------------------
# Randomized refuter
#
# Sampling recipe (deterministic in (seed, candidate index)) on the subsets
# the span and gap decisions below leave, all of them max-norm sets, built
# exactly by ``_scalar_candidate``:
#   slot 0                          family size k in [2, level]
#   slots 1 .. level*dim            center grid indices (first k*dim used)
#   next level slots                radius offsets in grid steps (first k used)
#   next level slots                tightening-order keys (first k used)
# Centers live on a dyadic grid over the subset's bounding window inflated by
# the arena scale E (the window diameter rounded up to a power of two); the
# grid step is E / 2**GRID_BITS.  Radii start at d(center, subset) plus an
# offset of up to RADIUS_STEPS grid steps, then every radius is shrunk to its
# minimal admissible value along the sampled order, which also repairs any
# initial pairwise violation.  In the center modes the centers from the
# mode's start index on then move to their nearest points of the subset, and
# every radius is tightened again in index order, with floor 0 for them.  A
# pulled center's nearest point gives its target and floor; every other floor
# is a distance query, which a polyhedron answers from its kept LP pieces.  A
# candidate is thus admissible by construction and refutes when its
# intersection with the subset is empty.

GRID_BITS = 3
RADIUS_STEPS = 8


@dataclass(frozen=True)
class _Arena:
    dim: int
    wlo: Point
    step: Fraction
    cells: tuple[int, ...]
    slots: int
    level: int


def _build_arena(subset, level: int) -> _Arena:
    """The sampling grid over the subset's window; raises ``EmptySet`` on an
    empty subset, since the window bounds the subset's points."""
    window = subset_window(subset)
    dim = window.dim
    side = max(
        max((h - l for l, h in zip(window.lo, window.hi)), default=Fraction(1)),
        Fraction(1),
    )
    scale = Fraction(1)
    while scale < side:
        scale *= 2
    step = scale / (1 << GRID_BITS)
    wlo = []
    cells = []
    for lo_c, hi_c in zip(window.lo, window.hi):
        lo_i = (lo_c - scale) / step
        snapped = Fraction(lo_i.numerator // lo_i.denominator) * step
        wlo.append(snapped)
        span = (hi_c + scale) - snapped
        cells.append(int(span / step))
    slots = 1 + level * dim + level + level
    return _Arena(dim, tuple(wlo), step, tuple(cells), slots, level)


def _tighten(floor, pair, radii, order):
    """Shrink radii in place, one index at a time along ``order``, to the
    least value admissible against the others: the index's floor (its
    distance to the subset) or the largest pair[i][j] - radii[j]."""
    for i in order:
        need = floor[i]
        for j in range(len(radii)):
            if j != i and pair[i][j] - radii[j] > need:
                need = pair[i][j] - radii[j]
        radii[i] = need


def _scalar_candidate(subset, arena: _Arena, seed: int, index: int, start: int | None):
    """Build candidate ``index`` with exact rationals: its tightened balls,
    the centers from ``start`` on (none if None) pulled onto the subset."""
    base = index * arena.slots
    level, dim = arena.level, arena.dim
    k = 2 + draw(seed, base) % (level - 1)
    centers = []
    for i in range(k):
        coords = []
        for c in range(dim):
            j = draw(seed, base + 1 + i * dim + c) % (arena.cells[c] + 1)
            coords.append(arena.wlo[c] + j * arena.step)
        centers.append(tuple(coords))
    cut = k if start is None else start  # the centers from here on are pulled
    nearest = [subset_nearest(subset, p) for p in centers[cut:]]
    floor = [subset_dist(subset, p) for p in centers[:cut]]
    floor += [linf_dist(p, q) for p, q in zip(centers[cut:], nearest)]
    off_base = base + 1 + level * dim
    radii = [
        floor[i] + (draw(seed, off_base + i) % (RADIUS_STEPS + 1)) * arena.step
        for i in range(k)
    ]
    key_base = off_base + level
    order = [i for _, i in sorted((draw(seed, key_base + i), i) for i in range(k))]
    _tighten(floor, [[linf_dist(p, q) for q in centers] for p in centers], radii, order)
    if start is not None:
        centers[start:], floor[start:] = nearest, [Fraction(0)] * (k - start)
        _tighten(floor, [[linf_dist(p, q) for q in centers] for p in centers], radii, range(k))
    return tuple(Ball(centers[i], radii[i]) for i in range(k))


def refute_path(subset, mode: str) -> str:
    """The path ``refute_search`` takes: ``"span"`` (the span decision below)
    in every mode on a box, a union that is a box, a polyhedron that is a
    box and a finite subset of one distinct point, and in ``external`` mode
    on any union and on a one-row half-space with a non-zero normal;
    ``"gap"`` (the gap decision below) in every mode on a finite subset of
    two or more distinct points, and in a center mode on a disconnected
    union; else ``"scalar"`` (the sampler).  A polyhedron other than such a
    half-space is tested on its cached extent, so an empty one raises
    ``EmptySet``, as an empty finite subset does."""
    return _route(subset, mode)[0]


def _route(subset, mode: str):
    """(``refute_path``'s answer, what the decision needs: the gap
    decision's balls on ``"gap"``, on a polyhedron the row that fails the
    box test, on a union that the grid walk proved a box no point left to
    test, else None), so that a refute tests once."""
    boxes = getattr(subset, "boxes", None)
    external = REFUTE_MODES[mode] is None
    if boxes is None:
        if getattr(subset, "rows", None) is None:  # a finite subset
            _require_nonempty(subset)
            balls = _closest_pair(subset)
            return "span" if balls is None else "gap", balls
        row = _failing_row(subset)
        decided = row is None or external and subset._halfspace_row is not None
        return "span" if decided else "scalar", row
    members = [b for b in boxes if not b.is_empty()]
    if external or len(members) < 2:
        return "span", None
    balls = _gap_balls(members)
    if balls is None:  # connected: a box, or the sampler's
        box = all(subset.contains(p) for _, _, p in _union_points(members))
        return ("span", ()) if box else ("scalar", None)
    return "gap", balls


# ---------------------------------------------------------------------------
# Gap decision
#
# A hyperconvex space is metrically convex (Aronszajn and Panitchpakdi,
# 1956): two balls B(a1, r1), B(a2, r2) with centers in it and r1 + r2 =
# d(a1, a2) meet in it.  So a hyperconvex set is connected, and so are the
# externally and weakly externally hyperconvex ones.  A finite union of
# closed boxes is connected iff the graph joining the members that meet is
# connected.  If it is not, take the members i, j of different components
# at the least gap delta = d(box i, box j) > 0, and a1 in box i, a2 in box
# j at distance delta.  B(a1, delta/2) and B(a2, delta/2) have their centers
# in the union, so they are a family in every mode, and they meet pairwise;
# each component lies at distance >= delta from a1 or from a2, so no point
# of the union lies in both.  A finite space is the case where every point
# is a component: its closest pair a1, a2 gives the two balls.


def _gap_balls(members):
    """The two balls of the gap decision on the non-empty ``members``, or
    None when their union is connected.  On an axis where boxes i and j are
    disjoint a1 and a2 take the facing sides, elsewhere a common value."""
    gaps = {(i, j): max([0, *(max(l2 - h1, l1 - h2) for l1, h1, l2, h2
                                in zip(members[i].lo, members[i].hi, members[j].lo, members[j].hi))])
            for i, j in combinations(range(len(members)), 2)}
    root = list(range(len(members)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for (i, j), gap in gaps.items():
        if not gap:
            root[find(i)] = find(j)
    cross = [(gap, i, j) for (i, j), gap in gaps.items() if find(i) != find(j)]
    if not cross:
        return None
    delta, i, j = min(cross)
    a1, a2 = [], []
    for l1, h1, l2, h2 in zip(members[i].lo, members[i].hi, members[j].lo, members[j].hi):
        u, v = (h1, l2) if h1 < l2 else (l1, h2) if h2 < l1 else (max(l1, l2),) * 2
        a1.append(Fraction(u))
        a2.append(Fraction(v))
    return Ball(tuple(a1), Fraction(delta, 2)), Ball(tuple(a2), Fraction(delta, 2))


def _closest_pair(subset: FiniteSubset):
    """The gap decision's two balls on a finite subset, ((a1, delta/2), (a2,
    delta/2)) with a1 < a2 its closest pair of distinct points and the least
    (delta, a1, a2) on a tie; None with fewer than two distinct points."""
    points = sorted(set(subset.indices))
    pairs = [(subset.space.d(a, b), a, b) for a, b in combinations(points, 2)]
    if not pairs:
        return None
    delta, a1, a2 = min(pairs)
    return (a1, Fraction(delta, 2)), (a2, Fraction(delta, 2))


# ---------------------------------------------------------------------------
# Span decision
#
# A closed subset of (R^d, max norm) is externally hyperconvex iff it is a
# box: balls that meet pairwise and each reach a box meet inside it (Helly on
# the line, coordinate by coordinate; Aronszajn and Panitchpakdi, 1956), and
# the modes nest, so no mode refutes a box.  A set whose every two-point span
# box [a1 ∧ a2, a1 ∨ a2] stays inside is a box, so any other set has a1, a2
# in it spanning a point p outside, and two balls that hold a1 and a2 and
# meet only at p refute it in ``external`` mode.  A polyhedron P lies in its
# bounding box, the product of its coordinate ranges, so it is a box iff
# every row holds at its worst corner of that box; the ranges are P's cached
# extent (``HPolyhedron._extent``).  A P that is no box, other than a
# half-space in ``external`` mode, stays on the sampler.


def _failing_row(p):
    """The first integer row (s, a', b') of the polyhedron p that fails the
    box test, or None when p is a box.  A row fails at the worst corner of
    p's bounding box, sum_k a'_k.(hi_k if a'_k > 0 else lo_k) > b', computed
    over the common denominator of the extent's values, or when a side it
    needs is unbounded.  A half-space with a non-zero normal is a box iff
    one entry is non-zero, with no LP."""
    if p._halfspace_row is not None:
        return None if sum(map(bool, p._halfspace_row[1])) == 1 else p._halfspace_row
    sides = [side for pair in p._extent for side in pair]  # lo_0, hi_0, ...
    D = lcm(*(v.denominator for v in sides if v is not None))
    ends = [v if v is None else v.numerator * (D // v.denominator) for v in sides]
    for row in p._integer_rows:
        _, a, b = row
        corner = [(v, ends[2 * k + (v > 0)]) for k, v in enumerate(a) if v]
        if any(e is None for _, e in corner) or sum(v * e for v, e in corner) > b * D:
            return row
    return None


def _span_points(subset, found):
    """The (a1, a2, p) the span decision tests, given what `_route` found:
    none on a box, a finite subset or a union that `_route` proved a box
    (it found no point left to test); raises ``EmptySet`` on an empty box
    or union.  On a polyhedron ``found`` is the row that fails the box
    test, if any.  On a·x <= b with first non-zero entries a_i, a_j and
    q = (b/a_i)·e_i, the points q ± (e_i/a_i - e_j/a_j) of the hyperplane
    span p = q + e_i/a_i + e_j/a_j, where a·p = b + 2."""
    if getattr(subset, "boxes", None) is not None:
        _require_nonempty(subset)
        return _union_points([b for b in subset.boxes if not b.is_empty()]) if found is None else found
    if found is None:
        return ()
    (a, b), = subset.rows
    i, j = [k for k, v in enumerate(a) if v][:2]

    def point(ti, tj):  # q + ti·e_i/a_i + tj·e_j/a_j
        x = {i: Fraction(b + ti) / a[i], j: Fraction(tj) / a[j]}
        return tuple(x.get(k, Fraction(0)) for k in range(len(a)))

    return ((point(1, -1), point(-1, 1), point(1, 1)),)


def _union_points(members):
    """Pair by pair, the grid of the box spanning both members, each axis cut
    at the midpoints between the member sides inside it (or at the side of a
    flat axis), with p's clamps onto the pair: if no grid point lies outside
    the union, no point of the span box does."""
    sides = [sorted({v for b in members for v in (b.lo[k], b.hi[k])}) for k in range(members[0].dim)]
    for first, second in combinations(members, 2):
        axes = []
        for cuts, lo, hi in zip(sides, map(min, first.lo, second.lo), map(max, first.hi, second.hi)):
            inside = [v for v in cuts if lo <= v <= hi]
            axes.append([Fraction(u + v, 2) for u, v in zip(inside, inside[1:])] or inside)
        for p in product(*axes):
            yield first.clamp(p), second.clamp(p), p


def _span_balls(a1: Point, a2: Point, p: Point) -> tuple[Ball, Ball]:
    """B(p + R·s, R) holds a1 and B(p - R·s, R) holds a2, and they meet only
    at p, for p in the span box of a1 and a2: R = max(|a1 - p|, |a2 - p|)/2
    and s_k the sign of a1_k - p_k, else minus that of a2_k - p_k, else +1."""
    R = max(linf_dist(a1, p), linf_dist(a2, p)) / 2
    s = [(u > c) - (u < c) or (c > w) - (c < w) or 1 for u, w, c in zip(a1, a2, p)]
    return Ball(tuple(c + R * t for c, t in zip(p, s)), R), Ball(tuple(c - R * t for c, t in zip(p, s)), R)


def refute_search(
    subset, level: int, budget: int, seed: int, mode: str = "external"
) -> PropertyReport:
    """Search for admissible families with empty intersection, on the path
    ``refute_path`` names.  The span and gap decisions build no arena and
    draw no candidate: each point the span decision tests spends one unit
    of the budget, and the first p outside the subset gives two balls; the
    gap decision's two balls spend one.  The sampler (see the recipe above)
    tries candidates 0, 1, ..., each a pure function of the seed and its
    index built exactly by ``_scalar_candidate``, and runs the witness
    search on each.  A found family is re-verified exactly.
    """
    if mode not in REFUTE_MODES:
        raise InvalidArgument(f"unknown mode {mode!r}")
    if level < 2:
        raise InvalidArgument("level must be >= 2")
    if budget < 0:
        raise InvalidArgument("budget must be >= 0")
    path, found = _route(subset, mode)
    if path == "span":
        points = zip(range(budget), _span_points(subset, found))
        candidates = ((i, _span_balls(*t)) for i, t in points if not subset.contains(t[2]))
    elif path == "gap":
        candidates = [(0, found)]
    else:
        arena, start = _build_arena(subset, level), REFUTE_MODES[mode]
        candidates = ((i, _scalar_candidate(subset, arena, seed, i, start)) for i in range(budget))
    if budget == 0:
        return PropertyReport(INCONCLUSIVE, seed=seed, budget_used=0, notes=("budget exhausted",))
    for index, balls in candidates:
        if path != "scalar" or not _external_search(subset, _family(subset, balls)).feasible:
            if not verify_refutation(subset, balls, mode):
                raise InternalError("refutation failed exact re-verification")
            certificate = {"balls": balls} if path != "scalar" else {"balls": balls, "index": index}
            if mode != "external":
                certificate["mode"] = mode
            return PropertyReport(REFUTED, certificate=certificate, seed=seed, budget_used=index + 1)
    notes = ("no refutation found",) + ((mode,) if mode != "external" else ())
    return PropertyReport(INCONCLUSIVE, seed=seed, budget_used=budget, notes=notes)


# ---------------------------------------------------------------------------
# Helly machinery


@dataclass(frozen=True)
class HellyInstance:
    """n+1 half-spaces whose n-fold intersections are witnessed non-empty
    while the total intersection is empty."""

    dim: int
    halfspaces: tuple[HPolyhedron, ...]
    witnesses: tuple[Point, ...]

    def __post_init__(self):
        for i, hs in enumerate(self.halfspaces):
            if hs.dim != self.dim:
                raise DimMismatch(f"half-space {i} has dim {hs.dim}, not {self.dim}")
        if len(self.halfspaces) != len(self.witnesses):
            raise InvalidArgument("one witness per leave-one-out intersection")
        for j, w in enumerate(self.witnesses):
            for i, hs in enumerate(self.halfspaces):
                if i != j and not hs.contains(w):
                    raise InvalidArgument(f"witness {j} fails set {i}")


def helly_counterexample(n: int) -> HellyInstance:
    """The optimal-order family: a chain of coordinate-difference half-spaces
    plus x_1 + x_2 <= -1, with witnesses whose entries are 0 and -5."""
    if n < 2:
        raise InvalidArgument("need dimension >= 2")
    F = Fraction
    rows: list[HPolyhedron] = []
    a1 = [F(0)] * n
    a1[n - 1] = F(-1)
    rows.append(HPolyhedron(n, ((tuple(a1), F(0)),)))
    for j in range(2, n + 1):
        a = [F(0)] * n
        a[n - j] = F(-1)  # x_{n-j+1} (1-based) gets -1
        a[n - j + 1] = F(1)
        rows.append(HPolyhedron(n, ((tuple(a), F(0)),)))
    last = [F(0)] * n
    last[0] = F(1)
    last[1] = F(1)
    rows.append(HPolyhedron(n, ((tuple(last), F(-1)),)))

    witnesses: list[Point] = []
    witnesses.append((F(0),) + (F(-5),) * (n - 1))
    if n == 2:
        witnesses.append((F(-5), F(0)))
    else:
        witnesses.append((F(0),) + (F(-5),) * (n - 2) + (F(0),))
    for j in range(3, n + 1):
        witnesses.append((F(-5),) * (n - j + 1) + (F(0),) * (j - 1))
    witnesses.append((F(0),) * n)
    return HellyInstance(n, tuple(rows), tuple(witnesses))


def helly_order_check(sets: Sequence[HPolyhedron], k: int) -> PropertyReport:
    """Check one family against the Helly-order-k template.

    If some k-fold intersection is empty the premise fails (vacuously holds);
    if all are non-empty and the total intersection is too, holds with a
    witness; otherwise refuted: the family is not a Helly family of order k.
    """
    if not sets:
        raise InvalidArgument("empty family")
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    dim = sets[0].dim
    k_witnesses = {}
    for idx in combinations(range(len(sets)), min(k, len(sets))):
        result = lp_feasible(intersection(dim, [sets[i] for i in idx]))
        if not result.feasible:
            return PropertyReport(
                HOLDS,
                certificate={"empty_k_subset": idx, **(result.certificate or {})},
                notes=("premise fails: a k-fold intersection is empty",),
            )
        k_witnesses[idx] = result.witness
    total = lp_feasible(intersection(dim, sets))
    if total.feasible:
        return PropertyReport(
            HOLDS, certificate={"total_witness": total.witness, "k": k}
        )
    return PropertyReport(
        REFUTED,
        certificate={
            "k": k,
            "k_witnesses": k_witnesses,
            **(total.certificate or {}),
        },
        notes=("not a Helly family of this order",),
    )


GRAPH_ENUM_CAP = 5_000_000


def graph_n_helly_bruteforce(g: GraphInstance, n: int) -> PropertyReport:
    """Exhaustive integer-radius ball-Helly check on a connected graph.

    Enumerates all center multisets of size n and integer radii from 0 up to
    the (rounded-up) diameter: every pairwise-admissible family must share a
    vertex.  Balls of radius >= diameter are the whole space, so the cap on
    radii is exact, not an approximation.
    """
    if n < 0:
        raise InvalidArgument("family size n must be >= 0")
    # With V >= 2 vertices radius_hi >= 1, so this bound on the families
    # refuses a large graph before its shortest paths are computed.
    V = g.n
    bound = comb(V + n - 1, n) * min(V, 2) ** n
    if bound > GRAPH_ENUM_CAP:
        raise SizeCapExceeded(f"at least {bound} families exceed cap {GRAPH_ENUM_CAP}")
    space = graph_metric(g)
    diam = space.diameter()
    radius_hi = int(-(-diam.numerator // diam.denominator))  # ceil
    families = comb(V + n - 1, n) * (radius_hi + 1) ** n
    if families > GRAPH_ENUM_CAP:
        raise SizeCapExceeded(f"{families} families exceed cap {GRAPH_ENUM_CAP}")
    if not n:  # the empty family's intersection is the whole space
        return PropertyReport(HOLDS, certificate={"families": families})
    L, d = integer_matrix(space)
    for centers in combinations_with_replacement(range(V), n):
        *head, last = centers
        for prefix in product(range(radius_hi + 1), repeat=n - 1):
            scaled = [r * L for r in prefix]
            if any(d[head[i]][head[j]] > scaled[i] + scaled[j]
                   for i in range(n - 1) for j in range(i + 1, n - 1)):
                continue
            # The least admissible last radius is the first hit of the
            # prefix, if any: the balls' intersection only grows with it.
            need = max((d[c][last] - s for c, s in zip(head, scaled)), default=0)
            r_last = max(0, -(-need // L))
            if r_last <= radius_hi and all(
                d[v][last] > r_last * L
                for v in range(V) if all(d[v][c] <= s for c, s in zip(head, scaled))
            ):
                certificate = {"centers": centers, "radii": prefix + (r_last,)}
                return PropertyReport(REFUTED, certificate=certificate)
    return PropertyReport(HOLDS, certificate={"families": families})


# ---------------------------------------------------------------------------
# Ladder consistency


def four_to_n_consistency(
    subset, n_max: int, budget: int, seed: int, mode: str = "external"
) -> PropertyReport:
    """Search levels 4..n_max (n_max >= 4); flag THEOREM-INCONSISTENT only
    when a verified refutation needs more than 4 balls while nothing of size
    <= 4 was found anywhere; else "inconclusive", since the searches are
    sampled.  Arguments are checked as ``refute_search`` checks them.

    The paper proves that 4-hyperconvexity implies finite hyperconvexity of
    the space.  This check assumes that the result carries over to external
    hyperconvexity of subsets: then a higher-level refutation implies that a
    4-ball one exists, so on conforming subsets the flag must never fire.
    The theorem promises some 4-ball family, not a 4-ball subfamily of the
    one found."""
    if mode not in REFUTE_MODES:
        raise InvalidArgument(f"unknown mode {mode!r}")
    if n_max < 4:
        raise InvalidArgument("n_max must be >= 4")
    if budget < 0:
        raise InvalidArgument("budget must be >= 0")
    if budget == 0:
        return PropertyReport(INCONCLUSIVE, seed=seed, budget_used=0, notes=("budget exhausted",))
    outcomes = {}
    small_refutation = False
    big_refutations = []
    used = 0
    for level in range(4, n_max + 1):
        report = refute_search(subset, level, budget, derive_seed(seed, level), mode=mode)
        used += report.budget_used or 0
        if report.refuted:
            balls = report.certificate["balls"]
            outcomes[level] = {"verdict": report.verdict, "family_size": len(balls)}
            if len(balls) <= 4:
                small_refutation = True
            else:
                big_refutations.append((level, balls))
        else:
            outcomes[level] = {"verdict": report.verdict}
    if big_refutations and not small_refutation:
        level, balls = big_refutations[0]
        return PropertyReport(
            REFUTED,
            certificate={
                "flag": "THEOREM-INCONSISTENT",
                "level": level,
                "balls": balls,
                "outcomes": outcomes,
            },
            seed=seed,
            budget_used=used,
        )
    return PropertyReport(
        INCONCLUSIVE,
        certificate={"outcomes": outcomes},
        seed=seed,
        budget_used=used,
        notes=("consistent",),
    )


def uniform_local_external_sample(
    subset, radius: Fraction, probes: Sequence[Point], budget: int, seed: int
) -> PropertyReport:
    """Uniform local external hyperconvexity: around each probe point of the
    subset, refute the subset's part in the ball window B(probe, radius),
    which holds the probe and so is never empty.  Exact on box unions and on
    polyhedra whose parts are boxes (the span decision answers them); sampled
    on every other polyhedron."""
    for idx, probe in enumerate(probes):
        if not subset.contains(probe):
            raise InvalidArgument(f"probe {idx} not in subset")
        local = subset.intersect(Ball(probe, radius).to_box())
        report = refute_search(local, 2, budget, derive_seed(seed, idx))
        if report.refuted:
            return PropertyReport(
                REFUTED,
                certificate={"probe": probe, **dict(report.certificate)},
                seed=seed,
            )
    return PropertyReport(INCONCLUSIVE, seed=seed, budget_used=budget * len(probes), notes=("no local refutation found",))

