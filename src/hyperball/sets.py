"""The subset kinds the predicates run against, and one protocol they share.

Supported kinds:

* ``Box`` — axis box in the max norm (closed-form distances and clamps);
* ``HPolyhedron`` — general half-space intersection (LP-backed);
* ``BoxUnion`` — finite union of boxes, the standard non-convex fixture;
* ``FiniteSubset`` — an index set inside a finite metric space.

Every kind answers for itself: ``contains(p)``, ``dist(p)`` and
``witness()`` (a point, or None when the kind is empty).  The three
max-norm kinds add ``intersect(box)``, and ``Box`` and ``BoxUnion`` carry
their member ``boxes``: a box is a union of one box.  The polyhedron and
the finite subset add ``nearest(p)``, and the polyhedron ``window()``: the
refuter's sampler, which runs on polyhedra alone, reads both.
``HPolyhedron`` also answers ``dists_along(x, y, n, ks)``, the distances
at the points x + (k/n)(y - x) of a segment.  A polyhedron keeps the
optimal bases of its distance LPs and answers ``dist`` from a piece that
passes the witness and dual checks at the point: its zero piece at a point
of it, else a kept basis, else one more LP's; along a segment one piece
that passes at both ends of a stretch of times answers the whole stretch,
inside the polyhedron too.  Its ``nearest`` always solves the LP afresh.
A half-space answers ``dist`` in closed form and keeps no piece.
The ``subset_*`` functions are the entry points the other modules call.
``pair_witness`` searches the intersection of two subsets and extra balls —
the workhorse behind the iteration schemes whose proofs repeatedly pick
points in two sets at once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimMismatch, EmptySet, InvalidArgument
from .linf import Ball, Box, FeasibilityResult, Point, balls_box
from .lp import halfspace_misses_box, intersection, lp_feasible
from .metric import FiniteMetricSpace


@dataclass(frozen=True)
class BoxUnion:
    """Finite union of axis boxes (typically two disjoint ones)."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        if not self.boxes:
            raise InvalidArgument("union of no boxes")
        d = self.boxes[0].dim
        for b in self.boxes:
            if b.dim != d:
                raise DimMismatch("union members of different dims")

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def contains(self, p: Point) -> bool:
        return any(b.contains(p) for b in self.boxes)

    def dist(self, p: Point) -> Fraction:
        members = [b for b in self.boxes if not b.is_empty()]
        if not members:
            raise EmptySet("union of empty boxes")
        return min(b.dist(p) for b in members)

    def witness(self) -> Point | None:
        return next((b.lo for b in self.boxes if not b.is_empty()), None)

    def intersect(self, box: Box) -> "BoxUnion":
        """The non-empty member intersections, or one empty one if none."""
        members = tuple(b.intersect(box) for b in self.boxes)
        return BoxUnion(tuple(b for b in members if not b.is_empty()) or members[:1])


@dataclass(frozen=True)
class FiniteSubset:
    """Subset of a finite metric space, as a tuple of point indices."""

    space: FiniteMetricSpace
    indices: tuple[int, ...]

    def __post_init__(self):
        indices = []
        for i in self.indices:
            try:  # integer types such as numpy.int64 are stored as plain ints
                index = None if isinstance(i, bool) else operator.index(i)
            except TypeError:
                index = None
            if index is None:
                raise InvalidArgument(f"index {i!r} is not an int")
            if not (0 <= index < self.space.size):
                raise InvalidArgument(f"index {i} out of range")
            indices.append(index)
        object.__setattr__(self, "indices", tuple(indices))

    def contains(self, p: int) -> bool:
        return p in self.indices

    def dist(self, p: int) -> Fraction:
        return self.space.d(p, self.nearest(p))

    def nearest(self, p: int) -> int:
        """The index at minimal distance, the smallest one on ties."""
        if not self.indices:
            raise EmptySet("empty finite subset")
        return min(self.indices, key=lambda i: (self.space.d(p, i), i))

    def witness(self) -> int | None:
        return self.indices[0] if self.indices else None


def subset_nonempty(subset) -> bool:
    return subset.witness() is not None


def subset_dist(subset, p) -> Fraction:
    """Exact distance from a point to the subset."""
    return subset.dist(p)


def subset_nearest(subset, p):
    """A nearest point of the subset (ties broken deterministically)."""
    return subset.nearest(p)


def subset_witness_in_box(subset, box: Box) -> FeasibilityResult:
    """A point of a max-norm subset inside the box, or a certificate of none:
    on a box or union, the first member's joint corner or each member's empty
    coordinate; on a polyhedron, the box's empty coordinate, else on a
    half-space that misses the box the closed-form Farkas multipliers, else
    the LP on its rows plus the box's rows."""
    boxes = getattr(subset, "boxes", None)
    if boxes is None:
        k = box.first_empty_coordinate()
        if k is not None:
            return FeasibilityResult("infeasible", certificate={"coordinate": k})
        farkas = halfspace_misses_box(subset, box)
        if farkas is None:
            return lp_feasible(subset, (box,))
        return FeasibilityResult("infeasible", certificate={"farkas": farkas})
    empties = []
    for member in boxes:
        joint = member.intersect(box)
        k = joint.first_empty_coordinate()
        if k is None:
            return FeasibilityResult("witness", witness=joint.witness())
        empties.append(k)
    if boxes[0] is subset:  # a box: the union of itself
        return FeasibilityResult("infeasible", certificate={"coordinate": empties[0]})
    return FeasibilityResult("infeasible", certificate={"coordinates": tuple(empties)})


def pair_witness(first, second, balls: Sequence[Ball] = ()):
    """A point of first ∩ second ∩ (all balls), or None.

    When either set has member boxes, each member, cut to the balls' box,
    asks the box search on the other set; two polyhedra run one LP on their
    joined rows and the balls.
    """
    if getattr(first, "boxes", None) is None:
        if getattr(second, "boxes", None) is None:
            return lp_feasible(intersection(first.dim, (first, second)), balls).witness
        first, second = second, first
    window = balls_box(balls) if balls else None
    for member in first.boxes:
        hit = subset_witness_in_box(second, member if window is None else member.intersect(window))
        if hit.feasible:
            return hit.witness
    return None


def subset_window(subset) -> Box:
    """A bounding box of a polyhedron, clamping unbounded directions to
    [-8, 8] so randomized searches have a finite arena."""
    return subset.window()
