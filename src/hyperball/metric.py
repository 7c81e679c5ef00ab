"""Exact finite metric spaces: validation, graph metrics, Gromov products,
metric intervals, medians, and the modularity predicate.

Every operation is a pure function over immutable values and every verdict
is computed with exact rational arithmetic.  Enumeration oracles reject
spaces larger than ``ENUMERATION_CAP`` points instead of silently
truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from .errors import InvalidArgument, SizeCapExceeded
from .rational import parse_rational
from .reports import HOLDS, REFUTED, PropertyReport

#: Triple scans are O(n^3); beyond this size they stop being interactive.
ENUMERATION_CAP = 12


class MetricError(InvalidArgument):
    """A metric axiom failed; carries the first offending indices."""


class Asymmetric(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]")
        self.indices = (i, j)


class NegativeOrNonzeroDiagonal(MetricError):
    def __init__(self, i: int):
        super().__init__(f"dist[{i}][{i}] != 0")
        self.indices = (i,)


class NonpositiveDistance(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] <= 0 for distinct points")
        self.indices = (i, j)


class TriangleViolation(MetricError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"dist[{i}][{j}] > dist[{i}][{k}] + dist[{k}][{j}]")
        self.indices = (i, j, k)


class Disconnected(InvalidArgument):
    """Graph has no path between some pair of vertices."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Symmetric exact distance matrix satisfying the metric axioms."""

    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.dist)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def diameter(self) -> Fraction:
        return max((max(row) for row in self.dist), default=Fraction(0))


@dataclass(frozen=True)
class GraphInstance:
    """Undirected connected graph; unit edge weights unless given."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.n <= 0:
            raise InvalidArgument("vertex count must be positive")
        if any(len(edge) != 2 for edge in self.edges):
            raise InvalidArgument("every edge must be a pair of vertices")
        for u, v in self.edges:
            if u == v:
                raise InvalidArgument(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidArgument(f"edge ({u},{v}) out of range")
        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise InvalidArgument("one weight per edge required")
            for w in self.weights:
                if w <= 0:
                    raise InvalidArgument("edge weights must be positive")


def validate_metric(matrix: Sequence[Sequence[object]]) -> FiniteMetricSpace:
    """Validate a square matrix of rationals and wrap it as a metric space.

    Scan order: diagonal, symmetry, positivity, then all ordered triples
    (i, j, k) checking dist[i][j] <= dist[i][k] + dist[k][j].  The first
    violated axiom is raised with its indices.
    """
    n = len(matrix)
    rows = []
    for row in matrix:
        if len(row) != n:
            raise MetricError("matrix is not square")
        rows.append(tuple(parse_rational(x) for x in row))
    d = tuple(rows)
    for i in range(n):
        if d[i][i] != 0:
            raise NegativeOrNonzeroDiagonal(i)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise Asymmetric(i, j)
    for i in range(n):
        for j in range(n):
            if i != j and d[i][j] <= 0:
                raise NonpositiveDistance(i, j)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if d[i][j] > d[i][k] + d[k][j]:
                    raise TriangleViolation(i, j, k)
    return FiniteMetricSpace(d)


def graph_metric(g: GraphInstance) -> FiniteMetricSpace:
    """Shortest-path metric of a connected graph (Floyd-Warshall, exact)."""
    n = g.n
    dist: list[list[Fraction | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = Fraction(0)
    for idx, (u, v) in enumerate(g.edges):
        w = g.weights[idx] if g.weights is not None else Fraction(1)
        if dist[u][v] is None or w < dist[u][v]:
            dist[u][v] = w
            dist[v][u] = w
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik is None:
                continue
            row_i = dist[i]
            for j in range(n):
                d_kj = row_k[j]
                if d_kj is None:
                    continue
                via = d_ik + d_kj
                if row_i[j] is None or via < row_i[j]:
                    row_i[j] = via
    for i in range(n):
        for j in range(n):
            if dist[i][j] is None:
                raise Disconnected(f"no path between vertices {i} and {j}")
    return FiniteMetricSpace(tuple(tuple(row) for row in dist))  # type: ignore[arg-type]


def _check_index(s: FiniteMetricSpace, *indices: int) -> None:
    for i in indices:
        if not (0 <= i < s.size):
            raise InvalidArgument(f"point index {i} out of range for size {s.size}")


def check_cap(size: int) -> None:
    """Refuse a space of more than ``ENUMERATION_CAP`` points."""
    if size > ENUMERATION_CAP:
        raise SizeCapExceeded(
            f"enumeration oracle limited to {ENUMERATION_CAP} points, got {size}"
        )


def gromov_product(s: FiniteMetricSpace, y: int, z: int, base: int) -> Fraction:
    """(y|z)_base = (d(base,y) + d(base,z) - d(y,z)) / 2; nonnegative."""
    _check_index(s, y, z, base)
    d = s.dist
    return (d[base][y] + d[base][z] - d[y][z]) / 2


def integer_matrix(s: FiniteMetricSpace) -> tuple[int, list[list[int]]]:
    """(L, L·d): the matrix scaled by the lcm L of its denominators.

    Every comparison of sums of distances reads the same on L·d, and triple
    scans over ints run an order of magnitude faster than over Fraction.
    """
    L = lcm(*(v.denominator for row in s.dist for v in row))
    return L, [[v.numerator * (L // v.denominator) for v in row] for row in s.dist]


def metric_interval(s: FiniteMetricSpace, x: int, y: int) -> tuple[int, ...]:
    """All z with d(x,z) + d(z,y) = d(x,y), by exact enumeration."""
    _check_index(s, x, y)
    check_cap(s.size)
    d = integer_matrix(s)[1]
    return tuple(z for z in range(s.size) if d[x][z] + d[z][y] == d[x][y])


def _medians(d: list[list[int]], x: int, y: int, z: int):
    """The points w of all three intervals of the triple, lazily, over an
    integer matrix."""
    dxy, dyz, dzx = d[x][y], d[y][z], d[z][x]
    return (
        w
        for w in range(len(d))
        if d[x][w] + d[w][y] == dxy and d[y][w] + d[w][z] == dyz and d[z][w] + d[w][x] == dzx
    )


def median_set(s: FiniteMetricSpace, x: int, y: int, z: int) -> tuple[int, ...]:
    """Intersection of the three metric intervals of the triple; may be empty."""
    _check_index(s, x, y, z)
    check_cap(s.size)
    return tuple(_medians(integer_matrix(s)[1], x, y, z))


def is_modular(s: FiniteMetricSpace) -> PropertyReport:
    """Exhaustive check that every triple has a non-empty median set.

    Triples with repeated points always contain the repeated point in their
    median, so only distinct triples are scanned.  The first refuting triple
    (lexicographic order) is returned as the certificate.
    """
    check_cap(s.size)
    n = s.size
    d = integer_matrix(s)[1]
    for x, y, z in combinations(range(n), 3):
        if next(_medians(d, x, y, z), None) is None:
            return PropertyReport(REFUTED, certificate={"triple": (x, y, z)})
    return PropertyReport(HOLDS, certificate={"triples_checked": n * (n - 1) * (n - 2) // 6})
