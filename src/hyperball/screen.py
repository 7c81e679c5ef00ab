"""Integer-exact batch screen for the refuter's sampling recipe.

The only module that imports numpy.  ``lab.refute_search`` imports it only
where ``lab.screen_applies`` says the screen takes the subset in the mode,
so every other command starts without loading numpy.

A batch of N candidates is laid out batch-last: the candidate axis is the
last, contiguous one of every array, so each numpy loop runs over the whole
batch.  The draws are (slots, N), centers (level, dim, N), radii, floors and
member indices (level, N), and pair distances (level, level, N).  The pair
distances grow with level², so a batch holds at most ``_PAIR_CAP // level²``
candidates (at least one): ``_PAIR_CAP`` int64 elements, 8 MB, per pair
distance array up to level 1024.  Above it a batch holds one candidate, with
level² pair distances.

On boxes and unions only the candidates that can refute go past the member
distances.  A box is externally hyperconvex: balls that meet pairwise and
each reach a box Q meet inside Q, by Helly's theorem on the line applied to
each coordinate (Aronszajn and Panitchpakdi, 1956).  So a candidate whose
active balls all have the same first nearest member never screens empty,
and its offsets, order, pair distances and tightening are skipped.

The screen computes the recipe exactly, so a hit is its own certificate:
its balls are read off its batch column over ``unit`` and re-verified by
``lab.refute_search``.  ``lab._scalar_candidate`` builds every other
subset's candidates and is the reference the tests hold the screen to.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .lab import RADIUS_STEPS
from .linf import Ball
from .rng import draw

_INT64_GUARD = 1 << 52
_FIRST_BATCH = 32  # small, so that an early hit costs little
_BATCH = 4096
_PAIR_CAP = 1 << 20  # level² * N bound on a batch's pair distances
_BIG = np.int64(1 << 60)


class FastScreen:
    """Integer-exact batch evaluation of the sampling recipe.

    Every length is represented as value * unit over int64; the unit folds in
    all denominators in play (grid step, window corners, subset parameters,
    and the half-space dual-norm divisor), so no rounding ever happens.
    A box screens as a union of one box; empty members of a union are
    dropped, as the exact distances drop them.  ``start`` is the mode's
    ``REFUTE_MODES`` entry: when it is not None, the centers from index
    ``start`` on are pulled onto the subset as ``lab._scalar_candidate``
    pulls them.
    The subset and mode must pass ``lab.screen_applies``, and ``arena`` must
    be built from the subset's window, so that it covers every member.
    Construction raises ``OverflowError`` when magnitudes would not fit int64.
    """

    def __init__(self, subset, arena, start: int | None = None):
        self.arena = arena
        self.start = start
        dens = [arena.step.denominator]
        dens += [w.denominator for w in arena.wlo]
        boxes = getattr(subset, "boxes", None)
        if boxes is not None:
            self.kind = "boxes"
            boxes = [b for b in boxes if not b.is_empty()]
            for b in boxes:
                dens += [v.denominator for v in b.lo + b.hi]
        else:  # a one-row half-space with a non-zero normal, in external mode
            self.kind = "halfspace"
            (a, b), = subset.rows
            row_scale = lcm(*(v.denominator for v in a + (b,)))
            self.a_int = np.array([int(v * row_scale) for v in a], dtype=np.int64)
            self.b_int = int(b * row_scale)
            self.dual = sum(abs(int(v)) for v in self.a_int)  # the dual (l1) norm of a
            dens.append(self.dual)
        unit = lcm(*dens)
        self.unit = unit
        self.step_i = int(arena.step * unit)
        self.wlo_i = np.array([int(w * unit) for w in arena.wlo], dtype=np.int64)
        self.cells = np.array(arena.cells, dtype=np.int64)
        if self.kind == "boxes":  # (members, dim) corners
            self.los = np.array([[int(v * unit) for v in b.lo] for b in boxes], dtype=np.int64)
            self.his = np.array([[int(v * unit) for v in b.hi] for b in boxes], dtype=np.int64)
        # magnitude guard: worst coordinate (the arena covers the members)
        # plus worst radius, times dual norm
        worst = max(
            abs(int(w)) + c * abs(self.step_i) for w, c in zip(self.wlo_i, self.cells)
        )
        worst_len = worst + (RADIUS_STEPS + 2) * abs(self.step_i) + worst
        if self.kind == "halfspace":
            worst_len *= self.dual + abs(self.b_int)
        if worst_len >= _INT64_GUARD:
            raise OverflowError("fast-path magnitudes would overflow int64")

    def dist_ints(self, coords: np.ndarray):
        """d(center, subset) * unit for a (level, dim, N) int64 array, and
        on boxes the index of the first member at that distance (None on a
        half-space); both are (level, N)."""
        if self.kind == "boxes":
            best = which = None
            for m, (lo, hi) in enumerate(zip(self.los, self.his)):
                d = np.zeros((coords.shape[0], coords.shape[2]), dtype=np.int64)
                for k in range(coords.shape[1]):
                    np.maximum(d, lo[k] - coords[:, k], out=d)
                    np.maximum(d, coords[:, k] - hi[k], out=d)
                if best is None:
                    best, which = d, np.zeros(d.shape, dtype=np.intp)
                else:
                    which[d < best] = m  # strict: ties keep the earlier member
                    np.minimum(best, d, out=best)
            return best, which
        bound = np.int64(self.b_int) * np.int64(self.unit)
        margin = np.tensordot(self.a_int, coords, axes=(0, 1)) - bound
        scaled = np.maximum(margin, 0)
        if np.any(scaled % self.dual):
            raise ArithmeticError("half-space distance left the integer lattice")
        return scaled // self.dual, None

    def empty_mask(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """True where (combined ball box) ∩ subset = ∅; boxes are (dim, N)."""
        box_ok = np.all(lo <= hi, axis=0)
        if self.kind == "boxes":
            meets = np.zeros(lo.shape[1], dtype=bool)
            for mlo, mhi in zip(self.los, self.his):
                jlo = np.maximum(lo, mlo[:, None])
                jhi = np.minimum(hi, mhi[:, None])
                meets |= np.all(jlo <= jhi, axis=0)
        else:
            corner = np.where(self.a_int[:, None] > 0, lo, hi)
            bound = np.int64(self.b_int) * np.int64(self.unit)
            meets = np.tensordot(self.a_int, corner, axes=(0, 0)) <= bound
        return ~(box_ok & meets)

    def scan(self, seed: int, start: int, stop: int):
        """The first candidate in [start, stop) whose family screens empty,
        as (index, balls), or None.

        Mirrors ``lab._scalar_candidate``, the center pull included, batch
        by batch; the balls are the hit's integers over ``unit``, exact.
        The first batch is small, so a search that refutes early does not
        pay for a full batch.  Batches only split the index range, so their
        size never moves the first hit.
        """
        batch = max(1, min(_BATCH, _PAIR_CAP // self.arena.level ** 2))
        lo_idx, size = start, min(_FIRST_BATCH, batch)
        while lo_idx < stop:
            hi_idx = min(lo_idx + size, stop)
            screened, balls = self._screen_batch(seed, lo_idx, hi_idx)
            if balls is not None:
                return lo_idx + int(np.argmax(screened)), balls
            lo_idx, size = hi_idx, batch
        return None

    def _screen_batch(self, seed: int, lo_idx: int, hi_idx: int):
        """Whether each candidate in [lo_idx, hi_idx) screens empty, and the
        exact balls of the first that does (None if none does)."""
        arena = self.arena
        level, dim, slots = arena.level, arena.dim, arena.slots
        # Slot s of candidate i is counter i * slots + s, in row s, so the
        # size and center slots are drawn for every candidate and the
        # offset and order slots only for the candidates left below.
        off = 1 + level * dim  # the first radius-offset slot
        base = np.arange(lo_idx, hi_idx, dtype=np.uint64) * np.uint64(slots)
        drawn = draw(seed, np.arange(off, dtype=np.uint64)[:, None] + base)
        sizes = 2 + (drawn[0] % np.uint64(level - 1)).astype(np.int64)
        grid_idx = drawn[1:].reshape(level, dim, len(base))
        grid_idx = (grid_idx % (self.cells + 1).astype(np.uint64)[:, None]).astype(np.int64)
        coords = self.wlo_i[:, None] + grid_idx * np.int64(self.step_i)
        dist_a, member = self.dist_ints(coords)
        active = np.arange(level)[:, None] < sizes
        screened = np.zeros(len(base), dtype=bool)
        left = slice(None)
        if member is not None:
            # A candidate whose active balls share their first nearest member
            # Q cannot refute: an unpulled ball reaches Q (its radius is at
            # least d(c, A) = d(c, Q)) and a pulled center lies in Q, so the
            # pairwise-meeting balls meet in Q by Helly on each coordinate.
            left = np.nonzero(np.any(active & (member != member[0]), axis=0))[0]
            if not len(left):
                return screened, None
            # np.take gives C-contiguous copies (indexing by ``[..., left]``
            # does not), so the flat gathers below need no further copy.
            base, sizes, active, coords, dist_a, member = (
                np.take(a, left, axis=-1) for a in (base, sizes, active, coords, dist_a, member)
            )
        n = len(base)
        drawn = draw(seed, np.arange(off, slots, dtype=np.uint64)[:, None] + base)
        offs = (drawn[:level] % np.uint64(RADIUS_STEPS + 1)).astype(np.int64)
        order = np.argsort(drawn[level:], axis=0, kind="stable")
        # Balls past a candidate's size get radius _BIG: no gap against them
        # counts, and they drop out of the box of the family.
        radii = np.where(active, dist_a + offs * np.int64(abs(self.step_i)), _BIG)
        # Tightening along the sampled order is tightening in index order
        # once the balls are sorted into that order.  Flat indices of ball
        # order[t, c] of candidate c gather faster than np.take_along_axis.
        cols = np.arange(n)
        at = order * n + cols  # in a (level, N) array
        at_coords = (order * (dim * n) + cols)[:, None] + (np.arange(dim) * n)[:, None]
        by_order = np.take(coords, at_coords)
        radii_by_order = np.take(radii, at)
        _tighten(np.take(dist_a, at), _pair_dists(by_order), radii_by_order, order < sizes)
        if self.start is None:  # the family's box does not depend on ball order
            coords, radii = by_order, radii_by_order
        else:
            np.put(radii, at, radii_by_order)
            # Clamp each center from ``start`` on onto its first member at
            # minimal distance, which leaves centers in the subset in place.
            which = member[self.start:]
            for k in range(dim):
                tail = coords[self.start:, k]
                np.clip(tail, self.los[which, k], self.his[which, k], out=tail)
            floor = np.where(np.arange(level)[:, None] < self.start, dist_a, 0)
            _tighten(floor, _pair_dists(coords), radii, active)
        lo_box = (coords - radii[:, None]).max(axis=0)
        hi_box = (coords + radii[:, None]).min(axis=0)
        empty = self.empty_mask(lo_box, hi_box)
        screened[left] = empty
        if not empty.any():
            return screened, None
        # Read the first hit's column alone, its balls in index order: in
        # external mode the arrays hold them in tightening order, and ball i
        # sits at the row where ``order`` holds i.
        c, unit = np.argmax(empty), self.unit
        rows = np.argsort(order[:, c]) if self.start is None else range(level)
        balls = tuple(
            Ball(tuple(Fraction(int(v), unit) for v in coords[t, :, c]), Fraction(int(radii[t, c]), unit))
            for t in rows[:sizes[c]]
        )
        return screened, balls


def _pair_dists(coords: np.ndarray) -> np.ndarray:
    """(level, level, N) max-norm distances between the centers of each
    candidate, one coordinate at a time."""
    level, dim, n = coords.shape
    diff = np.empty((level, level, n), dtype=np.int64)
    gap = np.empty_like(diff)
    for k in range(dim):
        col, out = coords[:, k], (gap if k else diff)
        np.abs(np.subtract(col[:, None], col[None, :], out=out), out=out)
        if k:
            np.maximum(diff, gap, out=diff)
    return diff


def _tighten(floor, diff, radii, live) -> None:
    """The vectorized ``lab._tighten`` in index order: where ``live``, each
    radius in turn becomes the least value admissible against the others.
    Arrays are (level, N) and ``diff`` is (level, level, N).  The pair of a
    ball with itself never binds, since floor >= 0 >= 0 - radius."""
    for t in range(len(radii)):
        need = np.maximum(floor[t], (diff[t] - radii).max(axis=0))
        radii[t] = np.where(live[t], need, radii[t])
