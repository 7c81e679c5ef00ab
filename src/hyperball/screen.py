"""Integer-exact batch screen for the refuter's sampling recipe, on unions
of two or more boxes in the center modes.

The only module that imports numpy.  ``lab.refute_search`` imports it only
where ``lab.refute_path`` names the screen, so every other command starts
without loading numpy; the span decision in ``lab`` answers ``external``
mode and single boxes.

A batch of N candidates is laid out batch-last: the candidate axis is the
last, contiguous one of every array, so each numpy loop runs over the whole
batch.  The draws are (slots, N), centers (level, dim, N), radii, floors and
member indices (level, N), and pair distances (level, level, N).  The pair
distances grow with level², so a batch holds at most ``_PAIR_CAP // level²``
candidates (at least one): ``_PAIR_CAP`` int64 elements, 8 MB, per pair
distance array up to level 1024.  Above it a batch holds one candidate, with
level² pair distances.  Member distances are taken one member at a time,
so only the empty mask, (members, dim, N) booleans, scales with members.

Only the candidates that can refute go past the member distances.  A box is
externally hyperconvex: balls that meet pairwise and each reach a box Q meet
inside Q, by Helly's theorem on the line applied to each coordinate
(Aronszajn and Panitchpakdi, 1956).  So a candidate whose active balls all
have the same first nearest member never screens empty, and its offsets,
order, pair distances and tightening are skipped.

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
    """Integer-exact batch evaluation of the sampling recipe on a union of
    boxes in a center mode: every length is value * unit over int64, the
    unit the lcm of every denominator in play (grid step, window corners,
    non-empty member sides).  The centers from index ``start``, the mode's
    ``REFUTE_MODES`` entry, on are pulled onto the union as
    ``lab._scalar_candidate`` pulls them.  ``lab.refute_path`` must name the
    screen for the subset and mode, and ``arena`` must cover its window.
    Construction raises ``OverflowError`` when magnitudes would not fit int64."""

    def __init__(self, subset, arena, start: int):
        self.arena, self.start = arena, start
        boxes = [b for b in subset.boxes if not b.is_empty()]
        self.unit = unit = lcm(arena.step.denominator, *(w.denominator for w in arena.wlo),
                               *(v.denominator for b in boxes for v in b.lo + b.hi))
        self.step_i = int(arena.step * unit)
        self.wlo_i = np.array([int(w * unit) for w in arena.wlo], dtype=np.int64)
        self.cells = np.array(arena.cells, dtype=np.int64)
        # (members, dim, 1) corners, broadcast against (dim, N) batches
        self.los = np.array([[[int(v * unit)] for v in b.lo] for b in boxes], dtype=np.int64)
        self.his = np.array([[[int(v * unit)] for v in b.hi] for b in boxes], dtype=np.int64)
        # magnitude guard: twice the worst coordinate (the arena covers the
        # members) plus the worst radius
        worst = max(abs(int(w)) + c * abs(self.step_i) for w, c in zip(self.wlo_i, self.cells))
        if 2 * worst + (RADIUS_STEPS + 2) * abs(self.step_i) >= _INT64_GUARD:
            raise OverflowError("fast-path magnitudes would overflow int64")

    def dist_ints(self, coords: np.ndarray):
        """d(center, union) * unit for a (level, dim, N) int64 array, and the
        index of the first member at that distance; both are (level, N).
        One member at a time, so no temporary is larger than ``coords``."""
        best = np.full(coords[:, 0].shape, _BIG)
        which = np.zeros(best.shape, dtype=np.intp)
        for m, (lo, hi) in enumerate(zip(self.los, self.his)):
            d = np.maximum(np.maximum(lo - coords, coords - hi).max(axis=1), 0)
            which[d < best] = m  # strict: ties keep the earlier member
            np.minimum(best, d, out=best)
        return best, which

    def empty_mask(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """True where the (dim, N) ball box, empty or not, misses every member."""
        meets = np.maximum(lo, self.los) <= np.minimum(hi, self.his)
        return ~meets.all(axis=1).any(axis=0)

    def scan(self, seed: int, start: int, stop: int):
        """The first candidate in [start, stop) whose family screens empty,
        as (index, balls) with the hit's exact integers over ``unit``, or
        None.  Mirrors ``lab._scalar_candidate`` batch by batch.  The first
        batch is small, so an early hit does not pay for a full batch, and
        batches only split the index range, so they never move the hit."""
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
        # A candidate whose active balls share their first nearest member Q
        # cannot refute: an unpulled ball reaches Q (its radius is at least
        # d(c, A) = d(c, Q)) and a pulled center lies in Q, so the
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
        np.put(radii, at, radii_by_order)
        # Clamp each center from ``start`` on onto its first member at
        # minimal distance, which leaves centers in the subset in place.
        which = member[self.start:]
        for k in range(dim):
            tail = coords[self.start:, k]
            np.clip(tail, self.los[which, k, 0], self.his[which, k, 0], out=tail)
        floor = np.where(np.arange(level)[:, None] < self.start, dist_a, 0)
        _tighten(floor, _pair_dists(coords), radii, active)
        lo_box = (coords - radii[:, None]).max(axis=0)
        hi_box = (coords + radii[:, None]).min(axis=0)
        empty = self.empty_mask(lo_box, hi_box)
        screened[left] = empty
        if not empty.any():
            return screened, None
        # Read the first hit's column alone, its balls in index order.
        c, unit = np.argmax(empty), self.unit
        return screened, tuple(
            Ball(tuple(Fraction(int(v), unit) for v in coords[t, :, c]), Fraction(int(radii[t, c]), unit))
            for t in range(sizes[c])
        )


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
