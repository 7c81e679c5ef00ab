"""Integer-exact batch screen for the refuter's sampling recipe.

The only module that imports numpy.  ``lab.refute_search`` imports it only
where ``lab.screen_applies`` says the screen takes the subset in the mode,
so every other command starts without loading numpy.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .lab import RADIUS_STEPS
from .rng import draw

_INT64_GUARD = 1 << 52
_FIRST_BATCH = 32  # small, so that an early hit costs little
_BATCH = 4096
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
        """d(center, subset) * unit for an (N, level, dim) int64 array, and
        on boxes the index of the first member at that distance (None on a
        half-space)."""
        if self.kind == "boxes":
            best = which = None
            for m, (lo, hi) in enumerate(zip(self.los, self.his)):
                d = np.zeros(coords.shape[:2], dtype=np.int64)
                for k in range(coords.shape[2]):
                    np.maximum(d, lo[k] - coords[:, :, k], out=d)
                    np.maximum(d, coords[:, :, k] - hi[k], out=d)
                if best is None:
                    best, which = d, np.zeros(d.shape, dtype=np.intp)
                else:
                    which[d < best] = m  # strict: ties keep the earlier member
                    np.minimum(best, d, out=best)
            return best, which
        margin = coords @ self.a_int - np.int64(self.b_int) * np.int64(self.unit)
        scaled = np.maximum(margin, 0)
        if np.any(scaled % self.dual):
            raise ArithmeticError("half-space distance left the integer lattice")
        return scaled // self.dual, None

    def empty_mask(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """True where (combined ball box) ∩ subset = ∅; boxes are (N, dim)."""
        box_ok = np.all(lo <= hi, axis=1)
        if self.kind == "boxes":
            meets = np.zeros(len(lo), dtype=bool)
            for mlo, mhi in zip(self.los, self.his):
                jlo = np.maximum(lo, mlo)
                jhi = np.minimum(hi, mhi)
                meets |= np.all(jlo <= jhi, axis=1)
        else:
            corner = np.where(self.a_int > 0, lo, hi)
            meets = corner @ self.a_int <= np.int64(self.b_int) * np.int64(self.unit)
        return ~(box_ok & meets)

    def scan(self, seed: int, start: int, stop: int):
        """First candidate index in [start, stop) whose family screens empty.

        Mirrors ``lab._scalar_candidate``, the center pull included, batch
        by batch.  The first batch is small, so a search
        that refutes early does not pay for a full batch.
        """
        lo_idx, size = start, _FIRST_BATCH
        while lo_idx < stop:
            hi_idx = min(lo_idx + size, stop)
            hits = np.nonzero(self._screen_batch(seed, lo_idx, hi_idx))[0]
            if len(hits):
                return lo_idx + int(hits[0])
            lo_idx, size = hi_idx, _BATCH
        return None

    def _screen_batch(self, seed: int, lo_idx: int, hi_idx: int) -> np.ndarray:
        """Whether each candidate in [lo_idx, hi_idx) screens empty."""
        arena = self.arena
        level, dim = arena.level, arena.dim
        n = hi_idx - lo_idx
        base = (np.arange(lo_idx, hi_idx, dtype=np.uint64)) * np.uint64(arena.slots)
        sizes = 2 + (draw(seed, base) % np.uint64(level - 1)).astype(np.int64)
        idx_counters = base[:, None] + np.uint64(1) + np.arange(level * dim, dtype=np.uint64)
        grid_idx = draw(seed, idx_counters).reshape(n, level, dim)
        grid_idx = (grid_idx % (self.cells + 1).astype(np.uint64)).astype(np.int64)
        coords = self.wlo_i + grid_idx * np.int64(self.step_i)
        dist_a, member = self.dist_ints(coords)
        off_counters = base[:, None] + np.uint64(1 + level * dim) + np.arange(level, dtype=np.uint64)
        offs = (draw(seed, off_counters) % np.uint64(RADIUS_STEPS + 1)).astype(np.int64)
        keys = draw(seed, off_counters + np.uint64(level))
        order = np.argsort(keys, axis=1, kind="stable")
        # Balls past a candidate's size get radius _BIG: no gap against them
        # counts, and they drop out of the box of the family.
        active = np.arange(level)[None, :] < sizes[:, None]
        radii = np.where(active, dist_a + offs * np.int64(abs(self.step_i)), _BIG)
        rows = np.arange(n)
        diff = _pair_dists(coords)
        for t in range(level):
            i_t = order[:, t]
            _tighten_one(diff[rows, i_t, :], radii, dist_a[rows, i_t], (rows, i_t), i_t < sizes)
        if self.start is not None:
            # Clamp each center from ``start`` on onto its first member at
            # minimal distance, which leaves centers in the subset in place.
            tail, which = coords[:, self.start:, :], member[:, self.start:]
            np.clip(tail, self.los[which], self.his[which], out=tail)
            floor = np.where(np.arange(level) < self.start, dist_a, 0)
            diff = _pair_dists(coords)
            for t in range(level):
                _tighten_one(diff[:, t, :], radii, floor[:, t], (slice(None), t), t < sizes)
        lo_box = coords[:, 0, :] - radii[:, 0, None]
        hi_box = coords[:, 0, :] + radii[:, 0, None]
        for i in range(1, level):
            np.maximum(lo_box, coords[:, i, :] - radii[:, i, None], out=lo_box)
            np.minimum(hi_box, coords[:, i, :] + radii[:, i, None], out=hi_box)
        return self.empty_mask(lo_box, hi_box)


def _pair_dists(coords: np.ndarray) -> np.ndarray:
    """(N, level, level) max-norm distances between the centers of each
    candidate, one coordinate at a time."""
    n, level, dim = coords.shape
    diff = np.zeros((n, level, level), dtype=np.int64)
    for k in range(dim):
        col = coords[:, :, k]
        np.maximum(diff, np.abs(col[:, :, None] - col[:, None, :]), out=diff)
    return diff


def _tighten_one(diff_row, radii, floor, at, live) -> None:
    """One step of the vectorized ``lab._tighten``: where ``live``, radius
    ``at`` becomes the least value admissible against the others.  The pair
    of a ball with itself never binds, since floor >= 0 >= 0 - radius."""
    gaps = diff_row - radii
    need = floor.copy()
    for j in range(gaps.shape[1]):
        np.maximum(need, gaps[:, j], out=need)
    radii[at] = np.where(live, need, radii[at])
