"""Integer-exact batch screen for the refuter's sampling recipe.

The only module that imports numpy.  ``lab.refute_search`` imports it when
it screens an ``external`` search, so every other command starts without
loading numpy.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .lab import RADIUS_STEPS
from .lp import HPolyhedron
from .rng import draw

_INT64_GUARD = 1 << 52
_BATCH = 4096


class FastScreen:
    """Integer-exact batch evaluation of the sampling recipe.

    Every length is represented as value * unit over int64; the unit folds in
    all denominators in play (grid step, window corners, subset parameters,
    and the half-space dual-norm divisor), so no rounding ever happens.
    A box screens as a union of one box; empty members of a union are
    dropped, as the exact distances drop them.
    Construction raises ``TypeError`` for a subset kind without a screen and
    ``OverflowError`` when magnitudes would not fit int64.
    """

    def __init__(self, subset, arena):
        self.arena = arena
        dens = [arena.step.denominator]
        dens += [w.denominator for w in arena.wlo]
        self.data: dict = {}
        boxes = getattr(subset, "boxes", None)
        if boxes is not None:
            self.kind = "boxes"
            boxes = [b for b in boxes if not b.is_empty()]
            for b in boxes:
                dens += [v.denominator for v in b.lo + b.hi]
        elif isinstance(subset, HPolyhedron) and len(subset.rows) == 1:
            self.kind = "halfspace"
            (a, b), = subset.rows
            row_scale = lcm(*(v.denominator for v in a + (b,)))
            a_int = [int(v * row_scale) for v in a]
            b_int = int(b * row_scale)
            dens += [sum(abs(v) for v in a_int)]
            self.data["a_int"] = a_int
            self.data["b_int"] = b_int
            self.data["dual"] = sum(abs(v) for v in a_int)
        else:
            raise TypeError("no fast path for this subset kind")
        unit = lcm(*dens)
        self.unit = unit
        self.step_i = int(arena.step * unit)
        self.wlo_i = np.array([int(w * unit) for w in arena.wlo], dtype=np.int64)
        self.cells = np.array(arena.cells, dtype=np.int64)
        if self.kind == "boxes":
            self.data["los"] = [
                np.array([int(v * unit) for v in b.lo], dtype=np.int64) for b in boxes
            ]
            self.data["his"] = [
                np.array([int(v * unit) for v in b.hi], dtype=np.int64) for b in boxes
            ]
        # magnitude guard: worst coordinate plus worst radius, times dual norm
        worst = max(
            abs(int(w)) + c * abs(self.step_i) for w, c in zip(self.wlo_i, self.cells)
        )
        worst_len = worst + (RADIUS_STEPS + 2) * abs(self.step_i) + worst
        if self.kind == "halfspace":
            worst_len *= sum(abs(v) for v in self.data["a_int"]) + abs(self.data["b_int"])
        if worst_len >= _INT64_GUARD:
            raise OverflowError("fast-path magnitudes would overflow int64")

    def dist_ints(self, coords: np.ndarray) -> np.ndarray:
        """d(center, subset) * unit for an (N, level, dim) int64 array."""
        if self.kind == "boxes":
            best = None
            for lo, hi in zip(self.data["los"], self.data["his"]):
                gap = np.maximum(lo - coords, coords - hi)
                d = np.maximum(gap, 0).max(axis=2)
                best = d if best is None else np.minimum(best, d)
            return best
        a = np.array(self.data["a_int"], dtype=np.int64)
        margin = coords @ a - np.int64(self.data["b_int"]) * np.int64(self.unit)
        scaled = np.maximum(margin, 0)
        dual = np.int64(self.data["dual"])
        if np.any(scaled % dual):
            raise ArithmeticError("half-space distance left the integer lattice")
        return scaled // dual

    def empty_mask(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """True where (combined ball box) ∩ subset = ∅; boxes are (N, dim)."""
        box_ok = np.all(lo <= hi, axis=1)
        if self.kind == "boxes":
            meets = np.zeros(len(lo), dtype=bool)
            for mlo, mhi in zip(self.data["los"], self.data["his"]):
                jlo = np.maximum(lo, mlo)
                jhi = np.minimum(hi, mhi)
                meets |= np.all(jlo <= jhi, axis=1)
        else:
            a = np.array(self.data["a_int"], dtype=np.int64)
            corner = np.where(a > 0, lo, hi)
            meets = corner @ a <= np.int64(self.data["b_int"]) * np.int64(self.unit)
        return ~(box_ok & meets)

    def scan(self, seed: int, start: int, stop: int):
        """First candidate index in [start, stop) whose family screens empty.

        Mirrors ``lab._scalar_candidate`` batch by batch; the radius loop is
        the vectorized form of ``lab._tighten``.
        """
        arena = self.arena
        level, dim = arena.level, arena.dim
        for lo_idx in range(start, stop, _BATCH):
            hi_idx = min(lo_idx + _BATCH, stop)
            n = hi_idx - lo_idx
            base = (np.arange(lo_idx, hi_idx, dtype=np.uint64)) * np.uint64(arena.slots)
            sizes = (
                np.full(n, 2, dtype=np.int64)
                if level <= 2
                else 2 + (draw(seed, base) % np.uint64(level - 1)).astype(np.int64)
            )
            idx_counters = base[:, None] + np.uint64(1) + np.arange(level * dim, dtype=np.uint64)
            grid_idx = draw(seed, idx_counters).reshape(n, level, dim)
            grid_idx = (grid_idx % (self.cells + 1).astype(np.uint64)).astype(np.int64)
            coords = self.wlo_i + grid_idx * np.int64(self.step_i)
            dist_a = self.dist_ints(coords)
            off_counters = base[:, None] + np.uint64(1 + level * dim) + np.arange(level, dtype=np.uint64)
            offs = (draw(seed, off_counters) % np.uint64(RADIUS_STEPS + 1)).astype(np.int64)
            radii = dist_a + offs * np.int64(abs(self.step_i))
            key_counters = off_counters + np.uint64(level)
            keys = draw(seed, key_counters)
            order = np.argsort(keys, axis=1, kind="stable")
            active = np.arange(level)[None, :] < sizes[:, None]
            diff = np.abs(coords[:, :, None, :] - coords[:, None, :, :]).max(axis=3)
            neg = np.int64(-(1 << 60))
            pair_mask = active[:, :, None] & active[:, None, :]
            np.einsum("nii->ni", pair_mask)[:] = False
            rows = np.arange(n)
            for t in range(level):
                i_t = order[:, t]
                live = i_t < sizes
                gaps = np.where(pair_mask[rows, i_t, :], diff[rows, i_t, :] - radii, neg)
                need = np.maximum(gaps.max(axis=1), dist_a[rows, i_t])
                radii[rows, i_t] = np.where(live, need, radii[rows, i_t])
            radii = np.where(active, radii, 0)
            big = np.int64(1 << 60)
            lo_box = np.where(active[:, :, None], coords - radii[:, :, None], -big).max(axis=1)
            hi_box = np.where(active[:, :, None], coords + radii[:, :, None], big).min(axis=1)
            hits = np.nonzero(self.empty_mask(lo_box, hi_box))[0]
            if len(hits):
                return lo_idx + int(hits[0])
        return None
