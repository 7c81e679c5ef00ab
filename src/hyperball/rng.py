"""Deterministic, counter-based randomness (SplitMix64).

The generator is a pure function of (seed, counter): draw ``i`` equals
``mix64(seed + (i+1) * GAMMA)`` over 64-bit wrapping arithmetic.  The same
seed therefore replays bit-identically on every platform, and any counter
range can be evaluated on its own.
"""

from __future__ import annotations

from .errors import InvalidArgument

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: one 64-bit integer in, one out."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def draw(seed: int, counter: int) -> int:
    """The ``counter``-th 64-bit draw of the stream with the given seed;
    masking the seed first keeps any Python int seed in range."""
    return mix64(((seed & MASK64) + (counter + 1) * GAMMA) & MASK64)


def derive_seed(seed: int, tag: int) -> int:
    """Deterministic child seed for sub-tasks (per-level and per-probe runs)."""
    return mix64((seed ^ mix64(tag)) & MASK64)


class SplitMix64:
    """Stateful convenience wrapper around the counter-based stream."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & MASK64
        self.counter = counter

    def next_u64(self) -> int:
        value = draw(self.seed, self.counter)
        self.counter += 1
        return value

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) by modular reduction."""
        if bound <= 0:
            raise InvalidArgument("bound must be positive")
        return self.next_u64() % bound

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def choice(self, items):
        return items[self.below(len(items))]

    def shuffled(self, items):
        """Deterministic permutation: sort by per-item draw keys, ties by index."""
        keys = [(self.next_u64(), i) for i in range(len(items))]
        keys.sort()
        return [items[i] for _, i in keys]
