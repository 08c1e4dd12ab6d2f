"""Deterministic random number generation.

The generator is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter
advanced by the golden-ratio constant, with each output produced by a fixed
avalanche mix of the counter value.  Because output ``i`` depends only on
``seed + (i+1) * GOLDEN``, whole blocks of draws can be computed with
vectorized uint64 arithmetic while staying bit-identical to the sequential
definition on every platform.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 1 << 16  # elements mixed per pass: a draw holds its output and 512 KB of scratch


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to a 1-D uint64 array; returns it."""
    t = np.empty(min(z.size, _CHUNK), dtype=np.uint64)
    for i in range(0, z.size, _CHUNK):
        c = z[i: i + _CHUNK]
        s = t[: c.size]
        for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(c, np.uint64(shift), out=s)
            c ^= s
            if mult is not None:
                c *= mult
    return z


class Rng:
    """SplitMix64 stream with vectorized block draws.

    Same seed gives the same draw sequence regardless of how calls are
    batched: ``uniform64(6)`` equals ``concat(uniform64(2), uniform64(4))``.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self._state = np.uint64(seed)

    def _block(self, n: int) -> np.ndarray:
        """Draw n uint64 values as one vectorized block."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GOLDEN
        z += self._state
        with np.errstate(over="ignore"):
            self._state = self._state + np.uint64(n) * _GOLDEN
        return _mix(z)

    def uniform64(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n float64 draws uniform in [lo, hi), using the top 53 bits."""
        if lo > hi:
            raise ValueError(f"lo={lo} > hi={hi}")
        z = self._block(n)
        z >>= np.uint64(11)
        u = z.view(np.float64)
        np.multiply(z, 2.0 ** -53, out=u)  # converts in place
        u *= hi - lo
        u += lo
        return u

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """n int64 draws uniform in [low, high), by scaling uniform64."""
        if high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        u = self.uniform64(n)
        return (low + np.floor(u * (high - low))).astype(np.int64)
