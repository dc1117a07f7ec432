"""Counter-based random number streams for reproducible parallel ensembles.

Each stream is addressed by (seed, stream index) and produces its k-th output
as a pure function of (seed, index, k) via a splitmix64-style finalizer.
Streams for distinct indices are statistically independent, and the same
draws are obtained whether a stream is consumed scalar-by-scalar or in
vectorized blocks, which is what makes serial and batched trajectory
evolution bit-identical.
"""

from __future__ import annotations

import numpy as np

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_TWO_M53 = 1.0 / 9007199254740992.0  # 2**-53
_TWO_PI = 2.0 * np.pi


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 data (vectorized, modular arithmetic)."""
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))  # fresh array: the rest works in place
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z


def stream_key(seed, index) -> np.ndarray:
    """Derive the per-stream key from a 64-bit seed and a stream index.

    The key is a hash of (seed, index), never a sequentially split state,
    so key derivation is order-independent and vectorizes over `index`.
    """
    s = np.asarray(seed, dtype=np.uint64)
    i = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        inner = _mix(i + _GOLDEN)
    return _mix(s ^ inner)


def raw_words(key, counters) -> np.ndarray:
    """Raw 64-bit output words at the given counter positions."""
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.asarray(key, dtype=np.uint64) + (c + np.uint64(1)) * _GOLDEN
    return _mix(state)


def to_unit(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to floats in the open interval (0, 1)."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= _TWO_M53
    return u


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normal deviates from two arrays of unit uniforms (cosine
    branch only)."""
    r = np.log(u1)
    r *= -2.0
    np.sqrt(r, out=r)
    c = _TWO_PI * u2
    np.cos(c, out=c)
    r *= c
    return r


class CounterStream:
    """A single random stream with an explicit consumption counter.

    `uniform` consumes one counter per value, `standard_normal` two.
    """

    def __init__(self, seed: int, index: int = 0):
        self.key = stream_key(seed, index)
        self.counter = 0

    def _take(self, n: int) -> np.ndarray:
        c = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return raw_words(self.key, c)

    def uniform(self, size=None):
        if size is None:
            return float(to_unit(self._take(1))[0])
        return to_unit(self._take(int(size)))

    def standard_normal(self, size=None):
        n = 1 if size is None else int(size)
        w = self._take(2 * n)
        z = box_muller(to_unit(w[0::2]), to_unit(w[1::2]))
        if size is None:
            return float(z[0])
        return z
