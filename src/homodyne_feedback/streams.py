"""Counter-based random number streams for reproducible parallel ensembles.

Each stream is addressed by (seed, stream index) and produces its k-th output
as a pure function of (seed, index, k) via a splitmix64-style finalizer.
Streams for distinct indices are statistically independent.  One generator,
`draws`, lays the words out in steps: step k of a stream takes counter 3k
for a uniform and 3k+1, 3k+2 for a Box-Muller pair.  The kernel, the scalar
stepper and `measurement.sample_records` all draw through it, so a record
sample at a stationary state is that trajectory's record at the same step.
"""

from __future__ import annotations

import numpy as np

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_TWO_M53 = 1.0 / 9007199254740992.0  # 2**-53
_TWO_PI = 2.0 * np.pi


def _mix(z, scratch=None):
    """splitmix64 finalizer on uint64 data (vectorized, modular arithmetic),
    in place on an array z, with the shifted copies in `scratch` (fresh when
    None)."""
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=scratch)
        z *= _MIX1
        z ^= np.right_shift(z, np.uint64(27), out=scratch)
        z *= _MIX2
        z ^= np.right_shift(z, np.uint64(31), out=scratch)
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


def raw_words(key, counters, out=None, scratch=None) -> np.ndarray:
    """Raw 64-bit output words at the given counter positions, into `out`
    (uint64, the broadcast shape of key and counters) with the mixing steps'
    shifted copies in `scratch` (same shape); each is fresh when None."""
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.add(np.asarray(key, dtype=np.uint64), (c + np.uint64(1)) * _GOLDEN, out=out)
    return _mix(state, scratch)


def to_unit(words: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Map 64-bit words to floats in the open interval (0, 1), into `out`
    with the shifted words in `scratch` (uint64, which may be `words`); each
    is fresh when None."""
    top = np.right_shift(words, np.uint64(11), out=scratch)
    # the cast of the 53-bit integers to float64 is exact; then 0.5 is added
    u = np.add(top, 0.5, out=out)
    u *= _TWO_M53
    return u


def box_muller(u1: np.ndarray, u2: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Standard normal deviates from two arrays of unit uniforms (cosine
    branch only), into `out` (which may be `u1`) with the cosines in
    `scratch` (which may be `u2`); each is fresh when None."""
    r = np.log(u1, out=out)
    r *= -2.0
    np.sqrt(r, out=r)
    c = np.multiply(_TWO_PI, u2, out=scratch)
    np.cos(c, out=c)
    r *= c
    return r


# Upper bound on random words `draws` precomputes at once per word array.
# That is a chunk of 8 steps at 4096 lanes (one engine batch) and of 2 steps
# in a 4-batch slab: each of its buffers (two word planes, three float
# planes) is 256 KiB, allocated once per call and refilled every chunk, so
# they fit a 2 MiB L2 cache and a worker's memory does not grow with n_steps.
# Much larger chunks stream tens of MB through memory and run slower.  Read
# at call time; chunking never changes a value, since word k of a stream
# depends only on (key, k).
_WORD_BUDGET = 1 << 15


def draws(keys, n_steps):
    """Yield (k0, k1, u, z) over steps 0..n_steps-1 in chunks of at most
    _WORD_BUDGET draws per word array, the last ragged: the uniforms u and
    the normals z of steps k0..k1-1, shape (k1 - k0, lanes), one lane per
    key.  Step k takes counters 3k (uniform) and 3k+1, 3k+2 (Box-Muller).

    Every chunk is written in place into buffers allocated once per call:
    uint64 words and their mixing scratch, and float64 Box-Muller uniforms
    (the first plane ends up holding the normals) and uniforms.  u and z are
    views of them, valid until the next chunk.
    """
    lanes = len(keys)
    chunk = max(1, min(n_steps, _WORD_BUDGET // lanes))
    words, scratch = np.empty((2, chunk, lanes), dtype=np.uint64)
    floats = np.empty((3, chunk, lanes))
    for k0 in range(0, n_steps, chunk):
        k1 = min(n_steps, k0 + chunk)
        w, s, f = words[: k1 - k0], scratch[: k1 - k0], floats[:, : k1 - k0]
        base = (np.arange(k0, k1, dtype=np.uint64) * np.uint64(3))[:, None]

        def unit(offset, out):
            raw_words(keys, base + np.uint64(offset), out=w, scratch=s)
            return to_unit(w, out=out, scratch=w)

        u = unit(0, f[2])
        z = box_muller(unit(1, f[0]), unit(2, f[1]), out=f[0], scratch=f[1])
        yield k0, k1, u, z


class CounterStream:
    """Names one stream, (seed, index), for `measurement.sample_records`;
    its key is all it holds, and `draws` lays out its counters."""

    def __init__(self, seed: int, index: int = 0):
        self.key = stream_key(seed, index)
