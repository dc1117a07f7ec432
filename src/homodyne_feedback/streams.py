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

import math

import numpy as np

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_TWO_M53 = 1.0 / 9007199254740992.0  # 2**-53
_TWO_PI = 2.0 * np.pi

# box_muller's largest |z|, sqrt(-2 ln u) at to_unit's least uniform u = 2**-54
Z_MAX = math.sqrt(108.0 * math.log(2.0))


def check_seed(seed: int) -> int:
    """seed, if it can seed a stream: an unsigned 64-bit integer."""
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


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
    state = np.asarray(counters, dtype=np.uint64) + np.uint64(1)
    with np.errstate(over="ignore"):
        state *= _GOLDEN  # in place: one counter-shaped temporary
        return _mix(np.add(np.asarray(key, dtype=np.uint64), state, out=out), scratch)


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


# Upper bound on steps x lanes of one chunk of `draws`.  Its two buffers, the
# counter plane and its mixing scratch, hold 3 words a lane-step: 384 KiB
# each, allocated once per call, so they fit a 2 MiB L2 cache and memory does
# not grow with n_steps.  That is 4 steps at 4096 lanes, 1 step in a full
# slab and 16,384 steps at one lane, where the counters and raw_words'
# temporary are as large again.  tracemalloc peaks (numpy 2.4): `draws` over
# 100,000 steps at one lane 1.50 MiB, `engine._advance` over 50 steps 0.95
# MiB at 4096 lanes and 1.33 MiB at 16,384.  Read at call time; word k
# depends only on (key, k), not the chunk.
_WORD_BUDGET = 1 << 14


def draws(keys, n_steps):
    """Yield (k0, k1, u, z) over steps 0..n_steps-1 in chunks of at most
    _WORD_BUDGET lane-steps, the last ragged: the uniforms u and normals z
    of steps k0..k1-1, contiguous, shape (k1 - k0, lanes), one lane per key.

    A chunk is one (3, steps, lanes) plane of words in a buffer allocated
    once per call: plane j holds counter 3k + j of step k, and the uniforms
    and normals are written over planes 0 and 1.  The caller may overwrite
    u and z until it asks for the next chunk.
    """
    lanes = len(keys)
    chunk = max(1, min(n_steps, _WORD_BUDGET // lanes))
    plane, scratch = np.empty((2, 3, chunk, lanes), dtype=np.uint64)
    for k0 in range(0, n_steps, chunk):
        k1 = min(n_steps, k0 + chunk)
        w, s = plane[:, : k1 - k0], scratch[:, : k1 - k0]
        counters = np.arange(3 * k0, 3 * k1, dtype=np.uint64).reshape(-1, 3).T[:, :, None]
        raw_words(keys, counters, out=w, scratch=s)
        f = to_unit(w, out=w.view(np.float64), scratch=s)
        yield k0, k1, f[0], box_muller(f[1], f[2], out=f[1], scratch=f[2])


class CounterStream:
    """Names one stream, (seed, index), for `measurement.sample_records`;
    its key is all it holds, and `draws` lays out its counters."""

    def __init__(self, seed: int, index: int = 0):
        self.key = stream_key(check_seed(seed), index)
