"""Time stepping, single trajectories, and reproducible parallel ensembles.

Every trajectory owns a counter-based stream derived from (seed, index), so
ensembles are embarrassingly parallel and the aggregate is bit-identical for
any worker count.  Ensembles run through the batched kernel `_advance`.

An ensemble is cut into fixed batches of BATCH_SIZE trajectories, and each
worker advances a slab, a run of up to SLAB_BATCHES consecutive batches, as
one wide lane array.  Every per-step operation and every chunk's random
draws write into a workspace the kernel allocates once per slab, so the
kernel allocates no lane array per step or per chunk.  The kernel keeps one
set of per-step sums per batch: the row sums of a (batches, BATCH_SIZE) view
of each lane array, with a ragged last batch summed as its own slice.  Each
is the same pairwise sum over the same lanes as that batch's own 1-D
`.sum()`, so it is equal bit for bit however batches are grouped into
slabs, and the batches are reduced in batch order.  The result therefore
does not depend on the worker count.

A single trajectory runs through `run_trajectory_arrays`, a plain float loop
over the same draws that repeats the kernel's float64 operations in the
kernel's order, so each of its values equals that lane of the kernel bit for
bit.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bloch import BlochState, SimParams, normalize_angle
from .measurement import SamplingMode
from .streams import box_muller, raw_words, stream_key, to_unit

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# Trajectories per work unit; fixed so batch boundaries (and therefore the
# reduction) do not depend on the worker count.
BATCH_SIZE = 4096

# Upper bound on random words precomputed at once per word array.  That is
# a chunk of 8 steps at BATCH_SIZE lanes and of 2 steps in a 4-batch slab:
# each of the kernel's draw buffers (two word arrays, three float arrays,
# two in vacuum mode) is 256 KiB, allocated once per slab and refilled every
# chunk, so they fit a 2 MiB L2 cache and a worker's memory does not grow
# with n_steps.  Much larger chunks stream tens of MB through memory and run
# slower.
# Chunking never changes a value: word k of a stream depends only on (key, k).
_WORD_BUDGET = 1 << 15

# Most batches a worker advances together as one lane array (a slab).  A
# 4-batch slab makes a quarter of the numpy calls, and hands the interpreter
# lock over a quarter as often, per trajectory-step as one batch at a time.
SLAB_BATCHES = 4

MAX_CUSTOM_GAIN = 10.0

# Warn above this per-step rotation scale, sqrt(gamma*tau) * max|1 + s_z - g|:
# a typical |theta| of that size is no longer a weak measurement.
ANGLE_SCALE_WARN = 0.3


@dataclass(frozen=True)
class RunConfig:
    params: SimParams
    # Proportional feedback gain on the homodyne record.  The corrective Rabi
    # rotation is applied within the same measurement step: no feedback = 0,
    # compensation = 1, inversion = 2; other values interpolate.
    gain: float = 0.0
    mode: SamplingMode = SamplingMode.CONDITIONAL
    initial: BlochState = field(default_factory=BlochState.excited)
    n_steps: int = 1000
    n_trajectories: int = 1
    seed: int = 0

    def __post_init__(self):
        check_gain(self.gain)
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.n_trajectories < 1:
            raise ValueError(
                f"n_trajectories must be >= 1, got {self.n_trajectories}"
            )
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not math.isfinite(self.n_steps * self.params.tau):
            raise ValueError("n_steps * tau must be finite")
        scale = _angle_scale(self.params, self.gain)
        if scale > ANGLE_SCALE_WARN:
            warnings.warn(
                f"per-step rotation scale sqrt(gamma*tau)*max(|2-g|, |g|) = {scale:.3g} "
                f"is above {ANGLE_SCALE_WARN}; the weak-measurement picture breaks down",
                stacklevel=3,
            )


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    delta_n: float
    theta: float
    state_after: BlochState


@dataclass(frozen=True)
class EnsembleResult:
    """Per-step moment statistics over an ensemble (step 0 = initial state).

    Variances are population variances; stderr = sqrt(var / (n - 1)) for
    n > 1 and 0 for a single trajectory.
    """

    time: np.ndarray
    mean_sx: np.ndarray
    mean_sz: np.ndarray
    var_sx: np.ndarray
    var_sz: np.ndarray
    stderr_sx: np.ndarray
    stderr_sz: np.ndarray
    config: RunConfig

    @classmethod
    def from_sums(cls, sums: np.ndarray, n: int, config: RunConfig) -> "EnsembleResult":
        """Moments of n trajectories from their per-step sums of
        (s_x, s_x^2, s_z, s_z^2), shape (n_steps + 1, 4)."""
        mean = sums[:, 0::2] / n
        var = np.maximum(sums[:, 1::2] / n - mean**2, 0.0)
        stderr = np.sqrt(var / (n - 1)) if n > 1 else np.zeros_like(var)
        return cls(
            time=np.arange(len(sums)) * config.params.tau,
            mean_sx=mean[:, 0],
            mean_sz=mean[:, 1],
            var_sx=var[:, 0],
            var_sz=var[:, 1],
            stderr_sx=stderr[:, 0],
            stderr_sz=stderr[:, 1],
            config=config,
        )


def sim_threads() -> int:
    """Worker cap from SIM_THREADS (positive integer), else hardware default."""
    raw = os.environ.get("SIM_THREADS")
    if raw is None:
        return _hardware_threads()
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"SIM_THREADS must be a positive integer, got {raw!r}")
    return n


def _hardware_threads() -> int:
    """The CPU count, or 1 where it is unknown."""
    return os.cpu_count() or 1


def check_gain(g: float) -> float:
    """g, if it is a feedback gain the engine accepts: finite with
    |g| <= MAX_CUSTOM_GAIN."""
    if not math.isfinite(g) or abs(g) > MAX_CUSTOM_GAIN:
        raise ValueError(
            f"custom gain must be finite with |g| <= {MAX_CUSTOM_GAIN}, got {g}"
        )
    return g


def _angle_scale(params: SimParams, g: float) -> float:
    """Largest |theta| per unit |delta_n / alpha|: sqrt(gamma*tau) times
    max over s_z in [-1, 1] of |1 + s_z - g|."""
    return math.sqrt(params.gamma * params.tau) * max(abs(2.0 - g), abs(g))


def _chunk_steps(n_steps: int, lanes: int) -> int:
    """Steps per chunk: at most _WORD_BUDGET draws per word array."""
    return max(1, min(n_steps, _WORD_BUDGET // max(1, lanes)))


def _chunks(n_steps: int, lanes: int):
    """(k0, k1) step ranges of _chunk_steps steps each, the last ragged."""
    chunk = _chunk_steps(n_steps, lanes)
    for k0 in range(0, n_steps, chunk):
        yield k0, min(n_steps, k0 + chunk)


def _draw_buffers(steps: int, lanes: int, conditional: bool):
    """Draw workspace for up to `steps` steps, each plane (steps, lanes):
    uint64 words and their mixing scratch; float64 Box-Muller uniforms (the
    first plane ends up holding the normals) and, in conditional mode, the
    record uniforms."""
    words = np.empty((2, steps, lanes), dtype=np.uint64)
    floats = np.empty((3 if conditional else 2, steps, lanes))
    return words, floats


def _draws(keys, k0, k1, conditional, buffers):
    """Uniforms (None in vacuum mode) and normals of steps k0..k1-1, shape
    (k1 - k0, lanes).  A conditional step takes counters 3k (uniform) and
    3k+1, 3k+2 (Box-Muller); a vacuum step takes 2k, 2k+1.  Word k of a
    stream depends only on (key, k), so chunking never changes a value.

    The draws are written into `buffers` (from `_draw_buffers`, for at
    least k1 - k0 steps and len(keys) lanes); the returned arrays are views
    of them, valid until the next call.
    """
    m = k1 - k0
    (words, scratch), floats = buffers
    words, scratch, floats = words[:m], scratch[:m], floats[:, :m]
    base = (
        np.arange(k0, k1, dtype=np.uint64) * np.uint64(3 if conditional else 2)
    )[:, None]

    def unit(offset, out):
        w = raw_words(keys, base + np.uint64(offset), out=words, scratch=scratch)
        return to_unit(w, out=out, scratch=w)

    u = unit(0, floats[2]) if conditional else None
    pair = 1 if conditional else 0  # counter offset of the Box-Muller pair
    z = box_muller(
        unit(pair, floats[0]), unit(pair + 1, floats[1]), out=floats[0], scratch=floats[1]
    )
    return u, z


def _batch_rows(x, out):
    """Each batch's sum of the lane array x into out (one entry a batch):
    row sums of the full batches, then a ragged last batch as its own slice,
    each equal to that batch's own 1-D `.sum()` bit for bit."""
    full = len(x) // BATCH_SIZE
    if full:
        np.add.reduce(x[: full * BATCH_SIZE].reshape(full, BATCH_SIZE), axis=1, out=out[:full])
    if len(x) > full * BATCH_SIZE:
        out[full] = x[full * BATCH_SIZE :].sum()


def _advance(phi, keys, params, g, conditional, n_steps):
    """Evolve trajectories in lockstep; return the final angles and each
    batch's per-step sums of s_x, s_x^2, s_z, s_z^2, shape
    (batches, n_steps + 1, 4) with step 0 included.

    phi: (n,) float64 angles; keys: (n,) uint64 stream keys.  Lanes
    b*BATCH_SIZE .. (b+1)*BATCH_SIZE - 1 are batch b; the last may be
    ragged.  Every per-step operation writes with `out=` into a workspace
    allocated once per call, and each chunk's draws are written into draw
    buffers allocated beside it, so neither a step nor a chunk allocates a
    lane array.
    """
    phi = np.array(phi, dtype=np.float64, copy=True)
    keys = np.asarray(keys, dtype=np.uint64)
    alpha = params.alpha
    sqrt_gt = math.sqrt(params.gamma * params.tau)
    mu = sqrt_gt * alpha
    scale = _angle_scale(params, g)

    n = phi.shape[0]
    sums = np.empty((-(-n // BATCH_SIZE), n_steps + 1, 4))
    # s_x, s_z of the current angles: the next step's inputs and the stats
    sx = np.sin(phi)
    sz = np.cos(phi)
    theta = np.empty(n)
    tmp = np.empty(n)  # scratch: the center, 1 + s_z - g, the squares
    mask = np.empty(n, dtype=bool)

    def record(k):
        _batch_rows(sx, sums[:, k, 0])
        _batch_rows(np.multiply(sx, sx, out=tmp), sums[:, k, 1])
        _batch_rows(sz, sums[:, k, 2])
        _batch_rows(np.multiply(sz, sz, out=tmp), sums[:, k, 3])

    draw_buffers = _draw_buffers(_chunk_steps(n_steps, n), n, conditional)

    record(0)
    for k0, k1 in _chunks(n_steps, n):
        u, z = _draws(keys, k0, k1, conditional, draw_buffers)
        # |delta_n / alpha| <= sqrt_gt + |z|.  One turn of wrapping keeps
        # phi in (-pi, pi] while |theta| <= 2 pi; only chunks whose draws
        # could rotate by more than pi check every lane.  max |z| is taken
        # from z's extremes, which needs no temporary.
        full_wrap = scale * (sqrt_gt + max(z.max(), -z.min())) > _PI
        for i, k in enumerate(range(k0, k1)):
            # delta_n = center + alpha * z, center = mu where u < (1 + s_x) / 2
            # and -mu elsewhere.  The center is (u < ...) * 2 mu - mu, which
            # is exactly +-mu and needs no branch per lane.
            np.multiply(z[i], alpha, out=theta)
            if conditional:
                np.add(sx, 1.0, out=tmp)
                np.multiply(tmp, 0.5, out=tmp)
                np.less(u[i], tmp, out=mask)
                np.multiply(mask, 2.0 * mu, out=tmp)
                np.subtract(tmp, mu, out=tmp)
                np.add(tmp, theta, out=theta)
            # theta = sqrt_gt * (delta_n / alpha) * (1 + s_z - g)
            np.divide(theta, alpha, out=theta)
            np.multiply(theta, sqrt_gt, out=theta)
            np.add(sz, 1.0, out=tmp)
            np.subtract(tmp, g, out=tmp)
            np.multiply(theta, tmp, out=theta)
            phi += theta
            np.greater(phi, _PI, out=mask)
            np.subtract(phi, _TWO_PI, out=phi, where=mask)
            np.less_equal(phi, -_PI, out=mask)
            np.add(phi, _TWO_PI, out=phi, where=mask)
            if full_wrap:
                for j in np.flatnonzero((phi > _PI) | (phi <= -_PI)):
                    phi[j] = normalize_angle(float(phi[j]))
            np.sin(phi, out=sx)
            np.cos(phi, out=sz)
            record(k + 1)
    return phi, sums


def run_trajectory_arrays(config: RunConfig, trajectory_index: int):
    """One trajectory as flat arrays (delta_n, theta, phi), length n_steps.

    Steps the kernel's draws for this trajectory in a float loop with the
    kernel's arithmetic in the kernel's order, so every value equals that
    lane of `_advance` bit for bit (`math.sin`/`math.cos` agree with
    numpy's float64 sin/cos where both use the C library's; the tests check
    every step against the kernel).  Out-of-range angles are wrapped as the
    kernel wraps them: one turn, then `normalize_angle` if still out of
    range.  The one-turn subtraction is exact only for |phi| <= 4 pi, so for
    steps with |theta| > 3 pi that differs from `normalize_angle` alone in
    the last bit.
    """
    params = config.params
    alpha = params.alpha
    sqrt_gt = math.sqrt(params.gamma * params.tau)
    mu = sqrt_gt * alpha
    g = config.gain
    conditional = config.mode is SamplingMode.CONDITIONAL
    keys = stream_key(config.seed, np.asarray([trajectory_index], dtype=np.uint64))
    sin, cos = math.sin, math.cos

    out = np.empty((3, config.n_steps))  # delta_n, theta, phi
    phi = config.initial.phi
    sx, sz = sin(phi), cos(phi)
    draw_buffers = _draw_buffers(_chunk_steps(config.n_steps, 1), 1, conditional)
    for k0, k1 in _chunks(config.n_steps, 1):
        u, z = _draws(keys, k0, k1, conditional, draw_buffers)
        us = u[:, 0].tolist() if conditional else None
        rows = []  # flat (delta_n, theta, phi) triples: cheap to append and convert
        for i, zi in enumerate(z[:, 0].tolist()):
            if conditional:
                dn = (mu if us[i] < 0.5 * (1.0 + sx) else -mu) + alpha * zi
            else:
                dn = alpha * zi
            theta = sqrt_gt * (dn / alpha) * (1.0 + sz - g)
            phi += theta
            if phi > _PI or phi <= -_PI:
                phi = normalize_angle(phi - _TWO_PI if phi > _PI else phi + _TWO_PI)
            sx, sz = sin(phi), cos(phi)
            rows += (dn, theta, phi)
        out[:, k0:k1] = np.reshape(rows, (-1, 3)).T
    return out[0], out[1], out[2]


def run_trajectory(config: RunConfig, trajectory_index: int) -> list[StepRecord]:
    """Sequential steps from config.initial on the stream derived for
    trajectory_index; deterministic."""
    dn, th, phi = run_trajectory_arrays(config, trajectory_index)
    return [
        StepRecord(k, float(dn[k]), float(th[k]), BlochState(float(phi[k])))
        for k in range(config.n_steps)
    ]


def _slab_sums(config: RunConfig, batches) -> np.ndarray:
    """Per-batch sums of consecutive batches (i0, i1), advanced as one slab."""
    # one key derivation per batch, so traced runs count batches by its calls
    keys = np.concatenate(
        [stream_key(config.seed, np.arange(i0, i1, dtype=np.uint64)) for i0, i1 in batches]
    )
    phi0 = np.full(len(keys), config.initial.phi)
    conditional = config.mode is SamplingMode.CONDITIONAL
    _, sums = _advance(phi0, keys, config.params, config.gain, conditional, config.n_steps)
    return sums


def run_ensemble(config: RunConfig) -> EnsembleResult:
    """Moment statistics over independent trajectories.

    Work is split into fixed-size batches, each worker advances runs of
    consecutive batches (slabs) as one lane array, and the per-batch sums
    are reduced in batch order, so the result is bit-identical for any
    SIM_THREADS setting at a fixed seed.
    """
    n = config.n_trajectories
    bounds = [(i, min(i + BATCH_SIZE, n)) for i in range(0, n, BATCH_SIZE)]
    workers = min(sim_threads(), len(bounds))
    width = min(SLAB_BATCHES, -(-len(bounds) // workers))
    slabs = [bounds[i : i + width] for i in range(0, len(bounds), width)]
    # the slab width follows SIM_THREADS; the threads started do not exceed
    # the hardware's, so a large SIM_THREADS does not start one per slab
    with ThreadPoolExecutor(max_workers=min(workers, _hardware_threads())) as pool:
        slab_sums = list(pool.map(lambda slab: _slab_sums(config, slab), slabs))
    batch_sums = [s for sums in slab_sums for s in sums]
    total = batch_sums[0]
    for s in batch_sums[1:]:  # fixed reduction order
        total = total + s
    if not np.isfinite(total).all():
        raise ValueError(f"non-finite angles: alpha = {config.params.alpha:g} overflows float64")
    return EnsembleResult.from_sums(total, n, config)
