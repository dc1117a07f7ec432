"""Time stepping, single trajectories, and reproducible parallel ensembles.

Every trajectory owns a counter-based stream derived from (seed, index), so
ensembles are embarrassingly parallel and the aggregate is bit-identical for
any worker count.  Ensembles run through the batched kernel `_advance`.
Every step draws its record from the atom-conditioned `conditional_pdf`.

An ensemble is cut into fixed batches of BATCH_SIZE trajectories, and each
worker advances a slab, a run of up to SLAB_BATCHES consecutive batches, as
one wide lane array.  Every per-step operation writes into a workspace the
kernel allocates once per slab.  The random draws come from one generator,
`streams.draws`, which sizes the chunks, lays out the counters and fills
buffers it allocates once per slab, so the kernel allocates no lane array
per step or per chunk.  The kernel keeps one
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
from .measurement import record_shift
from .streams import _WORD_BUDGET, draws, stream_key

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# Trajectories per work unit; fixed so batch boundaries (and therefore the
# reduction) do not depend on the worker count.
BATCH_SIZE = 4096

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


def _batch_rows(x, out):
    """Each batch's sum of the lane array x into out (one entry a batch):
    row sums of the full batches, then a ragged last batch as its own slice,
    each equal to that batch's own 1-D `.sum()` bit for bit."""
    full = len(x) // BATCH_SIZE
    if full:
        np.add.reduce(x[: full * BATCH_SIZE].reshape(full, BATCH_SIZE), axis=1, out=out[:full])
    if len(x) > full * BATCH_SIZE:
        out[full] = x[full * BATCH_SIZE :].sum()


def _advance(phi, keys, params, g, n_steps):
    """Evolve trajectories in lockstep; return the final angles and each
    batch's per-step sums of s_x, s_x^2, s_z, s_z^2, shape
    (batches, n_steps + 1, 4) with step 0 included.

    phi: (n,) float64 angles; keys: (n,) uint64 stream keys.  Lanes
    b*BATCH_SIZE .. (b+1)*BATCH_SIZE - 1 are batch b; the last may be
    ragged.  Every per-step operation writes with `out=` into a workspace
    allocated once per call, and `streams.draws` fills buffers of its own, so
    neither a step nor a chunk allocates a lane array.
    """
    phi = np.array(phi, dtype=np.float64, copy=True)
    keys = np.asarray(keys, dtype=np.uint64)
    alpha = params.alpha
    sqrt_gt = math.sqrt(params.gamma * params.tau)
    mu = record_shift(params)
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

    record(0)
    for k0, k1, u, z in draws(keys, n_steps):
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
    mu = record_shift(params)
    g = config.gain
    keys = stream_key(config.seed, np.asarray([trajectory_index], dtype=np.uint64))
    sin, cos = math.sin, math.cos

    out = np.empty((3, config.n_steps))  # delta_n, theta, phi
    phi = config.initial.phi
    sx, sz = sin(phi), cos(phi)
    for k0, k1, u, z in draws(keys, config.n_steps):
        rows = []  # flat (delta_n, theta, phi) triples: cheap to append and convert
        for ui, zi in zip(u[:, 0].tolist(), z[:, 0].tolist()):
            dn = (mu if ui < 0.5 * (1.0 + sx) else -mu) + alpha * zi
            theta = sqrt_gt * (dn / alpha) * (1.0 + sz - g)
            phi += theta
            if phi > _PI or phi <= -_PI:
                phi = normalize_angle(phi - _TWO_PI if phi > _PI else phi + _TWO_PI)
            sx, sz = sin(phi), cos(phi)
            rows += (dn, theta, phi)
        out[:, k0:k1] = np.reshape(rows, (-1, 3)).T
    return out[0], out[1], out[2]


# perfbench's span table and layer probe call this name, and its facts read
# _WORD_BUDGET here, imported from streams only for them; ROADMAP item 8
# removes both
run_trajectory = run_trajectory_arrays


def _slab_sums(config: RunConfig, batches) -> np.ndarray:
    """Per-batch sums of consecutive batches (i0, i1), advanced as one slab."""
    # one key derivation per batch, so traced runs count batches by its calls
    keys = np.concatenate(
        [stream_key(config.seed, np.arange(i0, i1, dtype=np.uint64)) for i0, i1 in batches]
    )
    phi0 = np.full(len(keys), config.initial.phi)
    # an overflowing alpha * z turns the sums non-finite, which run_ensemble
    # refuses; numpy's error state is per thread, so it is set here
    with np.errstate(over="ignore", invalid="ignore"):
        _, sums = _advance(phi0, keys, config.params, config.gain, config.n_steps)
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
