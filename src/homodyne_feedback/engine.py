"""Time stepping, single trajectories, and reproducible parallel ensembles.

Every trajectory owns a counter-based stream derived from (seed, index), so
ensembles are embarrassingly parallel and the aggregate is bit-identical for
any worker count.  Ensembles run through the batched kernel `_advance`,
whose steps draw records from the atom-conditioned `conditional_pdf` with
`measurement.conditional_records` and turn by `bloch.rotation_angle`.
`SimParams` bounds alpha, so the kernel runs under numpy's default error state;
`RunConfig` bounds a step's rotation below a full turn, so one turn wraps it.

An ensemble is cut into fixed batches of BATCH_SIZE trajectories, and each
worker advances a slab, consecutive batches at most one draw chunk wide, as
one wide lane array.  Every per-step operation writes into a workspace the
kernel allocates once per slab, or over the step's normals in the buffer of
`streams.draws`, which sizes the chunks and lays out the counters, so no
step or chunk allocates a lane array.  The kernel keeps one set of per-step
sums per batch: the row sums of a (batches, BATCH_SIZE) view of each lane
array, with a ragged last batch summed as its own slice.  Each is the same
pairwise sum over the same lanes as that batch's own 1-D `.sum()`, so it is
equal bit for bit however batches are grouped into slabs, and the batches
are reduced in batch order.  The result therefore does not depend on the
worker count.

A single trajectory runs through `run_trajectory_arrays`, a plain float loop
over the same draws that repeats the record's and the rotation's float64
operations in their order, so each of its values equals that lane of the
kernel bit for bit.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bloch import BlochState, SimParams, rotation_angle
from .measurement import conditional_records, record_shift
from .streams import _WORD_BUDGET, Z_MAX, check_seed, draws, stream_key

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# Trajectories per work unit; fixed so batch boundaries (and therefore the
# reduction) do not depend on the worker count.
BATCH_SIZE = 4096

# Warn above this per-step rotation scale, sqrt(gamma*tau) * max|1 + s_z - g|, far from
# the continuous (Markovian) feedback limit.  The step's model error does not depend on
# g (exact_update then the same feedback turn is off it by one angle for every g).
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
        check_seed(self.seed)
        if not math.isfinite(self.n_steps * self.params.tau):
            raise ValueError("n_steps * tau must be finite")
        # A step turns by theta = sqrt_gt * (delta_n / alpha) * (1 + s_z - g), |theta| <=
        # scale * (sqrt_gt + Z_MAX).  A 1e-12 margin, far above theta's rounding, keeps the
        # computed |theta| below 2 pi by more than an ulp of 3 pi, so |phi + theta| < 3 pi
        # for |phi| <= pi: one turn subtracts exactly there (Sterbenz) into (-pi, pi].
        # This is a run's only bound on g: at gamma*tau = 1e-3, g in (-20.88, 22.88).
        sqrt_gt = math.sqrt(self.params.gamma_tau)
        scale = sqrt_gt * max(abs(2.0 - self.gain), abs(self.gain))
        if scale * (sqrt_gt + Z_MAX) >= _TWO_PI * (1.0 - 1e-12):
            raise ValueError(
                f"per-step rotation scale {scale:.3g} lets one step turn by a full circle"
            )
        if scale > ANGLE_SCALE_WARN:
            warnings.warn(
                f"per-step rotation scale sqrt(gamma*tau)*max(|2-g|, |g|) = {scale:.3g} "
                f"is above {ANGLE_SCALE_WARN}; the feedback is far from its continuous limit",
                stacklevel=3,
            )


@dataclass(frozen=True)
class EnsembleResult:
    """Per-step moment statistics over an ensemble (step 0 = initial state):
    the columns `hdsim simulate` writes after "step", named as its fields.

    Variances are population variances; se = sqrt(var / (n - 1)) for n > 1
    and 0 for a single trajectory.
    """

    time: np.ndarray
    mean_sx: np.ndarray
    mean_sz: np.ndarray
    var_sx: np.ndarray
    var_sz: np.ndarray
    se_sx: np.ndarray
    se_sz: np.ndarray

    @classmethod
    def from_sums(cls, sums: np.ndarray, n: int, tau: float) -> "EnsembleResult":
        """Moments of n trajectories from their per-step sums of
        (s_x, s_x^2, s_z, s_z^2), shape (n_steps + 1, 4), steps tau apart."""
        mean = sums[:, 0::2] / n
        var = np.maximum(sums[:, 1::2] / n - mean**2, 0.0)
        se = np.sqrt(var / (n - 1)) if n > 1 else np.zeros_like(var)
        return cls(
            time=np.arange(len(sums)) * tau,
            mean_sx=mean[:, 0],
            mean_sz=mean[:, 1],
            var_sx=var[:, 0],
            var_sz=var[:, 1],
            se_sx=se[:, 0],
            se_sz=se[:, 1],
        )


def sim_threads() -> int:
    """Worker cap: SIM_THREADS (a positive integer; by default the CPU count),
    capped at the CPU count: the CPUs this process may run on where the
    platform has affinity sets, else the machine's, or 1 where unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    raw = os.environ.get("SIM_THREADS")
    if raw is None:
        return cpus
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"SIM_THREADS must be a positive integer, got {raw!r}")
    return min(n, cpus)


def check_gain(g: float) -> float:
    """g, if it is finite: RunConfig's full-turn refusal bounds a run's gain."""
    if not math.isfinite(g):
        raise ValueError(f"custom gain must be finite, got {g}")
    return g


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
    ragged.  A step writes its records and rotations over its normals in
    `streams.draws`' buffer and all else into a workspace allocated once
    per call, so neither a step nor a chunk allocates a lane array.
    """
    phi = np.array(phi, dtype=np.float64, copy=True)
    keys = np.asarray(keys, dtype=np.uint64)
    n = phi.shape[0]
    sums = np.empty((-(-n // BATCH_SIZE), n_steps + 1, 4))
    # s_x, s_z of the current angles: the next step's inputs and the stats
    sx = np.sin(phi)
    sz = np.cos(phi)
    tmp = np.empty(n)  # scratch: the record centre, 1 + s_z - g, the squares
    mask = np.empty(n, dtype=bool)

    def record(k):
        _batch_rows(sx, sums[:, k, 0])
        _batch_rows(np.multiply(sx, sx, out=tmp), sums[:, k, 1])
        _batch_rows(sz, sums[:, k, 2])
        _batch_rows(np.multiply(sz, sz, out=tmp), sums[:, k, 3])

    record(0)
    for k0, k1, u, z in draws(keys, n_steps):
        for i, k in enumerate(range(k0, k1)):
            # records, then rotations, over the step's normals; |theta| < 2 pi (RunConfig)
            theta = conditional_records(u[i], z[i], sx, params, z[i], tmp, mask)
            rotation_angle(sz, theta, params, g, out=theta, tmp=tmp)
            phi += theta
            np.greater(phi, _PI, out=mask)
            np.subtract(phi, _TWO_PI, out=phi, where=mask)
            np.less_equal(phi, -_PI, out=mask)
            np.add(phi, _TWO_PI, out=phi, where=mask)
            np.sin(phi, out=sx)
            np.cos(phi, out=sz)
            record(k + 1)
    return phi, sums


def run_trajectory_arrays(config: RunConfig, trajectory_index: int):
    """One trajectory as flat arrays (delta_n, theta, phi), length n_steps.

    Steps the kernel's draws for this trajectory in a float loop with the
    arithmetic of `conditional_records` and `rotation_angle` in their order,
    so every value equals that lane of `_advance` bit for bit
    (`math.sin`/`math.cos` agree with numpy's float64 sin/cos where both use
    the C library's; the tests check every step against the kernel).
    Out-of-range angles are wrapped as the kernel wraps them, by one turn.
    """
    params = config.params
    alpha = params.alpha
    sqrt_gt = math.sqrt(params.gamma_tau)
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
            if phi > _PI:
                phi -= _TWO_PI
            elif phi <= -_PI:
                phi += _TWO_PI
            sx, sz = sin(phi), cos(phi)
            rows += (dn, theta, phi)
        out[:, k0:k1] = np.reshape(rows, (-1, 3)).T
    return out[0], out[1], out[2]


# perfbench's span table and layer probe call this name; ROADMAP item 8 removes it
run_trajectory = run_trajectory_arrays


def run_ensemble(config: RunConfig) -> EnsembleResult:
    """Moment statistics over independent trajectories.

    Work is split into fixed-size batches, each worker advances runs of
    consecutive batches (slabs) as one lane array, and the per-batch sums
    are reduced in batch order, so the result is bit-identical for any
    SIM_THREADS setting at a fixed seed.  Slabs are cut for the workers
    started, at most _WORD_BUDGET lanes wide: a full slab draws a step a chunk.
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded only when an ensemble runs

    n = config.n_trajectories
    bounds = [(i, min(i + BATCH_SIZE, n)) for i in range(0, n, BATCH_SIZE)]
    workers = min(sim_threads(), len(bounds))
    width = min(_WORD_BUDGET // BATCH_SIZE, -(-len(bounds) // workers))
    slabs = [bounds[i : i + width] for i in range(0, len(bounds), width)]

    def slab_sums(slab):
        # one key derivation per batch, so traced runs count batches by its calls
        keys = np.concatenate(
            [stream_key(config.seed, np.arange(i0, i1, dtype=np.uint64)) for i0, i1 in slab]
        )
        phi0 = np.full(len(keys), config.initial.phi)
        return _advance(phi0, keys, config.params, config.gain, config.n_steps)[1]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        batch_sums = [s for sums in pool.map(slab_sums, slabs) for s in sums]
    total = batch_sums[0]
    for s in batch_sums[1:]:  # fixed reduction order
        total = total + s
    return EnsembleResult.from_sums(total, n, config.params.tau)
