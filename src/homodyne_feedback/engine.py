"""Time stepping, single trajectories, and reproducible parallel ensembles.

Every trajectory owns a counter-based stream derived from (seed, index), so
ensembles are embarrassingly parallel and the aggregate is bit-identical for
any worker count.  The batched kernel and the scalar `step` consume streams
with the same counter layout and the same float64 operations, so the two
paths agree exactly.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bloch import BlochState, SimParams, normalize_angle, rotation_angle
from .feedback import FeedbackPolicy, NO_FEEDBACK, gain
from .measurement import MeasurementRecord, SamplingMode, sample_record
from .streams import CounterStream, box_muller, raw_words, stream_key, to_unit

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# Trajectories per work unit; fixed so batch boundaries (and therefore the
# reduction) do not depend on the worker count.
BATCH_SIZE = 4096

# Upper bound on random words precomputed at once, per batch.  At BATCH_SIZE
# lanes that is a chunk of 8 steps: each word, uniform and normal array is
# 256 KiB, so a chunk's RNG arrays and their temporaries fit a 2 MiB L2
# cache, and a worker's memory does not grow with n_steps.  Much larger
# chunks stream tens of MB through memory and run slower.
# Chunking never changes a value: word k of a stream depends only on (key, k).
_WORD_BUDGET = 1 << 15

# Warn above this per-step rotation scale, sqrt(gamma*tau) * max|1 + s_z - g|:
# a typical |theta| of that size is no longer a weak measurement.
ANGLE_SCALE_WARN = 0.3


@dataclass(frozen=True)
class RunConfig:
    params: SimParams
    policy: FeedbackPolicy = NO_FEEDBACK
    mode: SamplingMode = SamplingMode.CONDITIONAL
    initial: BlochState = field(default_factory=BlochState.excited)
    n_steps: int = 1000
    n_trajectories: int = 1
    seed: int = 0

    def __post_init__(self):
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
        scale = _angle_scale(self.params, gain(self.policy))
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

    @property
    def seed(self) -> int:
        return self.config.seed


def sim_threads() -> int:
    """Worker cap from SIM_THREADS (positive integer), else hardware default."""
    raw = os.environ.get("SIM_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    n = int(raw)
    if n < 1:
        raise ValueError(f"SIM_THREADS must be a positive integer, got {raw!r}")
    return n


def _angle_scale(params: SimParams, g: float) -> float:
    """Largest |theta| per unit |delta_n / alpha|: sqrt(gamma*tau) times
    max over s_z in [-1, 1] of |1 + s_z - g|."""
    return math.sqrt(params.gamma * params.tau) * max(abs(2.0 - g), abs(g))


def derive_stream(seed: int, trajectory_index: int) -> CounterStream:
    """Independent stream for one trajectory: state = f(seed, index)."""
    return CounterStream(seed, trajectory_index)


def step(
    state: BlochState,
    params: SimParams,
    policy: FeedbackPolicy,
    mode: SamplingMode,
    rng: CounterStream,
):
    """One measurement interval: sample a record, rotate through the gained
    back-action angle computed from the pre-measurement s_z."""
    record = sample_record(state, params, mode, rng)
    theta = rotation_angle(state.s_z, record.delta_n, params, gain(policy))
    new_state = _wrap_state(state.phi + theta)
    return new_state, StepRecord(0, record.delta_n, theta, new_state)


def _wrap_state(phi: float) -> BlochState:
    # single-turn wrap, matching the batched kernel's arithmetic exactly
    if phi > _PI:
        phi = phi - _TWO_PI
    elif phi <= -_PI:
        phi = phi + _TWO_PI
    return BlochState(phi)


def _advance(phi, keys, params, g, conditional, n_steps, collect=None):
    """Evolve trajectories in lockstep.

    phi: (n,) float64 angles; keys: (n,) uint64 stream keys.
    collect: None, "history" (per-step delta_n/theta/phi arrays) or
    "stats" (per-step sums of s_x, s_x^2, s_z, s_z^2 including step 0).
    Random words are precomputed in step chunks; values are identical to
    sequential CounterStream consumption.
    """
    phi = np.array(phi, dtype=np.float64, copy=True)
    n = phi.shape[0]
    keys = np.asarray(keys, dtype=np.uint64)
    alpha = params.alpha
    sqrt_gt = math.sqrt(params.gamma * params.tau)
    mu = sqrt_gt * alpha
    scale = _angle_scale(params, g)
    stride = 3 if conditional else 2

    if collect == "history":
        dn_h = np.empty((n_steps, n))
        th_h = np.empty((n_steps, n))
        phi_h = np.empty((n_steps, n))
    elif collect == "stats":
        sums = np.empty((n_steps + 1, 4))
    # s_x, s_z of the current angles: the next step's inputs and the stats
    sx = np.sin(phi)
    sz = np.cos(phi)
    if collect == "stats":
        sums[0] = (sx.sum(), (sx * sx).sum(), sz.sum(), (sz * sz).sum())

    chunk = max(1, min(n_steps, _WORD_BUDGET // max(1, n)))
    for k0 in range(0, n_steps, chunk):
        k1 = min(n_steps, k0 + chunk)
        base = (
            np.arange(k0, k1, dtype=np.uint64) * np.uint64(stride)
        )[:, None]  # (m, 1)
        if conditional:
            u = to_unit(raw_words(keys, base))
            z = box_muller(
                to_unit(raw_words(keys, base + np.uint64(1))),
                to_unit(raw_words(keys, base + np.uint64(2))),
            )
        else:
            z = box_muller(
                to_unit(raw_words(keys, base)),
                to_unit(raw_words(keys, base + np.uint64(1))),
            )
        # |delta_n / alpha| <= sqrt_gt + |z|.  One turn of wrapping keeps
        # phi in (-pi, pi] while |theta| <= 2 pi; only chunks whose draws
        # could rotate by more than pi check every lane.
        full_wrap = scale * (sqrt_gt + np.abs(z).max()) > _PI
        for i, k in enumerate(range(k0, k1)):
            if conditional:
                center = np.where(u[i] < 0.5 * (1.0 + sx), mu, -mu)
                dn = center + alpha * z[i]
            else:
                dn = alpha * z[i]
            theta = sqrt_gt * (dn / alpha) * (1.0 + sz - g)
            phi += theta
            np.subtract(phi, _TWO_PI, out=phi, where=phi > _PI)
            np.add(phi, _TWO_PI, out=phi, where=phi <= -_PI)
            if full_wrap:
                # the scalar path's BlochState normalization, lane by lane
                for j in np.flatnonzero((phi > _PI) | (phi <= -_PI)):
                    phi[j] = normalize_angle(float(phi[j]))
            sx = np.sin(phi)
            sz = np.cos(phi)
            if collect == "history":
                dn_h[k] = dn
                th_h[k] = theta
                phi_h[k] = phi
            elif collect == "stats":
                sums[k + 1] = (sx.sum(), (sx * sx).sum(), sz.sum(), (sz * sz).sum())

    if collect == "history":
        return phi, dn_h, th_h, phi_h
    if collect == "stats":
        return phi, sums
    return phi


def run_trajectory_arrays(config: RunConfig, trajectory_index: int):
    """One trajectory as flat arrays (delta_n, theta, phi), length n_steps."""
    keys = stream_key(config.seed, np.asarray([trajectory_index], dtype=np.uint64))
    phi0 = np.array([config.initial.phi])
    conditional = config.mode is SamplingMode.CONDITIONAL
    _, dn_h, th_h, phi_h = _advance(
        phi0,
        keys,
        config.params,
        gain(config.policy),
        conditional,
        config.n_steps,
        collect="history",
    )
    return dn_h[:, 0], th_h[:, 0], phi_h[:, 0]


def run_trajectory(config: RunConfig, trajectory_index: int) -> list[StepRecord]:
    """Sequential steps from config.initial on the stream derived for
    trajectory_index; deterministic."""
    dn, th, phi = run_trajectory_arrays(config, trajectory_index)
    return [
        StepRecord(k, float(dn[k]), float(th[k]), BlochState(float(phi[k])))
        for k in range(config.n_steps)
    ]


def _batch_sums(config: RunConfig, i0: int, i1: int) -> np.ndarray:
    keys = stream_key(config.seed, np.arange(i0, i1, dtype=np.uint64))
    phi0 = np.full(i1 - i0, config.initial.phi)
    conditional = config.mode is SamplingMode.CONDITIONAL
    _, sums = _advance(
        phi0,
        keys,
        config.params,
        gain(config.policy),
        conditional,
        config.n_steps,
        collect="stats",
    )
    return sums


def run_ensemble(config: RunConfig) -> EnsembleResult:
    """Moment statistics over independent trajectories.

    Work is split into fixed-size batches and reduced in batch order, so the
    result is bit-identical for any SIM_THREADS setting at a fixed seed.
    """
    n = config.n_trajectories
    bounds = [(i, min(i + BATCH_SIZE, n)) for i in range(0, n, BATCH_SIZE)]
    workers = min(sim_threads(), len(bounds))
    if workers <= 1:
        batch_sums = [_batch_sums(config, i0, i1) for i0, i1 in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batch_sums = list(
                pool.map(lambda b: _batch_sums(config, b[0], b[1]), bounds)
            )
    total = batch_sums[0]
    for s in batch_sums[1:]:  # fixed reduction order
        total = total + s

    mean_sx = total[:, 0] / n
    mean_sz = total[:, 2] / n
    var_sx = np.maximum(total[:, 1] / n - mean_sx**2, 0.0)
    var_sz = np.maximum(total[:, 3] / n - mean_sz**2, 0.0)
    if n > 1:
        stderr_sx = np.sqrt(var_sx / (n - 1))
        stderr_sz = np.sqrt(var_sz / (n - 1))
    else:
        stderr_sx = np.zeros_like(var_sx)
        stderr_sz = np.zeros_like(var_sz)
    time = np.arange(config.n_steps + 1) * config.params.tau
    return EnsembleResult(
        time=time,
        mean_sx=mean_sx,
        mean_sz=mean_sz,
        var_sx=var_sx,
        var_sz=var_sz,
        stderr_sx=stderr_sx,
        stderr_sz=stderr_sz,
        config=config,
    )
