"""Ensemble statistics, diffusion estimation, and the drift/diffusion field.

The drift field reproduces the feedback-scenario circle diagrams: at each
angle on the s_y = 0 circle it reports the mean back-action rotation
conditioned on a positive record, the rms rotation, and whether the point is
a fixed point of the gained back-action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .bloch import SimParams
from .engine import EnsembleResult, RunConfig

_FIXED_POINT_TOL = 1e-12


@dataclass(frozen=True)
class DriftField:
    """Per-grid-point conditional drift and rms diffusion on the circle."""

    phi: np.ndarray
    mean_rotation_given_positive: np.ndarray
    rms_rotation: np.ndarray
    fixed_point: np.ndarray
    gain: float


@dataclass(frozen=True)
class DiffusionEstimate:
    value: float  # radians^2 per unit time
    stderr: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"diffusion must be >= 0, got {self.value}")


def _gauss_density(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def drift_field(params: SimParams, g: float, grid_size: int = 72) -> DriftField:
    """Conditional-mean and rms rotations over a uniform angle grid.

    The mean rotation given delta_n > 0 uses the analytic truncated mean of
    the conditional record mixture; fixed points are the exact zeros of
    1 + cos(phi) - g.
    """
    from scipy.special import ndtr

    if grid_size < 4:
        raise ValueError(f"grid_size must be >= 4, got {grid_size}")
    j = np.arange(1, grid_size + 1)
    phi = -np.pi + (2.0 * np.pi) * j / grid_size  # half-open grid ending at +pi
    s_x = np.sin(phi)
    s_z = np.cos(phi)
    gt = params.gamma_tau
    mu = math.sqrt(gt) * params.alpha
    sigma = params.alpha

    p_plus = 0.5 * (1.0 + s_x)
    p_minus = 0.5 * (1.0 - s_x)
    # E[dn 1{dn>0}] and P(dn>0) for the +/-mu mixture
    t = mu / sigma
    e_pos = p_plus * (mu * ndtr(t) + sigma * _gauss_density(t)) + p_minus * (
        -mu * ndtr(-t) + sigma * _gauss_density(t)
    )
    p_pos = p_plus * ndtr(t) + p_minus * ndtr(-t)
    mean_dn_given_pos = e_pos / p_pos

    amp = 1.0 + s_z - g
    mean_rot = math.sqrt(gt) * amp * mean_dn_given_pos / params.alpha
    rms = np.sqrt(gt * amp * amp * (1.0 + gt * (1.0 - s_x * s_x)))
    fixed = np.abs(amp) < _FIXED_POINT_TOL
    mean_rot = np.where(fixed, 0.0, mean_rot)
    return DriftField(
        phi=phi,
        mean_rotation_given_positive=mean_rot,
        rms_rotation=rms,
        fixed_point=fixed,
        gain=g,
    )


def estimate_diffusion(thetas, params: SimParams) -> DiffusionEstimate:
    """Var(theta)/tau with a delete-one jackknife standard error.

    Takes an array of rotation angles (for one trajectory, the theta array
    of `run_trajectory_arrays`); needs at least 100 of them from a
    (near-)stationary state.
    """
    theta = np.asarray(thetas, dtype=float)
    n = len(theta)
    if n < 100:
        raise ValueError(f"need >= 100 records, got {n}")
    theta = theta - theta.mean()  # center once for numerical stability
    s1 = theta.sum()
    s2 = np.dot(theta, theta)
    var_full = (s2 - s1 * s1 / n) / (n - 1)
    # closed-form delete-one sample variances
    mean_i = (s1 - theta) / (n - 1)
    var_i = (s2 - theta * theta - (n - 1) * mean_i * mean_i) / (n - 2)
    se = math.sqrt((n - 1) / n * float(np.sum((var_i - var_i.mean()) ** 2)))
    return DiffusionEstimate(value=var_full / params.tau, stderr=se / params.tau)


def ensemble_stats(phi, config: RunConfig) -> EnsembleResult:
    """Per-step moment statistics of config's run from its trajectories'
    angles: phi has shape (n, config.n_steps), one row per trajectory as
    `run_trajectory_arrays` returns it.

    The initial state and tau come from config.  Aggregation is in row order.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or len(phi) == 0 or phi.shape[1] != config.n_steps:
        raise ValueError(f"phi must have shape (n >= 1, {config.n_steps}), got {phi.shape}")
    n = len(phi)
    # one C-ordered row per step, summed along the row as the batched kernel
    # sums its lanes; a transposed (F-ordered) view would sum in another order
    angles = np.empty((config.n_steps + 1, n))
    angles[0] = config.initial.phi
    angles[1:] = phi.T
    sx = np.sin(angles)
    sz = np.cos(angles)
    sums = np.stack([sx.sum(1), (sx * sx).sum(1), sz.sum(1), (sz * sz).sum(1)], axis=1)
    return EnsembleResult.from_sums(sums, n, config)


@dataclass(frozen=True)
class Histogram:
    counts: np.ndarray
    edges: np.ndarray
    underflow: int
    overflow: int

    def total(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow


def histogram(values, bins: int, value_range: tuple[float, float]) -> Histogram:
    """Fixed-range histogram with explicit under/overflow buckets; the total
    count is preserved."""
    lo, hi = value_range
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if not lo < hi:
        raise ValueError(f"invalid range ({lo}, {hi})")
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    underflow = int(np.sum(values < lo))
    overflow = int(np.sum(values > hi))
    # np.histogram includes the right edge in the last bin; keep totals exact
    inside = int(counts.sum())
    slack = values.size - inside - underflow - overflow
    overflow += int(slack)
    return Histogram(counts=counts, edges=edges, underflow=underflow, overflow=overflow)
