"""The drift/diffusion field of the feedback scenarios.

The drift field reproduces the feedback-scenario circle diagrams: at each
angle on the s_y = 0 circle it reports the mean back-action rotation
conditioned on a positive record, and whether the point is a fixed point of
the gained back-action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import _special
from .bloch import SimParams
from .measurement import pdf_vacuum, record_shift

_FIXED_POINT_TOL = 1e-12


@dataclass(frozen=True)
class DriftField:
    """Per-grid-point conditional drift and fixed points on the circle."""

    phi: np.ndarray
    mean_rotation_given_positive: np.ndarray
    fixed_point: np.ndarray


def drift_field(params: SimParams, g: float, grid_size: int = 72) -> DriftField:
    """Conditional-mean rotations over a uniform angle grid.

    The mean rotation given delta_n > 0 uses the analytic truncated mean of
    the conditional record mixture; fixed points are the exact zeros of
    1 + cos(phi) - g.
    """
    if grid_size < 4:
        raise ValueError(f"grid_size must be >= 4, got {grid_size}")
    j = np.arange(1, grid_size + 1)
    phi = -np.pi + (2.0 * np.pi) * j / grid_size  # half-open grid ending at +pi
    s_x = np.sin(phi)
    s_z = np.cos(phi)
    gt = params.gamma_tau
    mu = record_shift(params)
    sigma = params.alpha

    p_plus = 0.5 * (1.0 + s_x)
    p_minus = 0.5 * (1.0 - s_x)
    # E[dn 1{dn>0}] and P(dn>0) for the +/-mu mixture
    t = mu / sigma
    density = pdf_vacuum(t, 1.0)  # standard normal density at t
    cdf_pos, cdf_neg = float(_special.ndtr(t)), float(_special.ndtr(-t))
    e_pos = p_plus * (mu * cdf_pos + sigma * density) + p_minus * (-mu * cdf_neg + sigma * density)
    p_pos = p_plus * cdf_pos + p_minus * cdf_neg
    mean_dn_given_pos = e_pos / p_pos

    amp = 1.0 + s_z - g
    mean_rot = math.sqrt(gt) * amp * mean_dn_given_pos / params.alpha
    fixed = np.abs(amp) < _FIXED_POINT_TOL
    mean_rot = np.where(fixed, 0.0, mean_rot)
    return DriftField(phi=phi, mean_rotation_given_positive=mean_rot, fixed_point=fixed)
