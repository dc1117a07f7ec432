"""The drift field of the feedback scenarios, the paper's circle diagrams.

At each angle on the s_y = 0 circle it reports the step's rotation of the
mean record given a positive one, and whether the point is a fixed point of
the gained back-action.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .bloch import SimParams, rotation_angle
from .measurement import positive_record_mean

_FIXED_POINT_TOL = 1e-12


@dataclass(frozen=True)
class DriftField:
    """Per-grid-point conditional drift and fixed points on the circle."""

    phi: np.ndarray
    mean_rotation_given_positive: np.ndarray
    fixed_point: np.ndarray


def drift_field(params: SimParams, g: float, grid_size: int = 72) -> DriftField:
    """Conditional-mean rotations over a uniform angle grid.

    Each angle's arrow is the step's rotation (`rotation_angle`) of the
    record law's mean given delta_n > 0 (`positive_record_mean`); fixed
    points are the exact zeros of 1 + cos(phi) - g.
    """
    if grid_size < 4:
        raise ValueError(f"grid_size must be >= 4, got {grid_size}")
    j = np.arange(1, grid_size + 1)
    phi = -np.pi + (2.0 * np.pi) * j / grid_size  # half-open grid ending at +pi
    amp = np.empty(grid_size)  # 1 + s_z - g
    mean_dn_given_pos = positive_record_mean(np.sin(phi), params)
    with np.errstate(over="ignore"):  # refused below, naming the gain
        mean_rot = rotation_angle(np.cos(phi), mean_dn_given_pos, params, g, tmp=amp)
    if not np.all(np.isfinite(mean_rot)):
        raise ValueError(f"drift field overflows float64 at gain g = {g:g}")
    fixed = np.abs(amp) < _FIXED_POINT_TOL
    mean_rot = np.where(fixed, 0.0, mean_rot)
    return DriftField(phi=phi, mean_rotation_given_positive=mean_rot, fixed_point=fixed)
