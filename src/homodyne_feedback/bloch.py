"""Bloch vector of a two-level atom restricted to the s_y = 0 plane.

The state is stored as a single angle phi in (-pi, pi] with
s_x = sin(phi), s_z = cos(phi).  The excited state sits at phi = 0, the
ground state at phi = pi, and the dipole eigenstates s_x = +/-1 at
phi = +/-pi/2.  Measurement back-action is an exact rotation of this angle,
so purity is preserved by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Warn above this gamma*tau: the paper's record law is off the exact one
# (`exact_update`'s) by a total variation of ~0.24*gamma*tau*|s_z|.
WEAK_COUPLING_WARN = 0.01


@dataclass(frozen=True)
class BlochState:
    """Pure atomic state on the s_y = 0 great circle, stored as an angle."""

    phi: float

    def __post_init__(self):
        # the package's one wrap of a given angle: an angle in (-pi, pi] is
        # kept bit for bit, any other is reduced by 2 pi and its -pi end moved to +pi
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if not -math.pi < phi <= math.pi:
            phi = math.remainder(phi, 2.0 * math.pi)
            if phi <= -math.pi:
                phi += 2.0 * math.pi
        object.__setattr__(self, "phi", phi)

    @property
    def s_x(self) -> float:
        return float(np.sin(self.phi))

    @property
    def s_z(self) -> float:
        return float(np.cos(self.phi))

    @classmethod
    def excited(cls) -> "BlochState":
        return cls(0.0)

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(math.pi)

    @classmethod
    def dipole_plus(cls) -> "BlochState":
        return cls(0.5 * math.pi)

    @classmethod
    def dipole_minus(cls) -> "BlochState":
        return cls(-0.5 * math.pi)


@dataclass(frozen=True)
class SimParams:
    """Physical parameters: decay rate, measurement interval, LO amplitude."""

    gamma: float
    tau: float
    alpha: float

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be > 0, got {self.tau}")
        # one interval's emission probability (exact_update takes sqrt(1 - gamma*tau))
        gt = self.gamma * self.tau
        if not 0.0 < gt < 1.0:
            raise ValueError(f"gamma*tau = {self.gamma:g}*{self.tau:g} = {gt:g} is not in (0, 1)")
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        # alpha's one float range.  A record is +-mu + alpha*z with centre mu =
        # sqrt(gamma*tau)*alpha (as record_shift computes it) and |z| <= streams.Z_MAX;
        # with sqrt(gamma*tau) < 1 it lies within (1 + Z_MAX)*alpha = 9.65 alpha, so a
        # finite 10 alpha (the histogram's range) keeps every record finite.  A
        # subnormal centre has lost bits: records leave the model.
        if not math.isfinite(10.0 * self.alpha):
            raise ValueError(f"alpha = {self.alpha:g} is too large: 10*alpha overflows float64")
        if math.sqrt(gt) * self.alpha < np.finfo(float).tiny:
            raise ValueError(f"alpha = {self.alpha:g} is too small: its record centre is subnormal")
        if gt > WEAK_COUPLING_WARN:
            warnings.warn(
                f"gamma*tau = {gt:g} is above {WEAK_COUPLING_WARN}; the weak-field record "
                f"law is off the exact one by a total variation of up to ~{0.24 * gt:.2g}",
                stacklevel=3,
            )

    @property
    def gamma_tau(self) -> float:
        return self.gamma * self.tau


def rotation_angle(s_z, delta_n, params: SimParams, gain: float = 0.0, *, out=None, tmp=None):
    """Back-action rotation angle sqrt(gamma*tau) * (delta_n/alpha) * (1 + s_z - gain).

    Uses the pre-measurement s_z.  Returns exactly 0.0 whenever
    1 + s_z - gain == 0, for any record value.  Accepts arrays, writing the
    angle into out (which may be delta_n) and 1 + s_z - gain into tmp.
    """
    # one new array each at most, then in place (a scalar operand rebinds)
    theta = np.divide(delta_n, params.alpha, out=out)
    theta *= math.sqrt(params.gamma_tau)
    amplitude = np.add(s_z, 1.0, out=tmp)
    amplitude -= gain
    theta *= amplitude
    return theta


def apply_rotation(state: BlochState, theta: float) -> BlochState:
    """Rotate the state by theta around the y-axis (exact, purity-preserving);
    a non-finite theta makes a non-finite angle, which BlochState refuses."""
    return BlochState(state.phi + theta)


def exact_update(state: BlochState, delta_n: float, params: SimParams) -> BlochState:
    """The state after one interval given its record, exactly: c_e|e> + c_g|g>
    (c_e, c_g = cos, sin of phi/2) emits amplitude c_e*sqrt(gamma*tau), and a
    one-photon source scales the vacuum's amplitude of delta_n by delta_n/alpha
    (as in `fock`).  To first order this is the g = 0 rotation; a ground
    state stays put."""
    c_e, c_g = math.cos(0.5 * state.phi), math.sin(0.5 * state.phi)
    excited = c_e * math.sqrt(1.0 - params.gamma_tau)
    ground = c_g + c_e * math.sqrt(params.gamma_tau) * delta_n / params.alpha
    return BlochState(2.0 * math.atan2(ground, excited))
