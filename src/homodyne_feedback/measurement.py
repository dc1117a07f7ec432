"""Measurement-record statistics for balanced homodyne detection.

The vacuum model is the weak-field Gaussian of width |alpha|.  The
conditional model is a two-component Gaussian mixture centered at
+/- sqrt(gamma*tau)*|alpha| with dipole-eigenstate weights (1 +/- s_x)/2:
it reduces to the vacuum Gaussian as gamma*tau -> 0 and makes positive
records more likely for s_x = +1.  `sample_records` draws record i from step
i of its stream through `streams.draws`, the generator the dynamics use, so
both laws share their normals and a conditional sample at a stationary state
is the record that trajectory draws.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .bloch import BlochState, SimParams
from .streams import CounterStream, draws


class SamplingMode(enum.Enum):
    """Record law of `sample_records`: dynamics always draws conditional
    records; vacuum samples feed the record histogram."""

    VACUUM = "vacuum"
    CONDITIONAL = "conditional"


def _gauss(x, mu, sigma):
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def pdf_vacuum(delta_n, alpha: float):
    """Vacuum-fluctuation record density: Gaussian of mean 0 and width |alpha|."""
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return _gauss(np.asarray(delta_n, dtype=float), 0.0, alpha)


def record_shift(params: SimParams) -> float:
    """Center offset of the dipole-conditioned record components."""
    return math.sqrt(params.gamma_tau) * params.alpha


def conditional_pdf(delta_n, state: BlochState, params: SimParams):
    """State-conditioned record density (dipole-eigenstate Gaussian mixture).

    Mean is sqrt(gamma*tau)*|alpha|*s_x; variance is
    alpha^2 * (1 + gamma*tau*(1 - s_x^2)).
    """
    mu = record_shift(params)
    p_plus = 0.5 * (1.0 + state.s_x)
    p_minus = 0.5 * (1.0 - state.s_x)
    x = np.asarray(delta_n, dtype=float)
    return p_plus * _gauss(x, mu, params.alpha) + p_minus * _gauss(x, -mu, params.alpha)


def sample_records(
    state: BlochState,
    params: SimParams,
    mode: SamplingMode,
    rng: CounterStream,
    size: int,
) -> np.ndarray:
    """i.i.d. draws from the mode's distribution at a fixed state: record i
    takes step i's draws (u, z) of rng's stream, as a trajectory's step i
    does.  A vacuum record is alpha*z; a conditional one is +-mu + alpha*z,
    with +mu where u < (1 + s_x) / 2."""
    if size < 0:
        raise ValueError(f"sample size must be >= 0, got {size}")
    out = np.empty(size)
    mu = record_shift(params)
    weight = 0.5 * (1.0 + state.s_x)
    for k0, k1, u, z in draws(np.reshape(rng.key, 1), size):
        records = np.multiply(z[:, 0], params.alpha, out=out[k0:k1])
        if mode is SamplingMode.CONDITIONAL:
            records += np.where(u[:, 0] < weight, mu, -mu)
    return out


def bayes_dipole_update(
    state: BlochState, delta_n: float, params: SimParams
) -> BlochState:
    """Posterior reweighting of the dipole-eigenstate components.

    Weights are updated by the component likelihoods G(delta_n; +/-mu, alpha^2);
    with t = tanh(delta_n * sqrt(gamma*tau) / alpha) this gives
    s_x' = (s_x + t) / (1 + s_x*t).  s_z is restored to the circle in the same
    hemisphere (an infinitesimal update cannot cross the equator).  A dipole
    eigenstate is unchanged: its s_z, the cosine of +-pi/2 as a double, is
    6.1e-17, never 0, and its sx_new is +-1 exactly.
    """
    x = delta_n * math.sqrt(params.gamma_tau) / params.alpha
    t = math.tanh(x)
    sx = state.s_x
    sx_new = (sx + t) / (1.0 + sx * t)
    sz_new = math.copysign(math.sqrt(max(0.0, 1.0 - sx_new * sx_new)), state.s_z)
    return BlochState(math.atan2(sx_new, sz_new))
