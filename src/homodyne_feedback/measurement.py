"""Measurement-record statistics for balanced homodyne detection.

The vacuum model is the weak-field Gaussian of width |alpha|.  The
conditional model is a two-component Gaussian mixture centered at
+/- sqrt(gamma*tau)*|alpha| with dipole-eigenstate weights (1 +/- s_x)/2: it
reduces to the vacuum Gaussian as gamma*tau -> 0, makes positive records more
likely for s_x = +1, and has the mean `positive_record_mean` given a positive
record.  The engine's kernel and `sample_records` draw conditional records
with `conditional_records`, and a sample's record i takes step i's draws of
its stream (`streams.draws`), so a conditional sample starts with that
trajectory's record (and at a fixed point, is its records).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import _special
from .bloch import BlochState, SimParams
from .streams import CounterStream, draws


class SamplingMode(enum.Enum):
    """Record law of `sample_records`: dynamics always draws conditional
    records; vacuum samples feed the record histogram."""

    VACUUM = "vacuum"
    CONDITIONAL = "conditional"


def pdf_vacuum(delta_n, alpha: float):
    """Vacuum-fluctuation record density: Gaussian of mean 0 and width |alpha|."""
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    x = np.asarray(delta_n, dtype=float)
    return np.exp(-0.5 * (x / alpha) ** 2) / (alpha * math.sqrt(2.0 * math.pi))


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
    return p_plus * pdf_vacuum(x - mu, params.alpha) + p_minus * pdf_vacuum(x + mu, params.alpha)


def positive_record_mean(s_x, params: SimParams):
    """E[delta_n | delta_n > 0] under `conditional_pdf` at s_x (a float or an
    array): the mixture's E[delta_n 1{delta_n > 0}] over its P(delta_n > 0)."""
    mu = record_shift(params)
    sigma = params.alpha
    p_plus = 0.5 * (1.0 + s_x)
    p_minus = 0.5 * (1.0 - s_x)
    t = mu / sigma
    density = pdf_vacuum(t, 1.0)  # standard normal density at t
    cdf_pos, cdf_neg = float(_special.ndtr(t)), float(_special.ndtr(-t))
    e_pos = p_plus * (mu * cdf_pos + sigma * density) + p_minus * (-mu * cdf_neg + sigma * density)
    p_pos = p_plus * cdf_pos + p_minus * cdf_neg
    return e_pos / p_pos


def conditional_records(u, z, s_x, params: SimParams, out=None, tmp=None, mask=None):
    """Records of the draws (u, z) at s_x under `conditional_pdf`: +-mu + alpha*z,
    whose centre (u < (1 + s_x) / 2) * 2 mu - mu is exactly +-mu with no branch
    per value.  Writes into out (which may be z), with tmp and mask as float
    and bool scratch; any left None is allocated."""
    mu = record_shift(params)
    out = np.multiply(z, params.alpha, out=out)
    weight = np.add(s_x, 1.0, out=tmp)
    weight *= 0.5
    centre = np.multiply(np.less(u, weight, out=mask), 2.0 * mu, out=tmp)
    centre -= mu
    out += centre
    return out


def sample_records(
    state: BlochState,
    params: SimParams,
    mode: SamplingMode,
    rng: CounterStream,
    size: int,
) -> np.ndarray:
    """i.i.d. draws from the mode's distribution at a fixed state: record i
    takes step i's draws (u, z) of rng's stream, as a trajectory's step i
    does.  A vacuum record is alpha*z; a conditional one is
    `conditional_records`' +-mu + alpha*z."""
    if size < 0:
        raise ValueError(f"sample size must be >= 0, got {size}")
    out = np.empty(size)
    for k0, k1, u, z in draws(np.reshape(rng.key, 1), size):
        if mode is SamplingMode.CONDITIONAL:
            conditional_records(u[:, 0], z[:, 0], state.s_x, params, out=out[k0:k1])
        else:
            np.multiply(z[:, 0], params.alpha, out=out[k0:k1])
    return out

