"""Exact truncated-Fock-space oracle for balanced homodyne detection.

A coherent local oscillator interferes with a weak source field on a 50:50
beamsplitter; the observable is the photon-number difference between the two
output detectors.  The beamsplitter transform is evaluated by brute force in
the Fock basis (log-space binomial expansion), independently of any analytic
shortcut, so closed-form results (coherent-state factorization, the Skellam
law, the weak-field Gaussian) can be used as cross-checks.

For each source photon number nb and binomial index ell, the expansion over
the LO photon number na and its binomial index j (0 <= j <= na) runs as one
vectorised pass over all (na, j) pairs, taken in row blocks of about 2**15
pairs to bound the temporaries.  Summation order is fixed: for a given
(nb, ell) each output cell (m, r) receives at most one term (j = m - ell,
na = m + r - nb), so adding a block at a time while (nb, ell) stays the
outer loop sums every cell in the same order as a scalar loop over nb, ell,
na, j, and the amplitudes are bit-for-bit reproducible.

scipy.special is imported inside the functions that use it, so importing
this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK_PAIRS = 1 << 15  # (na, j) pairs per vectorised block of the expansion


class CutoffError(ValueError):
    """Fock-space truncation too small for the requested amplitudes."""


@dataclass(frozen=True)
class SourceSpec:
    """Source-field state: vacuum, a coherent state, or a 0/1-photon qubit."""

    kind: str  # "vacuum" | "coherent" | "qubit"
    beta: complex = 0.0
    c0: complex = 1.0
    c1: complex = 0.0

    def __post_init__(self):
        if self.kind not in ("vacuum", "coherent", "qubit"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        for name in ("beta", "c0", "c1"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "qubit":
            norm = abs(self.c0) ** 2 + abs(self.c1) ** 2
            if not abs(norm - 1.0) <= 1e-12:  # written so that a NaN norm fails
                raise ValueError(f"qubit amplitudes not normalized: |c0|^2+|c1|^2 = {norm}")

    @classmethod
    def vacuum(cls) -> "SourceSpec":
        return cls("vacuum")

    @classmethod
    def coherent(cls, beta: complex) -> "SourceSpec":
        return cls("coherent", beta=complex(beta))

    @classmethod
    def qubit(cls, c0: complex, c1: complex) -> "SourceSpec":
        return cls("qubit", c0=complex(c0), c1=complex(c1))

    def mean_b(self) -> complex:
        """Expectation value of the source annihilation operator."""
        if self.kind == "vacuum":
            return 0.0
        if self.kind == "coherent":
            return self.beta
        return self.c0.conjugate() * self.c1


@dataclass(frozen=True)
class FockField:
    """Two-mode field amplitudes indexed by (n_c, n_d) photon numbers."""

    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True)
class Pmf:
    """Distribution of the integer photon-number difference."""

    offset: int
    probabilities: np.ndarray

    def support(self) -> np.ndarray:
        return self.offset + np.arange(len(self.probabilities))

    def mean(self) -> float:
        return float(np.dot(self.support(), self.probabilities))

    def variance(self) -> float:
        k = self.support()
        m = self.mean()
        return float(np.dot((k - m) ** 2, self.probabilities))


def default_cutoff(alpha: float) -> int:
    """LO-mode cutoff keeping coherent-tail leakage well below 1e-10.

    Raises CutoffError when the vacuum amplitude exp(-alpha^2/2) underflows
    to 0 (alpha above ~38.6), since no cutoff then holds the state's norm.
    """
    if math.exp(-0.5 * alpha * alpha) == 0.0:
        raise CutoffError(f"alpha = {alpha:g} is too large: exp(-alpha^2/2) underflows to 0")
    return max(20, int(math.ceil(alpha * alpha + 10.0 * alpha + 20.0)))


def coherent_amplitudes(gamma: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes of |gamma> up to photon number n_max."""
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(gamma) ** 2)
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * gamma / math.sqrt(n)
    return amps


def _source_amplitudes(source: SourceSpec) -> np.ndarray:
    if source.kind == "vacuum":
        return np.array([1.0 + 0.0j])
    if source.kind == "qubit":
        return np.array([source.c0, source.c1], dtype=complex)
    b = abs(source.beta)
    n_max = default_cutoff(b)
    amps = coherent_amplitudes(source.beta, n_max)
    leak = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if leak > 1e-10:
        raise CutoffError(f"source cutoff {n_max} leaves leakage {leak:g}")
    return amps


def _row_blocks(rows: np.ndarray):
    """Split LO photon numbers `rows` into consecutive runs holding about
    _BLOCK_PAIRS (na, j) pairs each (row na holds na + 1 pairs)."""
    start, pairs = 0, 0
    for i, na in enumerate(rows):
        pairs += int(na) + 1
        if pairs >= _BLOCK_PAIRS:
            yield rows[start:i + 1]
            start, pairs = i + 1, 0
    if start < len(rows):
        yield rows[start:]


def _pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (na, j) with na in `rows` and 0 <= j <= na, row by row."""
    counts = rows + 1
    na = np.repeat(rows, counts)
    j = np.arange(len(na)) - np.repeat(np.cumsum(counts) - counts, counts)
    return na, j


def beamsplitter_output(lo_alpha: float, source: SourceSpec, cutoff: int | None = None) -> FockField:
    """Joint output amplitudes of |alpha> (x) |source> under the 50:50
    transform c = (a + b)/sqrt(2), d = (a - b)/sqrt(2).

    Brute-force Fock-basis expansion; raises CutoffError when the truncation
    leaks more than 1e-10 of the norm.
    """
    from scipy.special import gammaln

    if not (0.0 <= lo_alpha < math.inf):
        raise ValueError(f"lo_alpha must be finite and >= 0, got {lo_alpha}")
    if cutoff is None:
        cutoff = default_cutoff(lo_alpha)
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    a = coherent_amplitudes(lo_alpha, cutoff)
    leak = 1.0 - float(np.sum(np.abs(a) ** 2))
    if leak > 1e-10:
        raise CutoffError(f"LO cutoff {cutoff} leaves leakage {leak:g} at alpha={lo_alpha}")
    b = _source_amplitudes(source)

    nb_max = len(b) - 1
    dim = cutoff + nb_max + 1
    out = np.zeros((dim, dim), dtype=complex)

    lf = gammaln(np.arange(dim + 1) + 1.0)  # log(n!)
    half_ln2 = 0.5 * math.log(2.0)
    with np.errstate(divide="ignore"):
        log_a = np.log(np.abs(a))
    blocks = list(_row_blocks(np.flatnonzero(np.isfinite(log_a))))

    for nb in range(nb_max + 1):
        if b[nb] == 0:
            continue
        src_mag = abs(b[nb])
        src_phase = b[nb] / src_mag
        log_src = math.log(src_mag)
        for ell in range(nb + 1):
            sign = -1.0 if (nb - ell) % 2 else 1.0
            log_c_nb = lf[nb] - lf[ell] - lf[nb - ell]
            for rows in blocks:
                na, j = _pairs(rows)
                m = j + ell
                r = na + nb - m
                log_term = (
                    log_a[na]
                    + log_src
                    - (na + nb) * half_ln2
                    + (lf[na] - lf[j] - lf[na - j])  # C(na, j)
                    + log_c_nb
                    + 0.5 * (lf[m] + lf[r])
                    - 0.5 * (lf[na] + lf[nb])
                )
                out[m, r] += sign * src_phase * np.exp(log_term)

    field = FockField(out)
    if abs(field.norm() - 1.0) > 1e-9:
        raise CutoffError(
            f"output norm {field.norm():.12g} deviates from 1; increase cutoff"
        )
    return field


def delta_n_pmf(lo_alpha: float, source: SourceSpec, cutoff: int | None = None) -> Pmf:
    """Exact distribution of delta_n = n_detector1 - n_detector2."""
    field = beamsplitter_output(lo_alpha, source, cutoff)
    p2 = np.abs(field.amplitudes) ** 2
    dim = p2.shape[0]
    probs = np.empty(2 * dim - 1)
    for k in range(-(dim - 1), dim):
        probs[k + dim - 1] = float(np.sum(np.diagonal(p2, offset=-k)))
    return Pmf(offset=-(dim - 1), probabilities=probs)


def skellam_pmf(k, mu1: float, mu2: float):
    """Skellam pmf: difference of independent Poisson(mu1) and Poisson(mu2).

    Evaluated via the exponentially scaled modified Bessel function; the
    mu1 = 0 or mu2 = 0 limits reduce to a (reflected) Poisson pmf.
    """
    from scipy.special import gammaln, ive

    if mu1 < 0.0 or mu2 < 0.0:
        raise ValueError(f"rates must be >= 0, got {mu1}, {mu2}")
    k = np.asarray(k)
    scalar = k.ndim == 0
    k = np.atleast_1d(k).astype(int)
    if mu1 == 0.0 and mu2 == 0.0:
        p = np.where(k == 0, 1.0, 0.0)
    elif mu2 == 0.0:
        kk = np.maximum(k, 0)
        p = np.where(k >= 0, np.exp(-mu1 + kk * math.log(mu1) - gammaln(kk + 1.0)), 0.0)
    elif mu1 == 0.0:
        kk = np.maximum(-k, 0)
        p = np.where(k <= 0, np.exp(-mu2 + kk * math.log(mu2) - gammaln(kk + 1.0)), 0.0)
    else:
        x = 2.0 * math.sqrt(mu1 * mu2)
        # ive underflows to 0 far in the tail; log -> -inf and exp -> 0 there
        with np.errstate(divide="ignore"):
            log_ive = np.log(ive(np.abs(k), x))
        logp = (
            -(mu1 + mu2)
            + x
            + 0.5 * k * (math.log(mu1) - math.log(mu2))
            + log_ive
        )
        p = np.exp(logp)
    return float(p[0]) if scalar else p


def gaussian_distance(pmf: Pmf, alpha: float) -> float:
    """Total-variation distance between an exact delta_n pmf and the
    weak-field Gaussian of width |alpha|, integrated over unit bins."""
    from scipy.special import ndtr

    if not (alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    k = pmf.support()
    q = ndtr((k + 0.5) / alpha) - ndtr((k - 0.5) / alpha)
    outside = max(0.0, 1.0 - float(np.sum(q)))
    return 0.5 * (float(np.sum(np.abs(pmf.probabilities - q))) + outside)
