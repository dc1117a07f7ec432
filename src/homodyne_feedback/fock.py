"""Exact truncated-Fock-space oracle for balanced homodyne detection.

A coherent local oscillator interferes with a weak source field on a 50:50
beamsplitter; the observable is the photon-number difference between the two
output detectors.  The beamsplitter transform is evaluated by brute force in
the Fock basis (log-space binomial expansion), independently of any analytic
shortcut, so closed-form results (coherent-state factorization, the Skellam
law, the weak-field Gaussian) can be used as cross-checks.

The beamsplitter conserves total photon number, so the expansion runs one
band of total photon number N = m + r at a time, each band holding about
_BAND_CELLS output cells (m, r).  Within a band, for each source photon
number nb and binomial index ell, the expansion over the LO photon number
na = N - nb and its binomial index j (0 <= j <= na) runs as one vectorised
pass over the band's (na, j) pairs.  Summation order is fixed: for a given
(nb, ell) each output cell (m, r) receives at most one term (j = m - ell,
na = m + r - nb), every cell lies in exactly one band, and (nb, ell) stays
the outer loop within it, so every cell is summed in the same order as a
scalar loop over nb, ell, na, j, and the amplitudes are bit-for-bit
reproducible.  `delta_n_pmf` never forms the 2-D field: it keeps
|amplitude|^2 only for the cells that can be nonzero (m + r < dim),
diagonal m - r after diagonal, about dim**2 / 2 floats.

The truncation is not an option: the LO and a coherent source are both
built by `_coherent`, which expands |gamma> to default_cutoff(|gamma|)
photons and refuses an amplitude whose vacuum term underflows or whose
expansion leaks more than 1e-10 of the norm (CutoffError).

scipy.special is imported inside the functions that use it, so importing
this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BAND_CELLS = 1 << 14  # output cells per band; bounds the expansion's temporaries


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


def _coherent(gamma: complex) -> np.ndarray:
    """Fock amplitudes of |gamma> up to default_cutoff(|gamma|); raises
    CutoffError when they leak more than 1e-10 of the norm."""
    n_max = default_cutoff(abs(gamma))
    amps = coherent_amplitudes(gamma, n_max)
    leak = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if leak > 1e-10:
        raise CutoffError(f"cutoff {n_max} leaves leakage {leak:g} at |gamma| = {abs(gamma):g}")
    return amps


def _source_amplitudes(source: SourceSpec) -> np.ndarray:
    if source.kind == "vacuum":
        return np.array([1.0 + 0.0j])
    if source.kind == "qubit":
        return np.array([source.c0, source.c1], dtype=complex)
    return _coherent(source.beta)


def _pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (na, j) with na in `rows` and 0 <= j <= na, row by row."""
    counts = rows + 1
    na = np.repeat(rows, counts)
    j = np.arange(len(na)) - np.repeat(np.cumsum(counts) - counts, counts)
    return na, j


def _check_norm(norm: float) -> None:
    if abs(norm - 1.0) > 1e-9:
        raise CutoffError(f"output norm {norm:.12g} deviates from 1")


def _bands(lo_alpha: float, source: SourceSpec):
    """Output dimension `dim` and an iterator over the bands of the joint
    output amplitudes of |alpha> (x) |source>.

    Each band is the run of total photon numbers n0 <= N < n1 (N = m + r)
    holding about _BAND_CELLS cells; the bands cover 0 <= N < dim, the only
    cells that can be nonzero.  A band comes as (m, r, amps): its cells in
    order of N, then m, and their amplitudes.  Raises as `_coherent` does.
    """
    from scipy.special import gammaln

    if not (0.0 <= lo_alpha < math.inf):
        raise ValueError(f"lo_alpha must be finite and >= 0, got {lo_alpha}")
    a = _coherent(lo_alpha)
    b = _source_amplitudes(source)

    nb_max = len(b) - 1
    dim = len(a) + nb_max
    lf = gammaln(np.arange(dim + 1) + 1.0)  # log(n!)
    half_ln2 = 0.5 * math.log(2.0)
    with np.errstate(divide="ignore"):
        log_a = np.log(np.abs(a))
    rows = np.flatnonzero(np.isfinite(log_a))
    tri = np.arange(dim + 1) * np.arange(1, dim + 2) // 2  # cells with m + r < N

    def band(n0: int, n1: int) -> np.ndarray:
        """Amplitudes of the cells n0 <= m + r < n1, in order of m + r, then m."""
        amps = np.zeros(int(tri[n1] - tri[n0]), dtype=complex)
        for nb in range(nb_max + 1):
            if b[nb] == 0:
                continue
            src_mag = abs(b[nb])
            src_phase = b[nb] / src_mag
            log_src = math.log(src_mag)
            na, j = _pairs(rows[(rows >= n0 - nb) & (rows < n1 - nb)])
            cell = tri[na + nb] - tri[n0] + j  # + ell: the band's index of cell (m, r)
            # the ell-free head and tail of log_term, in its order of summation
            head = (
                log_a[na]
                + log_src
                - (na + nb) * half_ln2
                + (lf[na] - lf[j] - lf[na - j])  # C(na, j)
            )
            tail = 0.5 * (lf[na] + lf[nb])
            for ell in range(nb + 1):
                sign = -1.0 if (nb - ell) % 2 else 1.0
                log_c_nb = lf[nb] - lf[ell] - lf[nb - ell]
                m = j + ell
                r = na + nb - m
                log_term = head + log_c_nb + 0.5 * (lf[m] + lf[r]) - tail
                amps[cell + ell] += sign * src_phase * np.exp(log_term)
        return amps

    def bands():
        n0 = 0
        while n0 < dim:
            n1 = n0 + 1
            while n1 < dim and tri[n1] - tri[n0] < _BAND_CELLS:
                n1 += 1
            amps = band(n0, n1)
            total, m = _pairs(np.arange(n0, n1))
            yield m, total - m, amps
            n0 = n1

    return dim, bands()


def beamsplitter_output(lo_alpha: float, source: SourceSpec) -> FockField:
    """Joint output amplitudes of |alpha> (x) |source> under the 50:50
    transform c = (a + b)/sqrt(2), d = (a - b)/sqrt(2).

    Brute-force Fock-basis expansion; raises CutoffError as `_coherent`
    does, or when the output norm is off 1 by more than 1e-9.
    """
    dim, bands = _bands(lo_alpha, source)
    out = np.zeros((dim, dim), dtype=complex)
    for m, r, amps in bands:
        out[m, r] = amps
    field = FockField(out)
    _check_norm(field.norm())
    return field


def delta_n_pmf(lo_alpha: float, source: SourceSpec) -> Pmf:
    """Exact distribution of delta_n = n_detector1 - n_detector2.

    Bin k sums |amplitude|^2 over the output diagonal m - r = k, padded with
    the zeros of the cells m + r >= dim to its full length dim - |k|, so each
    bin is the same pairwise sum as over the 2-D field's diagonal.  Raises as
    `beamsplitter_output` does.
    """
    dim, bands = _bands(lo_alpha, source)
    top = dim - 1
    # |amplitude|^2 of the cells m + r <= top, diagonal k = m - r after
    # diagonal, each in order of m: cell (m, r) sits at starts[k + top] + min(m, r)
    lengths = (top - np.abs(np.arange(-top, dim))) // 2 + 1
    starts = np.cumsum(lengths) - lengths
    p2 = np.empty(int(lengths.sum()))
    for m, r, amps in bands:
        p2[starts[m - r + top] + np.minimum(m, r)] = np.abs(amps) ** 2
    _check_norm(float(np.sum(p2)))

    probs = np.empty(2 * dim - 1)
    for i, (start, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
        diagonal = np.zeros(dim - abs(i - top))
        diagonal[:n] = p2[start:start + n]
        probs[i] = float(np.sum(diagonal))
    return Pmf(offset=-top, probabilities=probs)


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
