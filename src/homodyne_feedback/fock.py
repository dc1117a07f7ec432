"""Exact truncated-Fock-space oracle for balanced homodyne detection.

A coherent local oscillator interferes with a weak source field on a 50:50
beamsplitter; the observable is the photon-number difference between the two
output detectors.  The beamsplitter transform is evaluated by brute force in
the Fock basis (log-space binomial expansion), independently of any analytic
shortcut, so closed-form results (coherent-state factorization, the Skellam
law, the weak-field Gaussian) can be used as cross-checks.

The expansion runs one block of consecutive output diagonals k = m - r at a
time, each block holding about _BLOCK_CELLS output cells (m, r).  Each block
lists once the (na, j) pairs of the LO photon number na and its binomial
index j (0 <= j <= na) whose terms can land in it, in order of d = 2j - na,
since the term (na, j, ell) of source photon number nb lands on diagonal
k = d + 2 ell - nb; each (nb, ell) then runs as one vectorised pass over the
contiguous run of that list that lands in the block.  Blocks are yielded as
(k0, diagonals), each diagonal its cells in order of m.  Summation order is
fixed: for a given (nb, ell) each output cell (m, r) receives at most one
term (j = m - ell, na = m + r - nb), every cell lies in exactly one block,
and (nb, ell) stays the outer loop within it, so every cell is summed in the
same order as a scalar loop over nb, ell, na, j, and the amplitudes are
bit-for-bit reproducible.  A block completes whole diagonals, so
`delta_n_pmf` sums each bin as soon as its block is built, never forms the
2-D field, and holds one block at a time: its memory does not grow with the
output dimension squared.

The truncation is not an option: the LO and a coherent source are both
built by `_coherent`, which expands |gamma> to default_cutoff(|gamma|)
photons and refuses an amplitude whose vacuum term is not a normal float or
whose expansion's norm is off 1 by more than 1e-10 (CutoffError).

log(n!) (as gammaln(n + 1.0)), the normal distribution function `ndtr` and,
for the Skellam reference, the Bessel function `ive` are scipy's compiled
ufuncs, read through `_special` on first use: importing this module loads
nothing from scipy, and no oracle run imports the scipy.special package
(~0.3 s a process).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _special

_BLOCK_CELLS = 1 << 14  # output cells per block; bounds the expansion's temporaries


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


def default_cutoff(alpha: float, name: str = "alpha") -> int:
    """LO-mode cutoff keeping coherent-tail leakage well below 1e-10.

    Raises CutoffError, calling the amplitude `name`, when the vacuum
    amplitude exp(-alpha^2/2) underflows below the smallest normal float
    (alpha above ~37.64): a subnormal start leaves the recurrence too few
    significant bits to hold the state's norm.
    """
    vacuum = math.exp(-0.5 * alpha * alpha)
    if vacuum < np.finfo(float).tiny:
        msg = f"{name} = {alpha:g} is too large: exp(-{name}^2/2) underflows to {vacuum:g}"
        raise CutoffError(msg)
    return max(20, int(math.ceil(alpha * alpha + 10.0 * alpha + 20.0)))


def _coherent(gamma: complex, name: str = "alpha") -> np.ndarray:
    """Fock amplitudes of |gamma> up to default_cutoff(|gamma|); raises
    CutoffError when their norm is off 1 by more than 1e-10, or, calling
    |gamma| `name`, when default_cutoff refuses it."""
    n_max = default_cutoff(abs(gamma), name)
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(gamma) ** 2)
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * gamma / math.sqrt(n)
    leak = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if abs(leak) > 1e-10:
        raise CutoffError(f"cutoff {n_max} leaves leakage {leak:g} at |gamma| = {abs(gamma):g}")
    return amps


def _source_amplitudes(source: SourceSpec) -> np.ndarray:
    if source.kind == "vacuum":
        return np.array([1.0 + 0.0j])
    if source.kind == "qubit":
        return np.array([source.c0, source.c1], dtype=complex)
    return _coherent(source.beta, "|beta|")


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= 1e-9:  # written so that a NaN norm fails
        raise CutoffError(f"output norm {norm:.12g} deviates from 1")


def _blocks(lo_alpha: float, source: SourceSpec):
    """Output dimension `dim` and an iterator over the blocks of the joint
    output amplitudes of |alpha> (x) |source>.

    Each block is the run of diagonals k0 <= k < k1 (k = m - r) holding about
    _BLOCK_CELLS cells; the blocks cover -dim < k < dim in order.  A block
    comes as (k0, diagonals): diagonals[i] holds exactly the cells m + r <
    dim (the only ones that can be nonzero) of diagonal k0 + i, in order of
    m.  Raises as `_coherent` does.
    """
    if not (0.0 <= lo_alpha < math.inf):
        raise ValueError(f"lo_alpha must be finite and >= 0, got {lo_alpha}")
    a = _coherent(lo_alpha)
    b = _source_amplitudes(source)

    nb_max = len(b) - 1
    dim = len(a) + nb_max
    top = dim - 1
    lf = _special.gammaln(np.arange(dim + 1) + 1.0)  # log(n!)
    half_ln2 = 0.5 * math.log(2.0)
    # a[n] = a[n - 1] * gamma / sqrt(n) and a[0] > 0, so the nonzero a[n]
    # are the first ones, n <= na_top
    na_top = int(np.count_nonzero(a)) - 1
    log_a = np.log(np.abs(a[:na_top + 1]))
    # a source coefficient below the smallest normal float is skipped, as 0
    # is: dividing by its subnormal magnitude gives inf + nan j
    terms = [
        (nb, b[nb] / abs(b[nb]), math.log(abs(b[nb])))  # (nb, phase, log magnitude)
        for nb in range(nb_max + 1)
        if abs(b[nb]) >= np.finfo(float).tiny
    ]
    lengths = (top - np.abs(np.arange(-top, dim))) // 2 + 1  # cells m + r < dim of diagonal k - top

    def block(k0: int, k1: int) -> list[np.ndarray]:
        """The diagonals k0 <= k < k1, each its cells m + r < dim in order of m."""
        n = lengths[k0 + top:k1 + top]
        width = int(n.max())
        amps = np.zeros((k1 - k0, width), dtype=complex)  # diagonal k: row k - k0, col min(m, r)
        flat = amps.reshape(-1)
        # term (na, j, ell) lands on diagonal k = d + 2 ell - nb, so only the
        # pairs na <= na_top, 0 <= j <= na with k0 - nb_max <= d = 2j - na <
        # k1 + nb_max can land in the block; they are listed in order of d, then na
        d = np.arange(k0 - nb_max, k1 + nb_max)
        counts = np.maximum((na_top - np.abs(d)) // 2 + 1, 0)  # na = |d|, |d| + 2, ...
        starts = np.concatenate(([0], np.cumsum(counts)))  # where each d's pairs start, and the end
        j = np.arange(starts[-1]) + np.repeat(np.maximum(d, 0) - starts[:-1], counts)
        d = np.repeat(d, counts)
        na = 2 * j - d
        row = (d - k0) * width  # flat start of row d - k0; term ell adds (2 ell - nb) rows
        log_a_na, lf_na = log_a[na], lf[na]
        binom = lf_na - lf[j] - lf[na - j]  # log C(na, j)
        for nb, src_phase, log_src in terms:
            # the ell-free head and tail of log_term, in its order of summation
            head = log_a_na + log_src - (na + nb) * half_ln2 + binom
            tail = 0.5 * (lf_na + lf[nb])
            for ell in range(nb + 1):
                sign = -1.0 if (nb - ell) % 2 else 1.0
                log_c_nb = lf[nb] - lf[ell] - lf[nb - ell]
                i = nb_max + nb - 2 * ell  # d = k0 - nb_max + i lands on diagonal k0
                s = slice(starts[i], starts[i + k1 - k0])
                m = j[s] + ell
                r = na[s] + nb - m
                log_term = head[s] + log_c_nb + 0.5 * (lf[m] + lf[r]) - tail[s]
                cell = row[s] + (2 * ell - nb) * width + np.minimum(m, r)
                flat[cell] += sign * src_phase * np.exp(log_term)
        return [diagonal[:length] for diagonal, length in zip(amps, n.tolist())]

    def blocks():
        cells = np.concatenate(([0], np.cumsum(lengths)))  # cells below diagonal i - top
        i0 = 0
        while i0 < len(lengths):
            i1 = int(np.searchsorted(cells, cells[i0] + _BLOCK_CELLS))
            i1 = min(max(i1, i0 + 1), len(lengths))
            yield i0 - top, block(i0 - top, i1 - top)
            i0 = i1

    return dim, blocks()


def beamsplitter_output(lo_alpha: float, source: SourceSpec) -> FockField:
    """Joint output amplitudes of |alpha> (x) |source> under the 50:50
    transform c = (a + b)/sqrt(2), d = (a - b)/sqrt(2).

    Brute-force Fock-basis expansion; raises CutoffError as `_coherent`
    does, or when the output norm is off 1 by more than 1e-9.
    """
    dim, blocks = _blocks(lo_alpha, source)
    out = np.zeros((dim, dim), dtype=complex)
    for k0, diagonals in blocks:
        for k, diagonal in enumerate(diagonals, k0):
            m = np.arange(max(k, 0), max(k, 0) + len(diagonal))
            out[m, m - k] = diagonal
    _check_norm(float(np.sum(np.abs(out) ** 2)))
    return FockField(out)


def delta_n_pmf(lo_alpha: float, source: SourceSpec) -> Pmf:
    """Exact distribution of delta_n = n_detector1 - n_detector2.

    Bin k sums |amplitude|^2 over the output diagonal m - r = k, padded with
    the zeros of the cells m + r >= dim to its full length dim - |k|, so each
    bin is the same pairwise sum as over the 2-D field's diagonal.  Raises as
    `beamsplitter_output` does.
    """
    dim, blocks = _blocks(lo_alpha, source)
    top = dim - 1
    probs = np.empty(2 * dim - 1)
    for k0, diagonals in blocks:
        for k, diagonal in enumerate(diagonals, k0):
            padded = np.zeros(dim - abs(k))
            padded[:len(diagonal)] = np.abs(diagonal) ** 2
            probs[k + top] = float(np.sum(padded))
    _check_norm(float(np.sum(probs)))
    return Pmf(offset=-top, probabilities=probs)


def skellam_pmf(k, mu1: float, mu2: float):
    """Skellam pmf: difference of independent Poisson(mu1) and Poisson(mu2).

    Evaluated via the exponentially scaled modified Bessel function; the
    mu1 = 0 or mu2 = 0 limits reduce to a (reflected) Poisson pmf.
    """
    if mu1 < 0.0 or mu2 < 0.0:
        raise ValueError(f"rates must be >= 0, got {mu1}, {mu2}")
    k = np.asarray(k)
    scalar = k.ndim == 0
    k = np.atleast_1d(k).astype(int)
    if mu1 == 0.0 and mu2 == 0.0:
        p = np.where(k == 0, 1.0, 0.0)
    elif mu1 == 0.0 or mu2 == 0.0:
        mu, n = (mu1, k) if mu2 == 0.0 else (mu2, -k)  # Poisson(mu) at n
        nn = np.maximum(n, 0)
        p = np.where(n >= 0, np.exp(-mu + nn * math.log(mu) - _special.gammaln(nn + 1.0)), 0.0)
    else:
        x = 2.0 * math.sqrt(mu1 * mu2)
        # ive underflows to 0 far in the tail; log -> -inf and exp -> 0 there
        with np.errstate(divide="ignore"):
            log_ive = np.log(_special.ive(np.abs(k), x))
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
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    # bin k spans the edges k -/+ 0.5; each edge is evaluated once.  Below alpha
    # ~1.1e-307 far edges overflow to -/+inf; ndtr is already 0 and 1 that far out
    k = np.arange(pmf.offset, pmf.offset + len(pmf.probabilities) + 1)
    with np.errstate(over="ignore"):
        edges = _special.ndtr((k - 0.5) / alpha)
    q = edges[1:] - edges[:-1]
    outside = max(0.0, 1.0 - float(np.sum(q)))
    return 0.5 * (float(np.sum(np.abs(pmf.probabilities - q))) + outside)
