import cmath
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import poisson

from homodyne_feedback import fock
from homodyne_feedback import (
    CutoffError,
    SourceSpec,
    beamsplitter_output,
    delta_n_pmf,
    gaussian_distance,
    skellam_pmf,
)
from homodyne_feedback.fock import Pmf, default_cutoff


@functools.cache
def reference_beamsplitter(lo_alpha, source):
    """Scalar-loop expansion over (nb, ell, na), one row of j at a time: the
    summation order the vectorised beamsplitter_output must reproduce.
    Cached, and read-only, since several tests compare with the same case."""
    a = fock._coherent(lo_alpha)
    na_max = len(a) - 1
    b = fock._source_amplitudes(source)

    nb_max = len(b) - 1
    dim = na_max + nb_max + 1
    out = np.zeros((dim, dim), dtype=complex)

    lf = gammaln(np.arange(dim + 1) + 1.0)  # log(n!)
    half_ln2 = 0.5 * math.log(2.0)
    with np.errstate(divide="ignore"):
        log_a = np.log(np.abs(a))

    for nb in range(nb_max + 1):
        if b[nb] == 0:
            continue
        src_mag = abs(b[nb])
        src_phase = b[nb] / src_mag
        log_src = math.log(src_mag)
        for ell in range(nb + 1):
            sign = -1.0 if (nb - ell) % 2 else 1.0
            log_c_nb = lf[nb] - lf[ell] - lf[nb - ell]
            for na in range(na_max + 1):
                if not np.isfinite(log_a[na]):
                    continue
                j = np.arange(na + 1)
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
    out.flags.writeable = False
    return out


class TestSourceSpec:
    def test_qubit_normalization_enforced(self):
        with pytest.raises(ValueError):
            SourceSpec.qubit(1.0, 1.0)
        SourceSpec.qubit(1 / math.sqrt(2), 1j / math.sqrt(2))

    @pytest.mark.parametrize(
        "make,name",
        [
            (lambda: SourceSpec.coherent(complex(math.inf, 0.0)), "beta"),
            (lambda: SourceSpec.coherent(complex(0.0, math.nan)), "beta"),
            (lambda: SourceSpec.qubit(math.nan, 0.0), "c0"),
            (lambda: SourceSpec.qubit(1.0, complex(0.0, math.inf)), "c1"),
        ],
    )
    def test_non_finite_amplitudes_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown source kind 'thermal'$"):
            SourceSpec("thermal")


class TestBeamsplitter:
    def test_all_vacuum(self):
        field = beamsplitter_output(0.0, SourceSpec.vacuum())
        p = np.abs(field.amplitudes) ** 2
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_source_factorizes_into_coherent_outputs(self):
        alpha = 3.0
        field = beamsplitter_output(alpha, SourceSpec.vacuum())
        p = np.abs(field.amplitudes) ** 2
        n = np.arange(p.shape[0])
        expected = poisson.pmf(n, alpha * alpha / 2.0)
        assert np.max(np.abs(p.sum(axis=1) - expected)) <= 1e-10
        assert np.max(np.abs(p.sum(axis=0) - expected)) <= 1e-10

    @pytest.mark.parametrize(
        "source",
        [
            SourceSpec.vacuum(),
            SourceSpec.coherent(0.4 - 0.2j),
            SourceSpec.qubit(0.8, 0.6j),
        ],
    )
    def test_unitarity(self, source):
        field = beamsplitter_output(2.5, source)
        assert np.sum(np.abs(field.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_coherent_source_factorization(self):
        # coherent (x) coherent -> coherent((a+b)/sqrt2) (x) coherent((a-b)/sqrt2)
        alpha, beta = 2.0, 0.5
        field = beamsplitter_output(alpha, SourceSpec.coherent(beta))
        n = np.arange(field.amplitudes.shape[0])

        def coherent(gamma):  # <n|gamma> = exp(-gamma^2/2) gamma^n / sqrt(n!), gamma > 0
            return np.exp(-0.5 * gamma * gamma + n * math.log(gamma) - 0.5 * gammaln(n + 1.0))

        c = coherent((alpha + beta) / math.sqrt(2.0))
        d = coherent((alpha - beta) / math.sqrt(2.0))
        assert np.max(np.abs(field.amplitudes - np.outer(c, d))) <= 1e-10

    # a cutoff of 10 at |gamma| = 6 (mean photon number 36) leaves out nearly
    # all the norm; the same check guards the LO and a coherent source
    @pytest.mark.parametrize(
        "lo_alpha,source", [(6.0, SourceSpec.vacuum()), (0.0, SourceSpec.coherent(6.0))]
    )
    def test_cutoff_too_small(self, monkeypatch, lo_alpha, source):
        monkeypatch.setattr(fock, "default_cutoff", lambda alpha, name: 10 if alpha == 6.0 else 20)
        with pytest.raises(CutoffError, match=r"cutoff 10 leaves leakage .* at \|gamma\| = 6$"):
            beamsplitter_output(lo_alpha, source)

    def test_norm_above_one_refused(self, monkeypatch):
        # started from its subnormal vacuum term, |38.5>'s recurrence sums to
        # a norm of ~1.035: the leak check is two-sided
        monkeypatch.setattr(fock, "default_cutoff", lambda alpha, name: 1888)
        with pytest.raises(CutoffError, match=r"cutoff 1888 leaves leakage -0\.03"):
            beamsplitter_output(38.5, SourceSpec.vacuum())

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
    def test_lo_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError, match=f"lo_alpha must be finite and >= 0, got {alpha}"):
            beamsplitter_output(alpha, SourceSpec.vacuum())


QUBIT = SourceSpec.qubit(0.6, 0.8 * cmath.exp(0.3j))
COHERENT = SourceSpec.coherent(1.5 * cmath.exp(0.7j))


# the cases of TestBeamsplitterBitIdentity below
BIT_IDENTITY_CASES = [(a, s) for s in (SourceSpec.vacuum(), QUBIT) for a in (2.0, 6.0, 14.0)] + [
    (2.0, COHERENT), (4.0, COHERENT)
]


class TestBeamsplitterBitIdentity:
    @pytest.mark.parametrize(
        "alpha,source",
        [(a, s) for s in (SourceSpec.vacuum(), QUBIT) for a in (2.0, 6.0, 14.0)]
        + [(2.0, COHERENT), (4.0, COHERENT)],
    )
    def test_matches_scalar_loop(self, alpha, source):
        field = beamsplitter_output(alpha, source)
        assert np.array_equal(field.amplitudes, reference_beamsplitter(alpha, source))

    def test_largest_case_spans_several_blocks(self):
        # alpha = 14 above is the case whose output cells fill more than one
        # block, so the block-by-block summation order is checked there
        for source in (SourceSpec.vacuum(), QUBIT):
            _, blocks = fock._blocks(14.0, source)
            assert sum(1 for _ in blocks) > 1


@pytest.mark.parametrize("alpha,source", BIT_IDENTITY_CASES)
def test_small_blocks_keep_every_bit(monkeypatch, alpha, source):
    # with 256-cell blocks every case spans several blocks, so the runs of
    # (na, j) pairs are cut at block edges on both sides
    monkeypatch.setattr(fock, "_BLOCK_CELLS", 256)
    _, blocks = fock._blocks(alpha, source)
    assert sum(1 for _ in blocks) >= 3
    field = reference_beamsplitter(alpha, source)
    assert np.array_equal(beamsplitter_output(alpha, source).amplitudes, field)
    p2 = np.abs(field) ** 2
    dim = p2.shape[0]
    expected = [np.sum(np.diagonal(p2, offset=-k)) for k in range(-(dim - 1), dim)]
    assert np.array_equal(delta_n_pmf(alpha, source).probabilities, expected)


@pytest.mark.parametrize("block_cells", [256, fock._BLOCK_CELLS])
@pytest.mark.parametrize(
    "alpha,source",
    [
        (0.0, SourceSpec.vacuum()),
        (6.0, SourceSpec.qubit(0.6, 0.8j)),
        (4.0, SourceSpec.coherent(1.5)),
    ],
)
def test_blocks_yield_each_diagonal_once_with_its_cells(monkeypatch, block_cells, alpha, source):
    # the blocks run over -dim < k < dim in order, and diagonal k holds
    # exactly its cells m + r < dim
    monkeypatch.setattr(fock, "_BLOCK_CELLS", block_cells)
    dim, blocks = fock._blocks(alpha, source)
    sizes = {}
    for k0, diagonals in blocks:
        for k, diagonal in enumerate(diagonals, k0):
            assert k not in sizes
            sizes[k] = len(diagonal)
    assert list(sizes) == list(range(-(dim - 1), dim))
    assert all(n == (dim - 1 - abs(k)) // 2 + 1 for k, n in sizes.items())


class TestDeltaNPmfBitIdentity:
    @pytest.mark.parametrize("alpha,source", BIT_IDENTITY_CASES)
    def test_matches_diagonal_sums_of_scalar_loop(self, alpha, source):
        p2 = np.abs(reference_beamsplitter(alpha, source)) ** 2
        dim = p2.shape[0]
        expected = [np.sum(np.diagonal(p2, offset=-k)) for k in range(-(dim - 1), dim)]
        pmf = delta_n_pmf(alpha, source)
        assert pmf.offset == -(dim - 1)
        assert np.array_equal(pmf.probabilities, expected)


class TestOutputNorm:
    # the log-space expansion loses norm to cancellation for a strong
    # coherent source; the pmf refuses it as the 2-D field does
    @pytest.mark.parametrize("build", [delta_n_pmf, beamsplitter_output])
    def test_lost_norm_refused(self, build):
        with pytest.raises(CutoffError, match=r"^output norm 1\.00000000178 deviates from 1$"):
            build(6.0, SourceSpec.coherent(4.0))

    def test_nan_norm_refused(self):
        with pytest.raises(CutoffError, match=r"^output norm nan deviates from 1$"):
            fock._check_norm(math.nan)

    @pytest.mark.parametrize("build", [delta_n_pmf, beamsplitter_output])
    def test_subnormal_source_coefficient_is_skipped_as_zero(self, build):
        # dividing by a subnormal magnitude for the coefficient's phase gives
        # inf + nan j (and a RuntimeWarning); the coefficient is skipped, as
        # an exact zero is
        def values(out):
            return out.probabilities if build is delta_n_pmf else out.amplitudes

        tiny = build(3.0, SourceSpec.qubit(1.0, 1e-320))
        assert np.array_equal(values(tiny), values(build(3.0, SourceSpec.qubit(1.0, 0.0))))


def _traced_peak(build, *args) -> int:
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDeltaNPmfMemory:
    def test_peak_allocation_is_below_half_the_complex_field(self):
        # the pmf never forms the 16 * dim**2-byte complex field
        dim = default_cutoff(30.0) + 2
        assert _traced_peak(delta_n_pmf, 30.0, SourceSpec.qubit(0.6, 0.8)) <= 16 * dim * dim / 2

    def test_peak_allocation_does_not_grow_with_alpha(self):
        # the pmf holds one block of diagonals at a time, so its peak stays
        # put as dim grows from 622 (alpha = 20) to 1222 (alpha = 30); a
        # store of the dim**2 / 2 cells would double it
        source = SourceSpec.qubit(0.6, 0.8)
        peak20 = _traced_peak(delta_n_pmf, 20.0, source)
        assert _traced_peak(delta_n_pmf, 30.0, source) <= 1.25 * peak20


class TestDeltaNPmf:
    def test_vacuum_source_is_skellam(self):
        for alpha in (2.0, 4.0):
            pmf = delta_n_pmf(alpha, SourceSpec.vacuum())
            mu = alpha * alpha / 2.0
            ref = skellam_pmf(pmf.support(), mu, mu)
            assert np.max(np.abs(pmf.probabilities - ref)) <= 1e-10

    def test_central_value_at_alpha_two(self):
        pmf = delta_n_pmf(2.0, SourceSpec.vacuum())
        # e^{-4} I_0(4)
        assert pmf.probabilities[-pmf.offset] == pytest.approx(0.2070019212, abs=1e-9)

    def test_zero_lo_amplitude(self):
        pmf = delta_n_pmf(0.0, SourceSpec.vacuum())
        assert pmf.probabilities[-pmf.offset] == pytest.approx(1.0, abs=1e-12)
        assert pmf.mean() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "source,expected_mean",
        [
            (SourceSpec.vacuum(), 0.0),
            (SourceSpec.coherent(0.25), 2.0 * 4.0 * 0.25),
            (SourceSpec.qubit(1 / math.sqrt(2), 1 / math.sqrt(2)), 4.0),
        ],
    )
    def test_mean_is_interference_term(self, source, expected_mean):
        # <delta_n> = 2 alpha Re<b>
        pmf = delta_n_pmf(4.0, source)
        assert pmf.mean() == pytest.approx(expected_mean, abs=1e-8)

    def test_vacuum_variance_is_alpha_squared(self):
        pmf = delta_n_pmf(3.0, SourceSpec.vacuum())
        assert pmf.variance() == pytest.approx(9.0, abs=1e-8)

    def test_pmf_invariants(self):
        pmf = delta_n_pmf(2.0, SourceSpec.qubit(0.6, 0.8))
        assert np.all(pmf.probabilities >= 0.0)
        assert pmf.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


class TestSkellam:
    def test_degenerate(self):
        assert skellam_pmf(0, 0.0, 0.0) == 1.0
        assert skellam_pmf(1, 0.0, 0.0) == 0.0

    def test_poisson_limits(self):
        assert skellam_pmf(3, 2.0, 0.0) == pytest.approx(poisson.pmf(3, 2.0), rel=1e-12)
        assert skellam_pmf(-3, 0.0, 2.0) == pytest.approx(poisson.pmf(3, 2.0), rel=1e-12)
        assert skellam_pmf(-1, 2.0, 0.0) == 0.0

    @pytest.mark.parametrize("mu", [0.5, 2.0, 40.0])
    def test_one_sided_limits_mirror_bit_for_bit(self, mu):
        k = np.arange(-5, 31)
        assert np.array_equal(skellam_pmf(k, mu, 0.0), skellam_pmf(-k, 0.0, mu))
        assert all(skellam_pmf(int(n), mu, 0.0) == skellam_pmf(-int(n), 0.0, mu) for n in k)

    @pytest.mark.parametrize("mu", [0.5, 2.0, 40.0, 450.0])
    def test_one_sided_limit_matches_scipy_bit_for_bit(self, mu):
        # the Poisson pmf with log(n!) from scipy.special's gammaln
        k = np.array([-3, 0, 1, 7, 12, 13, 100, 999, 1000, 2500])
        n = np.maximum(k, 0)
        ref = np.where(k >= 0, np.exp(-mu + n * math.log(mu) - gammaln(n + 1.0)), 0.0)
        assert skellam_pmf(k, mu, 0.0).tobytes() == ref.tobytes()

    def test_bessel_value(self):
        assert skellam_pmf(0, 2.0, 2.0) == pytest.approx(0.2070019212, abs=1e-9)

    def test_normalization(self):
        mu1, mu2 = 3.0, 1.5
        k_max = int(8 * math.sqrt(mu1 + mu2) + 20)
        k = np.arange(-k_max, k_max + 1)
        assert skellam_pmf(k, mu1, mu2).sum() == pytest.approx(1.0, abs=1e-10)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            skellam_pmf(0, -1.0, 1.0)

    def test_far_tail_underflow_is_silent(self):
        # mu = 450 is the vacuum case of alpha = 30; the Bessel factor
        # underflows to 0 far in the tail, which must give p = 0 quietly
        k = np.arange(-1300, 1301)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = skellam_pmf(k, 450.0, 450.0)
        assert np.all(np.isfinite(p))
        assert p[0] == 0.0 and p[-1] == 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-10)


class TestGaussianDistance:
    def test_identical_distributions(self):
        alpha = 5.0
        k = np.arange(-200, 201)
        from scipy.special import ndtr

        q = ndtr((k + 0.5) / alpha) - ndtr((k - 0.5) / alpha)
        pmf = Pmf(offset=-200, probabilities=q / q.sum())
        assert gaussian_distance(pmf, alpha) <= 1e-9

    @pytest.mark.parametrize(
        "alpha,source",
        [(4.0, SourceSpec.vacuum()), (10.0, SourceSpec.qubit(0.6, 0.8j)),
         (6.0, SourceSpec.coherent(0.5 + 0.25j))],
    )
    def test_matches_scipy_bit_for_bit(self, alpha, source):
        # each bin from scipy.special's ndtr at its two edges
        from scipy.special import ndtr

        pmf = delta_n_pmf(alpha, source)
        k = pmf.support()
        q = ndtr((k + 0.5) / alpha) - ndtr((k - 0.5) / alpha)
        outside = max(0.0, 1.0 - float(np.sum(q)))
        ref = 0.5 * (float(np.sum(np.abs(pmf.probabilities - q))) + outside)
        assert gaussian_distance(pmf, alpha) == ref

    # below alpha ~1.1e-307 the bin edges (k -/+ 0.5) / alpha overflow to
    # -/+inf, where ndtr is exactly 0 and 1: no warning, and no mass off the pmf
    @pytest.mark.parametrize("alpha", [1e-307, 1e-320, 5e-324])
    def test_tiny_alpha_overflows_quietly(self, alpha):
        assert gaussian_distance(delta_n_pmf(alpha, SourceSpec.vacuum()), alpha) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -2.0, math.nan])
    def test_alpha_must_be_positive(self, alpha):
        pmf = delta_n_pmf(2.0, SourceSpec.vacuum())
        with pytest.raises(ValueError, match=f"^alpha must be > 0, got {alpha}$"):
            gaussian_distance(pmf, alpha)

    def test_weak_field_convergence(self):
        tv6 = gaussian_distance(delta_n_pmf(6.0, SourceSpec.vacuum()), 6.0)
        tv10 = gaussian_distance(delta_n_pmf(10.0, SourceSpec.vacuum()), 10.0)
        assert tv6 < 0.02
        assert tv10 < tv6

    def test_cutoff_recommendation(self):
        assert default_cutoff(6.0) >= 36 + 60 + 20

    def test_cutoff_at_largest_supported_alpha(self):
        assert default_cutoff(30.0) == 900 + 300 + 20

    # exp(-alpha^2/2) underflows to 0 above alpha ~ 38.6; 1e5 would have
    # sized a ~1e10-row amplitude array
    @pytest.mark.parametrize("alpha", [40.0, 1e5, 1e200])
    def test_cutoff_refused_when_vacuum_amplitude_underflows(self, alpha):
        with pytest.raises(CutoffError, match="underflows to 0"):
            default_cutoff(alpha)

    # below alpha ~37.64 it is a normal float; above, subnormal, and refused
    # as well: the recurrence would start from too few significant bits
    @pytest.mark.parametrize("alpha", [37.7, 38.1, 38.5])
    def test_cutoff_refused_when_vacuum_amplitude_is_subnormal(self, alpha):
        with pytest.raises(CutoffError, match=r"underflows to [1-9][.0-9]*e-3[0-9]{2}$"):
            default_cutoff(alpha)

    def test_cutoff_at_largest_normal_vacuum_amplitude(self):
        assert default_cutoff(37.6) == math.ceil(37.6**2 + 376.0 + 20.0)

    def test_huge_coherent_source_refused(self):
        with pytest.raises(CutoffError, match="underflows to 0"):
            delta_n_pmf(2.0, SourceSpec.coherent(1e200))
