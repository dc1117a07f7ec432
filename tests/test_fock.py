import cmath
import math
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
from homodyne_feedback.fock import Pmf, coherent_amplitudes, default_cutoff


def reference_beamsplitter(lo_alpha, source, cutoff=None):
    """Scalar-loop expansion over (nb, ell, na), one row of j at a time: the
    summation order the vectorised beamsplitter_output must reproduce."""
    if cutoff is None:
        cutoff = default_cutoff(lo_alpha)
    a = coherent_amplitudes(lo_alpha, cutoff)
    b = fock._source_amplitudes(source)

    na_max = cutoff
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

    def test_mean_b(self):
        assert SourceSpec.vacuum().mean_b() == 0.0
        assert SourceSpec.coherent(0.3 + 0.1j).mean_b() == 0.3 + 0.1j
        q = SourceSpec.qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
        assert q.mean_b() == pytest.approx(0.5)


class TestBeamsplitter:
    def test_all_vacuum(self):
        field = beamsplitter_output(0.0, SourceSpec.vacuum(), cutoff=5)
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
        assert field.norm() == pytest.approx(1.0, abs=1e-10)

    def test_coherent_source_factorization(self):
        # coherent (x) coherent -> coherent((a+b)/sqrt2) (x) coherent((a-b)/sqrt2)
        alpha, beta = 2.0, 0.5
        field = beamsplitter_output(alpha, SourceSpec.coherent(beta))
        dim = field.amplitudes.shape[0]
        c = coherent_amplitudes((alpha + beta) / math.sqrt(2.0), dim - 1)
        d = coherent_amplitudes((alpha - beta) / math.sqrt(2.0), dim - 1)
        assert np.max(np.abs(field.amplitudes - np.outer(c, d))) <= 1e-10

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffError):
            beamsplitter_output(6.0, SourceSpec.vacuum(), cutoff=10)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff must be >= 0, got -3"):
            beamsplitter_output(2.0, SourceSpec.vacuum(), cutoff=-3)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
    def test_lo_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError, match=f"lo_alpha must be finite and >= 0, got {alpha}"):
            beamsplitter_output(alpha, SourceSpec.vacuum())


QUBIT = SourceSpec.qubit(0.6, 0.8 * cmath.exp(0.3j))
COHERENT = SourceSpec.coherent(1.5 * cmath.exp(0.7j))


class TestBeamsplitterBitIdentity:
    @pytest.mark.parametrize(
        "alpha,source",
        [(a, s) for s in (SourceSpec.vacuum(), QUBIT) for a in (2.0, 6.0, 14.0)]
        + [(2.0, COHERENT), (4.0, COHERENT)],
    )
    def test_matches_scalar_loop(self, alpha, source):
        field = beamsplitter_output(alpha, source)
        assert np.array_equal(field.amplitudes, reference_beamsplitter(alpha, source))

    def test_explicit_cutoff_spanning_several_blocks(self):
        cutoff = 300
        assert (cutoff + 1) * (cutoff + 2) // 2 > fock._BLOCK_PAIRS
        field = beamsplitter_output(3.0, QUBIT, cutoff=cutoff)
        assert np.array_equal(
            field.amplitudes, reference_beamsplitter(3.0, QUBIT, cutoff=cutoff)
        )


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

    def test_huge_coherent_source_refused(self):
        with pytest.raises(CutoffError, match="underflows to 0"):
            delta_n_pmf(2.0, SourceSpec.coherent(1e200))
