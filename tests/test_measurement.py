import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare, norm

from homodyne_feedback import (
    BlochState,
    CounterStream,
    SamplingMode,
    SimParams,
    apply_rotation,
    bayes_dipole_update,
    conditional_pdf,
    pdf_vacuum,
    RunConfig,
    rotation_angle,
    run_trajectory_arrays,
    sample_records,
)
from homodyne_feedback.measurement import record_shift

PARAMS = SimParams(gamma=1.0, tau=1e-2, alpha=10.0)


def conditional_mean(state, params):
    """Mean of the conditional record mixture: sqrt(gamma*tau)*alpha*s_x."""
    return record_shift(params) * state.s_x


def conditional_variance(state, params):
    """Variance of the conditional record mixture:
    alpha^2 * (1 + gamma*tau*(1 - s_x^2))."""
    sx = state.s_x
    return params.alpha**2 * (1.0 + params.gamma_tau * (1.0 - sx * sx))


class TestVacuumPdf:
    def test_peak_value(self):
        assert pdf_vacuum(0.0, 10.0) == pytest.approx(0.03989422804014327, rel=1e-12)

    def test_one_sigma_point(self):
        for alpha in (3.0, 10.0, 50.0):
            assert pdf_vacuum(alpha, alpha) == pytest.approx(
                pdf_vacuum(0.0, alpha) * math.exp(-0.5), rel=1e-12
            )

    def test_normalization_by_quadrature(self):
        total, _ = quad(pdf_vacuum, -80.0, 80.0, args=(10.0,), epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            pdf_vacuum(0.0, 0.0)
        with pytest.raises(ValueError):
            pdf_vacuum(0.0, -3.0)


class TestConditionalPdf:
    def test_even_at_zero_dipole(self):
        state = BlochState.excited()  # s_x = 0
        x = np.linspace(0.1, 40.0, 50)
        assert np.allclose(
            conditional_pdf(x, state, PARAMS), conditional_pdf(-x, state, PARAMS)
        )

    def test_positive_records_favored_at_dipole_plus(self):
        state = BlochState.dipole_plus()
        p_pos, _ = quad(conditional_pdf, 0.0, 90.0, args=(state, PARAMS), epsabs=1e-12)
        assert p_pos > 0.5

    def test_vacuum_limit(self):
        # leading correction is the sqrt(gamma tau) alpha mean shift, so the
        # pointwise error is bounded by shift * max|pdf'| ~ 2.4e-8 here
        weak = SimParams(gamma=1.0, tau=1e-12, alpha=10.0)
        x = np.linspace(-50.0, 50.0, 101)
        state = BlochState(0.3)
        diff = np.max(np.abs(conditional_pdf(x, state, weak) - pdf_vacuum(x, 10.0)))
        assert diff <= 2.5e-8

    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 2, 2.5, math.pi])
    def test_normalization_mean_variance_by_quadrature(self, phi):
        state = BlochState(phi)
        lo, hi = -90.0, 90.0
        total, _ = quad(conditional_pdf, lo, hi, args=(state, PARAMS), epsabs=1e-12)
        mean, _ = quad(
            lambda x: x * conditional_pdf(x, state, PARAMS), lo, hi, epsabs=1e-12
        )
        second, _ = quad(
            lambda x: x * x * conditional_pdf(x, state, PARAMS), lo, hi, epsabs=1e-10
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(conditional_mean(state, PARAMS), abs=1e-9)
        assert second - mean**2 == pytest.approx(
            conditional_variance(state, PARAMS), abs=1e-6
        )


class TestSampler:
    def test_vacuum_moments(self):
        rng = CounterStream(10, 0)
        dn = sample_records(BlochState.excited(), PARAMS, SamplingMode.VACUUM, rng, 1_000_000)
        assert abs(dn.mean()) <= 3.0 * 10.0 / 1000.0
        assert dn.var() == pytest.approx(100.0, rel=0.01)

    def test_conditional_mean_at_dipole_plus(self):
        rng = CounterStream(11, 0)
        state = BlochState.dipole_plus()
        dn = sample_records(state, PARAMS, SamplingMode.CONDITIONAL, rng, 1_000_000)
        se = math.sqrt(conditional_variance(state, PARAMS) / len(dn))
        # mixture mean sqrt(gamma*tau)*alpha*s_x = 1.0
        assert dn.mean() == pytest.approx(1.0, abs=3.0 * se)

    def test_conditional_symmetric_at_sx_zero(self):
        rng = CounterStream(12, 0)
        dn = sample_records(BlochState.excited(), PARAMS, SamplingMode.CONDITIONAL, rng, 1_000_000)
        p_pos = np.mean(dn > 0)
        se = 0.5 / math.sqrt(len(dn))
        assert p_pos == pytest.approx(0.5, abs=3.0 * se)

    def test_scalar_matches_vectorized(self):
        # a trajectory's first record takes the same counters as a one-record
        # draw (uniform, then normal) from that trajectory's stream
        state = BlochState(0.9)
        config = RunConfig(params=PARAMS, initial=state, n_steps=1, seed=5)
        scalar = [run_trajectory_arrays(config, i)[0][0] for i in range(4)]
        vector = [
            sample_records(state, PARAMS, SamplingMode.CONDITIONAL, CounterStream(5, i), 1)[0]
            for i in range(4)
        ]
        assert scalar == vector

    @pytest.mark.parametrize("mode", [SamplingMode.VACUUM, SamplingMode.CONDITIONAL])
    def test_goodness_of_fit(self, mode):
        state = BlochState(1.1)
        rng = CounterStream(13, 0)
        dn = sample_records(state, PARAMS, mode, rng, 100_000)
        edges = np.linspace(-45.0, 45.0, 40)
        counts, _ = np.histogram(dn, bins=edges)
        mu = math.sqrt(PARAMS.gamma_tau) * PARAMS.alpha
        if mode is SamplingMode.VACUUM:
            cdf = norm.cdf(edges / PARAMS.alpha)
        else:
            p_plus = 0.5 * (1.0 + state.s_x)
            cdf = p_plus * norm.cdf((edges - mu) / PARAMS.alpha) + (1 - p_plus) * norm.cdf(
                (edges + mu) / PARAMS.alpha
            )
        expected = np.diff(cdf) * len(dn)
        keep = expected > 10
        scale = counts[keep].sum() / expected[keep].sum()
        _, p_value = chisquare(counts[keep], expected[keep] * scale)
        assert p_value > 1e-3


class TestBayesUpdate:
    def test_dipole_eigenstates_stationary(self):
        for state in (BlochState.dipole_plus(), BlochState.dipole_minus()):
            for dn in (-30.0, -1.0, 0.0, 2.0, 25.0):
                assert bayes_dipole_update(state, dn, PARAMS).phi == state.phi

    def test_zero_record_is_identity_on_sx(self):
        state = BlochState(0.6)
        assert bayes_dipole_update(state, 0.0, PARAMS).s_x == pytest.approx(
            state.s_x, abs=1e-15
        )

    def test_hemisphere_preserved(self):
        north = BlochState(0.3)
        south = BlochState(2.8)
        assert bayes_dipole_update(north, 10.0, PARAMS).s_z > 0
        assert bayes_dipole_update(south, 10.0, PARAMS).s_z < 0

    @given(st.floats(-3.0, 3.0), st.floats(-40.0, 40.0))
    def test_stays_on_circle(self, phi, dn):
        out = bayes_dipole_update(BlochState(phi), dn, PARAMS)
        assert abs(out.s_x**2 + out.s_z**2 - 1.0) <= 1e-12

    def test_first_order_match_with_compensated_rotation(self):
        params = SimParams(gamma=1.0, tau=1e-4, alpha=100.0)
        gt = params.gamma_tau
        state = BlochState(0.8)
        for v in (-2.5, -1.0, -0.3, 0.7, 1.8):
            dn = v * params.alpha
            rot = apply_rotation(state, rotation_angle(state.s_z, dn, params, gain=1.0))
            bay = bayes_dipole_update(state, dn, params)
            assert abs(rot.s_x - bay.s_x) <= 10.0 * gt
            assert abs(rot.s_z - bay.s_z) <= 10.0 * gt
