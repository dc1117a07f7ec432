import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare, norm

from homodyne_feedback import (
    BlochState,
    CounterStream,
    SamplingMode,
    SimParams,
    conditional_pdf,
    pdf_vacuum,
    RunConfig,
    run_trajectory_arrays,
    sample_records,
)
from homodyne_feedback.measurement import conditional_records, record_shift

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

    @pytest.mark.filterwarnings("ignore::UserWarning")  # gamma*tau = 0.05 warns
    def test_scalar_matches_vectorized(self):
        # a trajectory's first record takes the same counters as a one-record
        # draw (uniform, then normal) from that trajectory's stream, at any state
        cases = [(0.9, 1e-2)] + [(p, g) for p in (0.3, -2.0, 1.1, 3.0) for g in (1e-3, 0.05)]
        for phi, gt in cases:
            state, params = BlochState(phi), SimParams(gamma=1.0, tau=gt, alpha=10.0)
            config = RunConfig(params=params, initial=state, n_steps=1, seed=5)
            scalar = [run_trajectory_arrays(config, i)[0][0] for i in range(4)]
            vector = [
                sample_records(state, params, SamplingMode.CONDITIONAL, CounterStream(5, i), 1)[0]
                for i in range(4)
            ]
            assert scalar == vector

    @pytest.mark.parametrize(
        "state,g",
        [
            (BlochState.ground(), 0.0),
            (BlochState.excited(), 2.0),
            (BlochState.dipole_plus(), 1.0),
            (BlochState.dipole_minus(), 1.0),
        ],
        ids=["ground-g0", "excited-g2", "dipole+-g1", "dipole--g1"],
    )
    def test_samples_are_the_records_of_a_stationary_trajectory(self, state, g):
        # at these fixed points every rotation is exactly 0, so a trajectory
        # draws every record at the sampled state: sample i is step i's
        # record of that trajectory, over several of the generator's chunks
        n, seed, index = 100_000, 3, 5
        config = RunConfig(params=PARAMS, gain=g, initial=state, n_steps=n, seed=seed)
        dn, theta, _ = run_trajectory_arrays(config, index)
        assert not theta.any()
        rng = CounterStream(seed, index)
        samples = sample_records(state, PARAMS, SamplingMode.CONDITIONAL, rng, n)
        assert np.array_equal(samples, dn)

    def test_vacuum_samples_share_the_conditional_normals(self):
        # alpha*z is the vacuum record and the conditional one less its centre
        state, rng = BlochState(0.9), CounterStream(6, 2)
        vacuum = sample_records(state, PARAMS, SamplingMode.VACUUM, rng, 1000)
        conditional = sample_records(state, PARAMS, SamplingMode.CONDITIONAL, rng, 1000)
        mu = record_shift(PARAMS)
        assert np.array_equal(conditional, vacuum + np.where(conditional > vacuum, mu, -mu))

    def test_record_buffers_match_allocating_form(self):
        # the kernel's call: records over the normals, one s_x a lane
        rng = np.random.default_rng(5)
        u, z = rng.uniform(size=1000), rng.normal(size=1000)
        s_x = np.sin(rng.uniform(-math.pi, math.pi, 1000))
        mu = record_shift(PARAMS)
        want = np.where(u < 0.5 * (1.0 + s_x), mu, -mu) + PARAMS.alpha * z
        assert np.array_equal(conditional_records(u, z, s_x, PARAMS), want)
        inputs = u.copy(), s_x.copy()
        tmp, mask = np.empty(1000), np.empty(1000, dtype=bool)
        assert conditional_records(u, z, s_x, PARAMS, z, tmp, mask) is z
        assert np.array_equal(z, want)
        assert np.array_equal(u, inputs[0]) and np.array_equal(s_x, inputs[1])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="sample size must be >= 0, got -5"):
            sample_records(BlochState.excited(), PARAMS, SamplingMode.VACUUM, CounterStream(1), -5)
        assert sample_records(
            BlochState.excited(), PARAMS, SamplingMode.VACUUM, CounterStream(1), 0
        ).shape == (0,)

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

