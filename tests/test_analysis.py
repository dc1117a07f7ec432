import math

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from homodyne_feedback import (
    BlochState,
    CounterStream,
    RunConfig,
    SamplingMode,
    SimParams,
    drift_field,
    ensemble_stats,
    estimate_diffusion,
    histogram,
    pdf_vacuum,
    rotation_angle,
    run_ensemble,
    run_trajectory_arrays,
    sample_records,
)

PARAMS = SimParams(gamma=1.0, tau=1e-3, alpha=100.0)


class TestDriftField:
    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            drift_field(PARAMS, 0.0, grid_size=3)

    @pytest.mark.parametrize(
        "g,expected",
        [
            (0.0, [math.pi]),
            (1.0, [-math.pi / 2, math.pi / 2]),
            (2.0, [0.0]),
        ],
    )
    def test_fixed_points(self, g, expected):
        field = drift_field(PARAMS, g, grid_size=72)
        found = sorted(p for p, f in zip(field.phi, field.fixed_point) if f)
        assert len(found) == len(expected)
        for p, e in zip(found, sorted(expected)):
            assert p == pytest.approx(e, abs=1e-9)

    def test_fixed_point_flag_matches_amplitude_zero(self):
        field = drift_field(PARAMS, 1.0, grid_size=144)
        amp = 1.0 + np.cos(field.phi) - 1.0
        assert np.array_equal(field.fixed_point, np.abs(amp) < 1e-12)

    def test_arrow_sign_follows_gained_amplitude(self):
        for g in (0.0, 1.0, 2.0, 0.5):
            field = drift_field(PARAMS, g, grid_size=72)
            amp = 1.0 + np.cos(field.phi) - g
            live = ~field.fixed_point
            assert np.all(
                np.sign(field.mean_rotation_given_positive[live]) == np.sign(amp[live])
            )

    def test_no_feedback_extremes(self):
        field = drift_field(PARAMS, 0.0, grid_size=72)
        mags = np.abs(field.mean_rotation_given_positive)
        top = np.argmin(np.abs(field.phi))  # excited state
        assert mags[top] == mags.max()
        assert field.fixed_point[np.argmin(np.abs(field.phi - math.pi))]

    def test_rms_rotation_positive_off_fixed_points(self):
        field = drift_field(PARAMS, 1.0, grid_size=72)
        assert np.all(field.rms_rotation >= 0.0)
        assert np.all(field.rms_rotation[~field.fixed_point] > 0.0)


class TestEstimateDiffusion:
    @staticmethod
    def _thetas(state, g, n, seed):
        rng = CounterStream(seed, 0)
        dn = sample_records(state, PARAMS, SamplingMode.CONDITIONAL, rng, n)
        return rotation_angle(state.s_z, dn, PARAMS, g)

    def test_excited_without_feedback(self):
        est = estimate_diffusion(self._thetas(BlochState.excited(), 0.0, 1_000_000, 50), PARAMS)
        assert est.value == pytest.approx(4.0 * PARAMS.gamma, rel=0.02)
        assert est.stderr > 0.0

    def test_excited_with_compensation(self):
        est = estimate_diffusion(self._thetas(BlochState.excited(), 1.0, 1_000_000, 51), PARAMS)
        assert est.value == pytest.approx(PARAMS.gamma, rel=0.02)

    def test_excited_to_classical_ratio_is_four(self):
        excited = estimate_diffusion(
            self._thetas(BlochState.excited(), 0.0, 1_000_000, 52), PARAMS
        )
        classical = estimate_diffusion(
            self._thetas(BlochState.dipole_plus(), 0.0, 1_000_000, 53), PARAMS
        )
        assert excited.value / classical.value == pytest.approx(4.0, rel=0.05)

    def test_ground_exactly_zero(self):
        est = estimate_diffusion(self._thetas(BlochState.ground(), 0.0, 1000, 54), PARAMS)
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_accepts_step_records(self):
        config = RunConfig(params=PARAMS, n_steps=500, n_trajectories=1, seed=55)
        est = estimate_diffusion(run_trajectory_arrays(config, 0)[1], PARAMS)
        assert est.value >= 0.0

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            estimate_diffusion(np.zeros(99), PARAMS)

    def test_jackknife_error_bar_covers_truth(self):
        est = estimate_diffusion(self._thetas(BlochState.excited(), 0.0, 200_000, 56), PARAMS)
        truth = 4.0 * PARAMS.gamma * (1.0 + PARAMS.gamma_tau)
        assert abs(est.value - truth) <= 4.0 * est.stderr


class TestEnsembleStats:
    @staticmethod
    def _phi(config, indices):
        return np.array([run_trajectory_arrays(config, i)[2] for i in indices])

    def test_single_trajectory_zero_variance(self):
        config = RunConfig(params=PARAMS, n_steps=20, n_trajectories=1, seed=60)
        res = ensemble_stats(self._phi(config, [0]), config)
        assert np.all(res.var_sx == 0.0)
        assert np.all(res.stderr_sz == 0.0)

    def test_identical_trajectories_zero_stderr(self):
        config = RunConfig(params=PARAMS, n_steps=20, n_trajectories=1, seed=61)
        res = ensemble_stats(self._phi(config, [0, 0, 0]), config)
        # the sum-of-squares variance formula, shared with run_ensemble, leaves
        # rounding noise of order eps in the variance and so of order
        # sqrt(eps) in the standard error
        noise = 4.0 * np.finfo(float).eps
        for var, stderr in ((res.var_sx, res.stderr_sx), (res.var_sz, res.stderr_sz)):
            assert np.all(var <= noise)
            assert np.all(stderr <= math.sqrt(noise / 2))

    def test_ragged_input_rejected(self):
        # rows of different lengths do not form an (n, n_steps) array
        config = RunConfig(params=PARAMS, n_steps=20, n_trajectories=1, seed=62)
        short = RunConfig(params=PARAMS, n_steps=19, n_trajectories=1, seed=62)
        with pytest.raises(ValueError):
            ensemble_stats([self._phi(config, [0])[0], self._phi(short, [0])[0]], config)

    def test_length_other_than_config_steps_rejected(self):
        # a rectangular array is not enough: every row must be config's run
        config = RunConfig(params=PARAMS, n_steps=20, n_trajectories=2, seed=62)
        short = RunConfig(params=PARAMS, n_steps=19, n_trajectories=2, seed=62)
        phi = self._phi(short, range(2))
        with pytest.raises(ValueError, match=r"shape \(n >= 1, 20\), got \(2, 19\)"):
            ensemble_stats(phi, config)
        assert ensemble_stats(phi, short).mean_sz.shape == (20,)

    def test_empty_input_rejected(self):
        config = RunConfig(params=PARAMS, n_steps=20, n_trajectories=1, seed=62)
        with pytest.raises(ValueError, match=r"got \(0, 20\)"):
            ensemble_stats(np.empty((0, 20)), config)

    def test_matches_run_ensemble_moments(self):
        # one batch: both paths sum the same values in the same order and
        # share one reducer, so every moment is bit-identical
        config = RunConfig(params=PARAMS, n_steps=30, n_trajectories=40, seed=63)
        direct = run_ensemble(config)
        rebuilt = ensemble_stats(self._phi(config, range(40)), config)
        for name in ("time", "mean_sx", "mean_sz", "var_sx", "var_sz", "stderr_sx", "stderr_sz"):
            assert np.array_equal(getattr(direct, name), getattr(rebuilt, name)), name


class TestHistogram:
    def test_empty_input(self):
        h = histogram([], bins=10, value_range=(0.0, 1.0))
        assert h.counts.sum() == 0
        assert h.total() == 0

    def test_single_value_at_lower_edge(self):
        h = histogram([0.0], bins=10, value_range=(0.0, 1.0))
        assert h.counts[0] == 1
        assert h.total() == 1

    def test_under_and_overflow(self):
        h = histogram([-1.0, 0.5, 2.0, 3.0], bins=4, value_range=(0.0, 1.0))
        assert h.underflow == 1
        assert h.overflow == 2
        assert h.total() == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([1.0], bins=0, value_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            histogram([1.0], bins=4, value_range=(1.0, 1.0))

    def test_vacuum_samples_match_weak_field_gaussian(self):
        rng = CounterStream(70, 0)
        dn = sample_records(
            BlochState.excited(), PARAMS, SamplingMode.VACUUM, rng, 1_000_000
        )
        span = 5.0 * PARAMS.alpha
        h = histogram(dn, bins=100, value_range=(-span, span))
        edges = h.edges
        expected = (
            norm.cdf(edges[1:] / PARAMS.alpha) - norm.cdf(edges[:-1] / PARAMS.alpha)
        ) * len(dn)
        keep = expected > 10
        scale = h.counts[keep].sum() / expected[keep].sum()
        _, p_value = chisquare(h.counts[keep], expected[keep] * scale)
        assert p_value > 1e-3
        # pdf consistency at the peak
        center_density = h.counts[50] / (len(dn) * (edges[1] - edges[0]))
        assert center_density == pytest.approx(pdf_vacuum(edges[50] + 5.0, PARAMS.alpha), rel=0.1)
