import hashlib
import math
import warnings

import numpy as np
import pytest

from homodyne_feedback import (
    COMPENSATION,
    INVERSION,
    NO_FEEDBACK,
    BlochState,
    FeedbackPolicy,
    RunConfig,
    SamplingMode,
    SimParams,
    derive_stream,
    rotation_angle,
    run_ensemble,
    run_trajectory,
    run_trajectory_arrays,
    step,
)
from homodyne_feedback import engine
from homodyne_feedback.streams import stream_key

PARAMS = SimParams(gamma=1.0, tau=1e-3, alpha=100.0)


def make_config(**kw):
    base = dict(
        params=PARAMS,
        policy=NO_FEEDBACK,
        mode=SamplingMode.CONDITIONAL,
        initial=BlochState.excited(),
        n_steps=100,
        n_trajectories=4,
        seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


class TestStep:
    @pytest.mark.parametrize(
        "policy,initial",
        [
            (NO_FEEDBACK, BlochState.ground()),
            (INVERSION, BlochState.excited()),
            (COMPENSATION, BlochState.dipole_plus()),
        ],
    )
    def test_stationary_states_exact(self, policy, initial):
        rng = derive_stream(3, 0)
        state = initial
        for _ in range(200):
            state, record = step(state, PARAMS, policy, SamplingMode.CONDITIONAL, rng)
            assert state.phi == initial.phi
            assert record.theta == 0.0

    def test_matches_batched_trajectory_bitwise(self):
        config = make_config(n_steps=300, seed=9)
        records = run_trajectory(config, 2)
        rng = derive_stream(9, 2)
        state = config.initial
        for r in records:
            state, rec = step(state, PARAMS, NO_FEEDBACK, SamplingMode.CONDITIONAL, rng)
            assert state.phi == r.state_after.phi
            assert rec.delta_n == r.delta_n
            assert rec.theta == r.theta

    def test_large_angles_wrap_fully_and_match_batched(self):
        # custom:10 at gamma*tau = 0.1 is allowed (it only warns) and drives
        # |theta| past 2 pi, beyond what a single-turn wrap can undo
        with pytest.warns(UserWarning):
            params = SimParams(gamma=1.0, tau=0.1, alpha=100.0)
            config = make_config(
                params=params, policy=FeedbackPolicy.custom(10.0), n_steps=2000, seed=3
            )
        dn, th, phi = run_trajectory_arrays(config, 0)
        assert np.abs(th).max() > 2.0 * math.pi
        assert np.all((phi > -math.pi) & (phi <= math.pi))
        rng = derive_stream(3, 0)
        state = config.initial
        for k in range(config.n_steps):
            state, rec = step(state, params, config.policy, config.mode, rng)
            assert (state.phi, rec.delta_n, rec.theta) == (phi[k], dn[k], th[k]), k


class TestRunTrajectory:
    def test_zero_steps(self):
        assert run_trajectory(make_config(n_steps=0), 0) == []

    def test_deterministic(self):
        config = make_config(seed=12)
        assert run_trajectory(config, 3) == run_trajectory(config, 3)

    def test_theta_consistent_with_pre_step_state(self):
        config = make_config(n_steps=50, seed=4)
        records = run_trajectory(config, 0)
        state = config.initial
        for r in records:
            expected = rotation_angle(state.s_z, r.delta_n, PARAMS, 0.0)
            assert r.theta == expected
            state = r.state_after

    def test_purity_over_long_run(self):
        config = make_config(n_steps=100_000, seed=5)
        _, _, phi = run_trajectory_arrays(config, 0)
        purity = np.abs(np.sin(phi) ** 2 + np.cos(phi) ** 2 - 1.0)
        assert purity.max() <= 1e-12


class TestDeriveStream:
    def test_distinct_streams(self):
        assert derive_stream(42, 0).standard_normal() != derive_stream(42, 1).standard_normal()

    def test_reproducible(self):
        assert derive_stream(42, 7).standard_normal(8).tolist() == derive_stream(
            42, 7
        ).standard_normal(8).tolist()


class TestRunEnsemble:
    def test_ground_state_exactly_stationary(self):
        config = make_config(initial=BlochState.ground(), n_trajectories=500, n_steps=20)
        res = run_ensemble(config)
        assert np.all(res.mean_sz == -1.0)
        assert np.all(res.var_sz == 0.0)

    def test_one_step_drift_from_excited(self):
        config = make_config(n_steps=1, n_trajectories=100_000, seed=31)
        res = run_ensemble(config)
        drift = (res.mean_sz[1] - res.mean_sz[0]) / PARAMS.tau
        tol = 3.0 * res.stderr_sz[1] / PARAMS.tau
        assert drift == pytest.approx(-2.0, abs=tol)

    def test_one_step_drift_from_dipole(self):
        config = make_config(
            initial=BlochState.dipole_plus(), n_steps=1, n_trajectories=100_000, seed=32
        )
        res = run_ensemble(config)
        drift = (res.mean_sz[1] - res.mean_sz[0]) / PARAMS.tau
        tol = 3.0 * res.stderr_sz[1] / PARAMS.tau
        assert drift == pytest.approx(-1.0, abs=tol)

    def test_moment_invariants(self):
        res = run_ensemble(make_config(n_trajectories=50, seed=2))
        assert np.all(res.var_sx >= 0.0)
        assert np.all(res.var_sz >= 0.0)
        assert np.all(np.abs(res.mean_sx) <= 1.0)
        assert np.all(np.abs(res.mean_sz) <= 1.0)
        assert res.time[0] == 0.0
        assert res.time[-1] == pytest.approx(res.config.n_steps * PARAMS.tau)

    def test_monotone_relaxation_towards_ground(self):
        config = make_config(n_steps=500, n_trajectories=2000, seed=33)
        res = run_ensemble(config)
        slack = 2.0 * (res.stderr_sz[:-1] + res.stderr_sz[1:])
        assert np.all(np.diff(res.mean_sz) <= slack)

    def test_thread_count_does_not_change_result(self, monkeypatch):
        config = make_config(n_trajectories=10_000, n_steps=30, seed=6)
        results = {}
        for t in ("1", "4"):
            monkeypatch.setenv("SIM_THREADS", t)
            results[t] = run_ensemble(config)
        for name in ("mean_sx", "mean_sz", "var_sx", "var_sz"):
            assert np.array_equal(
                getattr(results["1"], name), getattr(results["4"], name)
            ), name

    # sha256 of the float64 bytes of mean, var and stderr (s_x, s_z each)
    PINNED = {
        SamplingMode.VACUUM: "2b9089741b077bc9f0a31be187c67257b6594f3545c337ed41102862e1c8748f",
        SamplingMode.CONDITIONAL: "13208a33268eba22ad135c07b8219784db1ca913e6f7909afa30ba630031f820",
    }

    @pytest.mark.parametrize("mode", list(SamplingMode))
    def test_output_bits_pinned(self, mode):
        # two full batches plus a ragged one; a changed bit is an RNG or
        # model change, never an optimisation
        config = make_config(
            mode=mode, n_steps=40, n_trajectories=2 * engine.BATCH_SIZE + 123, seed=11
        )
        res = run_ensemble(config)
        h = hashlib.sha256()
        for name in ("mean_sx", "mean_sz", "var_sx", "var_sz", "stderr_sx", "stderr_sz"):
            h.update(np.ascontiguousarray(getattr(res, name), dtype=np.float64).tobytes())
        assert h.hexdigest() == self.PINNED[mode]

    def test_per_step_angle_variance(self):
        # Var(theta) = gamma*tau*(1+s_z-g)^2*(1+gamma*tau*(1-s_x^2))
        gt = PARAMS.gamma_tau
        from homodyne_feedback import CounterStream, sample_records

        for initial, g in [
            (BlochState.excited(), 0.0),
            (BlochState.excited(), 1.0),
            (BlochState.dipole_plus(), 0.0),
        ]:
            rng = CounterStream(78, int(g))
            dn = sample_records(initial, PARAMS, SamplingMode.CONDITIONAL, rng, 1_000_000)
            theta = rotation_angle(initial.s_z, dn, PARAMS, g)
            sx = initial.s_x
            expected = gt * (1.0 + initial.s_z - g) ** 2 * (1.0 + gt * (1.0 - sx * sx))
            if expected == 0.0:
                assert np.var(theta) == 0.0
            else:
                assert np.var(theta) == pytest.approx(expected, rel=0.02)

    def test_twice_the_classical_diffusion(self):
        # excited-state rotation amplitude is 2 -> variance factor 4
        from homodyne_feedback import CounterStream, sample_records

        rng = CounterStream(79, 0)
        dn = sample_records(
            BlochState.excited(), PARAMS, SamplingMode.CONDITIONAL, rng, 1_000_000
        )
        theta = rotation_angle(1.0, dn, PARAMS, 0.0)
        ratio = np.var(theta) / (PARAMS.gamma_tau * np.var(dn / PARAMS.alpha))
        assert ratio == pytest.approx(4.0, rel=0.02)


class TestChunking:
    @pytest.mark.parametrize("g", [0.0, 1.0, 2.0, 0.37])
    @pytest.mark.parametrize("conditional", [True, False])
    def test_chunk_size_does_not_change_outputs(self, monkeypatch, conditional, g):
        n, steps = engine.BATCH_SIZE, 40
        keys = stream_key(8, np.arange(n, dtype=np.uint64))
        phi0 = np.linspace(-math.pi, math.pi, n)

        def run():
            hist = engine._advance(phi0, keys, PARAMS, g, conditional, steps, "history")
            _, sums = engine._advance(phi0, keys, PARAMS, g, conditional, steps, "stats")
            return (*hist, sums)

        reference = run()  # 8-step chunks at BATCH_SIZE lanes
        # 1-step chunks, ragged 7-step chunks (40 = 5 * 7 + 5), one chunk
        for budget in (n, 7 * n, steps * n):
            monkeypatch.setattr(engine, "_WORD_BUDGET", budget)
            for got, want in zip(run(), reference):
                assert np.array_equal(got, want), budget


class TestRunConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            make_config(n_trajectories=0)
        with pytest.raises(ValueError):
            make_config(n_steps=-1)
        with pytest.raises(ValueError):
            make_config(seed=-1)

    @pytest.mark.parametrize("g", [10.0, -8.0])
    def test_large_per_step_angle_warns_once(self, g):
        # sqrt(1e-3) * 10 = 0.316 > 0.3
        with pytest.warns(UserWarning, match="rotation scale") as caught:
            make_config(policy=FeedbackPolicy.custom(g))
        assert len(caught) == 1

    @pytest.mark.parametrize(
        "policy", [NO_FEEDBACK, COMPENSATION, INVERSION, FeedbackPolicy.custom(9.0)]
    )
    def test_default_and_benchmark_configs_are_silent(self, policy):
        # the CLI defaults, the benchmark and `hdsim validate` all run at
        # gamma*tau = 1e-3 with gains in [0, 2]; custom:9 is just below 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_config(policy=policy)
