import ast
import concurrent.futures
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from homodyne_feedback import (
    BlochState,
    CounterStream,
    EnsembleResult,
    RunConfig,
    SamplingMode,
    SimParams,
    rotation_angle,
    run_ensemble,
    run_trajectory_arrays,
    sample_records,
)
from homodyne_feedback import engine, streams
from homodyne_feedback.streams import box_muller, raw_words, stream_key, to_unit

PARAMS = SimParams(gamma=1.0, tau=1e-3, alpha=100.0)


def make_config(**kw):
    base = dict(
        params=PARAMS,
        initial=BlochState.excited(),
        n_steps=100,
        n_trajectories=4,
        seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


def kernel(config, n_lanes):
    """Final angles and per-step sums of `_advance` over trajectories
    0..n_lanes-1 of config, one batch (n_lanes <= BATCH_SIZE)."""
    keys = stream_key(config.seed, np.arange(n_lanes, dtype=np.uint64))
    final, (sums,) = engine._advance(
        np.full(n_lanes, config.initial.phi),
        keys,
        config.params,
        config.gain,
        config.n_steps,
    )
    return final, sums


MOMENTS = ("mean_sx", "mean_sz", "var_sx", "var_sz", "se_sx", "se_sz")


def scalar_draw(key, k):
    """Step k's uniform and normal of the stream with this key, each word
    taken alone at its counter: 3k, then 3k+1 and 3k+2 for Box-Muller."""

    def unit(c):
        return to_unit(raw_words(key, np.asarray([c], dtype=np.uint64)))

    return unit(3 * k)[0], box_muller(unit(3 * k + 1), unit(3 * k + 2))[0]


def history_sums(initial_phi, phi):
    """(s_x, s_x^2, s_z, s_z^2) of a scalar history, step 0 included."""
    phi = np.concatenate([[initial_phi], phi])
    sx, sz = np.sin(phi), np.cos(phi)
    return np.stack([sx, sx * sx, sz, sz * sz], axis=1)


# (gamma*tau, gain): custom:-10 at the CLI's gamma*tau and gains near the
# full-turn bound at 0.01 and 0.1, whose steps reach |theta| of 1.3-2.7 and
# wrap across +-pi both ways
WIDE_CASES = [(1e-3, -10.0), (0.01, 7.0), (0.01, -5.0), (0.1, 2.2), (0.1, -0.2)]
# the validated regime, then the wide cases
STEPPER_CASES = [(1e-3, g) for g in (0.0, 1.0, 2.0, 0.37)] + WIDE_CASES

# starting angles on either side of s_x = 0, so the record's mixture weight
# 0.5*(1 + s_x) starts above 1/2 in one and below it in the other
STEPPER_PHI0 = [0.3, -2.5]


def stepper_config(gamma_tau, g, n_steps, phi0=0.3, seed=9):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the wide cases warn
        return make_config(
            params=SimParams(gamma=1.0, tau=gamma_tau, alpha=100.0),
            gain=g,
            initial=BlochState(phi0),
            n_steps=n_steps,
            seed=seed,
        )


class TestStep:
    """The scalar stepper `run_trajectory_arrays` against the batched kernel."""

    @pytest.mark.parametrize(
        "g,initial",
        [
            (0.0, BlochState.ground()),
            (2.0, BlochState.excited()),
            (1.0, BlochState.dipole_plus()),
        ],
    )
    def test_stationary_states_exact(self, g, initial):
        config = make_config(gain=g, initial=initial, n_steps=200, seed=3)
        dn, th, phi = run_trajectory_arrays(config, 0)
        assert np.all(dn != 0.0)
        assert np.all(th == 0.0)
        assert np.all(phi == initial.phi)

    @pytest.mark.parametrize("n_steps", [1, 7, 300])
    @pytest.mark.parametrize("gamma_tau,g", STEPPER_CASES)
    @pytest.mark.parametrize("phi0", STEPPER_PHI0)
    def test_final_angle_matches_every_kernel_lane(self, phi0, gamma_tau, g, n_steps):
        config = stepper_config(gamma_tau, g, n_steps, phi0)
        final, _ = kernel(config, 37)
        scalar = [run_trajectory_arrays(config, i)[2][-1] for i in range(37)]
        assert np.array_equal(final, scalar)

    @pytest.mark.parametrize("gamma_tau,g", STEPPER_CASES)
    @pytest.mark.parametrize("phi0", STEPPER_PHI0)
    def test_one_lane_sums_match_scalar_history(self, phi0, gamma_tau, g):
        # a one-lane sum is the lane's own value, so every step is compared
        config = stepper_config(gamma_tau, g, 300, phi0)
        final, sums = kernel(config, 1)
        _, _, phi = run_trajectory_arrays(config, 0)
        assert final[0] == phi[-1]
        assert np.array_equal(sums, history_sums(config.initial.phi, phi))

    @pytest.mark.parametrize("gamma_tau,g", WIDE_CASES)
    def test_wide_cases_wrap_across_pi_both_ways(self, gamma_tau, g):
        # a step that leaves (-pi, pi] upwards and one that leaves it downwards,
        # each brought back by one turn
        config = stepper_config(gamma_tau, g, 300, phi0=-2.5)
        up = down = 0
        for i in range(37):
            _, th, phi = run_trajectory_arrays(config, i)
            moved = np.concatenate([[config.initial.phi], phi[:-1]]) + th
            up += np.count_nonzero(moved > math.pi)
            down += np.count_nonzero(moved <= -math.pi)
            assert np.all((phi > -math.pi) & (phi <= math.pi))
        assert up > 0 and down > 0

    def test_large_angles_are_refused(self):
        # custom:+-10 at gamma*tau = 0.1 could turn one step by more than 2 pi,
        # beyond what a one-turn wrap undoes: refused before the angle warning
        for g, scale in ((10.0, "3.16"), (-10.0, "3.79")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                params = SimParams(gamma=1.0, tau=0.1, alpha=100.0)
                with pytest.raises(ValueError, match=f"rotation scale {scale} lets one step turn"):
                    make_config(params=params, gain=g, n_steps=2000, seed=3)
            assert [str(w.message) for w in caught if "rotation" in str(w.message)] == []


class TestRunTrajectory:
    def test_zero_steps(self):
        arrays = run_trajectory_arrays(make_config(n_steps=0), 0)
        assert [a.shape for a in arrays] == [(0,)] * 3

    def test_deterministic(self):
        config = make_config(seed=12)
        a, b = run_trajectory_arrays(config, 3), run_trajectory_arrays(config, 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_theta_consistent_with_pre_step_state(self):
        config = make_config(n_steps=50, seed=4)
        dn, th, phi = run_trajectory_arrays(config, 0)
        pre_sz = np.cos(np.concatenate([[config.initial.phi], phi[:-1]]))
        assert np.array_equal(th, rotation_angle(pre_sz, dn, PARAMS, 0.0))

    def test_name_perfbench_times_is_the_stepper(self):
        # perfbench's two stepper probes time one function until they move
        # to run_trajectory_arrays
        assert engine.run_trajectory is engine.run_trajectory_arrays

    def test_purity_over_long_run(self):
        config = make_config(n_steps=100_000, seed=5)
        _, _, phi = run_trajectory_arrays(config, 0)
        purity = np.abs(np.sin(phi) ** 2 + np.cos(phi) ** 2 - 1.0)
        assert purity.max() <= 1e-12


class TestDeriveStream:
    """Each trajectory draws from stream (seed, index), in the counter layout
    `streams.draws` documents."""

    def test_distinct_streams(self):
        config = make_config(n_steps=20, seed=42)
        assert not np.array_equal(
            run_trajectory_arrays(config, 0)[0], run_trajectory_arrays(config, 1)[0]
        )

    @pytest.mark.parametrize(
        "g,initial",
        [(0.0, BlochState.excited()), (0.37, BlochState(0.3)), (2.0, BlochState(-2.5))],
    )
    def test_reproducible(self, g, initial):
        alpha = PARAMS.alpha
        mu = math.sqrt(PARAMS.gamma * PARAMS.tau) * alpha
        config = make_config(gain=g, initial=initial, n_steps=50, seed=42)
        dn, _, phi = run_trajectory_arrays(config, 7)
        key = stream_key(42, 7)
        sx = math.sin(config.initial.phi)
        for k in range(config.n_steps):
            u, z = scalar_draw(key, k)
            center = mu if u < 0.5 * (1.0 + sx) else -mu
            assert dn[k] == center + alpha * z, k
            sx = math.sin(phi[k])


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
        tol = 3.0 * res.se_sz[1] / PARAMS.tau
        assert drift == pytest.approx(-2.0, abs=tol)

    def test_one_step_drift_from_dipole(self):
        config = make_config(
            initial=BlochState.dipole_plus(), n_steps=1, n_trajectories=100_000, seed=32
        )
        res = run_ensemble(config)
        drift = (res.mean_sz[1] - res.mean_sz[0]) / PARAMS.tau
        tol = 3.0 * res.se_sz[1] / PARAMS.tau
        assert drift == pytest.approx(-1.0, abs=tol)

    def test_moment_invariants(self):
        res = run_ensemble(make_config(n_trajectories=50, seed=2))
        assert np.all(res.var_sx >= 0.0)
        assert np.all(res.var_sz >= 0.0)
        assert np.all(np.abs(res.mean_sx) <= 1.0)
        assert np.all(np.abs(res.mean_sz) <= 1.0)
        assert res.time[0] == 0.0
        assert res.time[-1] == pytest.approx((len(res.time) - 1) * PARAMS.tau)

    def test_single_trajectory_zero_variance(self):
        res = run_ensemble(make_config(n_steps=20, n_trajectories=1, seed=60))
        for name in ("var_sx", "var_sz", "se_sx", "se_sz"):
            assert np.all(getattr(res, name) == 0.0), name

    def test_identical_trajectories_zero_stderr(self):
        config = make_config(n_steps=20, n_trajectories=1, seed=61)
        row = history_sums(config.initial.phi, run_trajectory_arrays(config, 0)[2])
        res = EnsembleResult.from_sums(row + row + row, 3, config.params.tau)
        # the sum-of-squares variance formula leaves rounding noise of order
        # eps in the variance and so of order sqrt(eps) in the standard error
        noise = 4.0 * np.finfo(float).eps
        for var, se in ((res.var_sx, res.se_sx), (res.var_sz, res.se_sz)):
            assert np.all(var <= noise)
            assert np.all(se <= math.sqrt(noise / 2))

    def test_matches_moments_of_stepper_rows(self):
        # one batch: the kernel sums each step's 40 lanes as one contiguous
        # row, so summing the stepper's angles the same way gives every
        # moment bit for bit
        config = make_config(n_steps=30, n_trajectories=40, seed=63)
        phi = np.array([run_trajectory_arrays(config, i)[2] for i in range(40)])
        # C-ordered rows; a transposed (F-ordered) view would sum in another order
        angles = np.empty((31, 40))
        angles[0] = config.initial.phi
        angles[1:] = phi.T
        sx, sz = np.sin(angles), np.cos(angles)
        sums = np.stack([sx.sum(1), (sx * sx).sum(1), sz.sum(1), (sz * sz).sum(1)], axis=1)
        rebuilt = EnsembleResult.from_sums(sums, 40, config.params.tau)
        direct = run_ensemble(config)
        for name in ("time", *MOMENTS):
            assert np.array_equal(getattr(direct, name), getattr(rebuilt, name)), name

    def test_non_finite_angles_raise(self):
        # at alpha = 1e308, alpha * z would overflow float64 in the kernel once
        # |z| > 1.8; SimParams refuses that alpha before any run is configured
        with pytest.raises(ValueError, match="alpha = 1e\\+308 is too large"):
            SimParams(gamma=1.0, tau=1e-3, alpha=1e308)

    def test_monotone_relaxation_towards_ground(self):
        config = make_config(n_steps=500, n_trajectories=2000, seed=33)
        res = run_ensemble(config)
        slack = 2.0 * (res.se_sz[:-1] + res.se_sz[1:])
        assert np.all(np.diff(res.mean_sz) <= slack)

    def test_thread_count_does_not_change_result(self, monkeypatch):
        # six batches, the last ragged: slabs of 4+2, 3+3, 2+2+2 and 1 x 6
        config = make_config(
            n_trajectories=5 * engine.BATCH_SIZE + 123, n_steps=30, seed=6
        )
        results = {}
        for t in ("1", "2", "3", "4", "7"):
            monkeypatch.setenv("SIM_THREADS", t)
            results[t] = run_ensemble(config)
        for t, res in results.items():
            for name in MOMENTS:
                assert np.array_equal(
                    getattr(results["1"], name), getattr(res, name)
                ), (t, name)

    @pytest.mark.parametrize("cpus,threads", [(2, 2), (None, 1)])
    def test_thread_pool_bounded_by_hardware(self, monkeypatch, cpus, threads):
        # SIM_THREADS far above the CPU count starts no more threads than the
        # process may run on, and the slabs are cut for the threads started:
        # six batches make 3+3 on two threads and 4+2 on one
        pools, slabs = [], []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        advance = engine._advance

        def counted(*args):
            phi, sums = advance(*args)
            slabs.append(len(sums))  # one row of sums per batch of the slab
            return phi, sums

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(engine, "_advance", counted)
        if cpus is None:  # no affinity sets, and an unknown CPU count
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        config = make_config(n_trajectories=5 * engine.BATCH_SIZE + 123, n_steps=5, seed=6)
        results = {}
        for t in ("10000", "1"):
            monkeypatch.setenv("SIM_THREADS", t)
            results[t] = run_ensemble(config)
        assert pools == [threads, 1]
        assert slabs == ([3, 3] if threads == 2 else [4, 2]) + [4, 2]
        for name in MOMENTS:
            assert np.array_equal(getattr(results["10000"], name), getattr(results["1"], name))

    @pytest.mark.parametrize(
        "env,cpus,threads", [(None, 4, 4), ("3", 4, 3), ("10000", 2, 2), (None, None, 1)]
    )
    def test_sim_threads_capped_at_cpu_count(self, monkeypatch, env, cpus, threads):
        # a platform with no affinity sets counts the machine's CPUs
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if env is None:
            monkeypatch.delenv("SIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("SIM_THREADS", env)
        assert engine.sim_threads() == threads

    @pytest.mark.parametrize("env", [None, "2"])
    def test_sim_threads_follows_affinity(self, monkeypatch, env):
        # a process pinned to one CPU of four runs one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        if env is None:
            monkeypatch.delenv("SIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("SIM_THREADS", env)
        assert engine.sim_threads() == 1

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity sets")
    def test_sim_threads_defaults_to_affinity_set(self, monkeypatch):
        # the worker count perfbench gives every child it starts
        monkeypatch.delenv("SIM_THREADS", raising=False)
        assert engine.sim_threads() == len(os.sched_getaffinity(0))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity sets")
    def test_pinned_process_starts_one_worker(self):
        # the child pins only itself to one CPU; at SIM_THREADS=2 it starts
        # one worker, and its moments equal SIM_THREADS=1's bit for bit
        code = """if True:
            import concurrent.futures, os
            from homodyne_feedback import BlochState, RunConfig, SimParams, engine
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            pools = []

            class Recording(concurrent.futures.ThreadPoolExecutor):
                def __init__(self, max_workers):
                    pools.append(max_workers)
                    super().__init__(max_workers)

            concurrent.futures.ThreadPoolExecutor = Recording
            config = RunConfig(
                params=SimParams(gamma=1.0, tau=1e-3, alpha=100.0), initial=BlochState.excited(),
                n_steps=20, n_trajectories=2 * engine.BATCH_SIZE + 123, seed=6,
            )
            moments = []
            for t in ("2", "1"):
                os.environ["SIM_THREADS"] = t
                res = engine.run_ensemble(config)
                moments.append(b"".join(getattr(res, m).tobytes() for m in %r))
            print(pools, moments[0] == moments[1])
        """ % (MOMENTS,)
        paths = (str(Path(engine.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
        )
        assert proc.stdout.strip() == "[1, 1] True"

    # sha256 of the float64 bytes of mean, var and stderr (s_x, s_z each)
    PINNED = "13208a33268eba22ad135c07b8219784db1ca913e6f7909afa30ba630031f820"

    def test_output_bits_pinned(self):
        # two full batches plus a ragged one; a changed bit is an RNG or
        # model change, never an optimisation
        config = make_config(n_steps=40, n_trajectories=2 * engine.BATCH_SIZE + 123, seed=11)
        res = run_ensemble(config)
        h = hashlib.sha256()
        for name in MOMENTS:
            h.update(np.ascontiguousarray(getattr(res, name), dtype=np.float64).tobytes())
        assert h.hexdigest() == self.PINNED

    # the same for custom:0.37 from phi = 0.3, where the feedback term and
    # an off-axis start enter every step's arithmetic
    PINNED_FED = "df638b6c427f30094358bc3c7ec2dbcd156dd9548e80cbc958202f3c9629da06"

    def test_output_bits_pinned_fed(self):
        config = make_config(
            gain=0.37, initial=BlochState(0.3), n_steps=40,
            n_trajectories=2 * engine.BATCH_SIZE + 123, seed=11,
        )
        res = run_ensemble(config)
        h = hashlib.sha256()
        for name in MOMENTS:
            h.update(np.ascontiguousarray(getattr(res, name), dtype=np.float64).tobytes())
        assert h.hexdigest() == self.PINNED_FED

    def test_per_step_angle_variance(self):
        # Var(theta) = gamma*tau*(1+s_z-g)^2*(1+gamma*tau*(1-s_x^2))
        gt = PARAMS.gamma_tau
        from homodyne_feedback import sample_records

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
        from homodyne_feedback import sample_records

        rng = CounterStream(79, 0)
        dn = sample_records(
            BlochState.excited(), PARAMS, SamplingMode.CONDITIONAL, rng, 1_000_000
        )
        theta = rotation_angle(1.0, dn, PARAMS, 0.0)
        ratio = np.var(theta) / (PARAMS.gamma_tau * np.var(dn / PARAMS.alpha))
        assert ratio == pytest.approx(4.0, rel=0.02)


class TestChunking:
    @pytest.mark.parametrize("gamma_tau,g", STEPPER_CASES)
    def test_chunk_size_does_not_change_outputs(self, monkeypatch, gamma_tau, g):
        n, steps = engine.BATCH_SIZE, 40
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the wide cases warn
            params = SimParams(gamma=1.0, tau=gamma_tau, alpha=100.0)
        keys = stream_key(8, np.arange(n, dtype=np.uint64))
        phi0 = np.linspace(-math.pi, math.pi, n)

        chunks = []

        def counted(keys, n_steps):
            for chunk in streams.draws(keys, n_steps):
                chunks.append(chunk[:2])
                yield chunk

        monkeypatch.setattr(engine, "draws", counted)

        def run(expected_chunks):
            chunks.clear()
            got = engine._advance(phi0, keys, params, g, steps)
            assert len(chunks) == expected_chunks
            return got

        reference = run(10)  # 4-step chunks at BATCH_SIZE lanes
        # 1-step chunks, ragged 7-step chunks (40 = 5 * 7 + 5), one chunk
        for budget, expected_chunks in ((n, 40), (7 * n, 6), (steps * n, 1)):
            monkeypatch.setattr(streams, "_WORD_BUDGET", budget)
            for got, want in zip(run(expected_chunks), reference):
                assert np.array_equal(got, want), budget

    @pytest.mark.parametrize("gamma_tau,g", STEPPER_CASES)
    def test_slab_width_does_not_change_batch_sums(self, gamma_tau, g):
        # one slab of three full batches and a ragged one, against each
        # batch advanced alone, up to the widest rotations RunConfig accepts
        n, steps = 3 * engine.BATCH_SIZE + 123, 20
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the wide cases warn
            params = SimParams(gamma=1.0, tau=gamma_tau, alpha=100.0)
            make_config(params=params, gain=g)  # within the kernel's contract
        keys = stream_key(8, np.arange(n, dtype=np.uint64))
        phi0 = np.linspace(-math.pi, math.pi, n)
        final, sums = engine._advance(phi0, keys, params, g, steps)
        assert sums.shape == (4, steps + 1, 4)
        for b, i0 in enumerate(range(0, n, engine.BATCH_SIZE)):
            lanes = slice(i0, i0 + engine.BATCH_SIZE)
            alone, (batch,) = engine._advance(phi0[lanes], keys[lanes], params, g, steps)
            assert np.array_equal(final[lanes], alone), b
            assert np.array_equal(sums[b], batch), b
            # the first and last rows against the batch's own 1-D sums
            for k, angles in ((0, phi0[lanes]), (steps, final[lanes])):
                sx, sz = np.sin(angles), np.cos(angles)
                own = [sx.sum(), (sx * sx).sum(), sz.sum(), (sz * sz).sum()]
                assert np.array_equal(sums[b, k], own), (b, k)


class TestBufferedDraws:
    # (word budget in steps of lanes, the chunks 8 steps are drawn in):
    # one step a chunk, a ragged last chunk, and a budget past n_steps
    CHUNKINGS = [
        (1, [(k, k + 1) for k in range(8)]),
        (3, [(0, 3), (3, 6), (6, 8)]),
        (5, [(0, 5), (5, 8)]),
        (100, [(0, 8)]),
    ]

    @pytest.mark.parametrize("budget,expected", CHUNKINGS)
    def test_buffers_match_allocating_path_and_scalar_streams(
        self, monkeypatch, budget, expected
    ):
        # lanes not a multiple of BATCH_SIZE; every chunk is drawn into the
        # same buffers
        n, seed, steps = engine.BATCH_SIZE + 37, 4, 8
        monkeypatch.setattr(streams, "_WORD_BUDGET", budget * n)
        keys = stream_key(seed, np.arange(n, dtype=np.uint64))
        chunks = []
        for k0, k1, u, z in streams.draws(keys, steps):
            chunks.append((k0, k1))
            assert u.shape == z.shape == (k1 - k0, n)
            assert u.flags.c_contiguous and z.flags.c_contiguous
            if k0 == 0:
                first_u, first_z = u, z
            # one allocation per call, the counter plane and its scratch: u
            # and z of every chunk are views of planes 0 and 1 in it
            assert np.shares_memory(u, first_u) and np.shares_memory(z, first_z)
            assert u.base is z.base is first_z.base
            self._check_chunk(keys, seed, k0, k1, u, z)
        assert chunks == expected
        assert list(streams.draws(keys, 0)) == []

    @staticmethod
    def _check_chunk(keys, seed, k0, k1, u, z):
        """The chunk against the allocating raw_words/to_unit/box_muller
        path and against each sampled lane's words taken one counter at a
        time."""
        base = (np.arange(k0, k1, dtype=np.uint64) * np.uint64(3))[:, None]

        def unit(offset):
            return to_unit(raw_words(keys, base + np.uint64(offset)))

        assert np.array_equal(z, box_muller(unit(1), unit(2)))
        assert u.shape == z.shape and np.array_equal(u, unit(0))
        n = len(keys)
        for j in (0, engine.BATCH_SIZE - 1, engine.BATCH_SIZE, n - 1):
            for i in range(k1 - k0):
                assert (u[i, j], z[i, j]) == scalar_draw(stream_key(seed, j), k0 + i), (i, j)

    def test_each_transform_runs_once_per_chunk(self, monkeypatch):
        # the chunk's words are one plane, so raw_words, to_unit and
        # box_muller each run once over it
        calls = []
        for name in ("raw_words", "to_unit", "box_muller"):
            def counted(*args, _f=getattr(streams, name), _name=name, **kw):
                calls.append(_name)
                return _f(*args, **kw)

            monkeypatch.setattr(streams, name, counted)
        monkeypatch.setattr(streams, "_WORD_BUDGET", 3 * 64)
        keys = stream_key(4, np.arange(64, dtype=np.uint64))
        chunks = [k0 for k0, _, _, _ in streams.draws(keys, 8)]
        assert chunks == [0, 3, 6]
        assert calls == ["raw_words", "to_unit", "box_muller"] * 3

    # tracemalloc peaks (MiB) of the five-buffer layout this plane replaced,
    # whose five 256 KiB buffers also sat beside a theta lane array in the kernel
    FIVE_BUFFER_PEAK_MIB = {1: 2.004, 4096: 1.479, 16384: 1.964}

    @staticmethod
    def _peak(run):
        run()  # first-call allocations that later runs reuse
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("lanes", sorted(FIVE_BUFFER_PEAK_MIB))
    def test_draw_memory_no_worse_at_any_width(self, lanes):
        # draws over 100,000 steps at one lane, the kernel over 50 at a batch and a slab
        keys = stream_key(1, np.arange(lanes, dtype=np.uint64))
        if lanes == 1:
            def run():
                for _ in streams.draws(keys, 100_000):
                    pass
        else:
            phi0 = np.zeros(lanes)

            def run():
                engine._advance(phi0, keys, PARAMS, 0.0, 50)
        assert self._peak(run) <= self.FIVE_BUFFER_PEAK_MIB[lanes] * 2**20

    def test_slab_holds_its_workspace_and_two_draw_buffers(self):
        # a 16,384-lane slab draws one step a chunk: per lane, phi, s_x, s_z,
        # tmp (8 B each) and the mask (1 B) beside the plane and its scratch
        # (3 words each), and nothing more but numpy's ~64 KiB casting
        # buffer; a theta lane array would add 128 KiB.  The bound, 1.39 MiB,
        # is 29% below the five-buffer layout's 1.96 MiB.
        n = 4 * engine.BATCH_SIZE
        keys = stream_key(1, np.arange(n, dtype=np.uint64))
        phi0 = np.zeros(n)
        peak = self._peak(lambda: engine._advance(phi0, keys, PARAMS, 0.0, 50))
        assert peak <= (4 * 8 + 1 + 2 * 3 * 8) * n + 2**17

    def test_advance_does_not_fault_per_chunk(self):
        # freed per-chunk draw arrays went back to the OS and faulted in
        # again every chunk: 22,528 minor faults over this run
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RUSAGE_THREAD"):
            pytest.skip("per-thread rusage is not available")
        n = 4 * engine.BATCH_SIZE
        keys = stream_key(1, np.arange(n, dtype=np.uint64))
        phi0 = np.zeros(n)
        engine._advance(phi0, keys, PARAMS, 0.0, 20)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        engine._advance(phi0, keys, PARAMS, 0.0, 200)
        faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
        assert faults < 2000


class TestAlphaRange:
    # SimParams accepts alpha while 10 alpha is finite and the record centre
    # sqrt(gamma*tau)*alpha is a normal float
    GT = 1e-3
    HIGH = float(np.finfo(float).max / 10)

    @staticmethod
    def low(gt):
        """The least alpha whose record centre sqrt(gt)*alpha is a normal float."""
        tiny = np.finfo(float).tiny
        a = tiny / math.sqrt(gt)
        while math.sqrt(gt) * a < tiny:
            a = np.nextafter(a, math.inf)
        while math.sqrt(gt) * np.nextafter(a, 0.0) >= tiny:
            a = np.nextafter(a, 0.0)
        return float(a)

    def test_first_alpha_past_each_bound_is_refused(self):
        low = self.low(self.GT)
        for alpha in (self.HIGH, low):
            SimParams(gamma=1.0, tau=self.GT, alpha=alpha)
        with pytest.raises(ValueError, match="too large: 10\\*alpha overflows float64"):
            SimParams(gamma=1.0, tau=self.GT, alpha=float(np.nextafter(self.HIGH, math.inf)))
        with pytest.raises(ValueError, match="too small: its record centre is subnormal"):
            SimParams(gamma=1.0, tau=self.GT, alpha=float(np.nextafter(low, 0.0)))

    @pytest.mark.parametrize("end", ["high", "low"])
    def test_accepted_ends_run_as_alpha_100(self, end):
        # every record lies within +-8.97 alpha, so at either end the kernel,
        # the stepper and the sampler raise no float warning, and records
        # scaled by 1/alpha agree with alpha = 100's to rounding (a subnormal
        # centre, alpha = 1e-310, is off by ~5e-14 in mean_sz)
        alpha = self.HIGH if end == "high" else self.low(self.GT)
        runs = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (alpha, 100.0):
                params = SimParams(gamma=1.0, tau=self.GT, alpha=a)
                config = make_config(params=params, n_steps=200, n_trajectories=4096, seed=3)
                res = run_ensemble(config)
                dn, _, phi = run_trajectory_arrays(config, 0)
                records = sample_records(
                    BlochState.dipole_plus(), params, SamplingMode.CONDITIONAL,
                    CounterStream(5), 10_000,
                )
                runs[a] = (res.mean_sx, res.mean_sz, res.var_sz, phi, dn / a, records / a)
        for got, want in zip(runs[alpha], runs[100.0]):
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


class TestRotationRange:
    """RunConfig refuses a (gamma*tau, g) whose step could turn by 2 pi:
    sqrt(gt) * (sqrt(gt) + Z_MAX) * max(|2 - g|, |g|) within 1e-12 of it."""

    @staticmethod
    def refused(gt, g):
        """Whether RunConfig refuses gain g at gamma*tau = gt, and the
        rotation warnings it gave."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            params = SimParams(gamma=1.0, tau=gt, alpha=100.0)
            try:
                make_config(params=params, gain=g)
                refused = False
            except ValueError as exc:
                assert "lets one step turn by a full circle" in str(exc)
                refused = True
        return refused, [w for w in caught if "rotation scale" in str(w.message)]

    @classmethod
    def edge(cls, gt, side):
        """The accepted gain farthest out on one side (+1 or -1) at gt."""
        sqrt_gt = math.sqrt(gt)
        width = 2.0 * math.pi * (1.0 - 1e-12) / (sqrt_gt * (sqrt_gt + streams.Z_MAX))
        g = 1.0 + side * (width - 1.0)  # max(|2 - g|, |g|) = width
        out = side * math.inf
        while not cls.refused(gt, g)[0]:
            g = float(np.nextafter(g, out))
        while cls.refused(gt, g)[0]:
            g = float(np.nextafter(g, -out))
        return g

    @pytest.mark.parametrize(
        "gt,low,high", [(0.01, -5.179, 7.179), (0.1, -0.2155, 2.2155), (1e-3, -20.88, 22.88)]
    )
    def test_first_gain_past_each_bound_is_refused_before_warning(self, gt, low, high):
        for side, expected in ((-1, low), (1, high)):
            g = self.edge(gt, side)
            assert g == pytest.approx(expected, abs=1e-3)
            refused, warned = self.refused(gt, float(np.nextafter(g, side * math.inf)))
            assert refused and warned == []
            # the largest accepted gain runs, both ways, and wraps by one turn
            config = stepper_config(gt, g, 200, phi0=-2.5)
            final, sums = kernel(config, 1)
            _, _, phi = run_trajectory_arrays(config, 0)
            assert np.all((phi > -math.pi) & (phi <= math.pi))
            assert final[0] == phi[-1]
            assert np.array_equal(sums, history_sums(config.initial.phi, phi))

    # |g| <= 10 at every gamma*tau <= 3.6e-3 (g = -10 binds, with
    # max(|2 - g|, |g|) = 12); g = 0 and 2 below gamma*tau = 0.1218, g = 1
    # below 0.4539 (max(|2 - g|, |g|) is 2 and 1)
    @pytest.mark.parametrize(
        "gt,g",
        [(3.6e-3, -10.0), (3.6e-3, 10.0), (0.1, 0.0), (0.1, 2.0), (0.1217, 0.0), (0.1217, 2.0),
         (0.4538, 1.0)],
    )
    def test_accepted(self, gt, g):
        assert self.refused(gt, g)[0] is False

    @pytest.mark.parametrize("gt,g", [(0.1219, 0.0), (0.1219, 2.0), (0.454, 1.0), (0.99, 1.0)])
    def test_refused(self, gt, g):
        assert self.refused(gt, g)[0] is True


def _engine_calls(function=None):
    """Names of the functions engine.py, or its named function, calls."""
    tree = ast.parse(Path(engine.__file__).read_text())
    if function is not None:
        tree = next(n for n in tree.body if getattr(n, "name", None) == function)
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            called.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    return called


def test_engine_runs_under_numpy_default_error_state():
    # SimParams bounds alpha so that no kernel float overflows; a silenced
    # error state would hide a future overflow from the RuntimeWarning filter
    assert "errstate" not in _engine_calls()


def test_engine_wraps_by_one_turn():
    # RunConfig bounds a step's rotation below 2 pi, so one turn wraps every
    # angle the kernel and the stepper compute; a full reduction (remainder,
    # or BlochState's wrap of a given angle) is dead code
    assert not {"remainder", "BlochState"} & _engine_calls()


def test_kernel_step_draws_records_and_rotations_from_their_modules():
    # the record and the rotation each have one array form, in measurement
    # and bloch; the kernel's step spells out neither (no centre, no division)
    calls = _engine_calls("_advance")
    assert {"conditional_records", "rotation_angle"} <= calls
    assert not {"record_shift", "divide"} & calls


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
            make_config(gain=g)
        assert len(caught) == 1

    @pytest.mark.parametrize("g", [0.0, 1.0, 2.0, 9.0])
    def test_default_and_benchmark_configs_are_silent(self, g):
        # the CLI defaults, the benchmark and `hdsim validate` all run at
        # gamma*tau = 1e-3 with gains in [0, 2]; custom:9 is just below 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_config(gain=g)
