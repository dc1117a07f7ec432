"""Layer probes for the traced run: fixed-size calls into each layer's
public functions, timed from outside.  The same probes run on every
workload, so their figures compare across workloads and commits.

Each probe reports the median of a few repeats.  RNG probes use the shape
the engine's kernel uses for a batch (BATCH_SIZE lanes by PROBE_STEPS
steps), and the engine sweep runs that shape at every thread count from 1
to nproc, so the RNG share of a kernel step compares like with like.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from homodyne_feedback import bloch, cli, engine, measurement, streams, validation
from homodyne_feedback.bloch import BlochState, SimParams
from homodyne_feedback.engine import RunConfig

import spans as sp
from workloads import ENSEMBLE_STEPS, WORDS_PER_STEP

PARAMS = SimParams(1.0, 1e-3, 100.0)
PROBE_STEPS = 250
PROBE_BATCHES = 4
REPEATS = 3


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@contextlib.contextmanager
def sim_threads(n: int):
    saved = os.environ.get("SIM_THREADS")
    os.environ["SIM_THREADS"] = str(n)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("SIM_THREADS", None)
        else:
            os.environ["SIM_THREADS"] = saved


def probe_streams(seed: int = 1) -> dict[str, float]:
    lanes = engine.BATCH_SIZE
    keys = streams.stream_key(seed, np.arange(lanes, dtype=np.uint64))
    base = (np.arange(PROBE_STEPS, dtype=np.uint64) * np.uint64(WORDS_PER_STEP))[:, None]
    n = PROBE_STEPS * lanes
    words = streams.raw_words(keys, base)
    u1 = streams.to_unit(words)
    u2 = streams.to_unit(streams.raw_words(keys, base + np.uint64(1)))
    raw = _median_s(lambda: streams.raw_words(keys, base)) / n
    unit = _median_s(lambda: streams.to_unit(words)) / n
    normal = _median_s(lambda: streams.box_muller(u1, u2)) / n
    index = np.arange(1_000_000, dtype=np.uint64)
    key = _median_s(lambda: streams.stream_key(seed, index)) / len(index)
    return {
        "streams.raw_words.ns_per_word": raw * 1e9,
        "streams.to_unit.ns_per_word": unit * 1e9,
        "streams.box_muller.ns_per_normal": normal * 1e9,
        "streams.stream_key.ns_per_key": key * 1e9,
        # per trajectory-step: three words, three conversions, one normal
        "streams.rng_ns_per_traj_step": (WORDS_PER_STEP * (raw + unit) + normal) * 1e9,
    }


def probe_engine(threads: int) -> tuple[dict[str, float], list[dict]]:
    n = PROBE_BATCHES * engine.BATCH_SIZE
    config = RunConfig(params=PARAMS, n_steps=PROBE_STEPS, n_trajectories=n, seed=3)
    sweep = []
    for t in range(1, threads + 1):
        # Timed under the tracer, which adds a few spans per batch (microseconds),
        # so that batches and workers are counted on the timed calls.
        tracer = sp.Tracer()
        with sim_threads(t), tracer.installed():
            wall = _median_s(lambda: engine.run_ensemble(config))
        keyed = [s for s in tracer.spans if s.name == "streams.stream_key"]
        batches = len(keyed) // REPEATS
        workers = len({s.thread for s in keyed[-batches:]})  # last call's pool
        sweep.append({"threads": t, "ns_per_traj_step": wall / (n * PROBE_STEPS) * 1e9,
                      "batches": batches, "workers": workers,
                      "batches_per_worker": batches / workers})
    for row in sweep:
        row["speedup"] = sweep[0]["ns_per_traj_step"] / row["ns_per_traj_step"]
    top = sweep[-1]

    # Peak allocation at the ensemble workload's shape, one batch per worker.
    with sim_threads(threads):
        big = RunConfig(params=PARAMS, n_steps=ENSEMBLE_STEPS,
                        n_trajectories=threads * engine.BATCH_SIZE, seed=3)
        tracemalloc.start()
        try:
            engine.run_ensemble(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        wide = RunConfig(params=PARAMS, n_steps=1, n_trajectories=1_000_000, seed=4)
        wide_s = _median_s(lambda: engine.run_ensemble(wide))

    single = RunConfig(params=PARAMS, n_steps=5000, seed=5)
    arrays = _median_s(lambda: engine.run_trajectory_arrays(single, 0)) / single.n_steps
    short = RunConfig(params=PARAMS, n_steps=2000, seed=6)
    records = _median_s(lambda: engine.run_trajectory(short, 0)) / short.n_steps
    return {
        "engine.run_ensemble.ns_per_traj_step.t1": sweep[0]["ns_per_traj_step"],
        "engine.run_ensemble.ns_per_traj_step.tN": top["ns_per_traj_step"],
        "engine.run_ensemble.thread_speedup": top["speedup"],
        "engine.run_ensemble.batches": top["batches"],
        "engine.run_ensemble.workers": top["workers"],
        "engine.run_ensemble.batches_per_worker": top["batches_per_worker"],
        "engine.run_ensemble.peak_alloc_mb": peak / 2**20,
        "engine.run_ensemble.wide_s": wide_s,
        "engine.run_trajectory_arrays.us_per_step": arrays * 1e6,
        "engine.run_trajectory.us_per_step": records * 1e6,
    }, sweep


def probe_records() -> dict[str, float]:
    state = BlochState(0.7)
    n = 1_000_000
    rec = _median_s(lambda: measurement.sample_records(
        state, PARAMS, measurement.SamplingMode.CONDITIONAL, streams.CounterStream(7, 0), n)) / n
    s_z = np.cos(np.linspace(-math.pi, math.pi, n))
    dn = np.linspace(-300.0, 300.0, n)
    rot = _median_s(lambda: bloch.rotation_angle(s_z, dn, PARAMS, 1.0)) / n
    return {"measurement.sample_records.ns_per_record": rec * 1e9,
            "bloch.rotation_angle.ns_per_value": rot * 1e9}


def probe_cli(threads: int, work: Path) -> dict[str, float]:
    n, steps = engine.BATCH_SIZE, PROBE_STEPS
    config = RunConfig(params=PARAMS, n_steps=steps, n_trajectories=n, seed=8)
    with tempfile.TemporaryDirectory(dir=work) as tmp, \
            sim_threads(threads), contextlib.redirect_stderr(io.StringIO()):
        out = Path(tmp) / "stats.csv"
        argv = ["simulate", "--steps", str(steps), "--trajectories", str(n), "--seed", "8",
                "--out", str(out)]
        overhead = _median_s(lambda: cli.main(argv)) - _median_s(lambda: engine.run_ensemble(config))
        dump = Path(tmp) / "dump.csv"
        tracer = sp.Tracer()
        with tracer.installed():
            cli.main(["simulate", "--steps", "1000", "--trajectories", "20", "--seed", "9",
                      "--out", str(out), "--dump-trajectories", str(dump)])
        write_s = sp.layer_self_seconds(tracer.spans)["cli"]
        size = dump.stat().st_size
    return {"cli.simulate.overhead_s": overhead, "cli.dump.write_s": write_s,
            "cli.dump.bytes": size}


def probe_validation() -> dict[str, tuple[float, bool, str]]:
    """Each acceptance check, timed: name -> (seconds, passed, detail).
    A check that raises counts as failed, as in `validation.run_all`."""
    out = {}
    for check in validation.CHECKS:
        t0 = time.perf_counter()
        try:
            result = check()
            passed, detail = result.passed, result.detail
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"error: {exc!r}"
        out[check.__name__.removeprefix("check_")] = (time.perf_counter() - t0, passed, detail)
    return out


def probe_all(threads: int, work: Path) -> tuple[dict[str, float], list[dict]]:
    metrics = probe_streams()
    engine_metrics, sweep = probe_engine(threads)
    metrics |= engine_metrics
    metrics["streams.rng_share_of_step"] = (
        metrics["streams.rng_ns_per_traj_step"] / metrics["engine.run_ensemble.ns_per_traj_step.t1"])
    metrics |= probe_records()
    metrics |= probe_cli(threads, work)
    return metrics, sweep
