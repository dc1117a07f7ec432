"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans as sp  # noqa: E402
import traced_run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
THREADS = 2


def small_ops() -> list[wl.Op]:
    """One operation of each kind, small enough for a test."""
    return [
        wl.simulate_op("ensemble/small", "none", "excited", 20, 2 * 4096 + 5, seed=5),
        wl.oracle_op(6.0, "vacuum"),
        wl.oracle_op(6.0, "qubit", c0=complex(0.6), c1=0.8j),
    ]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [sp.Span(1, "engine.run_ensemble", "engine", 0, 100, 0, 1),
             sp.Span(2, "streams.raw_words", "streams", 10, 50, 1, 2),
             sp.Span(3, "streams.raw_words", "streams", 30, 70, 1, 3),
             sp.Span(4, "streams.to_unit", "streams", 90, 120, 1, 2)]
    own = sp.self_times(spans)
    assert own == {1: 100 - 60 - 10, 2: 40, 3: 40, 4: 30}


def test_spans_nest_with_nonnegative_self_time(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", str(THREADS))
    from homodyne_feedback import cli, engine

    original = engine.run_ensemble
    tracer = sp.Tracer()
    with tracer.installed():
        assert cli.main(["simulate", "--steps", "5", "--trajectories", str(3 * 4096),
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert cli.main(["oracle", "--alpha", "4", "--out", str(tmp_path / "p.csv")]) == 0
    assert engine.run_ensemble is original and cli.run_ensemble is original

    by_id = {s.sid: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent:
            p = by_id[s.parent]
            assert p.start <= s.start and s.end <= p.end, (s, p)
    assert all(t >= 0 for t in sp.self_times(tracer.spans).values())
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "engine.run_ensemble", "streams.raw_words", "fock.delta_n_pmf"} <= names
    # worker-thread RNG spans hang under run_ensemble
    ens = {s.sid for s in tracer.spans if s.name == "engine.run_ensemble"}
    keyed = [s for s in tracer.spans if s.name == "streams.stream_key" and s.parent in ens]
    assert len(keyed) == 3


@pytest.fixture(scope="module")
def both_runs(tmp_path_factory):
    """The small operations run untraced (subprocesses) and traced (in process)."""
    work = tmp_path_factory.mktemp("bench")
    env = run.child_env(ROOT, THREADS)
    deadline = time.monotonic() + 170
    facts = run.gather_facts(ROOT, work, env, deadline)
    plain = run.untraced(ROOT, work, env, small_ops(), 7, 0.0, deadline)
    traced = traced_run.run(ROOT, work, small_ops(), THREADS)
    return work, facts, plain, traced


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit(both_runs):
    _, facts, (metrics, passes, _), _ = both_runs
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())
    assert [e for p in passes for r in p for e in r.errors] == []
    assert {e["id"] for e in facts["ledger"]} == {"oracle-alpha-40", "oracle-summary-tv"}


def test_traced_run_emits_every_per_layer_metric_with_its_unit(both_runs):
    _, _, _, (metrics, passes, extra) = both_runs
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert [e for p in passes for r in p for e in r.errors] == []
    assert metrics["engine.run_ensemble.batches"]["value"] == 4
    assert [row["threads"] for row in extra["thread_sweep"]] == list(range(1, THREADS + 1))


def test_traced_and_untraced_outputs_have_identical_digests(both_runs):
    work, _, _, _ = both_runs
    for op in small_ops():
        d = op.slug
        for out in op.outputs:
            assert wl.sha256(work / "pass0" / d / out) == wl.sha256(work / "traced" / d / out)


def test_default_seed_pins_every_output():
    pins = wl.load_pins()
    for name in wl.WORKLOADS:
        for op in wl.build(name, wl.DEFAULT_SEED):
            assert all(op.pin_key(out) in pins for out in op.outputs), op.name


def test_inputs_depend_on_the_seed_only():
    assert [o.argv for o in wl.build("oracle", 4)] == [o.argv for o in wl.build("oracle", 4)]
    assert [o.argv for o in wl.build("ensemble", 4)] != [o.argv for o in wl.build("ensemble", 5)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
