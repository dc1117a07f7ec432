"""The traced run (--trace 1): per-layer metrics.

The workload's operations run in this process through `cli.main`, once
untraced and once under a `spans.Tracer`; the difference in wall time is
the tracing overhead.  Both passes are checked like the untraced benchmark,
and their output digests must agree.  The layer probes, the thread sweep
and the timed acceptance checks follow (layers.py); each acceptance
criterion counts as one operation.

Span-derived metrics cover what this workload calls: a layer's self time
and, per oracle case, the beamsplitter time, the pmf reduction time
(`delta_n_pmf` minus its beamsplitter call), the output dimension and the
beamsplitter's peak allocation (replayed under tracemalloc after the timed
passes).  They read 0 on workloads that make no such call.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
import tracemalloc
from pathlib import Path

import spans as sp
import workloads as wl

# (substring, unit), first match wins
UNITS = (("ns_per_", "ns"), ("us_per_", "us"), ("_mb", "MB"), (".bytes", "B"),
         ("speedup", "ratio"), ("share", "ratio"), ("batches", "count"), ("workers", "count"),
         ("output_dim", "count"), ("spans", "count"), ("_s", "s"), (".s", "s"))


def unit_of(name: str) -> str:
    for key, unit in UNITS:
        if key in name:
            return unit
    raise KeyError(f"no unit for metric {name!r}")


def _run_pass(cli, ops: list[wl.Op], root: Path, pins: dict) -> tuple[float, list[wl.OpResult]]:
    results = []
    start = time.perf_counter()
    for op in ops:
        d = root / op.slug
        d.mkdir(parents=True)
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op.args(d))
            except Exception as exc:  # a crashed operation is a failed operation
                err.write(repr(exc))
                rc = -1
        launch = wl.Launch(time.perf_counter() - t0, 0.0, float("nan"), rc, err.getvalue())
        results.append(wl.evaluate(op, d, launch, pins))
    return time.perf_counter() - start, results


def _digests(root: Path, results: list[wl.OpResult]) -> dict[str, str]:
    return {f"{r.op.name}/{out}": wl.sha256(root / r.op.slug / out)
            for r in results for out in r.op.outputs
            if (root / r.op.slug / out).exists()}


def span_metrics(spans: list[sp.Span]) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer self time and per-case fock figures."""
    own = sp.self_times(spans)
    metrics = {f"{layer}.self_s": s for layer, s in sp.layer_self_seconds(spans).items()}
    cases: dict[str, dict] = {}
    for s in spans:
        if "case" in s.meta:
            c = cases.setdefault(s.meta["case"], {"beamsplitter_s": 0.0, "reduce_s": 0.0, "dim": 0})
            if s.name == "fock.beamsplitter_output":
                c["beamsplitter_s"] += (s.end - s.start) / 1e9
                c["dim"] = max(c["dim"], s.meta["dim"])
                c.setdefault("call", s.meta["call"])
            else:
                c["reduce_s"] += own[s.sid] / 1e9
    return metrics, cases


def replay_peak_alloc(fock, cases: dict[str, dict]) -> None:
    """Peak traced allocation of one beamsplitter_output call per case.

    Coherent sources are skipped: their triple loop runs about 12 times
    slower under tracemalloc (20-40 s a call), and their outputs are small."""
    for case, c in cases.items():
        args, kwargs = c.pop("call", ((), {}))
        if not args or case.startswith("coherent"):
            continue
        tracemalloc.start()
        try:
            fock.beamsplitter_output(*args, **kwargs)
            c["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def run(root: Path, work: Path, ops: list[wl.Op], threads: int):
    sys.path.insert(0, str(root / "src"))
    os.environ["SIM_THREADS"] = str(threads)
    from homodyne_feedback import cli, fock

    import layers

    pins = wl.load_pins()
    plain_s, plain = _run_pass(cli, ops, work / "untraced", pins)
    tracer = sp.Tracer()
    with tracer.installed():
        traced_s, traced = _run_pass(cli, ops, work / "traced", pins)
    if _digests(work / "untraced", plain) != _digests(work / "traced", traced):
        for r in traced:
            r.errors.append(f"{r.op.name}: traced and untraced outputs differ")
    for r, p in zip(traced, plain):
        r.errors += [f"untraced: {e}" for e in p.errors]

    metrics, cases = span_metrics(tracer.spans)
    replay_peak_alloc(fock, cases)
    for case in wl.ORACLE_CASES:
        c = cases.get(case, {})
        metrics[f"fock.beamsplitter_output.s.{case}"] = c.get("beamsplitter_s", 0.0)
        metrics[f"fock.delta_n_pmf.reduce_s.{case}"] = c.get("reduce_s", 0.0)
        metrics[f"fock.output_dim.{case}"] = c.get("dim", 0)
        if not case.startswith("coherent"):
            metrics[f"fock.beamsplitter_output.peak_alloc_mb.{case}"] = c.get("peak_alloc_mb", 0.0)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    metrics["trace.spans"] = len(tracer.spans)

    probes, sweep = layers.probe_all(threads, work)
    metrics |= probes
    checks = layers.probe_validation()
    for name, (seconds, passed, detail) in checks.items():
        metrics[f"validation.{name}.s"] = seconds
        op = wl.Op(f"validation/{name}", [], (), lambda d: [])
        traced.append(wl.OpResult(op, wl.Launch(seconds, 0.0, float("nan"), 0, ""),
                                  [] if passed else [f"criterion failed: {detail}"]))
    for row in sweep:
        print(f"thread sweep: SIM_THREADS={row['threads']} {row['ns_per_traj_step']:.2f} ns/traj-step "
              f"speedup {row['speedup']:.3f} batches {row['batches']} "
              f"per worker {row['batches_per_worker']:g} (not an end-to-end metric: "
              f"{threads} shared cores)")
    print(f"tracing overhead: traced pass {traced_s:.3f} s, untraced pass {plain_s:.3f} s, "
          f"{len(tracer.spans)} spans")

    extra = {"spans": [s.as_dict() for s in tracer.spans], "thread_sweep": sweep,
             "fock_cases": cases, "untraced_pass_s": plain_s, "traced_pass_s": traced_s}
    out = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}
    return out, [traced], extra
