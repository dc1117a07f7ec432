"""Benchmark for the hdsim simulator: closed-loop CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {ensemble,oracle}
        --seed N --seconds S --trace {0,1}

One client runs one operation at a time; each operation is an `hdsim`
subprocess with SIM_THREADS set to the number of usable cores.  Passes over
the workload's operations repeat until at least S seconds of operations have
been measured (at least one whole pass).  Every output is checked, and the
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones:
  wall_s       median wall time of one pass, summed over its operations
               (launch to exit)
  setup_s      median time from process launch to homodyne_feedback.cli
               imported, over every launch of the run
  peak_rss_mb  highest max-RSS of any operation's process
With --trace 1 the same operations run in this process, once untraced and
once traced, followed by the layer probes; the metrics are the per-layer
ones (see traced_run.py and layers.py).

Failed operations (bad exit code, failed check, digest mismatch, failed
acceptance criterion in the traced run) are reported as `failed` out of
`attempted`.  Each run also prints the trajectory-steps per second, the
error rate, the known-defect ledger (facts.py) and a manifest of the
machine and program, and writes them with the result to
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 3  # import-only launches make up any shortfall of operations
RUN_DEADLINE_S = 170.0


class Runner:
    """Launches hdsim subprocesses through shim.py and times them."""

    def __init__(self, root: Path, work: Path, env: dict, deadline: float):
        self.root, self.work, self.env, self.deadline = root, work, env, deadline
        self.count = 0

    def launch(self, argv: list[str], threads: int | None = None) -> wl.Launch:
        self.count += 1
        stamp = self.work / f"stamp{self.count}"
        err_path = self.work / f"err{self.count}"
        env = dict(self.env, SIM_THREADS=str(threads)) if threads else self.env
        with open(err_path, "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "shim.py"), str(stamp), *argv],
                                    env=env, stdout=subprocess.DEVNULL, stderr=err, cwd=self.root)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # without a stamp the process never finished set-up: all of it was set-up
        setup = float(stamp.read_text()) - t0 if stamp.exists() else t1 - t0
        return wl.Launch(t1 - t0, setup, usage.ru_maxrss / 1024.0, proc.returncode,
                         err_path.read_text())


def run_op(runner: Runner, op: wl.Op, d: Path, pins: dict, threads: int | None = None) -> wl.OpResult:
    d.mkdir(parents=True, exist_ok=True)
    return wl.evaluate(op, d, runner.launch(op.args(d), threads), pins)


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ, SIM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def gather_facts(root: Path, work: Path, env: dict, deadline: float) -> dict:
    """Run facts.py; it is also the run's warm-up, which pages in the
    interpreter and the package before anything is timed."""
    return json.loads(subprocess.run(
        [sys.executable, str(HERE / "facts.py"), str(work)], env=env, cwd=root,
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        check=True).stdout)


def untraced(root: Path, work: Path, env: dict, ops: list[wl.Op], seed: int, seconds: float,
             deadline: float) -> tuple[dict, list[list[wl.OpResult]], list[float]]:
    runner = Runner(root, work, env, deadline)
    threads = int(env["SIM_THREADS"])
    pins = wl.load_pins()
    setups = [runner.launch([]).setup for _ in range(MIN_SETUP_SAMPLES - len(ops))]
    passes: list[list[wl.OpResult]] = []
    measured = 0.0
    while not passes or measured < seconds:
        results = [run_op(runner, op, work / f"pass{len(passes)}" / op.slug, pins)
                   for op in ops]
        measured += sum(r.launch.wall for r in results)
        passes.append(results)

    # Thread-count invariance: rerun one of the first pass's ensembles (picked
    # by the seed, so every policy is covered across seeds) on one thread.
    invariant = [r for r in passes[0] if r.op.threads_invariant]
    if threads > 1 and invariant:
        r = invariant[seed % len(invariant)]
        d = work / "threads1" / r.op.slug
        one = run_op(runner, r.op, d, {}, threads=1)
        first = work / "pass0" / r.op.slug
        for out in r.op.outputs:
            if not (d / out).exists() or wl.sha256(d / out) != wl.sha256(first / out):
                r.errors.append(f"{r.op.name}: {out} differs between SIM_THREADS=1 and {threads}")
        r.errors += one.errors

    setups += [r.launch.setup for p in passes for r in p]
    metrics = {
        "wall_s": statistics.median(sum(r.launch.wall for r in p) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.launch.rss_mb for p in passes for r in p),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, passes, setups


def write_pins(runner: Runner, workload: str) -> None:
    """Replace the workload's digests in pins.json with those of its outputs
    at the default seed."""
    pins = {k: v for k, v in wl.load_pins().items() if not k.startswith(workload + "/")}
    for op in wl.build(workload, wl.DEFAULT_SEED):
        d = runner.work / op.slug
        d.mkdir(parents=True)
        if runner.launch(op.args(d)).rc != 0:
            raise SystemExit(f"{op.name} failed; no pins written")
        pins.update({op.pin_key(out): wl.sha256(d / out) for out in op.outputs})
    wl.PINS_FILE.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")


def _cache_bytes(level: int) -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        try:
            if int((idx / "level").read_text()) == level and (idx / "type").read_text().strip() != "Instruction":
                size = (idx / "size").read_text().strip()
                return int(size[:-1]) * {"K": 1024, "M": 1 << 20}[size[-1]] if size[-1] in "KM" else int(size)
        except (OSError, ValueError):
            continue
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def manifest(root: Path, workload: str, seed: int, threads: int, trace: int, facts: dict) -> dict:
    l2, l3 = _cache_bytes(2), _cache_bytes(3)
    computed = dict(facts["computed"])
    per_chunk = computed["rng_word_bytes_per_batch_chunk"]
    computed["rng_chunk_over_l2"] = per_chunk / l2 if l2 else None
    computed["rng_chunk_over_l3"] = per_chunk / l3 if l3 else None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": threads,
        "cpu_model": _cpu_model(),
        "l2_bytes": l2,
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "SIM_THREADS": threads,
        "engine.BATCH_SIZE": facts["batch_size"],
        "git_commit": _git_commit(root),
        "computed": computed,
    }


def report(workload: str, passes: list[list[wl.OpResult]], setups: list[float], facts: dict) -> None:
    """Human-readable lines printed before the result."""
    for i, p in enumerate(passes):
        for r in p:
            L = r.launch
            print(f"pass {i} {r.op.name:<28} wall {L.wall:8.3f} s  setup {L.setup:6.3f} s  "
                  f"rss {L.rss_mb:7.1f} MB  exit {L.rc}  {'FAIL ' + '; '.join(r.errors) if r.errors else 'ok'}")
    steps = sum(r.op.traj_steps for r in passes[0])
    if steps:
        rates = [steps / sum(r.launch.wall for r in p) for p in passes]
        print(f"traj_steps_per_s {statistics.median(rates):.6g} (trajectory-steps {steps} per pass "
              f"over pass wall time, median of {len(rates)})")
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failed for p in passes for r in p)
    print(f"error_rate {failed}/{attempted} operations failed")
    print(f"setup samples {len(setups)}: " + " ".join(f"{s:.3f}" for s in setups))
    for entry in facts["ledger"]:
        print(f"known defect [{entry['status']}] {entry['id']}: {entry['defect']} "
              f"({entry['avoided_by']}; observed {entry['observed']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record the digests of this workload's outputs at the default "
                        "seed in pins.json (after a deliberate change to the model)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "homodyne_feedback" / "cli.py").is_file():
        print("perfbench: src/homodyne_feedback not found; run from the repository root",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    threads = len(os.sched_getaffinity(0))
    work = root / ".bench_build" / "perfbench" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = wl.build(args.workload, args.seed)
    env, deadline = child_env(root, threads), start + RUN_DEADLINE_S
    try:
        if args.write_pins:
            write_pins(Runner(root, work, env, deadline), args.workload)
            return 0
        facts = gather_facts(root, work, env, deadline)
        if args.trace:
            import traced_run
            metrics, passes, extra = traced_run.run(root, work, ops, threads)
            setups = []
        else:
            metrics, passes, setups = untraced(
                root, work, env, ops, args.seed, args.seconds, deadline)
            extra = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args.workload, passes, setups, facts)
    man = manifest(root, args.workload, args.seed, threads, args.trace, facts)
    print("manifest " + json.dumps(man))
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failed for p in passes for r in p)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = root / ".bench_build" / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps({
        "manifest": man, "ledger": facts["ledger"], "result": result,
        "operations": [{"pass": i, "name": r.op.name, "wall_s": r.launch.wall,
                        "setup_s": r.launch.setup, "rss_mb": r.launch.rss_mb,
                        "exit": r.launch.rc, "errors": r.errors}
                       for i, p in enumerate(passes) for r in p],
        **extra}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
