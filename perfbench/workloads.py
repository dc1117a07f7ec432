"""The benchmark workloads: their operations, inputs and output checks.

A workload is a list of operations that make up one pass.  Each operation
is one `hdsim` invocation; its inputs come from the workload seed alone, and
its check returns a list of errors (empty when the output is correct).
Checks hold at any seed: they test invariants and independent references.
At the default seed, and for operations whose arguments do not depend on
the seed, the output files must also match the digests pinned in
`pins.json`.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 1
PINS_FILE = Path(__file__).with_name("pins.json")

# Decay rate and interval the CLI uses by default.
GAMMA, TAU = 1.0, 1e-3
WORDS_PER_STEP = 3  # RNG words per conditional step: one uniform, two for Box-Muller
_PHI0 = {"excited": 0.0, "ground": math.pi}

ENSEMBLE_TRAJ = 8 * 4096  # 8 engine batches: 4 per worker at 2 threads
ENSEMBLE_STEPS = 1000

STATS_HEADER = "step,time,mean_sx,mean_sz,var_sx,var_sz,se_sx,se_sz"
PMF_HEADER = "delta_n,probability"

WHY = {
    "ensemble": "batched ensembles under three policies: RNG streams, batched "
    "kernel, stats reduction and thread pool do the work",
    "oracle": "Fock-space oracle sweep over alpha and sources: fock does all "
    "the work and engine none",
}
POLICIES = (("none", "excited"), ("compensate", "excited"), ("invert", "ground"))


@dataclass
class Op:
    """One hdsim invocation.  `argv` holds `{d}` where the output directory
    goes; `traj_steps` is the trajectory-steps it simulates."""

    name: str
    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[Path], list[str]]  # output directory -> errors
    traj_steps: int = 0
    threads_invariant: bool = False  # output must not depend on SIM_THREADS

    @property
    def slug(self) -> str:
        """The operation's output directory name."""
        return self.name.replace("/", "-")

    def args(self, d: Path) -> list[str]:
        return [a.format(d=d) for a in self.argv]

    def pin_key(self, output: str) -> str:
        return f"{self.name}: {' '.join(self.argv)} -> {output}"


@dataclass
class Launch:
    """How one operation ran: wall and set-up seconds, max RSS, exit code."""

    wall: float
    setup: float
    rss_mb: float
    rc: int
    stderr: str


@dataclass
class OpResult:
    op: Op
    launch: Launch
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def evaluate(op: Op, d: Path, launch: Launch, pins: dict[str, str]) -> OpResult:
    """Check an operation's exit code and its outputs in directory `d`."""
    if launch.rc != 0:
        last = launch.stderr.strip().splitlines()[-1:] or [""]
        return OpResult(op, launch, [f"{op.name}: exit code {launch.rc} {last[0]}"])
    try:
        errors = op.check(d)
    except (OSError, ValueError, KeyError) as exc:
        errors = [f"{op.name}: output unreadable: {exc!r}"]
    return OpResult(op, launch, errors + check_pins(op, d, pins))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_pins() -> dict[str, str]:
    return json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}


def check_pins(op: Op, d: Path, pins: dict[str, str]) -> list[str]:
    errors = []
    for out in op.outputs:
        want = pins.get(op.pin_key(out))
        if want is not None and (d / out).exists() and sha256(d / out) != want:
            errors.append(f"{op.name}: {out} digest differs from the pinned one")
    return errors


def _read_csv(path: Path, header: str) -> np.ndarray:
    """The numeric rows of a CSV written by hdsim (after `#` config lines)."""
    body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    if not body or body[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",", ndmin=2)


def _close(a, b, rel=1e-12, abs_=1e-15) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= abs_ + rel * np.abs(b)))


def _check_stats(path: Path, steps: int, n: int, policy: str, initial: str) -> list[str]:
    """Invariants of the ensemble-statistics CSV, plus the no-feedback decay
    bound the acceptance suite uses (|<s_z> - (2exp(-t) - 1)| <= 0.15 for
    t <= 1), widened by 5 standard errors for small ensembles."""
    data = _read_csv(path, STATS_HEADER)
    if data.shape != (steps + 1, 8):
        return [f"{path.name}: shape {data.shape}, expected {(steps + 1, 8)}"]
    step, time, msx, msz, vsx, vsz, ssx, ssz = data.T
    errors = []
    if not np.array_equal(step, np.arange(steps + 1)):
        errors.append("step column is not 0..steps")
    if not np.array_equal(time, np.arange(steps + 1) * TAU):
        errors.append("time column is not step * tau")
    if not np.all(np.isfinite(data)):
        errors.append("non-finite statistics")
    if np.any(np.abs(data[:, 2:4]) > 1.0 + 1e-12) or np.any(data[:, 4:6] < 0.0):
        errors.append("means outside [-1, 1] or negative variances")
    if not (_close(msz[0], math.cos(_PHI0[initial]), 0, 1e-15) and vsz[0] <= 1e-15):
        errors.append("step 0 is not the initial state")
    if not (_close(ssx, np.sqrt(vsx / (n - 1))) and _close(ssz, np.sqrt(vsz / (n - 1)))):
        errors.append("standard errors are not sqrt(var / (n - 1))")
    if policy == "none" and initial == "excited":
        early = time <= 1.0
        excess = np.abs(msz - (2.0 * np.exp(-GAMMA * time) - 1.0)) - (0.15 + 5.0 * ssz)
        if np.any(excess[early] > 0.0):
            errors.append(f"decay deviates from 2exp(-t)-1 by {np.max(excess[early]):.3f} "
                          "beyond 0.15 + 5 SE")
    return [f"{path.name}: {e}" for e in errors]


def _check_oracle(d: Path, alpha: float, kind: str, b: complex, c0: complex, c1: complex) -> list[str]:
    """Moments of the exact pmf against closed forms.  With c = (a+b)/sqrt2
    and d = (a-b)/sqrt2, n_c - n_d = a'b + b'a (' the adjoint), so for a real LO amplitude
    alpha: mean = 2 alpha Re<b>; a coherent source gives independent Poisson
    counts (variance alpha^2 + |beta|^2); a qubit gives <(n_c - n_d)^2> =
    alpha^2 (1 + 2|c1|^2) + |c1|^2.  Truncation leaks <= 1e-10 of the norm,
    which bounds the moment errors well inside the tolerances used."""
    data = _read_csv(d / "pmf.csv", PMF_HEADER)
    k, p = data[:, 0], data[:, 1]
    summary = json.loads((d / "pmf.summary.json").read_text())
    errors = []
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0.0):
        errors.append(f"pmf sums to {p.sum()!r}")
    mean = float(np.dot(k, p))
    var = float(np.dot((k - mean) ** 2, p))
    if not (_close(summary["mean"], mean, 1e-9, 1e-9) and _close(summary["variance"], var, 1e-9, 1e-9)):
        errors.append("summary moments differ from the pmf rows")
    if kind == "vacuum":
        want_mean, want_second = 0.0, alpha * alpha
        if summary.get("skellam_max_abs_err", 1.0) > 1e-10:
            errors.append("vacuum pmf is not Skellam to 1e-10")
        if not summary["tv_distance_vs_gaussian_model"] < 0.02:
            errors.append("vacuum TV distance to the Gaussian is not < 0.02")
    elif kind == "coherent":
        want_mean = 2.0 * alpha * b.real
        want_second = alpha * alpha + abs(b) ** 2 + want_mean**2
    else:
        want_mean = 2.0 * alpha * (c0.conjugate() * c1).real
        want_second = alpha * alpha * (1.0 + 2.0 * abs(c1) ** 2) + abs(c1) ** 2
    if not _close(mean, want_mean, 0, 1e-7 * max(1.0, alpha)):
        errors.append(f"mean {mean!r} differs from {want_mean!r}")
    if not _close(var + mean * mean, want_second, 1e-7, 0):
        errors.append(f"second moment {var + mean * mean!r} differs from {want_second!r}")
    return [f"pmf {kind} alpha={alpha:g}: {e}" for e in errors]


def simulate_op(name, policy, initial, steps, n, seed) -> Op:
    argv = ["simulate", "--policy", policy, "--initial", initial,
            "--steps", str(steps), "--trajectories", str(n), "--seed", str(seed),
            "--out", "{d}/stats.csv"]
    return Op(name, argv, ("stats.csv",),
              lambda d: _check_stats(d / "stats.csv", steps, n, policy, initial),
              traj_steps=n * steps, threads_invariant=True)


def oracle_op(alpha: float, kind: str, b: complex = 0j, c0: complex = 1, c1: complex = 0) -> Op:
    if kind == "vacuum":
        source = "vacuum"
    elif kind == "coherent":
        source = f"coherent:{b.real!r},{b.imag!r}"
    else:
        source = f"qubit:{c0.real!r},{c0.imag!r},{c1.real!r},{c1.imag!r}"
    argv = ["oracle", "--alpha", repr(alpha), "--source", source, "--out", "{d}/pmf.csv"]
    return Op(f"oracle/{case_name(kind, alpha)}", argv, ("pmf.csv", "pmf.summary.json"),
              lambda d: _check_oracle(d, alpha, kind, b, c0, c1))


def case_name(kind: str, alpha: float) -> str:
    return f"{kind}_a{alpha:g}"


ORACLE_ALPHAS = (6.0, 10.0, 14.0, 20.0, 30.0)
COHERENT_ALPHAS = (4.0, 6.0, 8.0)
COHERENT_BETA = 1.5  # |beta|; the seed picks only its phase, so the work is fixed
ORACLE_CASES = tuple(
    [case_name(k, a) for a in ORACLE_ALPHAS for k in ("vacuum", "qubit")]
    + [case_name("coherent", a) for a in COHERENT_ALPHAS]
)


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of `workload` at `seed`."""
    rng = random.Random(seed)
    if workload == "ensemble":
        return [simulate_op(f"ensemble/{p}-{i}", p, i, ENSEMBLE_STEPS, ENSEMBLE_TRAJ,
                            rng.getrandbits(63)) for p, i in POLICIES]
    if workload == "oracle":
        ops = []
        for alpha in ORACLE_ALPHAS:
            t, ph = rng.uniform(0.2, 1.3), rng.uniform(-math.pi, math.pi)
            c1 = math.sin(t) * cmath.exp(1j * ph)
            ops.append(oracle_op(alpha, "vacuum"))
            ops.append(oracle_op(alpha, "qubit", c0=complex(math.cos(t)), c1=c1))
        for alpha in COHERENT_ALPHAS:
            b = COHERENT_BETA * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            ops.append(oracle_op(alpha, "coherent", b=b))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(WHY)
