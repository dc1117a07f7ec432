"""Acceptance checks: analytic and brute-force oracles for the simulator.

Each check is deterministic (fixed seeds) and desk-scale.  `run_all` returns
one result per criterion; the CLI `validate` subcommand prints them as a
pass/fail table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable
from unittest import mock

import numpy as np

from .bloch import BlochState, SimParams, apply_rotation, exact_update, rotation_angle
from .engine import RunConfig, run_ensemble, run_trajectory_arrays
from .fock import SourceSpec, delta_n_pmf, gaussian_distance, skellam_pmf
from .measurement import SamplingMode, sample_records
from .streams import CounterStream
from .analysis import drift_field

_PARAMS = SimParams(gamma=1.0, tau=1e-3, alpha=100.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_fixed_points() -> CheckResult:
    """Stationary states stay put exactly: (g, state) in
    {(0, ground), (1, dipole+/-), (2, excited)} over 1e5 random-record steps."""
    cases = [
        (0.0, BlochState.ground(), "ground/g=0"),
        (1.0, BlochState.dipole_plus(), "dipole+/g=1"),
        (1.0, BlochState.dipole_minus(), "dipole-/g=1"),
        (2.0, BlochState.excited(), "excited/g=2"),
    ]
    worst = 0.0
    for i, (g, initial, _) in enumerate(cases):
        config = RunConfig(
            params=_PARAMS, gain=g, initial=initial,
            n_steps=100_000, n_trajectories=1, seed=11 + i,
        )
        _, _, phi = run_trajectory_arrays(config, 0)
        worst = max(worst, float(np.max(np.abs(phi - initial.phi))))
    return CheckResult(
        "fixed-point exactness", worst <= 1e-12, f"max |phi drift| = {worst:.3g}"
    )


def check_drift_anchors() -> CheckResult:
    """One-step <delta s_z>/tau equals the master-equation slope -Gamma(1+s_z)
    at the three anchor states, within 3 standard errors (exact at ground)."""
    tau = _PARAMS.tau
    details = []
    ok = True
    for initial, seed in [
        (BlochState.excited(), 101),
        (BlochState.dipole_plus(), 102),
        (BlochState.ground(), 103),
    ]:
        config = RunConfig(
            params=_PARAMS, gain=0.0, initial=initial,
            n_steps=1, n_trajectories=1_000_000, seed=seed,
        )
        res = run_ensemble(config)
        drift = (res.mean_sz[1] - res.mean_sz[0]) / tau
        target = -_PARAMS.gamma * (1.0 + initial.s_z)
        if initial.s_z == -1.0:
            case_ok = drift == 0.0
            details.append(f"ground: drift = {drift:g} (exact 0 required)")
        else:
            tol = 3.0 * res.se_sz[1] / tau
            case_ok = abs(drift - target) <= tol
            details.append(
                f"s_z={initial.s_z:+.0f}: drift {drift:+.4f} vs {target:+.1f} "
                f"(3SE = {tol:.4f})"
            )
        ok = ok and case_ok
    return CheckResult("drift anchors", ok, "; ".join(details))


def check_diffusion_law() -> CheckResult:
    """Var(theta)/(Gamma tau) = (1 + s_z - g)^2 within 2% over the nine
    (anchor state) x (gain) combinations, N = 1e6 draws each."""
    gt = _PARAMS.gamma_tau
    states = [
        ("ground", BlochState.ground()),
        ("dipole+", BlochState.dipole_plus()),
        ("excited", BlochState.excited()),
    ]
    ok = True
    worst = 0.0
    zeros_ok = True
    for si, (label, state) in enumerate(states):
        for g in (0.0, 1.0, 2.0):
            rng = CounterStream(777, si * 3 + int(g))
            dn = sample_records(state, _PARAMS, SamplingMode.CONDITIONAL, rng, 1_000_000)
            theta = rotation_angle(state.s_z, dn, _PARAMS, g)
            emp = float(np.var(theta)) / gt
            amp = 1.0 + state.s_z - g
            target = amp * amp
            if target == 0.0:
                zeros_ok = zeros_ok and emp == 0.0
            else:
                rel = abs(emp / target - 1.0)
                worst = max(worst, rel)
                ok = ok and rel <= 0.02
    ok = ok and zeros_ok
    return CheckResult(
        "diffusion law",
        ok,
        f"max rel err {worst:.3%}; exact zeros at stationary combos: {zeros_ok}; "
        "excited:classical variance ratio = 4",
    )


def check_weak_measurement_equivalence() -> CheckResult:
    """The g=0 rotation vs the exact one-interval map, emission included:
    difference scales as O(gamma tau) (per-decade ratio in [5, 20]) while
    the updates themselves scale as O(sqrt(gamma tau))."""
    state = BlochState(0.7)
    quantiles = [NormalDist().inv_cdf(k / 200.0) for k in range(1, 200)]
    diffs = []
    sizes = []
    for gt in (1e-2, 1e-3, 1e-4):
        params = SimParams(gamma=1.0, tau=gt, alpha=100.0)
        max_diff = 0.0
        max_size = 0.0
        for v in quantiles:
            dn = v * params.alpha
            theta = rotation_angle(state.s_z, dn, params, gain=0.0)
            rot = apply_rotation(state, theta)
            exact = exact_update(state, dn, params)
            max_diff = max(
                max_diff, abs(rot.s_x - exact.s_x), abs(rot.s_z - exact.s_z)
            )
            max_size = max(
                max_size, abs(rot.s_x - state.s_x), abs(rot.s_z - state.s_z)
            )
        diffs.append(max_diff)
        sizes.append(max_size)
    diff_ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
    size_ratios = [sizes[i] / sizes[i + 1] for i in range(2)]
    ok = all(5.0 <= r <= 20.0 for r in diff_ratios) and all(
        2.5 <= r <= 4.5 for r in size_ratios
    )
    return CheckResult(
        "weak-measurement equivalence",
        ok,
        f"difference decade ratios {[f'{r:.1f}' for r in diff_ratios]} (O(gt)); "
        f"update decade ratios {[f'{r:.2f}' for r in size_ratios]} (O(sqrt(gt)))",
    )


def check_oracle_exactness() -> CheckResult:
    """Vacuum-source pmf matches Skellam(|a|^2/2, |a|^2/2) to 1e-10 pointwise;
    qubit-source mean equals 2 alpha Re<b> to 1e-8."""
    errs = []
    for alpha in (2.0, 4.0):
        pmf = delta_n_pmf(alpha, SourceSpec.vacuum())
        mu = alpha * alpha / 2.0
        ref = skellam_pmf(pmf.support(), mu, mu)
        errs.append(float(np.max(np.abs(pmf.probabilities - ref))))
    qubit = SourceSpec.qubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    mean = delta_n_pmf(4.0, qubit).mean()
    mean_err = abs(mean - 4.0)
    ok = max(errs) <= 1e-10 and mean_err <= 1e-8
    return CheckResult(
        "oracle exactness",
        ok,
        f"Skellam max abs err {max(errs):.2e}; qubit mean err {mean_err:.2e}",
    )


def check_gaussian_limit() -> CheckResult:
    """TV distance to the weak-field Gaussian < 0.02 at alpha = 6 and
    decreasing at alpha = 10."""
    tv6 = gaussian_distance(delta_n_pmf(6.0, SourceSpec.vacuum()), 6.0)
    tv10 = gaussian_distance(delta_n_pmf(10.0, SourceSpec.vacuum()), 10.0)
    ok = tv6 < 0.02 and tv10 < tv6
    return CheckResult(
        "Gaussian limit", ok, f"TV(alpha=6) = {tv6:.4f}, TV(alpha=10) = {tv10:.4f}"
    )


def check_purity_and_determinism() -> CheckResult:
    """Purity error <= 1e-12 over 1e6 steps; bit-identical ensembles with
    SIM_THREADS = 1, 2, 8, each capped at the usable CPUs (1, 2, 2 on 2 CPUs)."""
    config = RunConfig(
        params=_PARAMS, gain=0.0, initial=BlochState.excited(),
        n_steps=1_000_000, n_trajectories=1, seed=5,
    )
    _, _, phi = run_trajectory_arrays(config, 0)
    purity_err = float(np.max(np.abs(np.sin(phi) ** 2 + np.cos(phi) ** 2 - 1.0)))

    ens_config = RunConfig(
        params=_PARAMS, gain=0.0, initial=BlochState.excited(),
        n_steps=100, n_trajectories=10_000, seed=6,
    )
    results = []
    for t in ("1", "2", "8"):
        with mock.patch.dict(os.environ, {"SIM_THREADS": t}):
            results.append(run_ensemble(ens_config))
    identical = all(
        np.array_equal(getattr(results[0], name), getattr(r, name))
        for r in results[1:]
        for name in ("mean_sx", "mean_sz", "var_sx", "var_sz")
    )
    ok = purity_err <= 1e-12 and identical
    return CheckResult(
        "purity and determinism",
        ok,
        f"purity err {purity_err:.2e}; thread-count invariant: {identical}",
    )


def check_drift_field_pattern() -> CheckResult:
    """Drift-field fixed points and arrow-sign pattern match the three
    feedback panels: dot at bottom / sides / top, uniform circulation sense."""
    ok = True
    details = []
    for g, expect_phis, label in [
        (0.0, {math.pi}, "none"),
        (1.0, {-math.pi / 2.0, math.pi / 2.0}, "compensation"),
        (2.0, {0.0}, "inversion"),
    ]:
        field = drift_field(_PARAMS, g)
        found = {float(p) for p, f in zip(field.phi, field.fixed_point) if f}
        dots_ok = len(found) == len(expect_phis) and all(
            any(abs(p - e) < 1e-9 for p in found) for e in expect_phis
        )
        amp = 1.0 + np.cos(field.phi) - g
        live = ~field.fixed_point
        signs_ok = bool(
            np.all(
                np.sign(field.mean_rotation_given_positive[live])
                == np.sign(amp[live])
            )
        )
        ok = ok and dots_ok and signs_ok
        details.append(f"{label}: dots {dots_ok}, signs {signs_ok}")
    return CheckResult("drift-field pattern", ok, "; ".join(details))


def check_decay_characterization() -> CheckResult:
    """Full decay from the excited state versus 2 exp(-Gamma t) - 1: within
    0.05 for Gamma t <= 0.3 and 0.15 for Gamma t <= 1 (documented leading-order
    deviation at intermediate s_z)."""
    config = RunConfig(
        params=_PARAMS, gain=0.0, initial=BlochState.excited(),
        n_steps=1000, n_trajectories=4096, seed=21,
    )
    res = run_ensemble(config)
    ref = 2.0 * np.exp(-_PARAMS.gamma * res.time) - 1.0
    dev = np.abs(res.mean_sz - ref)
    early = float(np.max(dev[res.time <= 0.3]))
    late = float(np.max(dev[res.time <= 1.0]))
    ok = early <= 0.05 and late <= 0.15
    return CheckResult(
        "decay characterization",
        ok,
        f"max |dev| = {early:.4f} (t<=0.3, cap 0.05), {late:.4f} (t<=1, cap 0.15)",
    )


CHECKS: list[Callable[[], CheckResult]] = [
    check_fixed_points,
    check_drift_anchors,
    check_diffusion_law,
    check_weak_measurement_equivalence,
    check_oracle_exactness,
    check_gaussian_limit,
    check_purity_and_determinism,
    check_drift_field_pattern,
    check_decay_characterization,
]


def run_all() -> list[CheckResult]:
    results = []
    for check in CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__, False, f"error: {exc!r}"))
    return results


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
