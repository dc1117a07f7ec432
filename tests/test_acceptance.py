"""Acceptance gate: run every validation criterion once and report each.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
pass/fail report per criterion (the same lines ``hdsim validate`` prints).
"""

import hashlib
import os
from types import SimpleNamespace

import numpy as np
import pytest

from homodyne_feedback import validation

CRITERIA = [
    "fixed-point exactness",
    "drift anchors",
    "diffusion law",
    "weak-measurement equivalence",
    "oracle exactness",
    "Gaussian limit",
    "purity and determinism",
    "drift-field pattern",
    "decay characterization",
]


# sha256 of the `hdsim validate` report text: every measured value it quotes
# is pinned, so a changed digit is an RNG or model change
REPORT_PINNED = "549fcb9a68684c96f3f19ed1ea8ee6eac69e7aab570511fe4228c57d66331cae"


@pytest.fixture(scope="module")
def results():
    return validation.run_all()


@pytest.fixture(scope="module")
def report(results):
    return {r.name: r for r in results}


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(report, name):
    result = report[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_report_covers_all_criteria(report):
    assert sorted(report) == sorted(CRITERIA)


def test_report_text_pinned(results):
    text = validation.format_report(results)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_PINNED


def test_harness_detects_injected_gain_error(monkeypatch):
    # A 5% miscalibration of the applied feedback gain must break the
    # fixed-point criterion; if it does not, the check has no teeth.
    real = validation.RunConfig
    monkeypatch.setattr(
        validation, "RunConfig", lambda gain=0.0, **kw: real(gain=1.05 * gain, **kw)
    )
    assert not validation.check_fixed_points().passed


def test_crashed_check_is_a_failed_check(monkeypatch):
    def check_crashes():
        raise RuntimeError("boom")

    passing = validation.CheckResult("stub criterion", True, "detail")
    monkeypatch.setattr(validation, "CHECKS", [check_crashes, lambda: passing])
    assert validation.run_all() == [
        validation.CheckResult("check_crashes", False, "error: RuntimeError('boom')"),
        passing,
    ]


MOMENTS = ("mean_sx", "mean_sz", "var_sx", "var_sz")


def _fake_runs(monkeypatch, differing=None):
    """Replace the runs of check_purity_and_determinism with cheap fakes; the
    ensemble fake records SIM_THREADS, and its 8-thread run differs in the
    moment `differing`.  Returns the recorded values."""
    seen = []
    phi = np.zeros(3)
    monkeypatch.setattr(validation, "run_trajectory_arrays", lambda config, i: (phi, phi, phi))

    def run_ensemble(config):
        seen.append(os.environ.get("SIM_THREADS"))
        moments = {name: np.zeros(4) for name in MOMENTS}
        if seen[-1] == "8" and differing is not None:
            moments[differing] = np.ones(4)
        return SimpleNamespace(**moments)

    monkeypatch.setattr(validation, "run_ensemble", run_ensemble)
    return seen


@pytest.mark.parametrize("before", [None, "3"])
def test_determinism_check_scopes_sim_threads(monkeypatch, before):
    if before is None:
        monkeypatch.delenv("SIM_THREADS", raising=False)
    else:
        monkeypatch.setenv("SIM_THREADS", before)
    seen = _fake_runs(monkeypatch)
    assert validation.check_purity_and_determinism().passed
    assert seen == ["1", "2", "8"]
    assert os.environ.get("SIM_THREADS") == before


@pytest.mark.parametrize("name", MOMENTS)
def test_determinism_check_compares_every_moment(monkeypatch, name):
    _fake_runs(monkeypatch, differing=name)
    result = validation.check_purity_and_determinism()
    assert not result.passed
    assert result.detail.endswith("thread-count invariant: False")
