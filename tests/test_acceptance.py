"""Acceptance gate: run every validation criterion once and report each.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
pass/fail report per criterion (the same lines ``hdsim validate`` prints).
"""

import pytest

from homodyne_feedback import engine, validation
from homodyne_feedback import feedback as fb

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


@pytest.fixture(scope="module")
def report():
    results = validation.run_all()
    return {r.name: r for r in results}


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(report, name):
    result = report[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_report_covers_all_criteria(report):
    assert sorted(report) == sorted(CRITERIA)


def test_harness_detects_injected_gain_error(monkeypatch):
    # A 5% miscalibration of the applied feedback gain must break the
    # fixed-point criterion; if it does not, the check has no teeth.
    monkeypatch.setattr(engine, "gain", lambda p: 1.05 * fb.gain(p))
    assert not validation.check_fixed_points().passed
