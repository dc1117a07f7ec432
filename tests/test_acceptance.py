"""Acceptance gate: run every validation criterion once and report each.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
pass/fail report per criterion (the same lines ``hdsim validate`` prints).
"""

import hashlib

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
REPORT_PINNED = "95bbbb2b5ff9ef0abc1a5d51a1951847440e3fa0aeca5ea7e81b1d6669b82553"


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
