import math

import pytest

from homodyne_feedback import RunConfig, SimParams, rotation_angle
from homodyne_feedback.cli import parse_policy

PARAMS = SimParams(gamma=1.0, tau=1e-2, alpha=100.0)


class TestGain:
    def test_named_scenarios(self):
        assert RunConfig(params=PARAMS).gain == 0.0
        assert parse_policy("none") == 0.0
        assert parse_policy("compensate") == 1.0
        assert parse_policy("invert") == 2.0

    def test_custom(self):
        assert parse_policy("custom:1.5") == 1.5
        assert parse_policy("custom:-0.25") == -0.25

    def test_custom_gain_cap(self):
        for g in (10.5, -10.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"finite with \|g\| <= 10.0"):
                RunConfig(params=PARAMS, gain=g)
            with pytest.raises(ValueError, match=r"finite with \|g\| <= 10.0"):
                parse_policy(f"custom:{g}")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            parse_policy("delayed")


class TestScenarioFixedPoints:
    @pytest.mark.parametrize(
        "g,s_z",
        [(0.0, -1.0), (1.0, 0.0), (2.0, 1.0)],
    )
    def test_rotation_vanishes(self, g, s_z):
        for dn in (-250.0, -1.0, 3.0, 500.0):
            assert rotation_angle(s_z, dn, PARAMS, g) == 0.0
