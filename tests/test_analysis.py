import math
import re

import numpy as np
import pytest

from homodyne_feedback import SimParams, drift_field

PARAMS = SimParams(gamma=1.0, tau=1e-3, alpha=100.0)


class TestDriftField:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (0.0, [math.pi]),
            (1.0, [-math.pi / 2, math.pi / 2]),
            (2.0, [0.0]),
        ],
    )
    def test_fixed_points(self, g, expected):
        field = drift_field(PARAMS, g)
        found = sorted(p for p, f in zip(field.phi, field.fixed_point) if f)
        assert len(found) == len(expected)
        for p, e in zip(found, sorted(expected)):
            assert p == pytest.approx(e, abs=1e-9)

    def test_fixed_point_flag_matches_amplitude_zero(self):
        field = drift_field(PARAMS, 1.0)
        amp = 1.0 + np.cos(field.phi) - 1.0
        assert np.array_equal(field.fixed_point, np.abs(amp) < 1e-12)

    def test_arrow_sign_follows_gained_amplitude(self):
        for g in (0.0, 1.0, 2.0, 0.5):
            field = drift_field(PARAMS, g)
            amp = 1.0 + np.cos(field.phi) - g
            live = ~field.fixed_point
            assert np.all(
                np.sign(field.mean_rotation_given_positive[live]) == np.sign(amp[live])
            )

    def test_no_feedback_extremes(self):
        field = drift_field(PARAMS, 0.0)
        mags = np.abs(field.mean_rotation_given_positive)
        top = np.argmin(np.abs(field.phi))  # excited state
        assert mags[top] == mags.max()
        assert field.fixed_point[np.argmin(np.abs(field.phi - math.pi))]

    def test_overflowing_field_is_refused_naming_the_gain(self):
        # the drift field has no full-turn bound: any finite gain is drawn
        # unless its rotations overflow float64.  The turn sqrt(gamma*tau)*
        # (dn/alpha)*(1 + s_z - g) stays below ~0.026*|1 + s_z - g| at
        # gamma*tau = 1e-3, so the largest gains are drawn there, and overflow
        # only where sqrt(gamma*tau) and dn/alpha approach 1
        with pytest.warns(UserWarning, match="weak-field"):
            strong = SimParams(gamma=1.0, tau=0.99, alpha=100.0)
        for g in (1.7e308, -1.7e308):
            assert np.all(np.isfinite(drift_field(PARAMS, g).mean_rotation_given_positive))
            with pytest.raises(ValueError, match=re.escape(f"overflows float64 at gain g = {g:g}")):
                drift_field(strong, g)
