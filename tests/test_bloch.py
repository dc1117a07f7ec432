import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from homodyne_feedback import (
    BlochState,
    SimParams,
    apply_rotation,
    rotation_angle,
)

PARAMS_GT01 = SimParams(gamma=1.0, tau=1e-2, alpha=100.0)


def linearized_update(state: BlochState, delta_n, params: SimParams, gain: float = 0.0):
    """First-order increments (delta_sx, delta_sz) = (theta*s_z, -theta*s_x),
    the reference the exact rotation is compared against."""
    theta = rotation_angle(state.s_z, delta_n, params, gain)
    return theta * state.s_z, -theta * state.s_x


class TestBlochState:
    def test_reference_states(self):
        assert BlochState.excited().s_z == 1.0
        assert BlochState.ground().s_z == -1.0
        assert BlochState.dipole_plus().s_x == 1.0
        assert BlochState.dipole_minus().s_x == -1.0

    def test_angle_normalized_to_half_open_interval(self):
        assert BlochState(3 * math.pi).phi == pytest.approx(math.pi)
        assert BlochState(-math.pi).phi == math.pi
        assert BlochState(math.pi).phi == math.pi

    def test_in_range_angle_unchanged(self):
        assert BlochState(1.234).phi == 1.234

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BlochState(float("nan"))

    @given(st.floats(-50.0, 50.0))
    def test_purity_and_range(self, phi):
        s = BlochState(phi)
        assert -math.pi < s.phi <= math.pi
        assert abs(s.s_x**2 + s.s_z**2 - 1.0) <= 1e-12


class TestSimParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimParams(gamma=0.0, tau=1e-3, alpha=10.0)
        with pytest.raises(ValueError):
            SimParams(gamma=1.0, tau=-1.0, alpha=10.0)
        with pytest.raises(ValueError):
            SimParams(gamma=1.0, tau=1e-3, alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite and > 0, got {alpha}"):
            SimParams(gamma=1.0, tau=1e-3, alpha=alpha)

    def test_weak_coupling_cap(self):
        with pytest.raises(ValueError):
            SimParams(gamma=1.0, tau=0.2, alpha=10.0)
        with pytest.warns(UserWarning):
            SimParams(gamma=1.0, tau=0.05, alpha=10.0)

    def test_weak_coupling_warning_names_the_caller(self):
        # not the dataclass's generated __init__, which has no source file
        with pytest.warns(UserWarning, match="weak-field") as caught:
            SimParams(gamma=1.0, tau=0.05, alpha=10.0)
        assert [w.filename for w in caught] == [__file__]

    def test_no_warning_at_boundary(self, recwarn):
        SimParams(gamma=1.0, tau=1e-2, alpha=10.0)
        assert len(recwarn) == 0


class TestRotationAngle:
    def test_ground_state_stationary_without_feedback(self):
        assert rotation_angle(-1.0, 123.4, PARAMS_GT01, gain=0.0) == 0.0

    def test_dipole_stationary_under_compensation(self):
        assert rotation_angle(0.0, -55.0, PARAMS_GT01, gain=1.0) == 0.0

    def test_excited_stationary_under_inversion(self):
        assert rotation_angle(1.0, 9.9, PARAMS_GT01, gain=2.0) == 0.0

    def test_direct_substitution(self):
        # gamma*tau = 0.01, delta_n/alpha = 1, s_z = 0, g = 0
        assert rotation_angle(0.0, 100.0, PARAMS_GT01, gain=0.0) == pytest.approx(0.1)


class TestApplyRotation:
    def test_identity(self):
        s = BlochState(0.4)
        assert apply_rotation(s, 0.0).phi == s.phi

    def test_quarter_rotation(self):
        s = apply_rotation(BlochState.excited(), math.pi / 2)
        assert s.phi == pytest.approx(math.pi / 2)
        assert (s.s_x, s.s_z) == pytest.approx((1.0, 0.0), abs=1e-15)

    @given(
        st.floats(-math.pi, math.pi),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
    )
    def test_group_property_in_phi_arithmetic(self, phi, t1, t2):
        s = BlochState(phi)
        chained = apply_rotation(apply_rotation(s, t1), t2)
        # the two rotations compose to one by t1 + t2, compared on the circle
        assert abs(math.remainder(chained.phi - (phi + t1 + t2), 2 * math.pi)) <= 1e-12

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="phi must be finite"):
            apply_rotation(BlochState(0.4), theta)

    def test_purity_preserved_over_one_million_rotations(self):
        rng = np.random.default_rng(3)
        thetas = rng.normal(scale=1e-2, size=1_000_000)
        s = BlochState.excited()
        worst = 0.0
        for i in range(0, len(thetas), 10_000):
            for theta in thetas[i : i + 10_000]:
                s = apply_rotation(s, theta)
            worst = max(worst, abs(s.s_x**2 + s.s_z**2 - 1.0))
        assert worst <= 1e-12


class TestLinearizedUpdate:
    def test_ground_state_zero(self):
        dsx, dsz = linearized_update(BlochState.ground(), 42.0, PARAMS_GT01, gain=0.0)
        assert (dsx, dsz) == (0.0, -0.0)

    def test_excited_substitution(self):
        # theta = sqrt(0.01)*1*(1+1) = 0.2 at the excited state
        dsx, dsz = linearized_update(BlochState.excited(), 100.0, PARAMS_GT01, gain=0.0)
        assert dsx == pytest.approx(0.2)
        assert dsz == pytest.approx(0.0, abs=1e-16)

    @staticmethod
    def _max_component_error(theta):
        params = SimParams(gamma=1.0, tau=theta**2, alpha=1.0)
        s = BlochState(0.8)
        exact = apply_rotation(s, rotation_angle(s.s_z, 1.0 / (1.0 + s.s_z), params, 0.0))
        dsx, dsz = linearized_update(s, 1.0 / (1.0 + s.s_z), params, 0.0)
        return max(abs(exact.s_x - (s.s_x + dsx)), abs(exact.s_z - (s.s_z + dsz)))

    def test_small_angle_agreement(self):
        assert self._max_component_error(1e-3) <= 1e-6

    def test_taylor_remainder_scales_as_theta_squared(self):
        errs = [self._max_component_error(t) for t in (1e-2, 1e-3, 1e-4)]
        for a, b in zip(errs, errs[1:]):
            assert 50.0 <= a / b <= 200.0
