import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from homodyne_feedback import (
    BlochState,
    SimParams,
    SourceSpec,
    apply_rotation,
    beamsplitter_output,
    delta_n_pmf,
    exact_update,
    rotation_angle,
    skellam_pmf,
)

PARAMS_GT01 = SimParams(gamma=1.0, tau=1e-2, alpha=100.0)


def linearized_update(state: BlochState, delta_n, params: SimParams, gain: float = 0.0):
    """First-order increments (delta_sx, delta_sz) = (theta*s_z, -theta*s_x),
    the reference the exact rotation is compared against."""
    theta = rotation_angle(state.s_z, delta_n, params, gain)
    return theta * state.s_z, -theta * state.s_x


def exact_record_pmf(k, state: BlochState, params: SimParams):
    """Law of one interval's record k, the one `exact_update` conditions on:
    the vacuum's Skellam law times (1 - gamma*tau)*c_e^2 (the excited branch,
    its source in vacuum) plus (c_g + c_e*sqrt(gamma*tau)*k/alpha)^2 (the
    ground branch, whose one-photon part scales the vacuum amplitude by k/alpha)."""
    c_e, c_g = math.cos(0.5 * state.phi), math.sin(0.5 * state.phi)
    gt, alpha = params.gamma_tau, params.alpha
    ground = c_g + c_e * math.sqrt(gt) * np.asarray(k) / alpha
    return skellam_pmf(k, alpha**2 / 2, alpha**2 / 2) * ((1.0 - gt) * c_e**2 + ground**2)


def branch_sources(state: BlochState, params: SimParams):
    """The field each branch of one interval leaves: (weight, source) of the
    excited branch (vacuum) and of the ground branch, c_g|0> +
    c_e*sqrt(gamma*tau)|1> normalised by its weight."""
    c_e, c_g = math.cos(0.5 * state.phi), math.sin(0.5 * state.phi)
    gt = params.gamma_tau
    n_g = c_g**2 + c_e**2 * gt
    ground = SourceSpec.qubit(c_g / math.sqrt(n_g), c_e * math.sqrt(gt) / math.sqrt(n_g))
    return ((1.0 - gt) * c_e**2, SourceSpec.vacuum()), (n_g, ground)


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

    def test_gamma_tau_range(self):
        # gamma*tau is one interval's emission probability: (0, 1), nothing else
        for gamma, tau, gt in ((1.0, 1.0, "1"), (2.0, 0.75, "1.5"), (1e-200, 1e-200, "0")):
            message = f"gamma*tau = {gamma:g}*{tau:g} = {gt} is not in (0, 1)"
            with pytest.raises(ValueError, match=re.escape(message)):
                SimParams(gamma=gamma, tau=tau, alpha=10.0)
        with pytest.warns(UserWarning, match="weak-field"):
            SimParams(gamma=1.0, tau=float(np.nextafter(1.0, 0.0)), alpha=10.0)

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

    def test_buffers_match_allocating_form(self):
        # the kernel's call: the angle over the records, 1 + s_z - g in scratch
        rng = np.random.default_rng(4)
        s_z = np.cos(rng.uniform(-math.pi, math.pi, 1000))
        dn = rng.normal(0.0, 100.0, 1000)
        gt, g = PARAMS_GT01.gamma_tau, 0.37
        want = math.sqrt(gt) * (dn / PARAMS_GT01.alpha) * (1.0 + s_z - g)
        assert np.array_equal(rotation_angle(s_z, dn, PARAMS_GT01, g), want)
        assert rotation_angle(s_z[0], dn[0], PARAMS_GT01, g) == want[0]
        inputs = s_z.copy(), dn.copy()
        out, tmp = np.empty(1000), np.empty(1000)
        assert rotation_angle(s_z, dn, PARAMS_GT01, g, out=out, tmp=tmp) is out
        assert np.array_equal(out, want)
        assert np.array_equal(s_z, inputs[0]) and np.array_equal(dn, inputs[1])
        assert rotation_angle(s_z, dn, PARAMS_GT01, g, out=dn, tmp=tmp) is dn
        assert np.array_equal(dn, want) and np.array_equal(s_z, inputs[0])


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


class TestExactUpdate:
    @pytest.mark.filterwarnings("ignore::UserWarning")  # gamma*tau = 0.1 warns
    @pytest.mark.parametrize("gt", [1e-4, 1e-2, 0.1])
    def test_ground_state_stays_put(self, gt):
        # a ground-state atom emits nothing, whatever its record
        params = SimParams(gamma=1.0, tau=gt, alpha=10.0)
        for dn in (-1e6, -30.0, -1.0, 0.0, 2.5, 25.0, 1e6):
            assert exact_update(BlochState.ground(), dn, params).phi == math.pi

    def test_first_order_match_with_no_feedback_rotation(self):
        params = SimParams(gamma=1.0, tau=1e-4, alpha=100.0)
        gt = params.gamma_tau
        state = BlochState(0.8)
        for v in (-2.5, -1.0, -0.3, 0.7, 1.8):
            dn = v * params.alpha
            rot = apply_rotation(state, rotation_angle(state.s_z, dn, params, gain=0.0))
            exact = exact_update(state, dn, params)
            assert abs(rot.s_x - exact.s_x) <= 10.0 * gt
            assert abs(rot.s_z - exact.s_z) <= 10.0 * gt


    @pytest.mark.filterwarnings("ignore::UserWarning")  # gamma*tau = 0.1 warns
    def test_model_error_does_not_depend_on_the_gain(self):
        # the paper's step against exact_update followed by the same feedback
        # turn, -g*sqrt(gamma*tau)*delta_n/alpha: the gap is g = 0's for every
        # g, so gamma*tau alone sets the measurement's error, and the rotation
        # scale warning guards the continuous-feedback limit instead
        for gt in (1e-4, 1e-2, 0.1):
            params = SimParams(gamma=1.0, tau=gt, alpha=100.0)
            for phi in (0.0, 0.7, -2.0, 2.9):
                state = BlochState(phi)
                for v in (-2.5, -1.0, -0.3, 0.7, 1.8):
                    dn = v * params.alpha
                    exact = exact_update(state, dn, params).phi
                    gaps = []
                    for g in (0.0, 1.0, 2.0, -3.7, 7.3):
                        paper = phi + rotation_angle(state.s_z, dn, params, g)
                        feedback = -g * math.sqrt(gt) * dn / params.alpha
                        gaps.append(math.remainder(paper - (exact + feedback), 2.0 * math.pi))
                    assert max(abs(x - gaps[0]) for x in gaps) <= 1e-15


@pytest.mark.filterwarnings("ignore::UserWarning")  # gamma*tau above 0.01 warns
@pytest.mark.parametrize("alpha", [6.0, 10.0, 14.0])
@pytest.mark.parametrize("gt", [0.01, 0.05, 0.1])
class TestExactUpdateAgainstOracle:
    """The closed forms against the Fock oracle's brute-force beamsplitter."""

    PHIS = (0.0, 0.7, -2.0, 2.9)

    def test_record_law_is_the_sum_of_the_branches(self, alpha, gt):
        params = SimParams(gamma=1.0, tau=gt, alpha=alpha)
        for phi in self.PHIS:
            state = BlochState(phi)
            k = delta_n_pmf(alpha, SourceSpec.vacuum()).support()
            oracle = np.zeros(len(k))
            for weight, source in branch_sources(state, params):
                pmf = delta_n_pmf(alpha, source)
                oracle += weight * pmf.probabilities[k - pmf.offset]
            assert np.max(np.abs(exact_record_pmf(k, state, params) - oracle)) <= 1e-12

    def test_update_is_the_ratio_of_the_branch_cells(self, alpha, gt):
        # record k within one width alpha of 0, read at its most likely cell
        # (m, r = m - k), where m + r is nearest the mean photon count alpha^2
        params = SimParams(gamma=1.0, tau=gt, alpha=alpha)
        for phi in self.PHIS:
            state = BlochState(phi)
            (w_e, excited), (w_g, ground) = branch_sources(state, params)
            a_e = math.sqrt(w_e) * beamsplitter_output(alpha, excited).amplitudes.real
            a_g = math.sqrt(w_g) * beamsplitter_output(alpha, ground).amplitudes.real
            for k in range(-round(alpha), round(alpha) + 1):
                m = (round(alpha**2) + k) // 2
                oracle = 2.0 * math.atan2(a_g[m, m - k], a_e[m, m - k])
                assert abs(exact_update(state, k, params).phi - oracle) <= 1e-12
