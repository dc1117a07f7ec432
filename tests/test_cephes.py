"""The Cephes ports against scipy.special, the reference, bit for bit."""

import math
import types

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.special import ndtr as scipy_ndtr

from homodyne_feedback import _cephes
from homodyne_feedback._cephes import log_factorial, ndtr
from homodyne_feedback.fock import default_cutoff


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def around(points, steps=3):
    """Each point and its `steps` float neighbours on either side."""
    out = []
    for p in points:
        lo = hi = p
        out.append(p)
        for _ in range(steps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


class TestLogFactorial:
    def test_every_n_below_6000(self):
        n = np.arange(6000)
        np.testing.assert_array_equal(bits(log_factorial(n)), bits(gammaln(n + 1.0)))

    # lgam switches method at x = n + 1 = 13, 1000 and 1e8
    @pytest.mark.parametrize("x", [13, 1000, 10**8])
    def test_branch_points(self, x):
        n = np.arange(x - 4, x + 4)
        np.testing.assert_array_equal(bits(log_factorial(n)), bits(gammaln(n + 1.0)))

    def test_sample_up_to_2_pow_53(self):
        rng = np.random.default_rng(18)
        n = np.concatenate([rng.integers(0, 2**53, 20000), 2 ** rng.integers(0, 54, 200)])
        np.testing.assert_array_equal(bits(log_factorial(n)), bits(gammaln(n + 1.0)))

    def test_scalar_gives_float(self):
        value = log_factorial(20)
        assert type(value) is float
        assert value == gammaln(21.0)

    def test_keeps_shape(self):
        assert log_factorial(np.arange(6).reshape(2, 3)).shape == (2, 3)
        assert log_factorial(np.arange(0)).shape == (0,)

    def test_domain(self):
        with pytest.raises(ValueError, match="n >= 0"):
            log_factorial(np.array([3, -1]))
        with pytest.raises(TypeError, match="integers"):
            log_factorial(np.array([2.5]))


class TestNdtr:
    # ndtr switches at |a| = 1, erfc at |a| = sqrt(2) (erf below) and
    # 8 sqrt(2) (the R/S tables above), and exp(-a^2/2) underflows at
    # a^2/2 = MAXLOG
    BRANCH_POINTS = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _cephes._MAXLOG)]

    def test_dense_grid(self):
        x = np.concatenate([
            np.linspace(-40.0, 40.0, 160001),
            around([s * p for p in self.BRANCH_POINTS for s in (-1.0, 1.0)]),
        ])
        np.testing.assert_array_equal(bits(ndtr(x)), bits(scipy_ndtr(x)))

    def test_random_points(self):
        rng = np.random.default_rng(18)
        x = np.concatenate([rng.normal(0.0, 12.0, 50000), rng.uniform(-1e3, 1e3, 1000)])
        np.testing.assert_array_equal(bits(ndtr(x)), bits(scipy_ndtr(x)))

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf])
        np.testing.assert_array_equal(bits(ndtr(x)), bits([0.5, 0.5, 1.0, 0.0]))
        assert math.isnan(ndtr(math.nan))

    @pytest.mark.parametrize("alpha", [4.0, 6.0, 8.0, 10.0, 14.0, 20.0, 30.0])
    def test_oracle_bin_edges(self, alpha):
        # the edges k -/+ 0.5 of every bin k of a delta_n pmf at this alpha,
        # a qubit source's support included
        top = default_cutoff(alpha) + 1
        k = np.arange(-top, top + 1)
        x = np.concatenate([(k - 0.5) / alpha, (k + 0.5) / alpha])
        np.testing.assert_array_equal(bits(ndtr(x)), bits(scipy_ndtr(x)))

    def test_scalar_gives_float(self):
        value = ndtr(0.3)
        assert type(value) is float
        assert value == scipy_ndtr(0.3)

    def test_keeps_shape(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert ndtr(x).shape == (3, 4)
        assert ndtr(np.empty(0)).shape == (0,)


class TestLibm:
    """The ports take log and exp from libm, one call a value, as compiled
    Cephes does: numpy's vectorised log and exp differ from libm in the
    last bit for some arguments, on some CPUs only, so the bit-equality
    tests alone need not catch them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"log": 0, "exp": 0}

        def counted(name):
            def f(x):
                calls[name] += 1
                return getattr(math, name)(x)
            return f

        spy = types.SimpleNamespace(**vars(math))
        spy.log, spy.exp = counted("log"), counted("exp")
        monkeypatch.setattr(_cephes, "math", spy)
        return calls

    def test_log_factorial_calls_libm_log(self, calls):
        log_factorial(np.arange(12, 2000))  # x = n + 1 >= 13 takes one log
        assert calls == {"log": 1988, "exp": 0}

    def test_ndtr_calls_libm_exp(self, calls):
        ndtr(np.linspace(1.5, 30.0, 1000))  # erfc's P/Q and R/S branches take one exp
        assert calls == {"log": 0, "exp": 1000}


class _Traced(float):
    """A float that records being squared or divided by."""

    ops: list

    def __mul__(self, other):
        self.ops.append("*")
        return float(self) * other

    def __rtruediv__(self, other):
        self.ops.append("/")
        return other / float(self)


@pytest.mark.parametrize("x,ops", [(1.0e8, ["*", "/"]), (1.0e8 + 1.0, []), (2.0**53, [])])
def test_lgam_adds_no_correction_above_1e8(x, ops):
    # above 1e8 the Stirling correction 1/(12 x) is under half an ulp of
    # the result, so no value shows whether it was added; lgam skips it
    traced = _Traced(x)
    traced.ops = []
    _cephes._lgam(traced)
    assert traced.ops == ops
