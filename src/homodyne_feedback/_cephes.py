"""Ports of the two Cephes routines the Fock oracle needs from scipy.special.

scipy.special compiles S. L. Moshier's Cephes library (Methods and Programs
for Mathematical Functions, 1989).  `log_factorial` is its `lgam` at the
integer arguments n + 1 and `ndtr` its normal distribution function, each
equal value for value, bit for bit, to scipy's `gammaln(n + 1.0)` and `ndtr`.
They depart from Cephes's code only where no value can change: every series
runs through one `_polevl`, `erf` is odd as written, and a NaN needs no test.
Both call libm through `math.log` and `math.exp`, as the compiled code does:
numpy's vectorised log and exp need not agree with libm in the last bit.  The
loops take under 2 us a value, cheap next to importing scipy.special (~0.3 s).
"""

from __future__ import annotations

import math

import numpy as np

# lgam: log(sqrt(2 pi)); Stirling corrections in 1/x^2 for x < 1000 (_A) and x <= 1e8 (_A3)
_LS2PI = 0.91893853320467274178
_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_A3 = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
# log(n!) for x = n + 1 < 13, where lgam takes the log of the exact product
_SMALL = tuple(math.log(float(math.factorial(n))) for n in range(12))

# ndtr: erfc for 1 <= x < 8 (P/Q) and x >= 8 (R/S), erf for |x| <= 1 (T/U);
# Cephes leaves the leading 1.0 of Q, S and U implicit (its p1evl)
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(largest float)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _elementwise(f, x: np.ndarray):
    values = [f(v) for v in x.ravel().tolist()]
    return values[0] if x.ndim == 0 else np.array(values, dtype=float).reshape(x.shape)


def _lgam(x: float) -> float:
    """cephes lgam at an integer x >= 1."""
    if x < 13.0:
        return _SMALL[int(x) - 1]
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    return q + _polevl(1.0 / (x * x), _A3 if x >= 1000.0 else _A) / x


def log_factorial(n):
    """log(n!) elementwise over non-negative integers, bit-equal to
    scipy.special.gammaln(n + 1.0); a scalar gives a float."""
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer):
        raise TypeError(f"log_factorial takes integers, got {n.dtype}")
    if n.size and n.min() < 0:
        raise ValueError(f"log_factorial takes n >= 0, got {n.min()}")
    return _elementwise(lambda v: _lgam(float(v) + 1.0), n)


def _erf(x: float) -> float:
    """cephes erf for |x| <= 1, the only arguments `_ndtr` passes."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x: float) -> float:
    """cephes erfc for x >= 1/sqrt(2), the only arguments `_ndtr` passes."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0  # exp underflows
    p, q = (_P, _Q) if x < 8.0 else (_R, _S)
    return math.exp(z) * _polevl(x, p) / _polevl(x, q)


def _ndtr(a: float) -> float:
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def ndtr(x):
    """Standard normal distribution function, elementwise and bit-equal to
    scipy.special.ndtr; a scalar gives a float, an array the same shape."""
    return _elementwise(_ndtr, np.asarray(x, dtype=float))
