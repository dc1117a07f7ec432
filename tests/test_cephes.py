"""scipy's compiled special functions as the package reads them, from `_special`.

`gammaln` and `ndtr` are Cephes routines (S. L. Moshier, 1989) and `ive`
the Bessel function of the Skellam reference, all ufuncs of scipy's compiled
extension `scipy.special._special_ufuncs`.  `_special` loads that extension
without scipy.special's package init.  These tests check that its names are
scipy.special's very objects in either import order, that this install
takes that path and does not fall back to importing scipy.special, and that
a launch which never imports scipy.special computes scipy.special's values,
bit for bit, on either path.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import homodyne_feedback
from homodyne_feedback import _special
from homodyne_feedback.fock import default_cutoff

_MAXLOG = 7.09782712893383996843e2  # log(largest float), where exp(-x) underflows
_ORACLE_ALPHAS = (4.0, 6.0, 8.0, 10.0, 14.0, 20.0, 30.0)


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


def _grids():
    """Arguments, one row per ufunc argument, keyed `<ufunc>.<case>`."""
    rng = np.random.default_rng(18)
    n = {"every_n_below_6000": np.arange(6000)}
    # lgam switches method at x = n + 1 = 13, 1000 and 1e8
    n.update({f"branch_{x}": np.arange(x - 4, x + 4) for x in (13, 1000, 10**8)})
    n["sample"] = np.concatenate([rng.integers(0, 2**53, 20000), 2 ** rng.integers(0, 54, 200)])
    grids = {f"gammaln.{case}": [v + 1.0] for case, v in n.items()}  # log(n!)

    # ndtr switches at |a| = 1, erfc at |a| = sqrt(2) (erf below) and
    # 8 sqrt(2) (the R/S tables above), and exp(-a^2/2) underflows at
    # a^2/2 = MAXLOG
    branch_points = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG)]
    grids["ndtr.dense"] = [np.concatenate([
        np.linspace(-40.0, 40.0, 160001),
        around([s * p for p in branch_points for s in (-1.0, 1.0)]),
    ])]
    grids["ndtr.random"] = [
        np.concatenate([rng.normal(0.0, 12.0, 50000), rng.uniform(-1e3, 1e3, 1000)])
    ]
    for alpha in _ORACLE_ALPHAS:
        # the edges k -/+ 0.5 of every bin k of a delta_n pmf at this alpha,
        # a qubit source's support included
        top = default_cutoff(alpha) + 1
        k = np.arange(-top, top + 1)
        grids[f"ndtr.bin_edges_{alpha}"] = [np.concatenate([(k - 0.5) / alpha, (k + 0.5) / alpha])]
        # the vacuum source's Skellam reference: ive(|k|, 2 mu) with mu = alpha^2 / 2
        grids[f"ive.skellam_{alpha}"] = [np.abs(k).astype(float), np.full(k.shape, alpha * alpha)]
    return {key: np.array(args) for key, args in grids.items()}


GRIDS = _grids()

# each grid through `_special` in a fresh interpreter; argv: mode, directory
_CHILD = """
import sys
import numpy as np
from homodyne_feedback import _special
mode, tmp = sys.argv[1:]
if mode == "fallback":
    _special._special_dir = lambda: tmp  # holds no extension module
with np.load(f"{tmp}/grids.npz") as grids:
    values = {key: getattr(_special, key.split(".")[0])(*grids[key]) for key in grids.files}
np.savez(f"{tmp}/{mode}.npz", **values)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def _run(code, *argv):
    """The last stdout line of `code` run in a fresh interpreter."""
    src = str(Path(homodyne_feedback.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def launched(tmp_path_factory):
    """Per mode ("fast" as installed, "fallback" with the finder pointed at
    an empty directory): each grid's values and the scipy modules loaded."""
    tmp = tmp_path_factory.mktemp("special")
    np.savez(tmp / "grids.npz", **GRIDS)
    out = {}
    for mode in ("fast", "fallback"):
        modules = ast.literal_eval(_run(_CHILD, mode, str(tmp)))
        with np.load(tmp / f"{mode}.npz") as values:
            out[mode] = (dict(values), modules)
    return out


def assert_scipy_bits(launched, key):
    """Both paths' values of grid `key` are scipy.special's, bit for bit."""
    name = key.split(".")[0]
    reference = getattr(scipy.special, name)(*GRIDS[key])
    for values, _ in launched.values():
        np.testing.assert_array_equal(bits(values[key]), bits(reference))


class TestLoader:
    # fresh interpreters, since this one has imported scipy.special
    _SAME = """
import sys
from homodyne_feedback import _special
if sys.argv[1] == "package_first":
    import scipy.special
names = ("gammaln", "ive", "ndtr")
ours = [getattr(_special, n) for n in names]
import scipy.special
assert all(u is getattr(scipy.special, n) for u, n in zip(ours, names))
assert scipy.special.ive(1, 2.0) == ours[1](1, 2.0) > 0.0
print("ok")
"""

    @pytest.mark.parametrize("order", ["loader_first", "package_first"])
    def test_names_are_scipy_special_objects(self, order):
        assert _run(self._SAME, order) == "ok"

    def test_names_here_are_scipy_special_objects(self):
        for name in ("gammaln", "ive", "ndtr"):
            assert getattr(_special, name) is getattr(scipy.special, name)

    def test_install_takes_the_fast_path(self, launched):
        # the extension file is found where this scipy keeps it: a scipy
        # that moves it fails here rather than costing each launch ~0.3 s
        assert launched["fast"][1] == ["scipy.special._special_ufuncs"]

    def test_fallback_imports_scipy_special(self, launched):
        # the fallback check below is not vacuous
        assert "scipy.special" in launched["fallback"][1]

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'ndtri'"):
            _special.ndtri


class TestLogFactorial:
    def test_every_n_below_6000(self, launched):
        assert_scipy_bits(launched, "gammaln.every_n_below_6000")

    @pytest.mark.parametrize("x", [13, 1000, 10**8])
    def test_branch_points(self, launched, x):
        assert_scipy_bits(launched, f"gammaln.branch_{x}")

    def test_sample_up_to_2_pow_53(self, launched):
        assert_scipy_bits(launched, "gammaln.sample")

    def test_scalar_gives_float(self):
        value = _special.gammaln(21.0)
        assert isinstance(value, float)
        assert value == scipy.special.gammaln(21.0)

    def test_keeps_shape(self):
        assert _special.gammaln(np.arange(6.0).reshape(2, 3) + 1.0).shape == (2, 3)
        assert _special.gammaln(np.arange(0.0)).shape == (0,)


class TestNdtr:
    def test_dense_grid(self, launched):
        assert_scipy_bits(launched, "ndtr.dense")

    def test_random_points(self, launched):
        assert_scipy_bits(launched, "ndtr.random")

    def test_special_values(self):
        # the Gaussian model's overflowed bin edges rely on the exact 0 and 1
        x = np.array([0.0, -0.0, np.inf, -np.inf])
        np.testing.assert_array_equal(bits(_special.ndtr(x)), bits([0.5, 0.5, 1.0, 0.0]))
        assert math.isnan(_special.ndtr(math.nan))

    @pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
    def test_oracle_bin_edges(self, launched, alpha):
        assert_scipy_bits(launched, f"ndtr.bin_edges_{alpha}")

    def test_scalar_gives_float(self):
        value = _special.ndtr(0.3)
        assert isinstance(value, float)
        assert value == scipy.special.ndtr(0.3)

    def test_keeps_shape(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert _special.ndtr(x).shape == (3, 4)
        assert _special.ndtr(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
def test_ive_skellam_reference(launched, alpha):
    assert_scipy_bits(launched, f"ive.skellam_{alpha}")
