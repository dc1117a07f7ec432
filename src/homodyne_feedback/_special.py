"""The three special functions the oracle and `measurement` take from scipy.

`gammaln` (log(n!) as gammaln(n + 1.0)), `ndtr` (the standard normal
distribution function) and `ive` (the exponentially scaled modified Bessel
function of the Skellam reference) are ufuncs defined in scipy's compiled
extension `scipy.special._special_ufuncs`; scipy.special re-exports those
very objects.  Importing scipy.special costs ~0.3 s a process, almost all of
it its array-API shim cloning numpy, while the extension alone loads in
~1.5 ms.  So the first read of a name here loads the extension from its file
without running scipy's or scipy.special's `__init__`, registered under its
own name, so a later `import scipy.special` takes the same module and every
value keeps its bits.  Where this scipy has no such file, or the file lacks
the name, the name comes from scipy.special itself.  Importing this module
loads nothing from scipy.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

_MODULE = "scipy.special._special_ufuncs"
_NAMES = ("gammaln", "ive", "ndtr")


def _special_dir() -> str | None:
    """scipy/special's directory, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    return os.path.join(scipy.submodule_search_locations[0], "special")


def _extension():
    """The loaded extension module, or None where its file is not found."""
    if _MODULE in sys.modules:
        return sys.modules[_MODULE]
    directory = _special_dir()
    if directory is None:
        return None
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_MODULE)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[_MODULE] = module
    spec.loader.exec_module(module)
    return module


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    ufunc = getattr(_extension(), name, None)
    if ufunc is None:  # a scipy that defines it elsewhere
        import scipy.special

        ufunc = getattr(scipy.special, name)
    globals()[name] = ufunc  # later reads skip this function
    return ufunc
