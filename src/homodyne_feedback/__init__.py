"""Continuous homodyne detection of a single two-level atom.

Samples measurement records, applies the conditional Bloch-vector
back-action rotation, supports proportional feedback on the record (one real
gain: none = 0, compensation = 1, inversion = 2), and validates the record
statistics against an exact truncated-Fock-space homodyne oracle.

Importing the package loads none of its modules: each module is imported
the first time one of its public names is read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in (
        ("bloch", "BlochState SimParams apply_rotation rotation_angle exact_update"),
        ("measurement", "SamplingMode pdf_vacuum conditional_pdf sample_records"),
        ("engine", "RunConfig EnsembleResult run_trajectory_arrays run_ensemble"),
        ("streams", "CounterStream stream_key"),
        ("fock", "SourceSpec FockField Pmf CutoffError beamsplitter_output delta_n_pmf "
                 "skellam_pmf gaussian_distance"),
        ("analysis", "DriftField drift_field"),
    )
    for name in names.split()
}

__all__ = list(_HOMES)


def __getattr__(name):
    # read from the module each time, so the name follows the module's binding
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
