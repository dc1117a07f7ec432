"""Continuous homodyne detection of a single two-level atom.

Samples measurement records, applies the conditional Bloch-vector
back-action rotation, supports proportional feedback on the record (one real
gain: none = 0, compensation = 1, inversion = 2), and validates the record
statistics against an exact truncated-Fock-space homodyne oracle.
"""

from .analysis import DriftField, drift_field
from .bloch import (
    BlochState,
    SimParams,
    apply_rotation,
    rotation_angle,
)
from .engine import (
    EnsembleResult,
    RunConfig,
    run_ensemble,
    run_trajectory_arrays,
)
from .fock import (
    CutoffError,
    FockField,
    Pmf,
    SourceSpec,
    beamsplitter_output,
    delta_n_pmf,
    gaussian_distance,
    skellam_pmf,
)
from .measurement import (
    SamplingMode,
    bayes_dipole_update,
    conditional_pdf,
    pdf_vacuum,
    sample_records,
)
from .streams import CounterStream, stream_key

__version__ = "0.1.0"

__all__ = [
    "BlochState",
    "SimParams",
    "apply_rotation",
    "rotation_angle",
    "SamplingMode",
    "pdf_vacuum",
    "conditional_pdf",
    "sample_records",
    "bayes_dipole_update",
    "RunConfig",
    "EnsembleResult",
    "run_trajectory_arrays",
    "run_ensemble",
    "CounterStream",
    "stream_key",
    "SourceSpec",
    "FockField",
    "Pmf",
    "CutoffError",
    "beamsplitter_output",
    "delta_n_pmf",
    "skellam_pmf",
    "gaussian_distance",
    "DriftField",
    "drift_field",
]
