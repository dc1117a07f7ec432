"""The names the benchmark harness in perfbench/ reaches into the package for.

perfbench traces the functions in `spans.TARGETS` by name and reads a few
constants and classes directly.  A rename or deletion there breaks the
traced run, which only perfbench's own tests would otherwise notice.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# read from the module's source: the harness itself is not imported here
_TARGETS = next(
    ast.literal_eval(node.value)
    for node in ast.parse(SPANS.read_text()).body
    if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
)

# read by perfbench's layer probes and fact checks without tracing
_READ_DIRECTLY = [
    ("engine", "BATCH_SIZE"),
    ("engine", "_WORD_BUDGET"),
    ("engine", "RunConfig"),
    ("fock", "default_cutoff"),
    ("streams", "CounterStream"),
    ("measurement", "SamplingMode"),
    ("bloch", "BlochState"),
    ("bloch", "SimParams"),
    ("validation", "CHECKS"),
    ("validation", "run_all"),
]


@pytest.mark.parametrize(
    "layer,name",
    [(layer, name) for layer, names in _TARGETS.items() for name in names] + _READ_DIRECTLY,
)
def test_benchmark_name_resolves(layer, name):
    module = importlib.import_module(f"homodyne_feedback.{layer}")
    assert hasattr(module, name), f"perfbench uses homodyne_feedback.{layer}.{name}"


def test_fock_output_shape_read_by_perfbench():
    # spans.py times beamsplitter_output by keyword and reads the size of
    # its amplitude array; fock_case passes lo_alpha and source
    from homodyne_feedback.fock import SourceSpec, beamsplitter_output

    result = beamsplitter_output(lo_alpha=2.0, source=SourceSpec.vacuum())
    assert result.amplitudes.ndim == 2
    assert result.amplitudes.shape[0] == result.amplitudes.shape[1]
