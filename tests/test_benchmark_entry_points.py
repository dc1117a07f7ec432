"""The names the benchmark harness in perfbench/ reaches into the package for.

perfbench traces the functions in `spans.TARGETS` by name and reads a few
constants and classes directly.  A rename or deletion there breaks the
traced run, which only perfbench's own tests would otherwise notice.  Besides
the hand-kept lists below, every name perfbench's modules read from a package
module is found in their source.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homodyne_feedback

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans_constant(name):
    # read from the module's source: the harness itself is not imported here
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(SPANS.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]
    )


_TARGETS = _spans_constant("TARGETS")
_LAYERS = _spans_constant("LAYERS")

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


def _module_reads(tree):
    """(module, name) for every `from homodyne_feedback.M import NAME` in
    tree and every `M.NAME` where M is a bound package module."""
    reads, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "homodyne_feedback":
            modules |= {a.asname or a.name: a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("homodyne_feedback."):
            reads |= {(node.module.split(".")[1], a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("homodyne_feedback.") and a.asname:
                    modules[a.asname] = a.name.split(".")[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


# (file, module, name) read by perfbench's modules, its self-tests left out
_SCANNED = sorted(
    (path.name, layer, name)
    for path in PERFBENCH.glob("*.py")
    if not path.name.startswith("test_")
    for layer, name in _module_reads(ast.parse(path.read_text()))
)


def test_scan_finds_the_harness_reads():
    # a scan that stopped matching would pass every case below vacuously
    files = {f for f, _, _ in _SCANNED}
    assert {"layers.py", "facts.py", "shim.py", "traced_run.py"} <= files
    assert ("layers.py", "engine", "run_trajectory") in _SCANNED


@pytest.mark.parametrize("path,layer,name", _SCANNED)
def test_scanned_benchmark_name_resolves(path, layer, name):
    module = importlib.import_module(f"homodyne_feedback.{layer}")
    assert hasattr(module, name), f"perfbench/{path} uses homodyne_feedback.{layer}.{name}"


def test_fock_output_shape_read_by_perfbench():
    # spans.py times beamsplitter_output by keyword and reads the size of
    # its amplitude array; fock_case passes lo_alpha and source
    from homodyne_feedback.fock import SourceSpec, beamsplitter_output

    result = beamsplitter_output(lo_alpha=2.0, source=SourceSpec.vacuum())
    assert result.amplitudes.ndim == 2
    assert result.amplitudes.shape[0] == result.amplitudes.shape[1]


def test_cli_and_engine_load_every_traced_layer():
    # perfbench's tracer self-test imports only cli and engine before the
    # tracer patches every module of spans.LAYERS and checks that
    # cli.run_ensemble is restored, so cli must import those modules itself
    src = str(Path(homodyne_feedback.__file__).resolve().parents[1])
    code = (
        "import sys; from homodyne_feedback import cli, engine; "
        f"missing = [m for m in {_LAYERS!r} if 'homodyne_feedback.' + m not in sys.modules]; "
        "assert missing == [], missing; "
        "assert cli.run_ensemble is engine.run_ensemble"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
