"""Every `hdsim` command shown in the README's `sh` blocks runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from homodyne_feedback.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text: str) -> list[list[str]]:
    """The argv of each `hdsim` line in the ```sh blocks, with `\\`
    continuations joined and `#` comments dropped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["hdsim"]:
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands(README.read_text())


def test_readme_commands_are_found():
    assert {argv[0] for argv in COMMANDS} == {"simulate", "oracle", "figure", "validate"}
    kinds = {argv[argv.index("--kind") + 1] for argv in COMMANDS if "--kind" in argv}
    assert kinds == {"drift-field", "decay", "record-histogram"}


# validate runs the acceptance suite, which tests/test_acceptance.py covers
@pytest.mark.parametrize(
    "argv",
    [argv for argv in COMMANDS if argv[0] != "validate"],
    ids=" ".join,
)
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = argv[argv.index("--out") + 1]
    assert (tmp_path / out).stat().st_size > 0
