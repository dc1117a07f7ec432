"""Every `hdsim` command shown in the README's `sh` blocks runs and exits 0,
and the README's CLI section names every flag, and only flags and figure
kinds that exist."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from homodyne_feedback import cli
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


CLI_SECTION = re.search(r"^## CLI usage\n(.*?)^## ", README.read_text(), re.M | re.S).group(1)


def cli_flags() -> set[str]:
    """Every option string of every hdsim subcommand."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for parser in sub.choices.values() for flag in parser._option_string_actions}


NAMED = set(re.findall(r"--[a-z][a-z-]*", CLI_SECTION))


def test_cli_section_names_only_real_flags():
    flags = cli_flags()
    assert NAMED and NAMED <= flags, sorted(NAMED - flags)


def test_cli_section_names_every_flag():
    missing = cli_flags() - {"-h", "--help"} - NAMED
    assert not missing, sorted(missing)


def test_figure_kind_table_matches_cli():
    # | `kind` | `--flag` (default), ... |  lists each kind's flags beyond the
    # physical parameters every kind reads
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", CLI_SECTION, re.M))
    assert set(rows) == set(cli._FIGURE_KINDS)
    for kind, reads in cli._FIGURE_KINDS.items():
        listed = set(re.findall(r"`--([a-z-]+)`", rows[kind]))
        assert listed == set(reads) - set(cli._PARAMS), kind
