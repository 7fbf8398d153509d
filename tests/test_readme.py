"""README against the CLI: every `tatedual` example line runs in a child
process in text and with --json, a `# <output>` line under an example is
what it prints (`...` stands for any text), and the "Subcommands:" list is
exactly the parsers the CLI builds, each with a --help, and the "Each
command adds:" list names the modules `test_records.FIRST_RUNS` pins."""

import re
import shlex
from pathlib import Path

import pytest

from tatedual.cli import _COMMANDS
from test_cli import _one_document, cli_subprocess, invoke
from test_records import FIRST_RUNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_LINES = README.splitlines()
# (argv after `tatedual`, the output shown under it or None)
EXAMPLES = [
    (shlex.split(line)[1:], below[2:] if below.startswith("# ") else None)
    for line, below in zip(_LINES, _LINES[1:] + [""])
    if line.startswith("tatedual ")
]
SUBCOMMANDS = re.findall(
    r"`([a-z]+) ([a-z0-9-]+)`",
    README.partition("\nSubcommands:")[2].partition("Common flags:")[0],
)


def _modules_each_command_adds():
    """(group, subcommand, its sorted modules) for each command of the "Each
    command adds:" list; a bare subcommand takes the group named before it."""
    section = README.partition("Each command adds:\n")[2].partition("\n\n")[0]
    listed = []
    for item in re.split(r"^- ", section, flags=re.MULTILINE)[1:]:
        commands, _, modules = item.partition(":")
        for command in re.findall(r"`([a-z0-9 -]+)`", commands):
            *named, sub = command.split()
            group = named[0] if named else group
            listed.append((group, sub, sorted(re.findall(r"`([a-z]+)`", modules))))
    return listed


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=["-".join(a[:2]) for a, _ in EXAMPLES])
def test_readme_example_runs_in_text_and_as_one_json_line(argv, shown):
    done = cli_subprocess(*argv, timeout=30)
    assert done.returncode == 0, done.stderr
    if shown is not None:
        pattern = ".*".join(map(re.escape, shown.split("...")))
        assert re.fullmatch(pattern, done.stdout.rstrip("\n"), re.DOTALL), done.stdout
    done = cli_subprocess(*argv, "--json", timeout=30)
    assert done.returncode == 0, done.stderr
    _one_document(done.stdout, done.stderr)  # one JSON line, nothing on stderr


def test_readme_lists_every_subcommand_the_cli_builds():
    assert SUBCOMMANDS == [(group, sub) for group, sub, _, _ in _COMMANDS]


@pytest.mark.parametrize("argv", [()] + SUBCOMMANDS,
                         ids=["root"] + ["-".join(s) for s in SUBCOMMANDS])
def test_help_exits_zero(capsys, argv):
    assert invoke(capsys, *argv, "--help")[0] == 0


def test_readme_module_list_matches_the_first_runs():
    pinned = [(*argv.split()[:2], sorted(modules.split())) for argv, modules in FIRST_RUNS]
    assert sorted(_modules_each_command_adds()) == sorted(pinned)
