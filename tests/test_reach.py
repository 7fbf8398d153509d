"""The package is what the CLI runs: every function under src/tatedual/ is
called inside some `cli.run` over a small corpus, or is allowlisted with its
reason.  A new function that only tests call fails here with its name."""

import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

import tatedual
from tatedual.cli import run
from test_cli import ACCEPTED_INPUTS, REJECTED_INPUTS, SLOW_INPUTS, USAGE_ERRORS
from test_output_digests import COMMANDS, corpus

PACKAGE = Path(tatedual.__file__).resolve().parent

# one code object each in 3.10 and 3.11, inlined from 3.12 on: part of the
# function that holds them, not functions of their own
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

_TEST_ONLY = "called by tests alone; ROADMAP item 4 moves it into tests/oracles.py or deletes it"
_RECORD = "record contract pinned by tests/test_records.py; the CLI never compares or shows it"

# qualified name -> why no `cli.run` calls it
ALLOWED = {
    "cli.main": "the entry point: it reads sys.argv and exits; CI's install step runs it",
    "gamma.cyclic_hull": _TEST_ONLY,
    "gamma.hull_with_coefficients": _TEST_ONLY,
    "numutil.gcd_with_coefficients": _TEST_ONLY,
    "numutil.xgcd": _TEST_ONLY,
    "numutil.prime_to_part": _TEST_ONLY,
    "supernatural.qn_contains": _TEST_ONLY,
    "padic.PAdicInt.truncate": _TEST_ONLY,
    "padic.PAdicInt.__eq__": _RECORD,
    "padic.PAdicInt.__hash__": _RECORD,
    "padic.PAdicInt.__repr__": _RECORD,
    "padic.PAdicInt.__setattr__": _RECORD,
    "padic.PAdicInt.__delattr__": _RECORD,
}

# a few seeded argvs per subcommand, then the argvs of the CLI tables; of the
# slow rows only one runs, the one that reaches Pollard rho in a third of a second
DIGEST_ARGVS_PER_COMMAND = 6
NAMED_ARGVS = (
    [param.values[0] for table in (ACCEPTED_INPUTS, REJECTED_INPUTS, USAGE_ERRORS)
     for param in table]
    + [param.values[0] for param in SLOW_INPUTS if param.id == "k0-sizes-40-bit-product"]
)


def package_functions() -> dict:
    """{(file, first line, name): qualified name} for every function defined
    under src/tatedual/, lambdas included, class bodies and comprehensions
    left out."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name in COMPREHENSIONS:
                continue
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                found[const.co_filename, const.co_firstlineno, const.co_name] = name
                name += ".<locals>"
            walk(const, name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return found


def corpus_argvs() -> list:
    argvs = [argv for command in COMMANDS for argv in corpus(command, DIGEST_ARGVS_PER_COMMAND)]
    argvs += [text.split() for text in NAMED_ARGVS]
    text_mode = [[arg for arg in argv if arg != "--json"] for argv in argvs]
    return text_mode + [argv + ["--json"] for argv in text_mode]


def reached_by(argvs) -> set:
    """(file, first line, name) of every function called inside the runs."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in argvs:
                run(argv)
        finally:
            sys.setprofile(previous)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)
            for code in called}


def test_every_package_function_is_called_by_some_cli_run():
    functions = package_functions()
    reached = {functions[key] for key in reached_by(corpus_argvs()) if key in functions}
    assert sorted(set(functions.values()) - reached - ALLOWED.keys()) == []
    # an entry whose function is gone, or that some run now calls, leaves the list
    assert sorted(ALLOWED.keys() - (set(functions.values()) - reached)) == []
