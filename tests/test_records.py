"""The record contract: every value and result class, `CommandResult`
included, builds from positional or keyword arguments, shows its fields in
order, cannot have a field assigned, and compares and hashes by its fields.
Importing the CLI and building its parser load none of `dataclasses`,
`inspect`, `typing`, `json`, `fractions` or `decimal`, nor any domain
module; a command run first loads only the domain modules it needs, never
`typing`, `json` only with --json, and `fractions` only when it loads
`gamma` or `duality`."""

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import tatedual
from tatedual.cli import _COMMANDS, CommandResult, run
from tatedual.duality import CircleElement, PerfectnessReport
from tatedual.gamma import (
    ContainsOneReport,
    CyclicSubgroupQ,
    DensityWitness,
    PruferElement,
    PruferRelation,
    PruferRelationsReport,
    SupernaturalLimit,
)
from tatedual.padic import CanonicalSequence, PAdicInt
from tatedual.supernatural import (
    INF,
    StableIsomorphism,
    SupernaturalNumber,
    TateUHF,
    UHFDescriptor,
)
from tatedual.tate import TateCoefficients

Q = PAdicInt(7, (0, 1, 2))
SN = SupernaturalNumber({2: INF, 3: 2})
# (class, constructor keywords in order, fields in order when they differ)
RECORDS = [
    (CommandResult, dict(command="uhf k0", inputs={"desc": "sizes=2"}, result={"k0": "2"},
                         status="ok", diagnostics=()), None),
    (CircleElement, dict(value=F(1, 3)), None),
    (PerfectnessReport, dict(p=3, level=1, modulus=3, left_nondegenerate=True,
                             right_nondegenerate=True, bilinear=True, counterexamples=()), None),
    (CyclicSubgroupQ, dict(generator=F(1, 9)), None),
    (PruferElement, dict(p=3, level=2, numerator=4), None),
    (ContainsOneReport, dict(contains_one=False, content=2), None),
    (DensityWitness, dict(witness=F(1, 3), distance=F(1, 9)), None),
    (PruferRelation, dict(n=1, holds=True, discrepancy=2), None),
    (PruferRelationsReport, dict(p_gamma1_zero=True, relations=(PruferRelation(1, True, 2),),
                                 levels=(0, 1), unbounded_order=True), None),
    (SupernaturalLimit, dict(sn=SN, scale=1, stabilized=True), None),
    (PAdicInt, dict(p=7, digits=(0, 1, 2)), dict(p=7, value=105, precision=3)),
    (CanonicalSequence, dict(p=7, entries=(0, 7, 105)), None),
    (SupernaturalNumber, dict(exponents={2: INF, 3: 2}), None),
    (UHFDescriptor, dict(prefix=(2, 4), tail=(3,)), None),
    (StableIsomorphism, dict(equal=True, witness=(1, 9)), None),
    (TateUHF, dict(descriptor=UHFDescriptor((), (2,)), k0=SN, scale=1, label="CAR"), None),
    (TateCoefficients, dict(a4=Q, a6=Q, terms_used=3, q_valuation=1), None),
]
UNHASHABLE = {CommandResult, SupernaturalNumber, SupernaturalLimit, TateUHF}


@pytest.mark.parametrize("cls, kwargs, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, kwargs, fields):
    fields = fields or kwargs
    by_position, by_keyword = cls(*kwargs.values()), cls(**kwargs)
    assert type(by_position) is cls
    assert by_position == by_keyword
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == f"{cls.__name__}({shown})"
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_position) == hash(by_keyword)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, getattr(by_keyword, name))
    assert by_position == by_keyword


def test_record_defaults():
    assert UHFDescriptor() == UHFDescriptor((), ())
    assert SupernaturalNumber().exponents == {}
    outcome = CommandResult("c", {}, None)
    assert (outcome.status, outcome.diagnostics) == ("ok", ())


def test_a_residue_is_no_sequence():
    with pytest.raises(TypeError):
        3 * Q  # a tuple would repeat itself here


SRC = str(Path(tatedual.__file__).resolve().parents[1])
CLI_MODULES = {"tatedual", "tatedual.cli", "tatedual.errors"}
# every child starts this way; package_modules() lists the tatedual.* loaded,
# and deferred() the standard-library modules that building the parser skips
_PRELUDE = """\
import sys
sys.path.insert(0, sys.argv[1])
def package_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "tatedual")
def deferred():
    watched = {"dataclasses", "inspect", "typing", "json", "fractions", "decimal"}
    return sorted(watched & set(sys.modules))
"""
# runs the argv after the path, then prints its exit code, stdout and stderr,
# the package modules it loaded and the deferred ones, the latter read before
# the child imports json to print
_RUN_FIRST = """\
import contextlib, io
import tatedual.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = tatedual.cli.run(sys.argv[2:])
stdlib = deferred()
import json
print(json.dumps([code, out.getvalue(), err.getvalue(), package_modules(), stdlib]))
"""


def _fresh(code, *args):
    """Run `code` in a fresh interpreter without site, user paths or bytecode
    caches, with this checkout first on sys.path; return its stdout."""
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _PRELUDE + code, SRC, *args],
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    out = _fresh("import tatedual.cli; tatedual.cli.build_parser(); "
                 "print(deferred(), package_modules())")
    assert out == f"[] {sorted(CLI_MODULES)}\n"  # building the parser loads no domain module


@pytest.mark.parametrize("argv", ["--help", "uhf k0 --help", "tate coeffs", "gamma nonsense"])
def test_help_and_text_usage_errors_load_only_the_parser(argv):
    code, _, _, loaded, deferred = json.loads(_fresh(_RUN_FIRST, *argv.split()))
    assert (code, loaded, deferred) == (0 if "--help" in argv else 2, sorted(CLI_MODULES), [])


# one run of each subcommand, and the domain modules it loads when it runs first
FIRST_RUNS = [
    ("padic canon --p 3 --prec 4 --q 6", "padic kernels numutil"),
    ("padic arith --op invert --p 5 --prec 4 --x 7 --json", "padic kernels numutil"),
    ("gamma gens --p 2 --q 2 --prec 4", "gamma padic kernels numutil"),
    ("gamma group --p 3 --prec 5 --q 6 --json", "gamma padic kernels numutil"),
    ("gamma prufer-check --p 2 --prec 4 --q 2", "gamma padic kernels numutil"),
    ("gamma contains-one --p 3 --prec 4 --q 6", "gamma padic kernels numutil"),
    ("gamma density --p 2 --prec 8 --q 2 --target 1/3 --epsilon 1/10",
     "gamma padic kernels numutil"),
    ("gamma limit --p 3 --prec 6 --q 6 --json", "gamma padic kernels numutil supernatural"),
    ("uhf k0 --desc sizes=2,6;tail=3", "supernatural numutil"),
    ("uhf stable-iso --n 2^inf --n2 2^inf*3^2 --json", "supernatural numutil"),
    ("uhf from-tate --p 2 --q 2 --prec 6", "supernatural gamma padic kernels numutil"),
    ("tate coeffs --p 3 --q 3 --prec 8 --json", "tate padic kernels numutil"),
    ("dual pair --p 3 --z 5 --prec 3 --gamma 2/9",
     "duality gamma padic kernels numutil"),
    ("dual check --p 3 --level 2 --json", "duality numutil"),
]


def test_first_runs_cover_every_subcommand():
    assert [tuple(argv.split()[:2]) for argv, _ in FIRST_RUNS] == [
        (group, sub) for group, sub, _, _ in _COMMANDS]


@pytest.mark.parametrize("argv, modules", FIRST_RUNS, ids=[a for a, _ in FIRST_RUNS])
def test_a_subcommand_run_first_loads_only_its_modules(capsys, argv, modules):
    # a circular import shows only when a particular module loads first
    code, child_out, child_err, loaded, deferred = json.loads(_fresh(_RUN_FIRST, *argv.split()))
    assert (code, child_out, child_err) == (run(argv.split()), *capsys.readouterr())
    assert code == 0
    assert set(loaded) == CLI_MODULES | {f"tatedual.{m}" for m in modules.split()}
    # the records are collections.namedtuples, only --json serializes, and
    # only modules that hold rationals load fractions
    assert "typing" not in deferred
    assert ("json" in deferred) == ("--json" in argv)
    assert ("fractions" in deferred) == bool({"gamma", "duality"} & set(modules.split()))
