"""The record contract: every value and result class builds from positional
or keyword arguments, shows its fields in order, cannot have a field
assigned (CommandResult excepted), and compares and hashes by its fields.
Importing the CLI loads neither `dataclasses` nor `inspect`."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import tatedual
from tatedual.cli import CommandResult
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
                         status="ok", diagnostics=[]), None),
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
        if cls is CommandResult:  # filled in as a command runs
            setattr(by_keyword, name, getattr(by_keyword, name))
        else:
            with pytest.raises(AttributeError):
                setattr(by_keyword, name, getattr(by_keyword, name))
    assert by_position == by_keyword


def test_record_defaults():
    assert UHFDescriptor() == UHFDescriptor((), ())
    assert SupernaturalNumber().exponents == {}
    first, second = CommandResult("c", {}, None), CommandResult("c", {}, None)
    assert (first.status, first.diagnostics) == ("ok", [])
    first.diagnostics.append("a diagnostic")
    assert second.diagnostics == []  # each result gets its own list


def test_a_residue_is_no_sequence():
    with pytest.raises(TypeError):
        3 * Q  # a tuple would repeat itself here


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site, so only the package's own imports count
    src = str(Path(tatedual.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tatedual.cli; "
            "tatedual.cli.build_parser(); "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.split() == []
