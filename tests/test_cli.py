"""CLI contract: subcommand coverage, the JSON envelope, and exit codes.

A CLI case is a row in the table for its outcome, with the seconds one run of
it may take: ACCEPTED_INPUTS exit 0, REJECTED_INPUTS exit 2 or 3, and
USAGE_ERRORS are argparse's refusals, each run in text and JSON mode;
SLOW_INPUTS, the rows that take 0.1 s or more, run with --json only.  Every
JSON document is checked for the envelope as it is read."""

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import default_formatter_exit
from tatedual import cli, gamma, numutil, padic, supernatural
from tatedual.cli import _FLAGS, build_parser, run
from tatedual.duality import _check_enumeration_guard
from tatedual.errors import DomainError, first_unprintable_power
from tatedual.numutil import check_provable_prime

SRC = str(Path(__file__).resolve().parents[1] / "src")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_subprocess(*argv, timeout):
    """Run `python -m tatedual.cli *argv` in a child process that imports this
    checkout's package; a run past `timeout` seconds raises TimeoutExpired."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "tatedual.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


def _assert_no_floats(node):
    if isinstance(node, float):
        raise AssertionError(f"float leaked into JSON: {node!r}")
    if isinstance(node, dict):
        for v in node.values():
            _assert_no_floats(v)
    elif isinstance(node, list):
        for v in node:
            _assert_no_floats(v)


def _one_document(out, err):
    """The one JSON document a --json run prints, checked for the envelope:
    one canonical line, nothing on stderr, no float anywhere, and either a
    result and no diagnostic or one diagnostic and no result."""
    assert err == ""
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    _assert_no_floats(doc)
    assert sorted(doc) == ["command", "diagnostics", "inputs", "result", "status"]
    if doc["status"] == "ok":
        assert doc["diagnostics"] == [] and isinstance(doc["result"], dict)
    else:
        assert (doc["status"], doc["result"], len(doc["diagnostics"])) == ("error", None, 1)
    return doc


# --- the outcome tables ---------------------------------------------------------

def row(argv, *expected, budget=1.0, id):
    """One CLI case: its argv as one string, what it must print, and the
    seconds one run of it may take."""
    return pytest.param(argv, *expected, budget, id=id)


def _timed_run(capsys, argv, json_mode, budget):
    """(exit code, stdout, stderr) of one run of a row's argv, in its budget."""
    start = time.perf_counter()
    got = invoke(capsys, *argv.split(), *["--json"] * json_mode)
    assert time.perf_counter() - start < budget
    return got


def _document(argv, code, expected):
    """The JSON document a row's argv prints: its result, or its one
    diagnostic, under the command and the flag values it was given."""
    words = argv.split()
    inputs = {flag[2:]: _FLAGS[flag].get("type", str)(value)
              for flag, value in zip(words[2::2], words[3::2])}
    ok = code == 0
    return {"command": " ".join(words[:2]), "inputs": inputs, "status": "ok" if ok else "error",
            "result": expected if ok else None, "diagnostics": [] if ok else [expected]}


_LIMIT = f"limit of {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())"


def _unprintable(digits):
    return f"an output integer has {digits} decimal digits, over the int-to-str {_LIMIT}"


def _unreadable(digits):
    return f"an input integer has {digits} decimal digits, over the str-to-int {_LIMIT}"


def _perfect(p, level):
    """`dual check`'s result at a modulus where the pairing is perfect."""
    return {"p": p, "level": level, "modulus": p ** level, "left_nondegenerate": True,
            "right_nondegenerate": True, "bilinear": True, "perfect": True,
            "counterexamples": []}


def _rho_gives_up(size):
    return (f"cannot factorize {size} ({size.bit_length()} bits): Pollard rho found no factor "
            "in its budget of 1048576 steps; it is a strong probable prime to bases 2-37, so "
            "it may be a prime not below 318665857834031151167461, the bound of proven primality")


_PERFECT_TEXT = ("left_nondegenerate: True\nright_nondegenerate: True\nbilinear: True\n"
                 "perfect: True\ncounterexamples: \n")
_VALUATION = "q must satisfy valuation >= 1 (|q| < 1); got valuation 0"
_P65 = "18446744073709551629"  # a 65-bit prime: past the machine word, below the MR bound
_P40 = 1208925819535464337504999  # 1099511627689 * 1099511627791, split by rho
_Q = "1" + "0" * (sys.get_int_max_str_digits() - 1)  # at the str-to-int limit
_Q_SEQUENCE = [int(_Q) % 3 ** n for n in range(1, 5)]  # its a_1, ..., a_4 at p = 3
_D = "1" + "0" * 4999  # 5000 digits, past the default str-to-int limit of 4300
_U = "_".join(["1000"] * 1300)  # 5200 digits in groups, as int() and Fraction() read them

# (argv, result, text): inputs that exit 0, in text and JSON alike
ACCEPTED_INPUTS = [
    # the README's worked example q = p, as acceptance criterion 8 runs it
    row("gamma gens --p 2 --q 2 --prec 4", {"generators": ["0", "1/2", "1/4", "1/8"]},
        "generators: 0, 1/2, 1/4, 1/8\n", id="gens"),
    row("uhf from-tate --p 2 --q 2 --prec 6",
        {"descriptor": "sizes=;tail=2", "k0": "2^inf", "label": "CAR", "scale": 1},
        "descriptor: sizes=;tail=2\nk0: 2^inf\nscale: 1\nlabel: CAR\n", id="from-tate-car"),
    row("tate coeffs --p 2 --q 2 --prec 4",
        {"a4": "2 mod 2^4", "a4_digits": [0, 1, 0, 0], "a6": "2 mod 2^4",
         "a6_digits": [0, 1, 0, 0], "q_valuation": 1, "terms_used": 3},
        "a4: 2 mod 2^4\na6: 2 mod 2^4\na4_digits: 0, 1, 0, 0\na6_digits: 0, 1, 0, 0\n"
        "terms_used: 3\nq_valuation: 1\n", id="coeffs"),
    # each other subcommand
    row("padic canon --p 3 --q 12 --prec 4",
        {"entries": [0, 3, 12, 12], "p": 3, "precision": 4, "q": "12 mod 3^4"},
        "p: 3\nprecision: 4\nq: 12 mod 3^4\nentries: 0, 3, 12, 12\n", id="canon"),
    row("padic arith --op add --p 3 --prec 2 --x 2 --y 2",
        {"digits": [1, 1], "op": "add", "result": "4 mod 3^2"},
        "op: add\nresult: 4 mod 3^2\ndigits: 1, 1\n", id="arith-add"),
    row("padic arith --op invert --p 2 --prec 4 --x 9",
        {"digits": [1, 0, 0, 1], "op": "invert", "result": "9 mod 2^4"},
        "op: invert\nresult: 9 mod 2^4\ndigits: 1, 0, 0, 1\n", id="arith-invert"),
    row("gamma group --p 3 --q 6 --prec 3", {"generator": "2/9"}, "generator: 2/9\n", id="group"),
    row("gamma prufer-check --p 2 --q 2 --prec 5",
        {"all_hold": True, "levels": [0, 1, 2, 3, 4], "p_gamma1_zero": True,
         "relations": [{"discrepancy": c, "holds": True, "n": n}
                       for n, c in enumerate((1, 0, 0, 0), start=1)],
         "unbounded_order": True},
        "p_gamma1_zero: True\nrelations: {'n': 1, 'holds': True, 'discrepancy': 1}, "
        "{'n': 2, 'holds': True, 'discrepancy': 0}, {'n': 3, 'holds': True, 'discrepancy': 0}, "
        "{'n': 4, 'holds': True, 'discrepancy': 0}\nlevels: 0, 1, 2, 3, 4\n"
        "unbounded_order: True\nall_hold: True\n", id="prufer-check"),
    row("gamma contains-one --p 3 --q 6 --prec 6", {"contains_one": False, "content": 2},
        "contains_one: False\ncontent: 2\n", id="contains-one"),
    row("gamma density --p 3 --q 3 --prec 4 --target 1/2 --epsilon 1/9",
        {"distance": "1/54", "witness": "13/27"}, "witness: 13/27\ndistance: 1/54\n",
        id="density"),
    row("gamma limit --p 3 --q 6 --prec 6", {"scale": 2, "sn": "3^inf", "stabilized": True},
        "sn: 3^inf\nscale: 2\nstabilized: True\n", id="limit"),
    row("uhf k0 --desc sizes=6,10", {"descriptor": "sizes=6,10", "k0": "2^2*3*5"},
        "descriptor: sizes=6,10\nk0: 2^2*3*5\n", id="k0"),
    row("uhf stable-iso --n 2^inf --n2 3^inf", {"equal": False}, "equal: False\n",
        id="stable-iso-unequal"),
    row("uhf stable-iso --n 2^inf --n2 2^inf*3^2", {"equal": True, "witness": {"r": 1, "s": 9}},
        "equal: True\nwitness: {'r': 1, 's': 9}\n", id="stable-iso-equal"),
    row("dual pair --p 2 --z 5 --prec 3 --gamma 1/2^3",
        {"gamma": "1/2^3", "value": "5/8", "z": "5 mod 2^3"},
        "z: 5 mod 2^3\ngamma: 1/2^3\nvalue: 5/8\n", id="pair"),
    row("dual check --p 2 --level 3", _perfect(2, 3),
        "p: 2\nlevel: 3\nmodulus: 8\n" + _PERFECT_TEXT, id="check-8"),
    row("dual check --p 3 --level 2", _perfect(3, 2),
        "p: 3\nlevel: 2\nmodulus: 9\n" + _PERFECT_TEXT, id="check-9"),
    # a digit list sets the precision, and a bracketed text is one even without a comma
    row("padic canon --p 2 --q [0,1,0,0]",
        {"entries": [0, 2, 2, 2], "p": 2, "precision": 4, "q": "2 mod 2^4"},
        "p: 2\nprecision: 4\nq: 2 mod 2^4\nentries: 0, 2, 2, 2\n", id="canon-digit-list"),
    row("padic canon --p 3 --q [2]", {"entries": [2], "p": 3, "precision": 1, "q": "2 mod 3^1"},
        "p: 3\nprecision: 1\nq: 2 mod 3^1\nentries: 2\n", id="canon-one-digit"),
    # degenerate inputs
    row("dual pair --p 3 --z 1 --prec 2 --gamma 1", {"gamma": "0", "value": "0", "z": "1 mod 3^2"},
        "z: 1 mod 3^2\ngamma: 0\nvalue: 0\n", id="pair-integer-gamma"),
    row("uhf k0 --desc sizes=2;", {"descriptor": "sizes=2", "k0": "2"},
        "descriptor: sizes=2\nk0: 2\n", id="k0-trailing-semicolon"),
    row("uhf stable-iso --n 2^0*3 --n2 3", {"equal": True, "witness": {"r": 1, "s": 1}},
        "equal: True\nwitness: {'r': 1, 's': 1}\n", id="stable-iso-zeroth-power"),
    # 0/b^k is the zero element for any nonzero b, so b^k (3^3000000 alone takes
    # about 0.6 s) is never built; 0/0^0 is 0/1
    *[row(f"dual pair --p 3 --z 1 --prec 3 --gamma {gamma_}",
          {"gamma": "0", "value": "0", "z": "1 mod 3^3"}, "z: 1 mod 3^3\ngamma: 0\nvalue: 0\n",
          budget=0.5, id=f"pair-{gamma_}")
      for gamma_ in ("0/3^5", "0/3^99999999", "0/6^99999999", "0/0^0")],
    # a sampled re-check of the witness once trial-divided 1099511627689^2
    row("uhf stable-iso --n 1099511627689^2 --n2 1099511627689",
        {"equal": True, "witness": {"r": 1099511627689, "s": 1}},
        "equal: True\nwitness: {'r': 1099511627689, 's': 1}\n", id="stable-iso-40-bit-prime"),
    # each tail size is factorized, not their product
    row("uhf k0 --desc sizes=;tail=1099511627689,1099511627791",
        {"descriptor": "sizes=;tail=1099511627689,1099511627791",
         "k0": "1099511627689^inf*1099511627791^inf"},
        "descriptor: sizes=;tail=1099511627689,1099511627791\n"
        "k0: 1099511627689^inf*1099511627791^inf\n", id="k0-two-40-bit-tails"),
    # the K0 side once checked its primes against the p-adic side's word limit
    row(f"uhf k0 --desc sizes={_P65}", {"descriptor": f"sizes={_P65}", "k0": _P65},
        f"descriptor: sizes={_P65}\nk0: {_P65}\n", id="k0-65-bit-prime"),
    row(f"uhf k0 --desc sizes=2;tail={_P65}",
        {"descriptor": f"sizes=2;tail={_P65}", "k0": f"2*{_P65}^inf"},
        f"descriptor: sizes=2;tail={_P65}\nk0: 2*{_P65}^inf\n", id="k0-65-bit-tail"),
    row(f"uhf stable-iso --n {_P65} --n2 1", {"equal": True, "witness": {"r": int(_P65), "s": 1}},
        f"equal: True\nwitness: {{'r': {_P65}, 's': 1}}\n", id="stable-iso-65-bit-prime"),
    # integers at the str-to-int and int-to-str limits pass
    row(f"padic canon --p 3 --prec 4 --q {_Q}",
        {"entries": _Q_SEQUENCE, "p": 3, "precision": 4, "q": f"{_Q_SEQUENCE[-1]} mod 3^4"},
        f"p: 3\nprecision: 4\nq: {_Q_SEQUENCE[-1]} mod 3^4\n"
        f"entries: {', '.join(map(str, _Q_SEQUENCE))}\n", id="canon-q-at-the-limit"),
    row("uhf stable-iso --n 2^14284 --n2 1", {"equal": True, "witness": {"r": 2 ** 14284, "s": 1}},
        f"equal: True\nwitness: {{'r': {2 ** 14284}, 's': 1}}\n", id="stable-iso-r-at-the-limit"),
]

# (flag, argv, diagnostic): malformed text in each free-text option exits 2
MALFORMED_TEXT = [
    ("--q", "padic canon --p 2 --prec 2 --q 1e3",
     "--q must be an integer or digit list, got '1e3'"),
    ("--x", "padic arith --op neg --p 3 --prec 2 --x 1.5",
     "--x must be an integer or digit list, got '1.5'"),
    ("--y", "padic arith --op add --p 3 --prec 2 --x 1 --y [1,x]",
     "malformed digit list for --y: '[1,x]'"),
    ("--z", "dual pair --p 3 --prec 2 --z z --gamma 1/3",
     "--z must be an integer or digit list, got 'z'"),
    ("--gamma", "dual pair --p 3 --z 1 --prec 2 --gamma 1/4^-1",
     "malformed torsion element: '1/4^-1'"),
    ("--gamma", "dual pair --p 3 --z 1 --prec 2 --gamma 0/0", "zero denominator in '0/0'"),
    ("--target", "gamma density --p 3 --q 3 --prec 4 --target nan --epsilon 1/9",
     "malformed --target: 'nan'"),
    ("--epsilon", "gamma density --p 3 --q 3 --prec 4 --target 1/2 --epsilon 1/0",
     "malformed --epsilon: '1/0'"),
    ("--desc", "uhf k0 --desc sizes=2^3", "malformed size list: '2^3'"),
    ("--desc", "uhf k0 --desc sizes=2;sizes=3", "malformed descriptor chunk: 'sizes=3'"),
    ("--n", "uhf stable-iso --n 2^-1 --n2 1", "malformed supernatural factor: '2^-1'"),
    ("--n2", "uhf stable-iso --n 1 --n2 2*x", "malformed supernatural factor: 'x'"),
]


def test_every_free_text_option_has_a_malformed_case():
    free_text = {flag for flag, spec in _FLAGS.items()
                 if not {"type", "choices", "action"} & spec.keys()}
    assert {flag for flag, _, _ in MALFORMED_TEXT} == free_text


# (argv, exit code, diagnostic): inputs the package refuses, in text and JSON alike
REJECTED_INPUTS = [
    row("padic canon --p 2 --prec 3", 2, "--q is required", id="no-q"),
    row("gamma gens --p 2 --q 2", 2, "--prec is required when --q is an integer", id="no-prec"),
    row("padic canon --p 2 --q 0,1 --prec 3", 2, "--prec 3 does not match digit list length 2",
        id="prec-not-the-list-length"),
    row("padic canon --p 2 --q [a,b] --prec 2", 2, "malformed digit list for --q: '[a,b]'",
        id="q-letters-in-list"),
    row("padic canon --p 2 --q abc --prec 2", 2,
        "--q must be an integer or digit list, got 'abc'", id="q-letters"),
    row("gamma density --p 3 --q 3 --prec 4 --target x/y --epsilon 1/9", 2,
        "malformed --target: 'x/y'", id="target-letters"),
    row("uhf k0 --desc ;", 2, "malformed descriptor: ';'", id="k0-empty-descriptor"),
    row("dual pair --p 3 --z 1 --prec 2 --gamma 1/0", 2, "zero denominator in '1/0'",
        id="pair-over-0"),
    # 0/0^k keeps its exit code however large k is; 0/0^0 is accepted above
    *[row(f"dual pair --p 3 --z 1 --prec 3 --gamma {gamma_}", 2,
          f"zero denominator in '{gamma_}'", id=f"pair-{gamma_}")
      for gamma_ in ("0/0", "0/0^1", "0/0^99999999")],
    # a malformed z is a usage error before the level of gamma is read
    row("dual pair --p 3 --z 1x --prec 3 --gamma 1/3^99999999", 2,
        "--z must be an integer or digit list, got '1x'", id="pair-z-malformed-first"),
    # p is a prime that fits in a machine word
    row("gamma group --p 1 --q 3 --prec 2", 3, "p=1 is not prime (primes start at 2)",
        id="p-1"),
    row("gamma group --p -5 --q 3 --prec 2", 3, "p=-5 is not prime (primes start at 2)",
        id="p-negative"),
    row("dual check --p -7 --level 1", 3, "p=-7 is not prime (primes start at 2)",
        id="check-p-negative"),
    row("padic canon --p 15 --q 1 --prec 3", 3, "p=15 is not prime (divisible by 3)", id="p-15"),
    # two 31-bit factors, found fast
    row("padic canon --p 4611685975477714963 --q 1 --prec 2", 3,
        "p=4611685975477714963 is not prime (divisible by 2147483629)", id="p-two-31-bit-factors"),
    row("gamma group --p 18446744073709551557 --q 3 --prec 2", 3,
        "p=18446744073709551557 does not fit in a machine word", id="p-64-bit-prime"),
    row("gamma group --p 9223372036854775808 --q 3 --prec 2", 3,
        "p=9223372036854775808 does not fit in a machine word", id="p-2-to-the-63"),
    # the prime the K0 side admits stays out of the p-adic side
    row(f"padic canon --p {_P65} --q 1 --prec 2", 3, f"p={_P65} does not fit in a machine word",
        id="p-65-bit-prime"),
    # psi_12 passes all 12 bases of the primality test, and is composite
    row("uhf stable-iso --n 318665857834031151167461 --n2 1", 3,
        "supernatural factor 318665857834031151167461 is not below "
        "318665857834031151167461, the bound of proven primality", id="stable-iso-psi-12"),
    row("uhf stable-iso --n 6 --n2 1", 3, "supernatural factor 6 is not prime (divisible by 2)",
        id="stable-iso-composite"),
    # well-formed text that breaks a precondition exits 3, one case per parser
    row("padic canon --p 3 --q [0,5]", 3, "digit c_1=5 out of range [0, 2]", id="digit-5"),
    row("gamma density --p 3 --q 3 --prec 4 --target 1/2 --epsilon 0", 3,
        "epsilon must be positive, got 0", id="epsilon-0"),
    row("dual pair --p 3 --z 1 --prec 2 --gamma 1/6", 3,
        "denominator of 1/6 has a factor 2 prime to 3", id="pair-1-over-6"),
    row("uhf k0 --desc sizes=2,0", 3, "matrix size 0 rejected; sizes are integers >= 1",
        id="k0-size-0"),
    row("uhf stable-iso --n 2*2 --n2 1", 3, "prime 2 listed twice in '2*2'", id="prime-twice"),
    # [5] is the digit 5, out of range at p = 3, not the integer 5
    row("padic canon --p 3 --q [5] --prec 1", 3, "digit c_0=5 out of range [0, 2]",
        id="one-digit-list-5"),
    # q's valuation: each subcommand that needs |q| < 1 or q != 0
    row("tate coeffs --p 2 --q 3 --prec 4", 3,
        "q is a unit (valuation 0); the series needs 0 < |q| < 1", id="coeffs-unit-q"),
    row("gamma prufer-check --p 3 --q 1 --prec 4", 3, _VALUATION, id="prufer-check-unit-q"),
    row("gamma limit --p 3 --q 2 --prec 4", 3, _VALUATION, id="limit-unit-q"),
    row("uhf from-tate --p 2 --q 3 --prec 4", 3, _VALUATION, id="from-tate-unit-q"),
    row("gamma contains-one --p 3 --q 0 --prec 4", 3,
        "q is 0 at precision 4; the group it spans is trivial", id="contains-one-zero-q"),
    row("padic arith --op invert --p 2 --prec 4 --x 4", 3,
        "cannot invert a non-unit: valuation is 2", id="invert-non-unit"),
    # x = 0 names the valuation sentinel
    row("padic arith --op invert --p 2 --prec 4 --x 0", 3,
        "cannot invert a non-unit: valuation is at_least_precision", id="invert-zero"),
    # a foreign factor is named as the prime-to-p part: 9 is the 2-free part of 36
    row("dual pair --p 2 --z 1 --prec 2 --gamma 1/3^2", 3,
        "denominator of 1/9 has a factor 9 prime to 2", id="pair-1-over-3-squared"),
    row("dual pair --p 2 --z 1 --prec 3 --gamma 1/36", 3,
        "denominator of 1/36 has a factor 9 prime to 2", id="pair-1-over-36"),
    # 6^9000 has 7004 digits; its prime-to-3 part 2^9000 has 2710
    row("dual pair --p 3 --z 1 --prec 3 --gamma 1/6^9000", 3,
        f"denominator of 1/<7004 digits> has a factor {2 ** 9000} prime to 3",
        id="pair-1-over-6-to-the-9000"),
    # the level of a/(p^e)^k is e*k - v_p(a), read without building the power:
    # 2^3000000 has 375 KB, 3^99999999 19.8 MB (over a minute), and 9^3000000
    # then 3^6000000 twice took 3.9 s
    row("dual pair --p 2 --z 1 --prec 3 --gamma 1/2^3000000", 3,
        "pairing at level 3000000 needs z mod 2^3000000, but z carries precision 3",
        id="pair-level-3000000"),
    row("dual pair --p 3 --z 1 --prec 3 --gamma 1/3^99999999", 3,
        "pairing at level 99999999 needs z mod 3^99999999, but z carries precision 3",
        budget=0.5, id="pair-level-99999999"),
    row("dual pair --p 3 --z 1 --prec 3 --gamma 1/9^3000000", 3,
        "pairing at level 6000000 needs z mod 3^6000000, but z carries precision 3",
        id="pair-base-9-level-6000000"),
    row("dual pair --p 3 --z 1 --prec 3 --gamma 1/9^2", 3,
        "pairing at level 4 needs z mod 3^4, but z carries precision 3", id="pair-base-9-level-4"),
    # the enumeration guard decides before the power is built or printed; the
    # scan visits m^2 cells, so at m = 2^16 it would run for minutes
    row("dual check --p 2 --level 100000000", 3, "enumeration guard exceeded: 2^100000000 > 8192",
        id="check-2-to-the-100000000"),
    row("dual check --p 2 --level 16", 3, "enumeration guard exceeded: 2^16 = 65536 > 8192",
        id="check-2-to-the-16"),
    row("dual check --p 3 --level 100000000", 3, "enumeration guard exceeded: 3^100000000 > 8192",
        id="check-3-to-the-100000000"),
    row("dual check --p 3 --level 20", 3, "enumeration guard exceeded: 3^20 = 3486784401 > 8192",
        id="check-3-to-the-20"),
    # an epsilon past the int-to-str limit is named by its digit count
    row("gamma density --p 3 --q 3 --prec 20 --target 1/2 --epsilon 1e-5000", 3,
        "hull generator 1/1162261467 exceeds epsilon 1/<5001 digits>; "
        "precision about N=10481 would suffice", id="density-epsilon-1e-5000"),
    row("gamma density --p 3 --q 3 --prec 20 --target 1/2 --epsilon 1e-3000", 3,
        f"hull generator 1/1162261467 exceeds epsilon 1/{10 ** 3000}; "
        "precision about N=6289 would suffice", id="density-epsilon-1e-3000"),
    # output integers past the int-to-str limit, refused before they are built:
    # 3^10000 - 1 has 4772 digits
    row("padic canon --p 3 --q -1 --prec 10000", 3, _unprintable(4772), id="canon-q-minus-1"),
    # generator 14286 of q = 2 is 1/2^14285; building and formatting the 14285
    # generators before it took 1.5-2 s
    *[row(f"gamma gens --p 2 --q 2 --prec {prec}", 3, _unprintable(4301), budget=0.1,
          id=f"gens-prec-{prec}") for prec in (20000, 40000)],
    # the witness r = 3^99999 has 47712 digits; building 3^9999999 took seconds
    # before its digits were counted, and the digit count of 2^99999999 once came
    # from building 10^30102999
    row("uhf stable-iso --n 2^inf*3^99999 --n2 2^inf", 3, _unprintable(47712),
        id="stable-iso-r-3-to-the-99999"),
    row("uhf stable-iso --n 3^9999999 --n2 1", 3, _unprintable(4771213),
        id="stable-iso-r-3-to-the-9999999"),
    row("uhf stable-iso --n 2^99999999 --n2 1", 3, _unprintable(30103000), budget=2.0,
        id="stable-iso-r-2-to-the-99999999"),
    row("uhf stable-iso --n 2^14285 --n2 1", 3, _unprintable(4301), id="stable-iso-r-past-limit"),
    row("uhf stable-iso --n 5 --n2 2^14286", 3, _unprintable(4301), id="stable-iso-s-past-limit"),
    # input integers past the str-to-int limit, one per free-text option, are
    # refused before the handler runs; int() on one raised ValueError, or each
    # parser named it its own way
    *[row(argv, 3, _unreadable(5000), id=id_) for argv, id_ in [
        (f"dual pair --p 3 --z 1 --prec 3 --gamma {_D}", "pair-gamma-D"),
        (f"dual pair --p 3 --z 1 --prec 3 --gamma 1/{_D}", "pair-gamma-1-over-D"),
        (f"dual pair --p 3 --z 1 --prec 3 --gamma 1/3^{_D}", "pair-gamma-1-over-3-to-the-D"),
        (f"uhf stable-iso --n {_D} --n2 1", "stable-iso-n-D"),
        (f"uhf stable-iso --n 2^{_D} --n2 1", "stable-iso-n-2-to-the-D"),
        (f"padic canon --p 3 --prec 4 --q {_D}", "canon-q-D"),
        (f"padic canon --p 3 --prec 2 --q 1,{_D}", "canon-q-digit-list-D"),
        (f"padic arith --op add --p 3 --prec 4 --x {_D} --y 1", "arith-x-D"),
        (f"dual pair --p 3 --prec 3 --z {_D} --gamma 1/3", "pair-z-D"),
        (f"gamma density --p 3 --q 3 --prec 4 --target {_D} --epsilon 1/2", "density-target-D"),
        (f"gamma density --p 3 --q 3 --prec 4 --target 1/2 --epsilon 1/{_D}",
         "density-epsilon-1-over-D"),
        (f"uhf k0 --desc sizes={_D}", "k0-sizes-D"),
        (f"uhf k0 --desc sizes=;tail={_D}", "k0-tail-D"),
    ]],
    # the underscores are not digits; the groups they join are one integer
    *[row(argv, 3, _unreadable(5200), id=id_) for argv, id_ in [
        (f"padic canon --p 3 --prec 4 --q {_U}", "canon-q-U"),
        (f"gamma density --p 3 --q 3 --prec 4 --target {_U} --epsilon 1/2", "density-target-U"),
        (f"uhf k0 --desc sizes={_U}", "k0-sizes-U"),
    ]],
] + [row(argv, 2, diagnostic, id=f"malformed-{flag[2:]}-{i}")
     for i, (flag, argv, diagnostic) in enumerate(MALFORMED_TEXT)]

# (argv, exit code, result or diagnostic): the rows that take 0.1 s or more,
# run with --json only, so that tier-1 time does not grow
SLOW_INPUTS = [
    # the largest moduli the benchmark scans: the prime 2039, and 2^11, whose
    # lane sums reach 2m - 1, just under the guard bit
    row("dual check --p 2039 --level 1", 0, _perfect(2039, 1), id="check-2039"),
    row("dual check --p 2 --level 11", 0, _perfect(2, 11), id="check-2-to-the-11"),
    # q is small but p^N has about 1.6 million bits: no a_n or p^n is built
    row("gamma contains-one --p 65521 --prec 100000 --q 290700359666", 0,
        {"contains_one": True, "content": 1}, budget=2.0, id="contains-one-prec-100000"),
    # an 80-bit size: trial division past 2^63 never ended
    row(f"uhf k0 --desc sizes={_P40}", 0,
        {"descriptor": f"sizes={_P40}", "k0": "1099511627689*1099511627791"},
        budget=3.0, id="k0-sizes-40-bit-product"),
    row(f"uhf k0 --desc tail={_P40}", 0,
        {"descriptor": f"sizes=;tail={_P40}",
         "k0": "1099511627689^inf*1099511627791^inf"}, budget=3.0, id="k0-tail-40-bit-product"),
    # 1099511627689^2 (80 bits): one gcd per rho step ran out of budget here
    row("uhf k0 --desc sizes=1208925819423314151480721", 0,
        {"descriptor": "sizes=1208925819423314151480721", "k0": "1099511627689^2"},
        budget=3.0, id="k0-40-bit-square"),
    # an 81-bit probable prime, where Miller-Rabin is not exact and rho finds
    # nothing, and a Mersenne prime past the bound of proven primality
    row("uhf k0 --desc sizes=1208925819614629174706189", 3,
        _rho_gives_up(1208925819614629174706189), budget=3.0, id="k0-rho-gives-up-81-bit"),
    row(f"uhf k0 --desc sizes={2 ** 89 - 1}", 3, _rho_gives_up(2 ** 89 - 1), budget=3.0,
        id="k0-rho-gives-up-2-to-the-89-minus-1"),
    # the prime-to-p factor 3^1000000 or 2^1000000 comes from the literal base 6;
    # splitting p out of 6^1000000 itself took 7-10 s
    row("dual pair --p 2 --z 1 --prec 3 --gamma 1/6^1000000", 3,
        "denominator of 1/<778152 digits> has a factor <477122 digits> prime to 2",
        id="pair-p-2-base-6"),
    row("dual pair --p 3 --z 1 --prec 3 --gamma 1/6^1000000", 3,
        "denominator of 1/<778152 digits> has a factor <301030 digits> prime to 3",
        id="pair-p-3-base-6"),
]

# (argv, subcommand path reached, start of the diagnostic): one usage error per
# depth, in text and JSON alike; argparse words its list of choices differently
# across Python versions, so only the start of its message is compared
USAGE_ERRORS = [
    row("gamma gens --p x --prec 3 --q 2", "gamma gens", "argument --p: invalid int value: 'x'",
        id="p-not-an-int"),
    row("nonsense", "", "argument group: invalid choice: 'nonsense'", id="unknown-group"),
    row("gamma nonsense", "gamma", "argument sub: invalid choice: 'nonsense'",
        id="unknown-subcommand"),
    row("gamma gens --p 2 --prec 3 --q 2 --bogus", "", "unrecognized arguments: --bogus",
        id="unknown-flag"),
    row("gamma density --p 3", "gamma density",
        "the following arguments are required: --target, --epsilon", id="missing-flags"),
]

MODES = pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])


@MODES
@pytest.mark.parametrize("argv, result, text, budget", ACCEPTED_INPUTS)
def test_accepted_inputs_print_their_result_in_both_modes(capsys, argv, result, text, budget,
                                                          json_mode):
    code, out, err = _timed_run(capsys, argv, json_mode, budget)
    assert code == 0
    if json_mode:
        assert _one_document(out, err) == _document(argv, 0, result)
    else:
        assert (out, err) == (text, "")


@MODES
@pytest.mark.parametrize("argv, code, diagnostic, budget", REJECTED_INPUTS)
def test_rejected_inputs_name_their_fault_in_both_modes(capsys, argv, code, diagnostic, budget,
                                                        json_mode):
    got, out, err = _timed_run(capsys, argv, json_mode, budget)
    assert got == code
    if json_mode:
        assert _one_document(out, err) == _document(argv, code, diagnostic)
    else:
        assert (out, err) == ("", f"status: error\nerror: {diagnostic}\n")


@pytest.mark.parametrize("argv, code, expected, budget", SLOW_INPUTS)
def test_slow_inputs_print_one_json_document_in_their_budget(capsys, argv, code, expected,
                                                             budget):
    got, out, err = _timed_run(capsys, argv, True, budget)
    assert got == code
    assert _one_document(out, err) == _document(argv, code, expected)


@MODES
@pytest.mark.parametrize("argv, command, diagnostic, budget", USAGE_ERRORS)
def test_usage_errors_name_the_parser_that_refused_in_both_modes(capsys, argv, command,
                                                                 diagnostic, budget, json_mode):
    code, out, err = _timed_run(capsys, argv, json_mode, budget)
    assert code == 2
    if json_mode:
        doc = _one_document(out, err)
        assert (doc["command"], doc["inputs"]) == (command, {})
        (message,) = doc["diagnostics"]
    else:
        assert out == "" and err.startswith("usage: tatedual")
        prog, _, message = err.splitlines()[-1].partition(": error: ")
        assert prog == f"tatedual {command}".rstrip()
    assert message.startswith(diagnostic)


def test_every_subcommand_has_an_accepted_and_a_refused_row():
    commands = {f"{group} {sub}" for group, sub, _, _ in cli._COMMANDS}
    for table in (ACCEPTED_INPUTS, REJECTED_INPUTS):
        assert {" ".join(param.values[0].split()[:2]) for param in table} == commands


def test_op_choices_are_the_padic_arithmetic_ops_in_order(capsys):
    # the parser spells them out, so that building it loads no padic
    ops = tuple(padic.ARITHMETIC_OPS)
    assert _FLAGS["--op"]["choices"] == ops
    code, out, _ = invoke(capsys, "padic", "arith", "--help")
    assert code == 0
    assert "--op {" + ",".join(ops) + "}" in out
    code, out, err = invoke(capsys, "padic", "arith", "--op", "sub", "--p", "3", "--x", "1",
                            "--json")
    assert code == 2
    (diagnostic,) = _one_document(out, err)["diagnostics"]
    listed = ", ".join(f"'?{op}'?" for op in ops)  # quoted on some Python versions only
    assert re.fullmatch(rf"argument --op: invalid choice: '?sub'? \(choose from {listed}\)",
                        diagnostic)


# the 63-bit prime's powers overshoot 10^640 by several digits, so a numerator
# past the limit can be named by a digit count of its own (641 against 645 in the
# example); `invoke` reads capsys out on every call, so no example sees another's output
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(p=9223372036854775783, v=1, offset=0, top_zeros=0, seed=4)
@given(p=st.sampled_from((2, 3, 7, 9223372036854775783)), v=st.integers(0, 3),
       offset=st.integers(-2, 2), top_zeros=st.integers(0, 3), seed=st.integers(0, 2 ** 32))
def test_gamma_gens_refusal_is_the_one_formatting_in_order_gives(capsys, p, v, offset,
                                                                   top_zeros, seed):
    rng = random.Random(seed)  # thousands of digits, too many for hypothesis to draw
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        k, pk = 1, p  # the least k with p^k past 640 digits
        while pk < 10 ** 640:
            k, pk = k + 1, pk * p
        n = v + max(1, k + offset)
        # q has valuation v; its top digits spread over many sizes, or are 0
        digits = [0] * v + [rng.randrange(1, p)] + [
            rng.randrange(min(p, 1 << rng.randint(1, p.bit_length()))) for _ in range(n - v - 1)
        ]
        digits[max(v + 1, n - top_zeros):] = [0] * min(top_zeros, n - v - 1)
        q = padic.PAdicInt(p, tuple(digits))
        try:
            expected = (0, [cli._fraction(g) for g in gamma.gamma_generators(q)])
        except DomainError as exc:
            expected = (3, str(exc))
        code, out, err = invoke(capsys, "gamma", "gens", "--p", str(p), "--q",
                                ",".join(map(str, digits)), "--json")
    finally:
        sys.set_int_max_str_digits(limit)
    doc = _one_document(out, err)
    assert (code, doc["result"]["generators"] if code == 0 else doc["diagnostics"][0]) == expected


def test_gamma_gens_with_no_int_str_limit_refuses_nothing(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert first_unprintable_power(2) is None
        got = invoke(capsys, "gamma", "gens", "--p", "2", "--q", "2", "--prec", "4")
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == (0, "generators: 0, 1/2, 1/4, 1/8\n", "")


def test_k0_side_proves_no_prime_that_factorize_proved(capsys, monkeypatch):
    proofs = []

    def counted(p, *args, **kwargs):
        proofs.append(p)
        return check_provable_prime(p, *args, **kwargs)

    for module in (numutil, supernatural):
        monkeypatch.setattr(module, "check_provable_prime", counted)
    code, out, err = invoke(capsys, "uhf", "k0", "--desc", "sizes=1099511627689,997", "--json")
    assert (code, _one_document(out, err)["result"]["k0"], proofs) == (0, "997*1099511627689", [])
    # the counter is live: a factor read from the command line is still proved
    assert invoke(capsys, "uhf", "stable-iso", "--n", "6", "--n2", "1")[0] == 3
    assert proofs == [6]


def test_enumeration_guard_admits_2_to_the_13_and_no_more():
    _check_enumeration_guard(2, 13)  # decided without a scan
    _check_enumeration_guard(89, 2)
    with pytest.raises(DomainError, match=r"2\^14 = 16384 > 8192"):
        _check_enumeration_guard(2, 14)


@pytest.mark.parametrize("p, level", [("2", "13"), ("8191", "1"), ("89", "2")])
def test_dual_check_at_the_enumeration_guard_is_perfect_within_60_s(p, level):
    done = cli_subprocess("dual", "check", "--p", p, "--level", level, "--json", timeout=60)
    assert done.returncode == 0, done.stderr
    assert '"perfect":true' in done.stdout


def test_stable_iso_witness_of_30_billion_digits_fits_in_1_gib():
    # 2^99999999999 would take 12 GB to build; the child caps its own address
    # space, so a build fails there with MemoryError instead of filling the host
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from tatedual.cli import run; "
            "sys.exit(run(['uhf', 'stable-iso', '--n', '2^99999999999', '--n2', '1', '--json']))")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": SRC}, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 3, done.stderr
    doc = _one_document(done.stdout, done.stderr)
    assert doc["diagnostics"][0].startswith("an output integer has 30102999567 decimal digits")
    assert elapsed < 1.0


@pytest.mark.parametrize("level, shown", [("100000000", "3^100000000"), ("20", "3^20")])
def test_enumeration_guard_shows_no_power_with_the_limit_lifted(capsys, level, shown):
    # with the default limit, the rows of REJECTED_INPUTS show 3^20 = 3486784401
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = _timed_run(capsys, f"dual check --p 3 --level {level}", True, 1.0)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 3
    assert _one_document(out, err)["diagnostics"] == [f"enumeration guard exceeded: {shown} > 8192"]


def test_usage_errors_in_text_mode_keep_argparse_usage_on_stderr(capsys):
    code, out, err = invoke(capsys, "gamma", "gens", "--p", "x", "--prec", "3", "--q", "2")
    assert code == 2
    assert out == ""
    assert err == (
        "usage: tatedual gamma gens [-h] --p P [--prec PREC] [--q Q] [--json]\n"
        "tatedual gamma gens: error: argument --p: invalid int value: 'x'\n"
    )


def test_one_parser_build_asks_the_terminal_for_its_width_once(monkeypatch):
    calls = []
    asked = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return asked(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    build_parser()
    assert len(calls) == 1


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", [
    "--help", "gamma --help", "gamma density --help",
    "nonsense", "gamma nonsense", "gamma density --p 3",
    "tate coeffs --p 3 --q 3 --prec 8 extra",  # the root reports it, after a valid subcommand
])
def test_help_and_usage_print_as_with_argparse_default_formatter(capsys, monkeypatch, columns,
                                                                 argv):
    # the width read once per build is the one each default formatter would read
    monkeypatch.setenv("COLUMNS", columns)
    got = invoke(capsys, *argv.split())
    code = default_formatter_exit(argv.split())
    assert got == (code, *capsys.readouterr())


# values the int and choice flags accept; "1" passes every other flag's parse
_VALUES = {"--p": "3", "--op": "add"}


def _short_of_one_required_flag(flags):
    required = [flag for flag in flags if _FLAGS[flag].get("required")]
    return [word for flag in required[:-1] for word in (flag, _VALUES.get(flag, "1"))]


def _as_with_default_formatter(capsys, argv):
    """What argv prints on `oracles.default_formatter_parser`: argparse's own
    help or usage error, and with --json the error message as the one JSON
    document the CLI prints in its place."""
    code = default_formatter_exit(argv)
    out, err = capsys.readouterr()
    if code == 2 and "--json" in argv:
        prog, _, message = err.splitlines()[-1].partition(": error: ")
        out = json.dumps({"command": prog.partition(" ")[2], "diagnostics": [message],
                          "inputs": {}, "result": None, "status": "error"},
                         sort_keys=True, separators=(",", ":")) + "\n"
        err = ""
    return code, out, err


@pytest.mark.parametrize("mode", [(), ("--json",)])
@pytest.mark.parametrize("case", ["help", "missing"])
@pytest.mark.parametrize("group, sub, flags", [(g, s, f) for g, s, _, f in cli._COMMANDS])
def test_each_subcommand_helps_and_refuses_as_with_argparse_default_formatter(
        capsys, monkeypatch, group, sub, flags, case, mode):
    monkeypatch.setenv("COLUMNS", "80")
    rest = ["--help"] if case == "help" else _short_of_one_required_flag(flags)
    argv = [group, sub, *rest, *mode]
    got = invoke(capsys, *argv)
    assert got == _as_with_default_formatter(capsys, argv)
    assert got[0] == (0 if case == "help" else 2)


def _counted_add_argument(monkeypatch):
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        added.append((self.prog, args[0]))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    return added


def test_a_parser_build_adds_only_the_help_actions(monkeypatch):
    added = _counted_add_argument(monkeypatch)
    build_parser()
    groups = {group for group, _, _, _ in cli._COMMANDS}
    assert len(added) == 1 + len(groups) + len(cli._COMMANDS) == 20
    assert {flag for _, flag in added} == {"-h"}


@pytest.mark.parametrize("group, sub, flags", [(g, s, f) for g, s, _, f in cli._COMMANDS])
def test_parsing_adds_only_the_selected_subcommands_flags_once(capsys, monkeypatch, group, sub,
                                                               flags):
    parser = build_parser()
    added = _counted_add_argument(monkeypatch)
    for _ in range(2):
        with pytest.raises(SystemExit):
            parser.parse_args([group, sub, "--help"])
    capsys.readouterr()
    assert added == [(f"tatedual {group} {sub}", flag) for flag in flags + ("--json",)]


# a run, --help, usage errors at each depth in both modes, malformed text and
# a domain error, then the first run once more
REUSE_SEQUENCE = [
    "tate coeffs --p 3 --q 3 --prec 8",
    "gamma density --p 3 --q 3 --prec 6 --target 1/2 --epsilon 1/9 --json",
    "gamma density --help",
    "--help",
    "nonsense", "nonsense --json",
    "gamma nonsense", "gamma nonsense --json",
    "gamma density --p 3", "gamma density --p 3 --json",
    "gamma gens --p x --prec 3 --q 2", "gamma gens --p x --prec 3 --q 2 --json",
    "tate coeffs --p 3 --q 3 --prec 8 extra",
    "dual pair --p 3 --z 1 --prec 2 --gamma 1/4^-1",
    "padic arith --op invert --p 3 --x 3 --prec 4",
    "padic arith --op invert --p 3 --x 3 --prec 4 --json",
    "tate coeffs --p 3 --q 3 --prec 8",
]


def test_one_parser_reused_prints_as_a_fresh_parser_each_time(capsys, monkeypatch):
    fresh = [invoke(capsys, *argv.split()) for argv in REUSE_SEQUENCE]
    tree = build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: tree)
    reused = [invoke(capsys, *argv.split()) for argv in REUSE_SEQUENCE]
    assert reused == fresh
    assert {code for code, _, _ in fresh} == {0, 2, 3}


@pytest.mark.parametrize(
    "flag, value, rest",
    [
        ("--target", "-1/2", ("gamma", "density", "--p", "3", "--q", "3", "--prec", "6",
                              "--epsilon", "1/9")),
        ("--target", "-.5", ("gamma", "density", "--p", "3", "--q", "3", "--prec", "6",
                             "--epsilon", "1/9")),
        ("--gamma", "-1/9", ("dual", "pair", "--p", "3", "--z", "1", "--prec", "2")),
    ],
)
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_negative_value_after_its_flag_parses_like_the_equals_form(
    capsys, flag, value, rest, mode
):
    apart = invoke(capsys, *rest, flag, value, *mode)
    joined = invoke(capsys, *rest, f"{flag}={value}", *mode)
    assert apart == joined
    assert apart[0] == 0
