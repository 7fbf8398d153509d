"""CLI contract: subcommand coverage, the JSON envelope, and exit codes."""

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


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    return code, json.loads(out)


# --- documented examples ----------------------------------------------------

def test_gamma_gens_text_listing(capsys):
    code, out, _ = invoke(capsys, "gamma", "gens", "--p", "2", "--q", "2", "--prec", "4")
    assert code == 0
    assert "0, 1/2, 1/4, 1/8" in out


def test_gamma_gens_json(capsys):
    code, doc = invoke_json(capsys, "gamma", "gens", "--p", "2", "--q", "2", "--prec", "4")
    assert code == 0
    assert doc["result"]["generators"] == ["0", "1/2", "1/4", "1/8"]


def test_uhf_from_tate_json_fragments(capsys):
    code, out, _ = invoke(
        capsys, "uhf", "from-tate", "--p", "2", "--q", "2", "--prec", "6", "--json"
    )
    assert code == 0
    assert '"k0":"2^inf"' in out
    assert '"label":"CAR"' in out


def test_tate_coeffs_json_fragment(capsys):
    code, out, _ = invoke(
        capsys, "tate", "coeffs", "--p", "2", "--q", "2", "--prec", "4", "--json"
    )
    assert code == 0
    assert '"a4":"2 mod 2^4"' in out


# --- envelope ---------------------------------------------------------------

def test_json_documents_roundtrip_canonically(capsys):
    cases = [
        ("padic", "canon", "--p", "3", "--q", "12", "--prec", "4"),
        ("gamma", "group", "--p", "3", "--q", "6", "--prec", "3"),
        ("uhf", "k0", "--desc", "sizes=6,10"),
        ("dual", "check", "--p", "3", "--level", "2"),
    ]
    for argv in cases:
        code, out, _ = invoke(capsys, *argv, "--json")
        assert code == 0
        raw = out.strip()
        doc = json.loads(raw)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == raw
        assert doc["status"] == "ok"
        assert doc["diagnostics"] == []
        assert doc["command"] == f"{argv[0]} {argv[1]}"


def _assert_no_floats(node):
    if isinstance(node, float):
        raise AssertionError(f"float leaked into JSON: {node!r}")
    if isinstance(node, dict):
        for v in node.values():
            _assert_no_floats(v)
    elif isinstance(node, list):
        for v in node:
            _assert_no_floats(v)


def test_no_floating_point_fields_anywhere(capsys):
    cases = [
        ("gamma", "limit", "--p", "3", "--q", "6", "--prec", "6"),
        ("gamma", "density", "--p", "3", "--q", "3", "--prec", "4",
         "--target", "1/2", "--epsilon", "1/9"),
        ("tate", "coeffs", "--p", "2", "--q", "2", "--prec", "4"),
        ("uhf", "stable-iso", "--n", "2^inf", "--n2", "2^inf*3^2"),
    ]
    for argv in cases:
        code, doc = invoke_json(capsys, *argv)
        assert code == 0
        _assert_no_floats(doc)


# --- subcommand coverage ------------------------------------------------------

def test_padic_canon(capsys):
    code, doc = invoke_json(capsys, "padic", "canon", "--p", "3", "--q", "12", "--prec", "4")
    assert code == 0
    assert doc["result"]["entries"] == [0, 3, 12, 12]


def test_padic_arith_ops(capsys):
    code, doc = invoke_json(
        capsys, "padic", "arith", "--op", "add", "--p", "3", "--prec", "2",
        "--x", "2", "--y", "2",
    )
    assert code == 0
    assert doc["result"]["digits"] == [1, 1]

    code, doc = invoke_json(
        capsys, "padic", "arith", "--op", "invert", "--p", "2", "--prec", "4", "--x", "9"
    )
    assert code == 0
    assert doc["result"]["result"] == "9 mod 2^4"


def test_digit_list_input(capsys):
    code, doc = invoke_json(capsys, "padic", "canon", "--p", "2", "--q", "[0,1,0,0]")
    assert code == 0
    assert doc["result"]["entries"] == [0, 2, 2, 2]


def test_one_element_bracketed_digit_list_is_a_digit_list(capsys):
    # a bracketed text is a digit list even without a comma: [5] is the digit
    # 5, out of range at p = 3, not the integer 5, and it sets the precision
    code, out, err = invoke(capsys, "padic", "canon", "--p", "3", "--q", "[5]", "--prec", "1",
                            "--json")
    assert code == 3
    assert _single_error_document(out, err)["diagnostics"] == [
        "digit c_0=5 out of range [0, 2]"
    ]
    code, doc = invoke_json(capsys, "padic", "canon", "--p", "3", "--q", "[2]")
    assert code == 0
    assert doc["result"]["q"] == "2 mod 3^1"
    assert doc["result"]["entries"] == [2]


def test_gamma_subcommands(capsys):
    code, doc = invoke_json(capsys, "gamma", "prufer-check", "--p", "2", "--q", "2", "--prec", "5")
    assert code == 0
    assert doc["result"]["all_hold"] is True

    code, doc = invoke_json(capsys, "gamma", "contains-one", "--p", "3", "--q", "6", "--prec", "6")
    assert code == 0
    assert doc["result"] == {"contains_one": False, "content": 2}

    code, doc = invoke_json(
        capsys, "gamma", "density", "--p", "3", "--q", "3", "--prec", "4",
        "--target", "1/2", "--epsilon", "1/9",
    )
    assert code == 0
    assert doc["result"] == {"witness": "13/27", "distance": "1/54"}

    code, doc = invoke_json(capsys, "gamma", "limit", "--p", "3", "--q", "6", "--prec", "6")
    assert code == 0
    assert doc["result"] == {"sn": "3^inf", "scale": 2, "stabilized": True}


def test_uhf_subcommands(capsys):
    code, doc = invoke_json(capsys, "uhf", "k0", "--desc", "sizes=6,10")
    assert code == 0
    assert doc["result"]["k0"] == "2^2*3*5"

    code, doc = invoke_json(capsys, "uhf", "stable-iso", "--n", "2^inf", "--n2", "3^inf")
    assert code == 0
    assert doc["result"] == {"equal": False}

    code, doc = invoke_json(capsys, "uhf", "stable-iso", "--n", "2^inf", "--n2", "2^inf*3^2")
    assert code == 0
    assert doc["result"] == {"equal": True, "witness": {"r": 1, "s": 9}}


def test_dual_subcommands(capsys):
    code, doc = invoke_json(
        capsys, "dual", "pair", "--p", "2", "--z", "5", "--prec", "3", "--gamma", "1/2^3"
    )
    assert code == 0
    assert doc["result"]["value"] == "5/8"

    code, doc = invoke_json(capsys, "dual", "check", "--p", "2", "--level", "3")
    assert code == 0
    assert doc["result"]["perfect"] is True


# --- exit codes ---------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    assert invoke(capsys, "nonsense")[0] == 2
    assert invoke(capsys, "gamma", "nonsense")[0] == 2


def test_input_errors_exit_2(capsys):
    code, _, err = invoke(capsys, "gamma", "gens", "--p", "2", "--q", "2")  # no prec
    assert code == 2
    code, _, _ = invoke(
        capsys, "padic", "canon", "--p", "2", "--q", "0,1", "--prec", "3"
    )
    assert code == 2
    code, _, _ = invoke(
        capsys, "gamma", "density", "--p", "3", "--q", "3", "--prec", "4",
        "--target", "x/y", "--epsilon", "1/9",
    )
    assert code == 2


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
    (diagnostic,) = _single_error_document(out, err)["diagnostics"]
    listed = ", ".join(f"'?{op}'?" for op in ops)  # quoted on some Python versions only
    assert re.fullmatch(rf"argument --op: invalid choice: '?sub'? \(choose from {listed}\)",
                        diagnostic)


def test_precondition_violations_exit_3(capsys):
    code, _, err = invoke(capsys, "tate", "coeffs", "--p", "2", "--q", "3", "--prec", "4")
    assert code == 3
    assert "valuation" in err

    code, _, _ = invoke(
        capsys, "padic", "arith", "--op", "invert", "--p", "2", "--prec", "4", "--x", "4"
    )
    assert code == 3

    code, _, _ = invoke(capsys, "dual", "pair", "--p", "2", "--z", "1",
                        "--prec", "2", "--gamma", "1/3^2")
    assert code == 3

    code, _, _ = invoke(capsys, "padic", "canon", "--p", "15", "--q", "1", "--prec", "3")
    assert code == 3


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
    ("padic canon --p 2 --prec 3", 2, "--q is required"),
    ("padic canon --p 2 --q [a,b] --prec 2", 2, "malformed digit list for --q: '[a,b]'"),
    ("padic canon --p 2 --q abc --prec 2", 2,
     "--q must be an integer or digit list, got 'abc'"),
    ("gamma group --p 1 --q 3 --prec 2", 3, "p=1 is not prime (primes start at 2)"),
    ("gamma group --p 18446744073709551557 --q 3 --prec 2", 3,
     "p=18446744073709551557 does not fit in a machine word"),
    ("gamma group --p 9223372036854775808 --q 3 --prec 2", 3,
     "p=9223372036854775808 does not fit in a machine word"),
    ("gamma group --p -5 --q 3 --prec 2", 3, "p=-5 is not prime (primes start at 2)"),
    ("dual check --p -7 --level 1", 3, "p=-7 is not prime (primes start at 2)"),
    ("dual pair --p 3 --z 1 --prec 2 --gamma 1/0", 2, "zero denominator in '1/0'"),
    ("uhf k0 --desc ;", 2, "malformed descriptor: ';'"),
    # psi_12 passes all 12 bases of the primality test, and is composite
    ("uhf stable-iso --n 318665857834031151167461 --n2 1", 3,
     "supernatural factor 318665857834031151167461 is not below "
     "318665857834031151167461, the bound of proven primality"),
    ("uhf stable-iso --n 6 --n2 1", 3, "supernatural factor 6 is not prime (divisible by 2)"),
    # well-formed text that breaks a precondition exits 3, one case per parser
    ("padic canon --p 3 --q [0,5]", 3, "digit c_1=5 out of range [0, 2]"),
    ("gamma density --p 3 --q 3 --prec 4 --target 1/2 --epsilon 0", 3,
     "epsilon must be positive, got 0"),
    ("dual pair --p 3 --z 1 --prec 2 --gamma 1/6", 3,
     "denominator of 1/6 has a factor 2 prime to 3"),
    ("uhf k0 --desc sizes=2,0", 3, "matrix size 0 rejected; sizes are integers >= 1"),
    ("uhf stable-iso --n 2*2 --n2 1", 3, "prime 2 listed twice in '2*2'"),
] + [(argv, 2, diagnostic) for _, argv, diagnostic in MALFORMED_TEXT]


@pytest.mark.parametrize("argv, code, diagnostic", REJECTED_INPUTS)
@pytest.mark.parametrize("json_mode", [False, True])
def test_rejected_inputs_name_their_fault_in_both_modes(capsys, argv, code, diagnostic,
                                                        json_mode):
    got, out, err = invoke(capsys, *argv.split(), *["--json"] * json_mode)
    assert got == code
    if json_mode:
        assert _single_error_document(out, err)["diagnostics"] == [diagnostic]
    else:
        assert (out, err) == ("", f"status: error\nerror: {diagnostic}\n")


@pytest.mark.parametrize(
    "argv, result, text",
    [
        ("dual pair --p 3 --z 1 --prec 2 --gamma 1",
         {"gamma": "0", "value": "0", "z": "1 mod 3^2"}, "z: 1 mod 3^2\ngamma: 0\nvalue: 0\n"),
        ("uhf k0 --desc sizes=2;", {"descriptor": "sizes=2", "k0": "2"},
         "descriptor: sizes=2\nk0: 2\n"),
        ("uhf stable-iso --n 2^0*3 --n2 3", {"equal": True, "witness": {"r": 1, "s": 1}},
         "equal: True\nwitness: {'r': 1, 's': 1}\n"),
    ],
)
def test_degenerate_inputs_that_succeed_in_both_modes(capsys, argv, result, text):
    assert invoke(capsys, *argv.split()) == (0, text, "")
    code, out, err = invoke(capsys, *argv.split(), "--json")
    assert code == 0
    assert _one_document(out, err)["result"] == result


def test_error_envelope_in_json_mode(capsys):
    code, out, _ = invoke(
        capsys, "tate", "coeffs", "--p", "2", "--q", "3", "--prec", "4", "--json"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["diagnostics"]
    assert doc["result"] is None


def test_dual_check_huge_level_is_a_guard_error(capsys):
    # 2^100000000 has far more digits than int-to-str allows, so the guard
    # must reject it before building or printing the power; the scan visits
    # m^2 cells, so at m = 2^16 it would run for minutes
    for level, shown in (("100000000", "2^100000000"), ("16", "2^16 = 65536")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "dual", "check", "--p", "2", "--level", level, "--json")
        elapsed = time.perf_counter() - start
        assert code == 3
        doc = _single_error_document(out, err)
        assert doc["diagnostics"] == [f"enumeration guard exceeded: {shown} > 8192"]
        assert elapsed < 1.0


def _one_document(out, err):
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def _single_error_document(out, err):
    doc = _one_document(out, err)
    assert doc["status"] == "error"
    assert doc["result"] is None
    return doc


def test_padic_canon_past_int_to_str_limit_is_a_domain_error(capsys):
    # 3^10000 - 1 has 4772 decimal digits, more than Python converts to text
    code, out, err = invoke(
        capsys, "padic", "canon", "--p", "3", "--q", "-1", "--prec", "10000", "--json"
    )
    assert code == 3
    doc = _single_error_document(out, err)
    limit = sys.get_int_max_str_digits()
    assert doc["diagnostics"] == [
        f"an output integer has 4772 decimal digits, over the int-to-str limit "
        f"of {limit} (sys.get_int_max_str_digits())"
    ]


@pytest.mark.parametrize("prec", ["20000", "40000"])
def test_gamma_gens_refuses_its_first_unprintable_generator_before_the_rest(capsys, prec):
    # generator 14286 of q = 2 is 1/2^14285, of 4301 digits; building and
    # formatting the 14285 generators before it took 1.5-2 s
    message = (f"an output integer has 4301 decimal digits, over the int-to-str limit "
               f"of {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())")
    argv = ("gamma", "gens", "--p", "2", "--q", "2", "--prec", prec)
    start = time.perf_counter()
    text = invoke(capsys, *argv)
    code, out, err = invoke(capsys, *argv, "--json")
    elapsed = time.perf_counter() - start
    assert text == (3, "", f"status: error\nerror: {message}\n")
    assert code == 3
    assert _single_error_document(out, err)["diagnostics"] == [message]
    assert elapsed < 0.2


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


def test_stable_iso_witness_past_int_to_str_limit_is_a_domain_error(capsys):
    # the witness r = 3^99999 has 47712 decimal digits
    code, out, err = invoke(
        capsys, "uhf", "stable-iso", "--n", "2^inf*3^99999", "--n2", "2^inf", "--json"
    )
    assert code == 3
    doc = _single_error_document(out, err)
    limit = sys.get_int_max_str_digits()
    assert doc["diagnostics"] == [
        f"an output integer has 47712 decimal digits, over the int-to-str limit "
        f"of {limit} (sys.get_int_max_str_digits())"
    ]


def test_composite_p_with_two_31_bit_factors_is_rejected_fast(capsys):
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "padic", "canon", "--p", "4611685975477714963", "--q", "1", "--prec", "2",
        "--json",
    )
    elapsed = time.perf_counter() - start
    assert code == 3
    doc = _single_error_document(out, err)
    assert doc["diagnostics"] == [
        "p=4611685975477714963 is not prime (divisible by 2147483629)"
    ]
    assert elapsed < 1.0


def test_dual_pair_at_a_huge_p_power_level_is_a_precision_error(capsys):
    # 2^3000000 has 375 KB; its level is read without dividing it out
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "dual", "pair", "--p", "2", "--z", "1", "--prec", "3",
        "--gamma", "1/2^3000000", "--json",
    )
    elapsed = time.perf_counter() - start
    assert code == 3
    doc = _single_error_document(out, err)
    assert doc["diagnostics"] == [
        "pairing at level 3000000 needs z mod 2^3000000, but z carries precision 3"
    ]
    assert elapsed < 1.0


def test_dual_pair_level_is_read_from_the_exponent_before_building_the_power(capsys):
    # the exponent less the numerator's valuation gives the level and its
    # precision error without building 3^99999999 (19.8 MB, over a minute)
    message = "pairing at level 99999999 needs z mod 3^99999999, but z carries precision 3"
    argv = ("dual", "pair", "--p", "3", "--z", "1", "--prec", "3", "--gamma", "1/3^99999999")
    start = time.perf_counter()
    assert invoke(capsys, *argv) == (3, "", f"status: error\nerror: {message}\n")
    code, out, err = invoke(capsys, *argv, "--json")
    elapsed = time.perf_counter() - start
    assert code == 3
    assert json.loads(out) == {
        "command": "dual pair", "diagnostics": [message],
        "inputs": {"gamma": "1/3^99999999", "p": 3, "prec": 3, "z": "1"},
        "result": None, "status": "error",
    }
    assert err == ""
    assert elapsed < 1.0
    # a malformed z is still a usage error first
    assert invoke_json(capsys, "dual", "pair", "--p", "3", "--z", "1x", "--prec", "3",
                       "--gamma", "1/3^99999999")[0] == 2


@pytest.mark.parametrize("gamma", ["0/3^99999999", "0/6^99999999"])
def test_dual_pair_zero_numerator_builds_no_power_of_the_base(capsys, gamma):
    # 0/b^k is the zero element for any nonzero b, so b^k (3^3000000 alone
    # takes about 0.6 s) is never built
    argv = ("dual", "pair", "--p", "3", "--z", "1", "--prec", "3", "--gamma")
    small = invoke(capsys, *argv, "0/3^5")
    small_json = invoke_json(capsys, *argv, "0/3^5")[1]
    start = time.perf_counter()
    text = invoke(capsys, *argv, gamma)
    code, doc = invoke_json(capsys, *argv, gamma)
    elapsed = time.perf_counter() - start
    assert text == small == (0, "z: 1 mod 3^3\ngamma: 0\nvalue: 0\n", "")
    assert code == 0
    assert doc == {**small_json, "inputs": {**small_json["inputs"], "gamma": gamma}}
    assert elapsed < 1.0


@pytest.mark.parametrize("gamma, code", [("0/0", 2), ("0/0^1", 2), ("0/0^99999999", 2),
                                         ("0/0^0", 0)])
def test_dual_pair_zero_over_a_power_of_zero_keeps_its_exit_code(capsys, gamma, code):
    argv = ("dual", "pair", "--p", "3", "--z", "1", "--prec", "3", "--gamma", gamma)
    got, out, err = invoke(capsys, *argv)
    assert got == code
    if code:
        assert (out, err) == ("", f"status: error\nerror: zero denominator in '{gamma}'\n")


def test_density_epsilon_past_int_to_str_limit_is_named_by_digit_count(capsys):
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "gamma", "density", "--p", "3", "--q", "3", "--prec", "20",
        "--target", "1/2", "--epsilon", "1e-5000", "--json",
    )
    elapsed = time.perf_counter() - start
    assert code == 3
    doc = _single_error_document(out, err)
    assert doc["diagnostics"] == [
        "hull generator 1/1162261467 exceeds epsilon 1/<5001 digits>; "
        "precision about N=10481 would suffice"
    ]
    assert elapsed < 1.0


def test_density_message_at_epsilon_1e_minus_3000(capsys):
    code, out, err = invoke(
        capsys, "gamma", "density", "--p", "3", "--q", "3", "--prec", "20",
        "--target", "1/2", "--epsilon", "1e-3000", "--json",
    )
    assert code == 3
    doc = _single_error_document(out, err)
    assert doc["diagnostics"] == [
        f"hull generator 1/1162261467 exceeds epsilon 1/{10 ** 3000}; "
        "precision about N=6289 would suffice"
    ]


def test_dual_pair_foreign_factor_past_int_to_str_limit_is_a_domain_error(capsys):
    # 6^9000 has 7004 digits; its prime-to-3 part 2^9000 has 2710
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "dual", "pair", "--p", "3", "--z", "1", "--prec", "3",
        "--gamma", "1/6^9000", "--json",
    )
    elapsed = time.perf_counter() - start
    assert code == 3
    doc = _single_error_document(out, err)
    assert doc["diagnostics"] == [
        f"denominator of 1/<7004 digits> has a factor {2 ** 9000} prime to 3"
    ]
    assert elapsed < 1.0


@pytest.mark.parametrize("p, factor", [("2", "<477122 digits>"), ("3", "<301030 digits>")])
def test_dual_pair_foreign_base_is_split_before_its_power(capsys, p, factor):
    # the prime-to-p factor 3^1000000 or 2^1000000 comes from the literal base 6;
    # splitting p out of 6^1000000 itself took 7-10 s
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "dual", "pair", "--p", p, "--z", "1", "--prec", "3",
        "--gamma", "1/6^1000000", "--json",
    )
    elapsed = time.perf_counter() - start
    assert code == 3
    doc = _single_error_document(out, err)
    assert doc["diagnostics"] == [
        f"denominator of 1/<778152 digits> has a factor {factor} prime to {p}"
    ]
    assert elapsed < 1.0


def test_dual_pair_foreign_factor_is_named_prime_to_p(capsys):
    # 9 is the 2-free part of 36, not a prime factor of it
    message = "denominator of 1/36 has a factor 9 prime to 2"
    argv = ("dual", "pair", "--p", "2", "--z", "1", "--prec", "3", "--gamma", "1/36")
    assert invoke(capsys, *argv) == (3, "", f"status: error\nerror: {message}\n")
    code, out, err = invoke(capsys, *argv, "--json")
    assert code == 3
    assert _single_error_document(out, err)["diagnostics"] == [message]


def _timed_json(capsys, *argv):
    """Run argv with --json: (exit code, its one JSON document, seconds)."""
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, "--json")
    elapsed = time.perf_counter() - start
    return code, _one_document(out, err), elapsed


def test_stable_iso_at_a_40_bit_prime_factors_nothing(capsys):
    # a sampled re-check of the witness once trial-divided 1099511627689^2
    code, doc, elapsed = _timed_json(
        capsys, "uhf", "stable-iso", "--n", "1099511627689^2", "--n2", "1099511627689"
    )
    assert code == 0
    assert doc["result"] == {"equal": True, "witness": {"r": 1099511627689, "s": 1}}
    assert elapsed < 1.0


def test_uhf_k0_factorizes_each_tail_size_not_their_product(capsys):
    code, doc, elapsed = _timed_json(
        capsys, "uhf", "k0", "--desc", "sizes=;tail=1099511627689,1099511627791"
    )
    assert code == 0
    assert doc["result"]["k0"] == "1099511627689^inf*1099511627791^inf"
    assert elapsed < 1.0


def test_k0_side_proves_no_prime_that_factorize_proved(capsys, monkeypatch):
    proofs = []

    def counted(p, *args, **kwargs):
        proofs.append(p)
        return check_provable_prime(p, *args, **kwargs)

    for module in (numutil, supernatural):
        monkeypatch.setattr(module, "check_provable_prime", counted)
    code, doc = invoke_json(capsys, "uhf", "k0", "--desc", "sizes=1099511627689,997")
    assert (code, doc["result"]["k0"], proofs) == (0, "997*1099511627689", [])
    # the counter is live: a factor read from the command line is still proved
    assert invoke(capsys, "uhf", "stable-iso", "--n", "6", "--n2", "1")[0] == 3
    assert proofs == [6]


def test_contains_one_at_a_small_value_and_large_precision_is_fast(capsys):
    # q is small but p^N has about 1.6 million bits: no a_n or p^n is built
    code, doc, elapsed = _timed_json(
        capsys, "gamma", "contains-one", "--p", "65521", "--prec", "100000",
        "--q", "290700359666",
    )
    assert code == 0
    assert doc["result"] == {"contains_one": True, "content": 1}
    assert elapsed < 2.0


def test_enumeration_guard_admits_2_to_the_13_and_no_more():
    _check_enumeration_guard(2, 13)  # decided without a scan
    _check_enumeration_guard(89, 2)
    with pytest.raises(DomainError, match=r"2\^14 = 16384 > 8192"):
        _check_enumeration_guard(2, 14)


# the largest moduli the benchmark scans: the prime 2039, and 2^11, whose lane
# sums reach 2m - 1, just under the guard bit
@pytest.mark.parametrize("p, level", [("2039", "1"), ("2", "11")])
def test_dual_check_at_the_largest_benchmark_moduli_is_perfect(capsys, p, level):
    code, out, err = invoke(capsys, "dual", "check", "--p", p, "--level", level, "--json")
    assert code == 0
    assert _one_document(out, err)["result"] == {
        "p": int(p), "level": int(level), "modulus": int(p) ** int(level),
        "left_nondegenerate": True, "right_nondegenerate": True, "bilinear": True,
        "perfect": True, "counterexamples": []}


@pytest.mark.parametrize("p, level", [("2", "13"), ("8191", "1"), ("89", "2")])
def test_dual_check_at_the_enumeration_guard_is_perfect_within_60_s(p, level):
    done = cli_subprocess("dual", "check", "--p", p, "--level", level, "--json", timeout=60)
    assert done.returncode == 0, done.stderr
    assert '"perfect":true' in done.stdout


P40_PRODUCT = 1208925819535464337504999  # 1099511627689 * 1099511627791, split by rho


@pytest.mark.parametrize("key", ["sizes", "tail"])
def test_uhf_k0_splits_a_product_of_two_40_bit_primes(capsys, key):
    # an 80-bit size: trial division past 2^63 never ended
    code, doc, elapsed = _timed_json(capsys, "uhf", "k0", "--desc", f"{key}={P40_PRODUCT}")
    assert code == 0
    power = "" if key == "sizes" else "^inf"
    assert doc["result"]["k0"] == f"1099511627689{power}*1099511627791{power}"
    assert elapsed < 3.0


def test_uhf_k0_splits_the_square_of_a_40_bit_prime(capsys):
    # 1099511627689^2 (80 bits): one gcd per rho step ran out of budget here
    code, doc, elapsed = _timed_json(
        capsys, "uhf", "k0", "--desc", "sizes=1208925819423314151480721"
    )
    assert code == 0
    assert doc["result"]["k0"] == "1099511627689^2"
    assert elapsed < 3.0


_MAY_BE_PRIME = ("; it is a strong probable prime to bases 2-37, so it may be a prime not "
                 "below 318665857834031151167461, the bound of proven primality")


def _rho_gives_up(capsys, size):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "uhf", "k0", "--desc", f"sizes={size}", "--json")
    elapsed = time.perf_counter() - start
    assert code == 3
    assert _single_error_document(out, err)["diagnostics"] == [
        f"cannot factorize {size} ({size.bit_length()} bits): Pollard rho found no "
        f"factor in its budget of 1048576 steps{_MAY_BE_PRIME}"
    ]
    assert elapsed < 3.0


def test_uhf_k0_size_rho_cannot_split_names_the_budget(capsys):
    # an 81-bit probable prime: Miller-Rabin is not exact there and rho finds nothing
    _rho_gives_up(capsys, 1208925819614629174706189)


def test_uhf_k0_mersenne_prime_past_the_bound_is_named_a_possible_prime(capsys):
    _rho_gives_up(capsys, 2 ** 89 - 1)


_P65 = "18446744073709551629"  # a 65-bit prime: past the machine word, below the MR bound


@pytest.mark.parametrize(
    "argv, result",
    [
        (f"uhf k0 --desc sizes={_P65}", {"descriptor": f"sizes={_P65}", "k0": _P65}),
        (f"uhf k0 --desc sizes=2;tail={_P65}",
         {"descriptor": f"sizes=2;tail={_P65}", "k0": f"2*{_P65}^inf"}),
        (f"uhf stable-iso --n {_P65} --n2 1",
         {"equal": True, "witness": {"r": int(_P65), "s": 1}}),
    ],
)
def test_k0_side_takes_a_prime_past_the_machine_word(capsys, argv, result):
    # the K0 side once checked its primes against the p-adic side's word limit
    code, doc, _ = _timed_json(capsys, *argv.split())
    assert code == 0
    assert doc["result"] == result


def test_prime_the_k0_side_admits_stays_out_of_the_padic_side(capsys):
    assert _timed_json(capsys, "uhf", "k0", "--desc", f"sizes={_P65}")[0] == 0
    code, doc, _ = _timed_json(capsys, "padic", "canon", "--p", _P65, "--q", "1", "--prec", "2")
    assert code == 3
    assert doc["diagnostics"] == [f"p={_P65} does not fit in a machine word"]


def test_stable_iso_witness_of_30_million_digits_is_counted_fast(capsys):
    # the digit count of 2^99999999 once came from building 10^30102999
    start = time.perf_counter()
    code, out, err = invoke(capsys, "uhf", "stable-iso", "--n", "2^99999999", "--n2", "1",
                            "--json")
    elapsed = time.perf_counter() - start
    assert code == 3
    doc = _single_error_document(out, err)
    assert doc["diagnostics"][0].startswith("an output integer has 30103000 decimal digits")
    assert elapsed < 2.0


_D = "1" + "0" * 4999  # 5000 digits, past the default str-to-int limit of 4300

# one argv per free-text option, with a 5000-digit literal in it
PAST_STR_TO_INT_LIMIT = [
    pytest.param(("dual", "pair", "--p", "3", "--z", "1", "--prec", "3", "--gamma", _D),
                 id="dual-pair-gamma-D"),
    pytest.param(("dual", "pair", "--p", "3", "--z", "1", "--prec", "3",
                  "--gamma", f"1/{_D}"), id="dual-pair-gamma-1-over-D"),
    pytest.param(("dual", "pair", "--p", "3", "--z", "1", "--prec", "3",
                  "--gamma", f"1/3^{_D}"), id="dual-pair-gamma-1-over-3-to-the-D"),
    pytest.param(("uhf", "stable-iso", "--n", _D, "--n2", "1"), id="stable-iso-n-D"),
    pytest.param(("uhf", "stable-iso", "--n", f"2^{_D}", "--n2", "1"),
                 id="stable-iso-n-2-to-the-D"),
    pytest.param(("padic", "canon", "--p", "3", "--prec", "4", "--q", _D),
                 id="padic-canon-q-D"),
    pytest.param(("padic", "canon", "--p", "3", "--prec", "2", "--q", f"1,{_D}"),
                 id="padic-canon-q-digit-list-D"),
    pytest.param(("padic", "arith", "--op", "add", "--p", "3", "--prec", "4",
                  "--x", _D, "--y", "1"), id="padic-arith-x-D"),
    pytest.param(("dual", "pair", "--p", "3", "--prec", "3", "--z", _D, "--gamma", "1/3"),
                 id="dual-pair-z-D"),
    pytest.param(("gamma", "density", "--p", "3", "--q", "3", "--prec", "4",
                  "--target", _D, "--epsilon", "1/2"), id="gamma-density-target-D"),
    pytest.param(("gamma", "density", "--p", "3", "--q", "3", "--prec", "4",
                  "--target", "1/2", "--epsilon", f"1/{_D}"),
                 id="gamma-density-epsilon-1-over-D"),
    pytest.param(("uhf", "k0", "--desc", f"sizes={_D}"), id="uhf-k0-sizes-D"),
    pytest.param(("uhf", "k0", "--desc", f"sizes=;tail={_D}"), id="uhf-k0-tail-D"),
]


@pytest.mark.parametrize("argv", PAST_STR_TO_INT_LIMIT)
def test_input_integer_past_str_to_int_limit_is_a_domain_error(capsys, argv):
    # one check of every free-text option before the handler runs; int() on
    # such a literal raised ValueError, or each parser named it its own way
    code, doc, elapsed = _timed_json(capsys, *argv)
    assert code == 3
    assert doc["status"] == "error"
    assert doc["result"] is None
    assert doc["diagnostics"] == [
        f"an input integer has 5000 decimal digits, over the str-to-int limit "
        f"of {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())"
    ]
    assert elapsed < 1.0


def test_input_integer_at_the_str_to_int_limit_passes_the_boundary(capsys):
    q = "1" + "0" * (sys.get_int_max_str_digits() - 1)
    code, doc, _ = _timed_json(capsys, "padic", "canon", "--p", "3", "--prec", "4", "--q", q)
    assert code == 0
    assert doc["result"]["q"] == f"{int(q) % 81} mod 3^4"


_U = "_".join(["1000"] * 1300)  # 5200 digits in groups, as int() and Fraction() read them


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("padic", "canon", "--p", "3", "--prec", "4", "--q", _U),
                     id="padic-canon-q-U"),
        pytest.param(("gamma", "density", "--p", "3", "--q", "3", "--prec", "4",
                      "--target", _U, "--epsilon", "1/2"), id="gamma-density-target-U"),
        pytest.param(("uhf", "k0", "--desc", f"sizes={_U}"), id="uhf-k0-sizes-U"),
    ],
)
def test_underscore_grouped_integer_past_str_to_int_limit_is_a_domain_error(capsys, argv):
    # the underscores are not digits; the groups they join are one integer
    message = (
        f"an input integer has 5200 decimal digits, over the str-to-int limit "
        f"of {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())"
    )
    assert invoke(capsys, *argv) == (3, "", f"status: error\nerror: {message}\n")
    code, out, err = invoke(capsys, *argv, "--json")
    assert code == 3
    assert _single_error_document(out, err)["diagnostics"] == [message]


@pytest.mark.parametrize(
    "n, digits",
    [("3^9999999", 4771213), ("2^14285", 4301)],
)
def test_stable_iso_witness_is_refused_before_it_is_built(capsys, n, digits):
    # building 3^9999999 took seconds before its digits were counted
    code, doc, elapsed = _timed_json(capsys, "uhf", "stable-iso", "--n", n, "--n2", "1")
    assert code == 3
    assert doc["diagnostics"][0].startswith(
        f"an output integer has {digits} decimal digits, over the int-to-str limit"
    )
    assert elapsed < 1.0


def test_stable_iso_witness_s_past_the_limit_is_refused(capsys):
    code, doc, _ = _timed_json(capsys, "uhf", "stable-iso", "--n", "5", "--n2", "2^14286")
    assert code == 3
    assert doc["diagnostics"][0].startswith("an output integer has 4301 decimal digits")


def test_stable_iso_witness_at_the_limit_is_printed(capsys):
    code, doc, _ = _timed_json(capsys, "uhf", "stable-iso", "--n", "2^14284", "--n2", "1")
    assert code == 0
    r = doc["result"]["witness"]["r"]
    assert len(str(r)) == 4300 and int(r) == 2 ** 14284


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
    doc = _single_error_document(done.stdout, done.stderr)
    assert doc["diagnostics"][0].startswith("an output integer has 30102999567 decimal digits")
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "level, lifted, default",
    [
        ("100000000", "3^100000000", "3^100000000"),
        ("20", "3^20", "3^20 = 3486784401"),
    ],
)
def test_enumeration_guard_shows_no_power_with_the_limit_lifted(capsys, level, lifted, default):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, doc, elapsed = _timed_json(capsys, "dual", "check", "--p", "3", "--level", level)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 3
    assert doc["diagnostics"] == [f"enumeration guard exceeded: {lifted} > 8192"]
    assert elapsed < 1.0
    code, doc, _ = _timed_json(capsys, "dual", "check", "--p", "3", "--level", level)
    assert code == 3
    assert doc["diagnostics"] == [f"enumeration guard exceeded: {default} > 8192"]


# (argv, subcommand path reached, start of the diagnostic): one usage error per depth
USAGE_ERRORS = [
    ("gamma gens --p x --prec 3 --q 2 --json", "gamma gens",
     "argument --p: invalid int value: 'x'"),
    ("nonsense --json", "", "argument group: invalid choice: 'nonsense'"),
    ("gamma gens --p 2 --prec 3 --q 2 --json --bogus", "",
     "unrecognized arguments: --bogus"),
    ("gamma density --p 3 --json", "gamma density",
     "the following arguments are required: --target, --epsilon"),
]


@pytest.mark.parametrize("argv, command, diagnostic", USAGE_ERRORS)
def test_usage_errors_with_json_print_one_error_document(capsys, argv, command, diagnostic):
    code, out, err = invoke(capsys, *argv.split())
    assert code == 2
    doc = _single_error_document(out, err)
    assert doc["command"] == command
    assert doc["inputs"] == {}
    assert len(doc["diagnostics"]) == 1
    assert doc["diagnostics"][0].startswith(diagnostic)


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
