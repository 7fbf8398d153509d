"""CLI contract: subcommand coverage, the JSON envelope, and exit codes."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tatedual.cli import run
from tatedual.duality import _check_enumeration_guard
from tatedual.errors import DomainError


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_error_envelope_in_json_mode(capsys):
    code, out, _ = invoke(
        capsys, "tate", "coeffs", "--p", "2", "--q", "3", "--prec", "4", "--json"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["diagnostics"]
    assert doc["result"] is None


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0


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


@pytest.mark.parametrize("key", ["sizes", "tail"])
def test_uhf_k0_splits_a_product_of_two_40_bit_primes(capsys, key):
    # 1099511627689 * 1099511627791 (80 bits): trial division past 2^63 never ended
    code, doc, elapsed = _timed_json(
        capsys, "uhf", "k0", "--desc", f"{key}=1208925819535464337504999"
    )
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


def test_uhf_k0_size_rho_cannot_split_names_the_budget(capsys):
    # an 81-bit probable prime: Miller-Rabin is not exact there and rho finds nothing
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "uhf", "k0", "--desc", "sizes=1208925819614629174706189", "--json"
    )
    elapsed = time.perf_counter() - start
    assert code == 3
    doc = _single_error_document(out, err)
    assert doc["diagnostics"] == [
        "cannot factorize 1208925819614629174706189 (81 bits): Pollard rho found no "
        "factor in its budget of 1048576 steps"
    ]
    assert elapsed < 3.0


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


@pytest.mark.parametrize(
    "argv",
    [
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
    ],
)
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from tatedual.cli import run; "
            "sys.exit(run(['uhf', 'stable-iso', '--n', '2^99999999999', '--n2', '1', '--json']))")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60)
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


@pytest.mark.parametrize(
    "argv, command, diagnostic",
    [
        ("gamma gens --p x --prec 3 --q 2 --json", "gamma gens",
         "argument --p: invalid int value: 'x'"),
        ("nonsense --json", "", "argument group: invalid choice: 'nonsense'"),
        ("gamma gens --p 2 --prec 3 --q 2 --json --bogus", "",
         "unrecognized arguments: --bogus"),
    ],
)
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
