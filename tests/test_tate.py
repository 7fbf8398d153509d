"""Tate coefficients against an independent exact-rational oracle, against
the per-term residue series the Lambert form replaced, and against the
curve's own discriminant identities, which share no divisor sum with them."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SMALL_PRIMES, random_q
from oracles import rational_a4, rational_a6, reduce_mod, tate_discriminant
from tatedual.cli import run
from tatedual.errors import DomainError
from tatedual.padic import padic_from_integer
from tatedual.tate import (
    a4,
    a6,
    a6_term_coefficient,
    tate_coefficients,
    truncation_index,
)


def residue_series(q, coefficient, terms):
    """sum coefficient(n) q^n / (1 - q^n) for n = 1..terms mod p**N, in
    plain integers: the sum is carried as one fraction over the common
    denominator prod (1 - q^n), a unit, so each call inverts once."""
    m = q.p ** q.precision
    num, den, q_pow = 0, 1, 1
    for k in range(1, terms + 1):
        q_pow = q_pow * q.value % m
        unit = 1 - q_pow
        num = (num * unit + coefficient(k) * q_pow * den) % m
        den = den * unit % m
    return padic_from_integer(num * pow(den, -1, m), q.p, q.precision)


# --- truncation -----------------------------------------------------------

def test_truncation_index_examples():
    assert truncation_index(padic_from_integer(2, 2, 4)) == 3
    assert truncation_index(padic_from_integer(9, 3, 4)) == 1


def test_truncation_rejects_units_and_zero():
    with pytest.raises(DomainError, match="unit"):
        truncation_index(padic_from_integer(3, 2, 4))
    # a residue that is zero at working precision has no convergent regime
    with pytest.raises(DomainError, match="0 at precision"):
        truncation_index(padic_from_integer(0, 2, 4))
    with pytest.raises(DomainError):
        a4(padic_from_integer(8, 2, 3))  # 8 = 0 mod 2^3


# --- worked values ---------------------------------------------------------

def test_tate_coefficients_bundle():
    q = padic_from_integer(2, 2, 4)
    coeffs = tate_coefficients(q)
    assert coeffs.a4.value == 2
    assert coeffs.a6.value == reduce_mod(rational_a6(2, 3), 2, 4)
    assert coeffs.terms_used == 3
    assert coeffs.q_valuation == 1

    coeffs = tate_coefficients(padic_from_integer(5, 5, 2))
    assert coeffs.a4.value == 0  # the single term -5*5/(1-5) has valuation 2
    assert coeffs.terms_used == 1


# --- properties ------------------------------------------------------------

def test_matches_rational_oracle_on_random_q():
    rng = random.Random(61)
    checked = 0
    while checked < 40:
        p = rng.choice(SMALL_PRIMES)
        n = rng.randrange(2, 13)
        q = random_q(rng, p, n, min_valuation=1)
        if truncation_index(q) > 12:
            continue
        checked += 1
        # ten terms past the truncation change nothing mod p**N
        terms = truncation_index(q) + 10
        assert a4(q).value == reduce_mod(rational_a4(q.value, terms), p, n)
        assert a6(q).value == reduce_mod(rational_a6(q.value, terms), p, n)


def test_leading_order_behavior():
    rng = random.Random(67)
    for _ in range(40):
        p = rng.choice(SMALL_PRIMES)
        n = rng.randrange(3, 14)
        q = random_q(rng, p, n, min_valuation=1)
        v = q.valuation()
        if 2 * v > n:
            continue
        mod = p ** (2 * v)
        assert a4(q).value % mod == (-5 * q.value) % mod
        assert a6(q).value % mod == (-q.value) % mod


def test_terms_used_matches_valuation_bound():
    rng = random.Random(71)
    for _ in range(40):
        p = rng.choice(SMALL_PRIMES)
        n = rng.randrange(2, 17)
        q = random_q(rng, p, n, min_valuation=1)
        v = q.valuation()
        n_max = truncation_index(q)
        assert (n_max + 1) * v >= n
        assert n_max * v < n  # least such index


@st.composite
def tate_q(draw):
    """q = p**v * u mod p**N with 1 <= v <= 3, v < N <= 200 and u a unit."""
    p = draw(st.sampled_from((2, 3, 5, 7, 1099511627689)))  # a 40-bit prime
    v = draw(st.integers(1, 3))
    n = draw(st.integers(v + 1, 200))
    u = draw(st.integers(0, p ** (n - v))) * p + draw(st.integers(1, p - 1))
    return padic_from_integer(p ** v * u, p, n)


@settings(deadline=None, max_examples=60)
@given(tate_q())
def test_lambert_horner_matches_residue_series(q):
    n_max = truncation_index(q)
    for series, coefficient in ((a4, lambda n: -5 * n ** 3),
                                (a6, lambda n: -a6_term_coefficient(n))):
        value = series(q)
        assert value == residue_series(q, coefficient, n_max)
        assert value == residue_series(q, coefficient, n_max + 10)


# --- the curve's discriminant (Silverman, Advanced Topics, V.3) ------------

P63 = 9223372036854775783  # the largest prime below 2^63


@st.composite
def tate_curve_q(draw):
    """(q, --q text): q = p**v * u mod p**N with 1 <= v <= 3 and u a unit,
    small (below p) or full-size; N up to 1,000, fewer where p**N would pass
    about 4,000 bits; the text is q's integer or its digit list."""
    p = draw(st.sampled_from((2, 3, 5, 7, 65521, 2 ** 61 - 1, P63)))
    v = draw(st.integers(1, 3))
    n = draw(st.integers(v + 1, max(v + 1, min(1000, 4000 // p.bit_length()))))
    u = draw(st.integers(1, p - 1))
    if draw(st.booleans()):  # hypothesis draws big integers mostly small
        u += p * random.Random(draw(st.integers(0, 2 ** 32))).randrange(p ** (n - v - 1))
    q = padic_from_integer(p ** v * u, p, n)
    text = f"[{','.join(map(str, q.digits))}]" if draw(st.booleans()) else str(q.value)
    return q, text


def library_coefficients(q, text):
    """a4 and a6 from `tate_coefficients`."""
    coeffs = tate_coefficients(q)
    return coeffs.a4.value, coeffs.a6.value


def cli_coefficients(q, text):
    """a4 and a6 as `tate coeffs --json` prints their digits, q given as text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["tate", "coeffs", "--p", str(q.p), "--prec", str(q.precision),
                    "--q", text, "--json"])
    assert code == 0
    result = json.loads(out.getvalue())["result"]
    return [sum(d * q.p ** i for i, d in enumerate(result[f"{key}_digits"]))
            for key in ("a4", "a6")]


# E_q: y^2 + xy = x^3 + a4 x + a6 has b2 = 1, b4 = 2 a4, b6 = 4 a6 and
# b8 = a6 - a4^2, and c4 = 1 - 48 a4, c6 = -1 + 72 a4 - 864 a6; both identities
# are integer polynomials in a4 and a6, so they hold mod p**N at p = 2 and 3.
# 40 drawn examples plus 2 stated ones per route, each within a 2 s deadline
# (the slowest, at p = 7 and N = 1,000, take about 0.25 s on a 2-vCPU host)
@pytest.mark.parametrize("coefficients", [library_coefficients, cli_coefficients])
@settings(max_examples=40, deadline=2000)
@example(case=(padic_from_integer(2, 2, 1000), "2"))
@example(case=(padic_from_integer(-P63, P63, 63), f"[0{f',{P63 - 1}' * 62}]"))
@given(case=tate_curve_q())
def test_coefficients_satisfy_the_curves_discriminant_identities(coefficients, case):
    q, text = case
    m = q.p ** q.precision
    delta = tate_discriminant(q)
    a4_value, a6_value = coefficients(q, text)
    b4, b6, b8 = 2 * a4_value, 4 * a6_value, a6_value - a4_value ** 2
    assert (-b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b4 * b6 - delta) % m == 0
    c4, c6 = 1 - 48 * a4_value, -1 + 72 * a4_value - 864 * a6_value
    assert (c4 ** 3 - c6 ** 2 - 1728 * delta) % m == 0
