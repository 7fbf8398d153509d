"""Tate coefficients against an independent exact-rational oracle and
against the per-term residue series the Lambert form replaced."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_PRIMES, random_q
from oracles import rational_a4, rational_a6, reduce_mod
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

def test_a4_examples_match_rational_oracle():
    q = padic_from_integer(2, 2, 4)
    assert reduce_mod(rational_a4(2, truncation_index(q)), 2, 4) == 2
    assert a4(q).value == 2

    q = padic_from_integer(3, 3, 2)
    assert reduce_mod(rational_a4(3, truncation_index(q)), 3, 2) == 3
    assert a4(q).value == 3


def test_a6_coefficients_and_example():
    assert a6_term_coefficient(1) == 1
    assert a6_term_coefficient(2) == 22
    q = padic_from_integer(2, 2, 3)
    assert reduce_mod(rational_a6(2, truncation_index(q)), 2, 3) == 2
    assert a6(q).value == 2


def test_a6_integrality_exhaustive():
    for n in range(1, 10 ** 4 + 1):
        assert (5 * n ** 3 + 7 * n ** 5) % 12 == 0


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

def test_tail_stability_extra_terms_change_nothing():
    rng = random.Random(59)
    for _ in range(30):
        p = rng.choice(SMALL_PRIMES)
        n = rng.randrange(2, 17)
        q = random_q(rng, p, n, min_valuation=1)
        n_max = truncation_index(q)
        assert a4(q).value == reduce_mod(rational_a4(q.value, n_max + 10), p, n)
        assert a6(q).value == reduce_mod(rational_a6(q.value, n_max + 10), p, n)


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
        terms = truncation_index(q)
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
