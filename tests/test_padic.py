"""p-adic core: digit expansions and their round trip through the canonical
integer, ring operations, valuations and canonical sequences."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_PRIMES, random_q
from oracles import check_canonical_sequence
from tatedual.errors import DomainError
from tatedual.padic import (
    AT_LEAST_PRECISION,
    PAdicInt,
    _from_int,
    _to_int,
    arithmetic,
    canonical_sequence,
    padic_from_integer,
)


def digits_by_repeated_division(m, p, n):
    m %= p ** n
    out = []
    for _ in range(n):
        m, d = divmod(m, p)
        out.append(d)
    return tuple(out)


# --- construction ---------------------------------------------------------

# every prime size a residue admits, up to the 63-bit prime 2^63 - 25
ROUNDTRIP_PRIMES = (2, 3, 5, 7, 11, 97, 65521, 2 ** 61 - 1, 2 ** 63 - 25)


@given(
    m=st.integers(min_value=-(10 ** 12), max_value=10 ** 12),
    p=st.sampled_from(ROUNDTRIP_PRIMES),
    n=st.integers(min_value=1, max_value=24),
)
def test_from_int_to_int_roundtrip(m, p, n):
    digits = _from_int(m, p, n)
    assert len(digits) == n
    assert all(0 <= d < p for d in digits)
    assert _to_int(digits, p) == m % p ** n


def test_from_integer_examples():
    assert padic_from_integer(12, 3, 3).digits == (0, 1, 1)
    assert padic_from_integer(12, 3, 3).digits == digits_by_repeated_division(12, 3, 3)
    assert padic_from_integer(0, 5, 4).digits == (0, 0, 0, 0)
    assert padic_from_integer(2, 2, 4).digits == (0, 1, 0, 0)


def test_negative_integers_reduce_canonically():
    x = padic_from_integer(-1, 3, 3)
    assert x.value == 3 ** 3 - 1
    assert x.digits == (2, 2, 2)


def test_non_prime_rejected_with_factor():
    with pytest.raises(DomainError, match=r"divisible by 2"):
        padic_from_integer(1, 12, 3)
    with pytest.raises(DomainError, match=r"divisible by 7"):
        padic_from_integer(1, 49, 3)


def test_bad_precision_rejected():
    with pytest.raises(DomainError):
        padic_from_integer(1, 3, 0)
    with pytest.raises(DomainError):
        PAdicInt(3, ())


def test_digit_range_enforced():
    with pytest.raises(DomainError, match=r"out of range"):
        PAdicInt(2, (0, 5))


# --- arithmetic -----------------------------------------------------------

def test_mul_identity_on_random_values():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES)
        n = rng.randrange(1, 12)
        x = random_q(rng, p, n)
        one = padic_from_integer(1, p, n)
        assert x * one == x


def test_invert_example_against_brute_force():
    x = padic_from_integer(9, 2, 4)
    expected = [z for z in range(16) if 9 * z % 16 == 1]
    assert expected == [9]
    assert x.inverse().value == 9


def test_add_example_redigits():
    two = padic_from_integer(2, 3, 2)
    assert (two + two).digits == (1, 1)
    assert (two + two).value == 4


def test_mismatched_operands_rejected():
    x = padic_from_integer(1, 2, 4)
    with pytest.raises(DomainError, match="disagree"):
        x + padic_from_integer(1, 3, 4)
    with pytest.raises(DomainError, match="disagree"):
        x * padic_from_integer(1, 2, 5)


def test_invert_non_unit_reports_valuation():
    x = padic_from_integer(12, 2, 6)
    with pytest.raises(DomainError, match="valuation is 2"):
        x.inverse()
    zero = padic_from_integer(0, 2, 4)
    with pytest.raises(DomainError, match="at_least_precision"):
        zero.inverse()


def test_arithmetic_dispatcher():
    x = padic_from_integer(5, 3, 3)
    y = padic_from_integer(4, 3, 3)
    assert arithmetic("add", x, y) == x + y
    assert arithmetic("mul", x, y) == x * y
    assert arithmetic("neg", x) == -x
    assert arithmetic("invert", y) == y.inverse()
    with pytest.raises(DomainError, match="unknown operation"):
        arithmetic("div", x, y)
    with pytest.raises(DomainError, match="second operand"):
        arithmetic("add", x)
    with pytest.raises(DomainError, match="single operand"):
        arithmetic("neg", x, y)


# --- valuation ------------------------------------------------------------

def test_valuation_examples():
    assert padic_from_integer(12, 2, 6).valuation() == 2
    assert padic_from_integer(12, 3, 4).valuation() == 1
    assert padic_from_integer(0, 5, 3).valuation() is AT_LEAST_PRECISION
    assert repr(AT_LEAST_PRECISION) == "at_least_precision"


# --- canonical sequences --------------------------------------------------

def test_canonical_sequence_of_q_equals_p():
    for p in SMALL_PRIMES:
        seq = canonical_sequence(padic_from_integer(p, p, 4))
        assert seq.entries == (0, p, p, p)


def test_canonical_sequence_zero_and_oracle():
    assert canonical_sequence(padic_from_integer(0, 3, 5)).entries == (0,) * 5
    seq = canonical_sequence(padic_from_integer(12, 3, 4))
    assert seq.entries == tuple(12 % 3 ** n for n in range(1, 5))
    assert seq.entries == (0, 3, 12, 12)


def test_canonical_sequence_invariants_enforced():
    # the oracle catches each broken invariant; the constructor checks only p
    from tatedual.padic import CanonicalSequence

    with pytest.raises(AssertionError, match="out of range"):
        check_canonical_sequence(CanonicalSequence(3, (5,)))
    with pytest.raises(AssertionError, match="congruence"):
        check_canonical_sequence(CanonicalSequence(3, (1, 2)))


# --- properties -----------------------------------------------------------

prime_st = st.sampled_from(SMALL_PRIMES)


@given(p=prime_st, n=st.integers(1, 10), data=st.data())
def test_roundtrip_last_entry_recovers_value(p, n, data):
    m = data.draw(st.integers(0, p ** n - 1))
    seq = canonical_sequence(padic_from_integer(m, p, n))
    check_canonical_sequence(seq)
    assert seq.entries[-1] == m


@given(p=prime_st, n=st.integers(2, 12), m=st.integers(-(10 ** 9), 10 ** 9))
def test_congruence_chain_exact(p, n, m):
    check_canonical_sequence(canonical_sequence(padic_from_integer(m, p, n)))


@given(
    p=prime_st,
    n=st.integers(1, 10),
    xs=st.tuples(st.integers(0, 10 ** 8), st.integers(0, 10 ** 8), st.integers(0, 10 ** 8)),
)
def test_ring_laws(p, n, xs):
    a, b, c = (padic_from_integer(v, p, n) for v in xs)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + (-a)).is_zero()


@given(p=prime_st, n=st.integers(1, 12), u=st.integers(0, 10 ** 9))
def test_unit_inverse_law(p, n, u):
    x = padic_from_integer(u * p + 1, p, n)  # always a unit
    assert (x * x.inverse()).value == 1


@settings(deadline=None)
@given(p=prime_st, n=st.integers(2, 14), data=st.data())
def test_valuation_additive_under_mul(p, n, data):
    x = data.draw(st.integers(1, p ** n - 1))
    y = data.draw(st.integers(1, p ** n - 1))
    a = padic_from_integer(x, p, n)
    b = padic_from_integer(y, p, n)
    va, vb = a.valuation(), b.valuation()
    if va is AT_LEAST_PRECISION or vb is AT_LEAST_PRECISION:
        return
    if va + vb < n:
        assert (a * b).valuation() == va + vb


@given(p=prime_st, n=st.integers(1, 12), m=st.integers(-(10 ** 12), 10 ** 12))
def test_digits_match_divmod_oracle(p, n, m):
    x = padic_from_integer(m, p, n)
    assert x.digits == digits_by_repeated_division(m, p, n)
    assert canonical_sequence(x).entries == tuple(
        m % p ** k for k in range(1, n + 1)
    )
