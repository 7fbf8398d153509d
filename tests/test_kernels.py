"""Residue-kernel tests: the ring operations against a big-integer oracle,
with values and digits read by plain integer arithmetic."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tatedual.errors import DomainError
from tatedual.numutil import factorize
from tatedual.padic import PAdicInt, arithmetic, padic_from_integer

PRIMES = (2, 3, 5, 7, 11, 97)


def rand_digits(rng, p, n):
    return tuple(rng.randrange(p) for _ in range(n))


def value_of(digits, p):
    return sum(d * p ** i for i, d in enumerate(digits))


def digits_of(m, p, n):
    """The low n base-p digits of m mod p**n, least significant first."""
    return tuple(m // p ** i % p for i in range(n))


def test_ops_match_big_integer_oracle():
    rng = random.Random(101)
    for _ in range(300):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 20)
        mod = p ** n
        x, y = rand_digits(rng, p, n), rand_digits(rng, p, n)
        a, b = PAdicInt(p, x), PAdicInt(p, y)
        va, vb = value_of(x, p), value_of(y, p)
        assert (a + b).value == (va + vb) % mod
        assert (-a).value == (-va) % mod
        assert (a * b).value == (va * vb) % mod
        assert (a * b).digits == digits_of(va * vb, p, n)


def test_inverse_of_units():
    rng = random.Random(202)
    for _ in range(150):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 20)
        digits = rand_digits(rng, p, n)
        a = PAdicInt(p, (rng.randrange(1, p),) + digits[1:])  # force a unit
        z = a.inverse()
        assert (a * z).value == 1
        assert a.value * z.value % p ** n == 1


def test_inverse_rejects_non_units():
    with pytest.raises(DomainError, match="non-unit"):
        PAdicInt(2, (0, 1, 1)).inverse()


def test_large_prime_falls_back_transparently():
    # the first prime above 2**31
    p = 2 ** 31
    while factorize(p) != {p: 1}:
        p += 1
    a = padic_from_integer(3 * p + 5, p, 3)
    b = padic_from_integer(p - 1, p, 3)
    mod = p ** 3
    assert (a * b).value == ((3 * p + 5) * (p - 1)) % mod
    assert b.inverse().value == pow(p - 1, -1, mod)
    assert (a * b).digits == digits_of((3 * p + 5) * (p - 1), p, 3)


@st.composite
def residue_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(min_value=1, max_value=24))
    digit = st.integers(min_value=0, max_value=p - 1)
    x = draw(st.lists(digit, min_size=n, max_size=n).map(tuple))
    y = draw(st.lists(digit, min_size=n, max_size=n).map(tuple))
    return p, x, y


@given(residue_pairs())
def test_digits_roundtrip_through_every_result(case):
    p, x, y = case
    a, b = PAdicInt(p, x), PAdicInt(p, y)
    assert a.digits == x and b.digits == y
    results = [a + b, -a, a + (-b), a * b, a.truncate(1)]
    if x[0]:
        results.append(arithmetic("invert", a))
    for r in results:
        assert 0 <= r.value < r.p ** r.precision
        assert PAdicInt(r.p, r.digits) == r
