"""p-adic core: digit expansions and their round trip through the canonical
integer, ring operations against plain integer arithmetic, valuations and
canonical sequences."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SMALL_PRIMES
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


P31 = 2147483659  # the first prime above 2**31
ONE = padic_from_integer(1, 3, 3)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: padic_from_integer(1, 12, 3), "divisible by 2", id="p-12"),
    pytest.param(lambda: padic_from_integer(1, 49, 3), "divisible by 7", id="p-49"),
    pytest.param(lambda: padic_from_integer(1, 3, 0), "precision N=0", id="precision-0"),
    pytest.param(lambda: PAdicInt(3, ()), "precision must be at least 1", id="no-digits"),
    pytest.param(lambda: PAdicInt(2, (0, 5)), "out of range", id="digit-5"),
    pytest.param(lambda: padic_from_integer(1, 2, 4) + padic_from_integer(1, 3, 4), "disagree",
                 id="add-across-primes"),
    pytest.param(lambda: padic_from_integer(1, 2, 4) * padic_from_integer(1, 2, 5), "disagree",
                 id="mul-across-precisions"),
    pytest.param(lambda: padic_from_integer(12, 2, 6).inverse(),
                 "cannot invert a non-unit: valuation is 2", id="invert-12"),
    pytest.param(lambda: padic_from_integer(0, 2, 4).inverse(), "at_least_precision",
                 id="invert-0"),
    pytest.param(lambda: arithmetic("div", ONE, ONE), "unknown operation", id="op-div"),
    pytest.param(lambda: arithmetic("add", ONE), "second operand", id="add-one-operand"),
    pytest.param(lambda: arithmetic("neg", ONE, ONE), "single operand", id="neg-two-operands"),
])
def test_refusals(call, match):
    with pytest.raises(DomainError, match=match):
        call()


# --- valuation ------------------------------------------------------------

def test_valuation_examples():
    assert padic_from_integer(12, 2, 6).valuation() == 2
    assert padic_from_integer(12, 3, 4).valuation() == 1
    assert padic_from_integer(0, 5, 3).valuation() is AT_LEAST_PRECISION
    assert repr(AT_LEAST_PRECISION) == "at_least_precision"


# --- canonical sequences --------------------------------------------------

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
@example(p=2, n=4, u=4)  # 9 * 9 = 1 mod 16
@example(p=P31, n=3, u=3)
def test_unit_inverse_law(p, n, u):
    x = padic_from_integer(u * p + 1, p, n)  # always a unit
    assert (x * x.inverse()).value == 1
    assert arithmetic("invert", x) == x.inverse()


@st.composite
def residue_pairs(draw):
    """(p, x, y): two digit tuples of one length n <= 24 at a prime p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 97, P31)))
    n = draw(st.integers(min_value=1, max_value=24))
    digit = st.integers(min_value=0, max_value=p - 1)
    x = draw(st.lists(digit, min_size=n, max_size=n).map(tuple))
    y = draw(st.lists(digit, min_size=n, max_size=n).map(tuple))
    return p, x, y


@given(residue_pairs())
@example((3, (2, 0), (2, 0)))  # 2 + 2 = 1 + 1*3 mod 9
@example((P31, (5, 3, 0), (P31 - 1, 0, 0)))  # 3p + 5 and p - 1 mod p**3
def test_ring_ops_match_integer_arithmetic(case):
    p, x, y = case
    a, b = PAdicInt(p, x), PAdicInt(p, y)
    assert a.digits == x and b.digits == y
    va, vb = (sum(d * p ** i for i, d in enumerate(t)) for t in (x, y))
    results = [(a + b, va + vb), (-a, -va), (a + (-b), va - vb), (a * b, va * vb),
               (a.truncate(1), x[0])]
    for r, v in results:
        assert r.value == v % r.p ** r.precision
        assert PAdicInt(r.p, r.digits) == r
    assert [arithmetic("add", a, b), arithmetic("neg", a), arithmetic("mul", a, b)] == [
        a + b, -a, a * b]
    if x[0]:
        assert va * a.inverse().value % p ** len(x) == 1


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
@example(p=3, n=4, m=12)  # digits 0, 1, 1, 0; entries 0, 3, 12, 12
@example(p=5, n=4, m=0)
@example(p=3, n=3, m=-1)  # digits 2, 2, 2
def test_digits_match_divmod_oracle(p, n, m):
    x = padic_from_integer(m, p, n)
    assert x.value == m % p ** n
    assert x.digits == digits_by_repeated_division(m, p, n)
    assert canonical_sequence(x).entries == tuple(
        m % p ** k for k in range(1, n + 1)
    )
