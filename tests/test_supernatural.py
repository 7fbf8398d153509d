"""Supernatural numbers, Q(n) membership, K0 invariants, and the stable
isomorphism decision; of the Tate bridge `uhf_from_tate`, only its refusals
(its results are the acceptance suite's and the CLI tables')."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import sizes
from tatedual.errors import DomainError
from tatedual.numutil import factorize
from tatedual.padic import padic_from_integer
from tatedual.supernatural import (
    INF,
    SupernaturalNumber,
    UHFDescriptor,
    format_descriptor,
    format_supernatural,
    k0_of,
    parse_descriptor,
    parse_supernatural,
    qn_contains,
    stably_isomorphic,
    supernatural_from_sizes,
    uhf_from_tate,
)

PRIMES = (2, 3, 5, 7)


# --- text format ----------------------------------------------------------

def test_parse_format_roundtrip():
    for text in ["1", "2^inf", "2^inf*3^2*5", "3*7^4", "2^2*3*5"]:
        assert format_supernatural(parse_supernatural(text)) == text


@pytest.mark.parametrize("call", [
    pytest.param(lambda: parse_supernatural("2^"), id="no-exponent"),
    pytest.param(lambda: parse_supernatural("2*2"), id="prime-twice"),
    pytest.param(lambda: parse_supernatural("4^2"), id="composite-factor"),
    pytest.param(lambda: parse_supernatural("banana"), id="banana"),
    pytest.param(lambda: SupernaturalNumber({2: 0}), id="exponent-0"),
    pytest.param(lambda: SupernaturalNumber({2: -1}), id="exponent-minus-1"),
    pytest.param(lambda: SupernaturalNumber({4: 1}), id="composite-key"),
    pytest.param(lambda: uhf_from_tate(padic_from_integer(0, 3, 4)), id="from-tate-q-0"),
    pytest.param(lambda: uhf_from_tate(padic_from_integer(1, 3, 4)), id="from-tate-unit-q"),
])
def test_refusals(call):
    with pytest.raises(DomainError):
        call()


# --- descriptors and invariants -------------------------------------------

@pytest.mark.parametrize("desc, exponents", [
    (UHFDescriptor(prefix=(2, 4, 8)), {2: 6}),
    (UHFDescriptor(prefix=(6, 10)), {2: 2, 3: 1, 5: 1}),
    (UHFDescriptor(prefix=(1, 1, 1)), {}),
    *[(UHFDescriptor(tail=(p,)), {p: INF}) for p in PRIMES],
])
def test_k0_examples(desc, exponents):
    # k0_of is supernatural_from_sizes under the name that says it classifies
    assert k0_of(desc).exponents == supernatural_from_sizes(desc).exponents == exponents


def test_from_sizes_multiplicative_over_concatenation():
    rng = random.Random(5)
    for _ in range(50):
        left = tuple(rng.randint(1, 60) for _ in range(rng.randint(0, 4)))
        right = tuple(rng.randint(1, 60) for _ in range(rng.randint(0, 4)))
        whole = supernatural_from_sizes(UHFDescriptor(prefix=left + right))
        a = supernatural_from_sizes(UHFDescriptor(prefix=left))
        b = supernatural_from_sizes(UHFDescriptor(prefix=right))
        for p in set(a.exponents) | set(b.exponents):
            assert whole.exponent(p) == a.exponent(p) + b.exponent(p)


def test_tail_primes_are_the_primes_of_the_tail_product():
    rng = random.Random(7)
    for _ in range(50):
        tail = tuple(rng.randint(1, 60) for _ in range(rng.randint(1, 4)))
        n = supernatural_from_sizes(UHFDescriptor(tail=tail))
        assert n.exponents == {p: INF for p in factorize(math.prod(tail))}


def test_stage_invariants_divide_along_the_chain():
    rng = random.Random(9)
    for _ in range(30):
        desc = UHFDescriptor(
            prefix=tuple(rng.randint(1, 40) for _ in range(3)),
            tail=(rng.choice(PRIMES),),
        )
        for m in range(1, 7):
            cur = supernatural_from_sizes(UHFDescriptor(prefix=sizes(desc, m)))
            nxt = supernatural_from_sizes(UHFDescriptor(prefix=sizes(desc, m + 1)))
            for p, e in cur.exponents.items():
                assert e <= nxt.exponent(p)


def test_descriptor_text_format():
    assert format_descriptor(UHFDescriptor(prefix=(2, 4, 8))) == "sizes=2,4,8"
    assert format_descriptor(UHFDescriptor(tail=(2,))) == "sizes=;tail=2"
    assert parse_descriptor("sizes=2,4,8") == UHFDescriptor(prefix=(2, 4, 8))
    assert parse_descriptor("sizes=;tail=2") == UHFDescriptor(tail=(2,))
    with pytest.raises(DomainError):
        parse_descriptor("tails=2")
    with pytest.raises(DomainError):
        parse_descriptor("sizes=2,x")
    with pytest.raises(DomainError):
        UHFDescriptor(prefix=(0,))


# --- membership -----------------------------------------------------------

def qn_contains_by_factoring(n, r):
    """The form qn_contains replaced: factorize the reduced denominator."""
    den = Fraction(r).denominator
    return all(mult <= n.exponent(p) for p, mult in factorize(den).items())


# one exponent per prime of PRIMES, 0 meaning absent, so that denominators
# often sit at n's exponent or one past it
_EXPONENTS = st.lists(st.one_of(st.just(0), st.integers(1, 4), st.just(INF)),
                      min_size=len(PRIMES), max_size=len(PRIMES))


@given(
    n_exps=_EXPONENTS,
    den_exps=st.lists(st.integers(0, 5), min_size=len(PRIMES), max_size=len(PRIMES)),
    num=st.integers(-10 ** 6, 10 ** 6),
)
@example(n_exps=[INF, 0, 0, 0], den_exps=[10, 0, 0, 0], num=5)  # 5/1024 in Q(2^inf)
@example(n_exps=[3, 0, 0, 0], den_exps=[4, 0, 0, 0], num=1)  # 1/16 not in Q(2^3)
@example(n_exps=[INF, 1, 0, 0], den_exps=[1, 1, 0, 0], num=7)  # 7/6 in Q(2^inf*3)
@example(n_exps=[1, 0, 0, 0], den_exps=[0, 0, 0, 0], num=5)  # the int 5 in Q(2)
def test_qn_contains_matches_factoring(n_exps, den_exps, num):
    n = SupernaturalNumber({p: e for p, e in zip(PRIMES, n_exps) if e})
    r = Fraction(num, math.prod(p ** e for p, e in zip(PRIMES, den_exps)))
    r = r.numerator if r.denominator == 1 else r  # an integer is passed as an int
    assert qn_contains(n, r) == qn_contains_by_factoring(n, r)


def test_qn_contains_at_a_40_bit_prime_does_not_factor():
    big = 1099511627689  # a 40-bit prime; trial division of big**3 runs to big
    n = SupernaturalNumber({big: 2})
    assert not qn_contains(n, Fraction(1, big ** 3))
    assert qn_contains(n, Fraction(5, big ** 2))
    assert not qn_contains(n, Fraction(1, 3 * big))


# --- stable isomorphism ---------------------------------------------------

# the classification against brute force, its equivalence laws and the
# soundness of its witnesses are the acceptance suite's; these pin the witness
@pytest.mark.parametrize("n, n2, decision", [
    ("2^inf*3^2*7", "2^inf*3^2*7", (True, (1, 1))),
    ("2^inf", "2^inf*3^2", (True, (1, 9))),
    ("2^inf*3^4*5", "2^inf*3*7^2", (True, (3 ** 3 * 5, 7 ** 2))),
    ("2^inf", "3^inf", (False, None)),
])
def test_stably_isomorphic_examples(n, n2, decision):
    assert stably_isomorphic(parse_supernatural(n), parse_supernatural(n2)) == decision


@pytest.mark.parametrize(
    "n, n2",
    [
        ("2^4299*5^4299", "1"),  # 10^4299, 4300 digits: shown
        ("2^4300*5^4300", "1"),  # 10^4300, 4301 digits: a log lands on an integer
        ("2^4300*5^4299", "1"),
        ("2^4299*5^4300", "1"),
        ("2^inf*3^9012", "2^inf"),  # 4300 digits
        ("2^inf*3^9013", "2^inf"),  # 4301 digits
        ("7", "2^14284*3*7^2"),  # r = 1, s of 4301 digits
        ("2^14284*7^2", "3^5*7"),
    ],
)
def test_witness_is_sized_from_its_exponents(n, n2):
    a, b = parse_supernatural(n), parse_supernatural(n2)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        witness = stably_isomorphic(a, b).witness
        counts = [len(str(x)) for x in witness]
    finally:
        sys.set_int_max_str_digits(limit)
    past = [c for c in counts if c > limit]
    if past:
        with pytest.raises(DomainError, match=f"^an output integer has {past[0]} decimal"):
            stably_isomorphic(a, b)
    else:
        assert stably_isomorphic(a, b).witness == witness
