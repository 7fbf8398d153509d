"""Supernatural numbers, Q(n) membership, K0 invariants, and the stable
isomorphism decision."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tatedual.errors import DomainError
from tatedual.numutil import factorize
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


def sn(**kw):
    return SupernaturalNumber({int(k[1:]): v for k, v in kw.items()})


# --- text format ----------------------------------------------------------

def test_parse_format_roundtrip():
    for text in ["1", "2^inf", "2^inf*3^2*5", "3*7^4", "2^2*3*5"]:
        assert format_supernatural(parse_supernatural(text)) == text


def test_parse_rejects_malformed():
    with pytest.raises(DomainError):
        parse_supernatural("2^")
    with pytest.raises(DomainError):
        parse_supernatural("2*2")
    with pytest.raises(DomainError):
        parse_supernatural("4^2")
    with pytest.raises(DomainError):
        parse_supernatural("banana")


def test_exponent_validation():
    with pytest.raises(DomainError):
        SupernaturalNumber({2: 0})
    with pytest.raises(DomainError):
        SupernaturalNumber({2: -1})
    with pytest.raises(DomainError):
        SupernaturalNumber({4: 1})


# --- descriptors and invariants -------------------------------------------

def test_from_sizes_examples():
    assert supernatural_from_sizes(UHFDescriptor(prefix=(2, 4, 8))).exponents == {2: 6}
    assert factorize(2 * 4 * 8) == {2: 6}
    for p in PRIMES:
        n = supernatural_from_sizes(UHFDescriptor(tail=(p,)))
        assert n.exponents == {p: INF}
    assert supernatural_from_sizes(UHFDescriptor(prefix=(1, 1, 1))).exponents == {}


def test_k0_examples():
    assert k0_of(UHFDescriptor(tail=(2,))).exponents == {2: INF}
    assert k0_of(UHFDescriptor(prefix=(6, 10))).exponents == {2: 2, 3: 1, 5: 1}
    assert factorize(60) == {2: 2, 3: 1, 5: 1}
    assert k0_of(UHFDescriptor(prefix=(1,))).exponents == {}


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
            cur = supernatural_from_sizes(UHFDescriptor(prefix=desc.sizes(m)))
            nxt = supernatural_from_sizes(UHFDescriptor(prefix=desc.sizes(m + 1)))
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

def test_qn_contains_examples():
    assert qn_contains(sn(p2=INF), Fraction(5, 1024))
    assert not qn_contains(sn(p2=3), Fraction(1, 16))
    assert qn_contains(SupernaturalNumber({2: INF, 3: 1}), Fraction(7, 6))
    assert qn_contains(sn(p2=1), 5)  # integers always belong


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
def test_qn_contains_matches_factoring(n_exps, den_exps, num):
    n = SupernaturalNumber({p: e for p, e in zip(PRIMES, n_exps) if e})
    r = Fraction(num, math.prod(p ** e for p, e in zip(PRIMES, den_exps)))
    assert qn_contains(n, r) == qn_contains_by_factoring(n, r)


def test_qn_contains_at_a_40_bit_prime_does_not_factor():
    big = 1099511627689  # a 40-bit prime; trial division of big**3 runs to big
    n = SupernaturalNumber({big: 2})
    assert not qn_contains(n, Fraction(1, big ** 3))
    assert qn_contains(n, Fraction(5, big ** 2))
    assert not qn_contains(n, Fraction(1, 3 * big))


# --- stable isomorphism ---------------------------------------------------

def test_stably_isomorphic_reflexive_with_unit_witness():
    n = parse_supernatural("2^inf*3^2*7")
    decision = stably_isomorphic(n, n)
    assert decision.equal and decision.witness == (1, 1)


def test_stably_isomorphic_scaling_example():
    decision = stably_isomorphic(
        parse_supernatural("2^inf"), parse_supernatural("2^inf*3^2")
    )
    assert decision.equal and decision.witness == (1, 9)
    # sampled soundness of the witness, both directions
    rng = random.Random(13)
    r, s = decision.witness
    for _ in range(50):
        x = Fraction(rng.randint(-50, 50), 2 ** rng.randint(0, 12))
        assert qn_contains(parse_supernatural("2^inf*3^2"), x * Fraction(r, s))
        y = Fraction(rng.randint(-50, 50), 9 * 2 ** rng.randint(0, 12))
        assert qn_contains(parse_supernatural("2^inf"), y * Fraction(s, r))


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


def test_distinct_infinite_parts_never_scale_together():
    decision = stably_isomorphic(parse_supernatural("2^inf"), parse_supernatural("3^inf"))
    assert not decision.equal and decision.witness is None

    # literal search over r, s <= 1000 against the sampled membership
    # constraint at 1/2^25: (r/s)/2^25 must land in Q(3^inf), which needs
    # 25 + v2(s) - v2(r) <= 0; no pair below 1000 gets close
    v2 = [0] * 1001
    for k in range(1, 1001):
        v2[k] = (k & -k).bit_length() - 1
    assert not any(
        v2[r] >= 25 + v2[s] for r in range(1, 1001) for s in range(1, 1001)
    )


def test_stably_isomorphic_equivalence_laws():
    rng = random.Random(17)

    def random_sn():
        exps = {}
        for p in PRIMES:
            kind = rng.randrange(4)
            if kind == 1:
                exps[p] = rng.randint(1, 5)
            elif kind == 2:
                exps[p] = INF
        return SupernaturalNumber(exps)

    pool = [random_sn() for _ in range(60)]
    for _ in range(200):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert stably_isomorphic(a, a).equal
        assert stably_isomorphic(a, b).equal == stably_isomorphic(b, a).equal
        if stably_isomorphic(a, b).equal and stably_isomorphic(b, c).equal:
            assert stably_isomorphic(a, c).equal


def test_witness_formula_minimal_exponents():
    n = SupernaturalNumber({2: INF, 3: 4, 5: 1})
    n2 = SupernaturalNumber({2: INF, 3: 1, 7: 2})
    decision = stably_isomorphic(n, n2)
    assert decision.equal
    assert decision.witness == (3 ** 3 * 5, 7 ** 2)


# --- the Tate bridge ------------------------------------------------------

def test_uhf_from_tate_examples():
    from tatedual.padic import padic_from_integer

    out = uhf_from_tate(padic_from_integer(2, 2, 6))
    assert out.descriptor == UHFDescriptor(tail=(2,))
    assert out.k0.exponents == {2: INF}
    assert out.scale == 1
    assert out.label == "CAR"

    out = uhf_from_tate(padic_from_integer(5, 5, 6))
    assert out.descriptor.tail == (5,)
    assert out.k0.exponents == {5: INF}
    assert out.label is None

    out = uhf_from_tate(padic_from_integer(6, 3, 6))
    assert out.descriptor.tail == (3,)
    assert out.k0.exponents == {3: INF}
    assert out.scale == 2


def test_uhf_from_tate_rejections():
    from tatedual.padic import padic_from_integer

    with pytest.raises(DomainError):
        uhf_from_tate(padic_from_integer(0, 3, 4))
    with pytest.raises(DomainError):
        uhf_from_tate(padic_from_integer(1, 3, 4))
