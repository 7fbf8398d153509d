"""Primality: deterministic Miller-Rabin against trial division, the
composite message that names the smallest divisor, rho factoring against
trial division and past 2**63, the message when rho gives up, and the
p-power split against one division at a time."""

import math
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatedual import numutil
from tatedual.errors import DomainError
from tatedual.numutil import (
    check_prime,
    factorize,
    prime_to_part,
    split_power,
)


def miller_rabin_prime(n):
    """Exact primality below numutil._MR_EXACT_BELOW; n >= 2 comes first
    because `_miller_rabin` never returns at n = 1."""
    return n >= 2 and numutil._miller_rabin(n)


def trial_division(n):
    """The smallest prime factor of n >= 2 by plain trial division."""
    for f in range(2, isqrt(n) + 1):
        if n % f == 0:
            return f
    return n


def test_largest_63_bit_prime_accepted():
    p = 9223372036854775783  # the largest prime below 2**63
    check_prime(p)
    assert miller_rabin_prime(p)


@pytest.mark.parametrize(
    "n, factor",
    [
        (561, 3),  # Carmichael number
        (2047, 23),  # strong pseudoprime to base 2
        (3215031751, 151),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, 149491),  # strong pseudoprime to bases 2..23
    ],
)
def test_strong_pseudoprimes_rejected_with_smallest_factor(n, factor):
    assert min(factorize(n)) == factor
    assert not miller_rabin_prime(n)
    with pytest.raises(DomainError) as info:
        check_prime(n)
    assert str(info.value) == f"p={n} is not prime (divisible by {factor})"


def test_factorize_splits_the_least_pseudoprime_to_all_12_bases():
    # psi_12 passes every base of `_miller_rabin`, so only the exactness bound
    # (`>=`, not `>`) keeps it from being taken for a prime
    psi12 = 318665857834031151167461
    assert psi12 == numutil._MR_EXACT_BELOW == 399165290221 * 798330580441
    assert numutil._miller_rabin(psi12)
    assert factorize(psi12) == {399165290221: 1, 798330580441: 1}


def test_miller_rabin_agrees_with_trial_division_below_2e5():
    for n in range(2 * 10 ** 5):
        assert miller_rabin_prime(n) == (n >= 2 and factorize(n) == {n: 1}), n


def test_rho_agrees_with_trial_division_on_word_sized_composites():
    rng = random.Random(53)
    primes = [n for n in range(1025, 40000) if miller_rabin_prime(n)]
    cases = [4611685975477714963, 2147483647 ** 2, 1031 ** 3, 16777259 * 33554467]
    for _ in range(200):
        cases.append(rng.choice(primes) * rng.choice(primes) * rng.randrange(1, 1000))
    for n in cases:
        factors = factorize(n)
        prod = 1
        for f, e in factors.items():
            assert miller_rabin_prime(f)
            prod *= f ** e
        assert prod == n
        if n < 10 ** 12:
            assert min(factors) == trial_division(n), n


def split_one_at_a_time(n, p):
    """(e, m) with n = p**e * m, p not dividing m, one division per factor."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


@given(
    p=st.sampled_from((2, 3, 5, 7, 1099511627689)),
    e=st.integers(0, 300),
    m=st.integers(1, 10 ** 40),
)
def test_split_power_matches_one_division_at_a_time(p, e, m):
    n = p ** e * m
    assert split_power(n, p) == split_one_at_a_time(n, p)
    assert prime_to_part(-n, p) == split_one_at_a_time(n, p)[1]


PRIMES_31_32_BITS = (2147483629, 2147483647, 4294967291)


@settings(deadline=None, max_examples=15)
@given(
    small=st.lists(st.sampled_from((2, 3, 1021, 1031, 65521)), max_size=4),
    large=st.lists(st.sampled_from(PRIMES_31_32_BITS), min_size=1, max_size=3),
)
def test_factorize_recovers_products_at_any_size(small, large):
    n = math.prod(small) * math.prod(large)
    expected = {f: (small + large).count(f) for f in set(small + large)}
    assert factorize(n) == expected


@pytest.mark.parametrize(
    "n, large_primes",
    [
        (2147483629 * 2147483647 * 4294967291, 3),
        (1031 ** 7 * 2147483647 ** 5 * 3, 2),
        (2147483647 ** 4, 1),
        (1031 ** 3 * 1033 ** 2 * 1039, 3),
    ],
)
def test_factorize_gives_rho_no_cofactor_twice(monkeypatch, n, large_primes):
    calls = []
    rho = numutil._rho_divisor

    def counted(m):
        calls.append(m)
        return rho(m)

    monkeypatch.setattr(numutil, "_rho_divisor", counted)
    factors = factorize(n)
    assert math.prod(f ** e for f, e in factors.items()) == n
    assert all(miller_rabin_prime(f) for f in factors)
    # every prime past trial division leaves with all its powers at once
    assert len(set(calls)) == len(calls) <= large_primes


@pytest.mark.parametrize(
    "n, rho_budget, maybe_prime",
    [
        (2 ** 89 - 1, 1 << 14, True),  # a Mersenne prime past _MR_EXACT_BELOW
        (70368744177679 * 70368744177791, 1 << 14, False),  # two 47-bit primes
        (2 ** 89 - 1, 1 << 12, False),  # 12 powers of 89 bits > the 1024 steps spent
    ],
)
def test_rho_giving_up_on_a_probable_prime_says_it_may_be_prime(monkeypatch, n, rho_budget,
                                                                   maybe_prime):
    monkeypatch.setattr(numutil, "_RHO_BUDGET", rho_budget)
    with pytest.raises(DomainError) as info:
        factorize(n)
    message = str(info.value)
    assert message.startswith(f"cannot factorize {n} ({n.bit_length()} bits): Pollard rho "
                              "found no factor in its budget of")
    assert message.endswith("so it may be a prime not below 318665857834031151167461, the "
                            "bound of proven primality") is maybe_prime
