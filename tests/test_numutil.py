"""Primality: deterministic Miller-Rabin against trial division, and the
composite message that names the smallest divisor."""

import pytest

from tatedual.errors import DomainError
from tatedual.numutil import check_prime, is_prime, smallest_factor


def test_largest_63_bit_prime_accepted():
    p = 9223372036854775783  # the largest prime below 2**63
    check_prime(p)
    assert is_prime(p)


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
    assert smallest_factor(n) == factor
    assert not is_prime(n)
    with pytest.raises(DomainError) as info:
        check_prime(n)
    assert str(info.value) == f"p={n} is not prime (divisible by {factor})"


def test_is_prime_agrees_with_trial_division_below_2e5():
    for n in range(2 * 10 ** 5):
        assert is_prime(n) == (n >= 2 and smallest_factor(n) == n), n
