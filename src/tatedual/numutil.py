"""Small integer helpers shared across the package: primality by
deterministic Miller-Rabin, factorization by trial division and (below
2**63) Pollard rho, and extended gcd with combination certificates."""

from __future__ import annotations

from math import gcd, isqrt

from .errors import DomainError

# Primes are re-checked on every value construction; the cache keeps that
# amortized O(1) for the handful of primes a session actually uses.
_VERIFIED_PRIMES: set[int] = {2, 3, 5, 7, 11, 13}

MAX_PRIME_BITS = 63  # p must fit in a machine word

# Strong-probable-prime tests to the first 12 prime bases decide primality
# exactly below _MR_EXACT_BELOW (Sorenson & Webster 2015), far past 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461

# Machine-word inputs are trial-divided only this far; rho splits the rest.
_TRIAL_LIMIT = 1 << 10


def _trial_factor(n: int, top: int) -> int | None:
    """The smallest prime factor of n that is at most top, or None."""
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    f = 5
    while f <= top:
        if n % f == 0:
            return f
        if n % (f + 2) == 0:
            return f + 2
        f += 6
    return None


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho with Floyd's
    cycle search, retried with the next constant c when it collapses to n."""
    c = 0
    while True:
        c += 1
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(abs(x - y), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The prime factors of 2 <= n < 2**63, with repetition, in no order."""
    if _miller_rabin(n):
        return [n]
    d = _rho_divisor(n)
    return _prime_factors(d) + _prime_factors(n // d)


def smallest_factor(n: int) -> int:
    """Return the smallest prime factor of n >= 2 (n itself if prime)."""
    top = isqrt(n)
    if n.bit_length() > MAX_PRIME_BITS or top <= _TRIAL_LIMIT:
        return _trial_factor(n, top) or n
    return _trial_factor(n, _TRIAL_LIMIT) or min(_prime_factors(n))


def _miller_rabin(n: int) -> bool:
    """Exact primality for 2 <= n < _MR_EXACT_BELOW."""
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Reject p unless it is a prime fitting in a machine word."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise DomainError(f"p must be an integer, got {p!r}")
    if p in _VERIFIED_PRIMES:
        return
    if p < 2:
        raise DomainError(f"p={p} is not prime (primes start at 2)")
    if p.bit_length() > MAX_PRIME_BITS:
        raise DomainError(f"p={p} does not fit in a machine word")
    if not _miller_rabin(p):
        # trial division only names the divisor for the message
        raise DomainError(f"p={p} is not prime (divisible by {smallest_factor(p)})")
    _VERIFIED_PRIMES.add(p)


def is_prime(n: int) -> bool:
    if n in _VERIFIED_PRIMES:
        return True
    if n < 2:
        return False
    if n < _MR_EXACT_BELOW:
        return _miller_rabin(n)
    return smallest_factor(n) == n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise DomainError(f"cannot factorize {n}; expected a positive integer")
    out: dict[int, int] = {}
    while n > 1:
        f = smallest_factor(n)
        out[f], n = split_power(n, f)
    return out


def split_power(n: int, p: int) -> tuple[int, int]:
    """(e, m) with n = p**e * m and p not dividing m, for n >= 1.

    Each pass divides out p, p**2, p**4, ... while they go in, so e costs
    O(log e) divisions per pass instead of e."""
    e = 0
    while n % p == 0:
        pk, k = p, 1
        while True:
            quotient, rest = divmod(n, pk)
            if rest:
                break
            n, e = quotient, e + k
            pk, k = pk * pk, 2 * k
    return e, n


def prime_to_part(n: int, p: int) -> int:
    """The p-free part of n: divide out every factor of p."""
    if n == 0:
        return 0
    return split_power(abs(n), p)[1]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def gcd_with_coefficients(nums: list[int]) -> tuple[int, list[int]]:
    """gcd of a list together with integer coefficients realizing it.

    Returns (g, c) with g = sum(c[i] * nums[i]) and g = gcd(nums) >= 0.
    The empty list has gcd 0.
    """
    g = 0
    coeffs: list[int] = []
    for n in nums:
        g2, x, y = xgcd(g, n)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    return g, coeffs
