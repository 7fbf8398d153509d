"""Small integer helpers shared across the package: primality by
deterministic Miller-Rabin, factorization by trial division and Pollard
rho under a stated step budget, and the p-power split.  `xgcd` and
`gcd_with_coefficients` serve only the tests and the benchmark tracer;
they go with the certified-hull fork (ROADMAP item 4)."""

from __future__ import annotations

from math import gcd

from .errors import DomainError, shown

# Primes are re-checked on every value construction; the cache keeps that
# amortized O(1) for the handful of primes a session actually uses.
_VERIFIED_PRIMES: set[int] = {2, 3, 5, 7, 11, 13}

MAX_PRIME_BITS = 63  # p must fit in a machine word

# Strong-probable-prime tests to the first 12 prime bases decide primality
# exactly below _MR_EXACT_BELOW (Sorenson & Webster 2015), far past 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461

# Trial division goes this far; rho splits the rest.
_TRIAL_LIMIT = 1 << 10

# Pollard rho gets _RHO_BUDGET steps on a cofactor of one 64-bit word and
# w**2 times fewer on one of w words, since a step costs about w**2 word
# products: 2**20 steps below 128 bits, which split off a 40-bit factor in
# nearly every case (13 of 14 seeded products), and run out in about 0.7 s
# on an 81-bit prime (2-vCPU host).  A step is one difference x - y tested
# against n; Brent's search also moves y untested between its tests.
_RHO_BUDGET = 1 << 22

# Rho multiplies _RHO_BATCH differences together mod n and takes one gcd of
# the product instead of one gcd per difference.
_RHO_BATCH = 128


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho with Brent's
    cycle search and one gcd per batch of steps, retried with the next
    constant c when it collapses to n; a DomainError naming the budget once
    the steps run out.

    A batch whose gcd is not 1 is replayed one gcd a step, so the divisor
    is the first one a step finds, as without batches: the batch's own gcd
    is n when the product vanishes mod n, and often a product of several
    small primes."""
    budget = _RHO_BUDGET // (n.bit_length() // 64 + 1) ** 2
    steps = c = 0
    while steps < budget:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1 and steps + r <= budget:  # a round runs only if its tests fit
            x = y  # x waits here; y moves r untested steps, then r tested ones
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                batch_start, batch = y, min(_RHO_BATCH, r - k)
                product = 1
                for _ in range(batch):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                g = gcd(product, n)
                k += batch
            steps += k
            r *= 2
        if g > 1:  # replay the batch one gcd a step for its first divisor
            y, g = batch_start, 1
            while g == 1:
                y = (y * y + c) % n
                g = gcd(x - y, n)
        if 1 < g < n:
            return g
    message = (f"cannot factorize {shown(n)} ({n.bit_length()} bits): Pollard rho "
               f"found no factor in its budget of {budget} steps")
    # Below _MR_EXACT_BELOW factorize hands rho only proven composites.  Past
    # it Miller-Rabin proves nothing, and its 12 powers of about bit_length
    # squarings each run only if they cost no more than the steps rho spent,
    # which holds up to about 1,100 bits.
    if (n >= _MR_EXACT_BELOW and len(_MR_BASES) * n.bit_length() <= budget
            and _miller_rabin(n)):
        message += (f"; it is a strong probable prime to bases {_MR_BASES[0]}-{_MR_BASES[-1]}, "
                    f"so it may be a prime not below {_MR_EXACT_BELOW}, the bound of proven "
                    f"primality")
    raise DomainError(message)


def _miller_rabin(n: int) -> bool:
    """Exact primality for 2 <= n < _MR_EXACT_BELOW; past it, only a
    strong-probable-prime test to the same bases."""
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
    if type(p) is int and p in _VERIFIED_PRIMES:
        return
    if isinstance(p, int) and p >= 1 << MAX_PRIME_BITS:  # no bool is this large
        raise DomainError(f"p={p} does not fit in a machine word")
    check_provable_prime(p)
    _VERIFIED_PRIMES.add(p)


def check_provable_prime(p: int, name: str = "p={}") -> None:
    """Reject p unless it is a prime that `factorize` can prove, i.e. below
    _MR_EXACT_BELOW.  Messages name p as `name.format(p)`."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise DomainError(f"p must be an integer, got {p!r}")
    if p < 2:
        raise DomainError(f"{name.format(p)} is not prime (primes start at 2)")
    if p >= _MR_EXACT_BELOW:
        raise DomainError(
            f"{name.format(p)} is not below {_MR_EXACT_BELOW}, the bound of proven primality"
        )
    if not _miller_rabin(p):
        # factorize only names the divisor for the message
        raise DomainError(f"{name.format(p)} is not prime (divisible by {min(factorize(p))})")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}.

    Trial division goes up to _TRIAL_LIMIT.  Each prime left is then found
    by following rho divisors of the unfactored part down to a number that
    Miller-Rabin proves prime (exactly below _MR_EXACT_BELOW), and all its
    powers are divided out at once."""
    if n < 1:
        raise DomainError(f"cannot factorize {n}; expected a positive integer")
    out: dict[int, int] = {}
    for f in range(2, _TRIAL_LIMIT):  # a composite f finds nothing left
        if f * f > n:
            break
        if n % f == 0:
            out[f], n = split_power(n, f)
    while n > 1:
        f = n
        # trial division leaves no composite below _TRIAL_LIMIT**2
        while f >= _TRIAL_LIMIT ** 2 and (f >= _MR_EXACT_BELOW or not _miller_rabin(f)):
            f = _rho_divisor(f)
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
