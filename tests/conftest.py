import random

from tatedual.padic import PAdicInt

SMALL_PRIMES = (2, 3, 5, 7)


def random_q(rng: random.Random, p: int, n: int, min_valuation: int = 0) -> PAdicInt:
    """A random nonzero residue mod p**n with valuation >= min_valuation."""
    assert min_valuation < n, "no nonzero residue has valuation >= its precision"
    digits = [0] * min_valuation + [
        rng.randrange(p) for _ in range(n - min_valuation)
    ]
    if not any(digits):
        digits[-1] = rng.randrange(1, p)
    return PAdicInt(p, tuple(digits))
