"""Tate curve coefficients a4(q) and a6(q) as exact residues mod p**N.

Both are Lambert series sum c(n) q^n / (1 - q^n) = sum b_m q^m with
b_m = sum_{d | m} c(d): c(n) = -5n^3 gives a4 = -5 s3(q) and c(n) =
-(5n^3 + 7n^5)/12, an integer, gives a6 = -(5 s3(q) + 7 s5(q))/12
(Silverman, Advanced Topics in the Arithmetic of Elliptic Curves, V.3).
q^m vanishes mod p**N once m * valuation(q) >= N, so a divisor sieve up to
the truncation index and one Horner pass mod p**N give both, with no unit
inverted and no 1/12, so p = 2 and 3 are valid.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError
# padic_from_integer is unused here; perfbench's tracer test rebinds its alias
from .padic import PAdicInt, padic_from_integer  # noqa: F401


TateCoefficients = namedtuple("TateCoefficients", "a4 a6 terms_used q_valuation")


def _tate_valuation(q: PAdicInt) -> int:
    if q.is_zero():
        raise DomainError(
            f"q is 0 at precision {q.precision}; the series needs 0 < |q| < 1"
        )
    v = q.valuation()
    if v < 1:
        raise DomainError(
            f"q is a unit (valuation 0); the series needs 0 < |q| < 1"
        )
    return v


def truncation_index(q: PAdicInt) -> int:
    """Least n_max such that every term beyond it vanishes mod p**N,
    i.e. (n_max + 1) * valuation(q) >= N."""
    v = _tate_valuation(q)
    return -(-q.precision // v) - 1


def a6_term_coefficient(n: int) -> int:
    """The integer (5n^3 + 7n^5) / 12: n^3 (5 + 7n^2) is n^3 (n - 1)(n + 1)
    mod 3, and mod 4 n^3 = 0 for even n and 5 + 7n^2 = 12 for odd n."""
    return (5 * n ** 3 + 7 * n ** 5) // 12


def _series(q: PAdicInt, coefficient) -> PAdicInt:
    """sum c(n) q^n / (1 - q^n) = sum b_m q^m mod p**N, where
    b_m = sum_{d | m} c(d) and m runs up to the truncation index."""
    top = truncation_index(q)
    b = [0] * (top + 1)
    for d in range(1, top + 1):
        c = coefficient(d)
        for m in range(d, top + 1, d):
            b[m] += c
    modulus = q.p ** q.precision
    acc = 0
    for m in range(top, 0, -1):
        acc = (acc + b[m]) * q.value % modulus
    return PAdicInt._residue(q.p, acc, q.precision)


def a4(q: PAdicInt) -> PAdicInt:
    """-5 * sum n^3 q^n / (1 - q^n), truncated where the tail vanishes."""
    return _series(q, lambda n: -5 * n ** 3)


def a6(q: PAdicInt) -> PAdicInt:
    """-sum c_n q^n / (1 - q^n) with c_n = (5n^3 + 7n^5)/12 kept integral,
    so the evaluation is valid even where 12 is not invertible."""
    return _series(q, lambda n: -a6_term_coefficient(n))


def tate_coefficients(q: PAdicInt) -> TateCoefficients:
    return TateCoefficients(
        a4=a4(q),
        a6=a6(q),
        terms_used=truncation_index(q),
        q_valuation=_tate_valuation(q),
    )
