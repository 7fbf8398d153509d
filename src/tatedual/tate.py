"""Tate curve coefficients a4(q) and a6(q) as exact residues mod p**N.

The defining series sum n^3 * q^n / (1 - q^n) style terms; the n-th term
has valuation at least n*v for v = valuation(q), because 1 - q^n is a unit.
Truncating after the last n with (n+1)*v < N therefore loses nothing mod
p**N, and every term is evaluated with unit inversion in the residue ring
mod p**N rather than rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .padic import PAdicInt, padic_from_integer, padic_one, padic_zero


@dataclass(frozen=True)
class TateCoefficients:
    a4: PAdicInt
    a6: PAdicInt
    terms_used: int
    q_valuation: int


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
    """The integer (5n^3 + 7n^5) / 12; integrality is asserted per term."""
    raw = 5 * n ** 3 + 7 * n ** 5
    if raw % 12 != 0:
        raise DomainError(f"5*{n}^3 + 7*{n}^5 = {raw} is not divisible by 12")
    return raw // 12


def _series(q: PAdicInt, coefficient, terms: int | None) -> PAdicInt:
    if terms is None:
        terms = truncation_index(q)
    else:
        _tate_valuation(q)
        if terms < 0:
            raise DomainError(f"term count must be nonnegative, got {terms}")
    p, n = q.p, q.precision
    acc = padic_zero(p, n)
    one = padic_one(p, n)
    q_pow = one
    for k in range(1, terms + 1):
        q_pow = q_pow * q
        term = padic_from_integer(coefficient(k), p, n) * q_pow
        acc = acc + term * (one - q_pow).inverse()
    return acc


def a4(q: PAdicInt, terms: int | None = None) -> PAdicInt:
    """-5 * sum n^3 q^n / (1 - q^n), truncated where the tail vanishes."""
    return _series(q, lambda n: -5 * n ** 3, terms)


def a6(q: PAdicInt, terms: int | None = None) -> PAdicInt:
    """-sum c_n q^n / (1 - q^n) with c_n = (5n^3 + 7n^5)/12 kept integral,
    so the evaluation is valid even where 12 is not invertible."""
    return _series(q, lambda n: -a6_term_coefficient(n), terms)


def tate_coefficients(q: PAdicInt) -> TateCoefficients:
    return TateCoefficients(
        a4=a4(q),
        a6=a6(q),
        terms_used=truncation_index(q),
        q_valuation=_tate_valuation(q),
    )
