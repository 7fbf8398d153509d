"""Fixed-precision p-adic integers.

A value is a residue mod p**N, stored as its canonical integer in
[0, p**N) and standing for a p-adic integer known to precision N; only this
module converts it to and from its base-p digits, least significant first
(`_to_int` for digit-list input, `_from_int` when the digits are asked
for).  All operations are exact mod p**N and never extend precision on
their own.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cached_property

from . import kernels
from .errors import DomainError
from .numutil import check_prime, split_power


class _AtLeastPrecision:
    """Marker for 'every stored digit is zero': the valuation is >= N."""

    def __repr__(self):
        return "at_least_precision"


AT_LEAST_PRECISION = _AtLeastPrecision()


def _to_int(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _from_int(value, p, n):
    """The low n base-p digits of any integer, least significant first."""
    out = []
    for _ in range(n):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


class PAdicInt:
    """A p-adic integer known mod p**N, held as its canonical integer
    `value` in [0, p**N); the N base-p digits are derived on demand.

    `PAdicInt(p, digits)` builds one from its little-endian digits and
    validates each of them; ring operations build their results from
    already reduced integers through `_residue`.  Values are immutable,
    compare equal when p, value and precision agree, and are hashable.
    """

    p: int
    value: int
    precision: int

    def __init__(self, p: int, digits) -> None:
        digits = tuple(digits)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", len(digits))
        self.__post_init__()
        if not digits:
            raise DomainError("precision must be at least 1")
        for i, d in enumerate(digits):
            if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < p:
                raise DomainError(f"digit c_{i}={d!r} out of range [0, {p - 1}]")
        object.__setattr__(self, "value", _to_int(digits, p))
        self.__dict__["digits"] = digits  # seeds the cached property

    @classmethod
    def _residue(cls, p: int, value: int, precision: int) -> PAdicInt:
        """The residue with canonical representative `value`, which the
        caller has already reduced into [0, p**precision)."""
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "precision", precision)
        self.__post_init__()
        return self

    def __post_init__(self):
        check_prime(self.p)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.value, self.precision) == (other.p, other.value, other.precision)

    def __hash__(self):
        return hash((self.p, self.value, self.precision))

    def __repr__(self):
        return f"PAdicInt(p={self.p!r}, value={self.value!r}, precision={self.precision!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """The N base-p digits c_0..c_{N-1}, least significant first."""
        return _from_int(self.value, self.p, self.precision)

    @property
    def _modulus(self) -> int:
        return self.p ** self.precision

    def is_zero(self) -> bool:
        return self.value == 0

    def valuation(self):
        """Index of the first nonzero digit, or AT_LEAST_PRECISION if none."""
        if self.value == 0:
            return AT_LEAST_PRECISION
        return split_power(self.value, self.p)[0]

    def truncate(self, n: int) -> PAdicInt:
        """The same value known only mod p**n, for 1 <= n <= N."""
        if not 1 <= n <= self.precision:
            raise DomainError(f"cannot truncate precision {self.precision} to {n}")
        return self._residue(self.p, self.value % self.p ** n, n)

    def _check_compatible(self, other: PAdicInt) -> None:
        if not isinstance(other, PAdicInt):
            raise DomainError(f"expected a p-adic operand, got {other!r}")
        if self.p != other.p or self.precision != other.precision:
            raise DomainError(
                f"operands disagree: p={self.p}, N={self.precision} vs "
                f"p={other.p}, N={other.precision}"
            )

    def __add__(self, other: PAdicInt) -> PAdicInt:
        self._check_compatible(other)
        value = kernels.add(self.value, other.value, self._modulus)
        return self._residue(self.p, value, self.precision)

    def __neg__(self) -> PAdicInt:
        return self._residue(self.p, kernels.neg(self.value, self._modulus), self.precision)

    def __mul__(self, other: PAdicInt) -> PAdicInt:
        self._check_compatible(other)
        value = kernels.mul(self.value, other.value, self._modulus)
        return self._residue(self.p, value, self.precision)

    def inverse(self) -> PAdicInt:
        """The unique z with self*z = 1 mod p**N; defined for units only."""
        if self.value % self.p == 0:
            raise DomainError(
                f"cannot invert a non-unit: valuation is {self.valuation()!r}"
            )
        return self._residue(self.p, kernels.inv(self.value, self._modulus), self.precision)

    def __str__(self):
        return f"{self.value} mod {self.p}^{self.precision}"


class CanonicalSequence(namedtuple("CanonicalSequence", "p entries")):
    """The partial-sum residues a_1..a_N of a p-adic integer: a_n is the
    value mod p**n, so 0 <= a_n < p**n and consecutive entries are
    congruent mod p**(n-1).  `canonical_sequence` builds them so; the
    constructor checks only the prime."""

    __slots__ = ()

    def __new__(cls, p: int, entries: tuple[int, ...]):
        self = tuple.__new__(cls, (p, entries))
        self.__post_init__()
        return self

    def __post_init__(self):
        check_prime(self.p)


def padic_from_integer(m: int, p: int, n: int) -> PAdicInt:
    """The residue of the integer m mod p**n, in canonical digit form."""
    check_prime(p)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"precision N={n!r} rejected; need an integer N >= 1")
    if not isinstance(m, int):
        raise DomainError(f"expected an integer to reduce mod {p}^{n}, got {m!r}")
    return PAdicInt._residue(p, m % p ** n, n)


# op name -> (arity, operation); methodcaller looks `inverse` up per call
ARITHMETIC_OPS = {
    "add": (2, operator.add),
    "neg": (1, operator.neg),
    "mul": (2, operator.mul),
    "invert": (1, operator.methodcaller("inverse")),
}


def arithmetic(op: str, x: PAdicInt, y: PAdicInt | None = None) -> PAdicInt:
    """Dispatch one ring operation by name: add, neg, mul, or invert."""
    if op not in ARITHMETIC_OPS:
        raise DomainError(f"unknown operation {op!r}; expected one of "
                          f"{sorted(ARITHMETIC_OPS)}")
    arity, operation = ARITHMETIC_OPS[op]
    if arity == 2 and y is None:
        raise DomainError(f"operation {op!r} needs a second operand")
    if arity == 1 and y is not None:
        raise DomainError(f"operation {op!r} takes a single operand")
    return operation(x, y) if arity == 2 else operation(x)


def prefix_residues(x: PAdicInt):
    """Yield (a_n, p**n) for n = 1..N, where a_n = x mod p**n, one digit at
    a time: a_n = a_{n-1} + c_{n-1} * p**(n-1)."""
    a, pw = 0, 1
    for c in x.digits:
        a += c * pw
        pw *= x.p
        yield a, pw


def canonical_sequence(x: PAdicInt) -> CanonicalSequence:
    """The residues a_n = x mod p**n for n = 1..N."""
    return CanonicalSequence(x.p, tuple(a for a, _ in prefix_residues(x)))
