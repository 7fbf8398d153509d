"""Supernatural numbers, the rational groups Q(n) they encode, and the
K0-level classification of UHF algebras.

A supernatural number is a formal product of primes with exponents in
{1, 2, ...} or infinity.  Q(n) is the additive group of rationals whose
denominators divide it; that group is the K0 invariant of the UHF algebra
built from a size sequence, and two UHF algebras are stably isomorphic
exactly when their invariants agree up to integer scaling.  Q(n) itself is
never materialized: membership (`qn_contains`) is its observable behavior.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .errors import DomainError, InputError, printable
from .numutil import check_provable_prime, factorize, split_power

INF = float("inf")  # exponent marker; compared against ints, never summed


class SupernaturalNumber(namedtuple("SupernaturalNumber", "exponents")):
    """Finite map prime -> exponent (positive int or INF); absent means 0.
    Unhashable, since the map is a dict."""

    __slots__ = ()

    def __new__(cls, exponents: dict[int, int | float] | None = None):
        self = tuple.__new__(cls, ({} if exponents is None else exponents,))
        self.__post_init__()
        return self

    def __post_init__(self):
        for p, e in self.exponents.items():
            check_provable_prime(p, name="supernatural factor {}")
            if e == INF:
                continue
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                raise DomainError(
                    f"exponent of {p} must be a positive integer or inf, got {e!r}"
                )

    @classmethod
    def _proven(cls, exponents: dict[int, int | float]) -> SupernaturalNumber:
        """The supernatural number of `exponents`, whose keys the caller has
        already proved prime and whose exponents are positive ints or INF."""
        return tuple.__new__(cls, (exponents,))

    def exponent(self, p: int) -> int | float:
        return self.exponents.get(p, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.exponents))

    def infinite_support(self) -> frozenset[int]:
        return frozenset(p for p, e in self.exponents.items() if e == INF)


class UHFDescriptor(namedtuple("UHFDescriptor", "prefix tail")):
    """An eventually periodic matrix-size sequence: finite prefix plus an
    optional block that repeats forever."""

    __slots__ = ()

    def __new__(cls, prefix: tuple[int, ...] = (), tail: tuple[int, ...] = ()):
        self = tuple.__new__(cls, (prefix, tail))
        self.__post_init__()
        return self

    def __post_init__(self):
        for k in self.prefix + self.tail:
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise DomainError(f"matrix size {k!r} rejected; sizes are integers >= 1")


# witness: the minimal (r, s) when equal, else None
StableIsomorphism = namedtuple("StableIsomorphism", "equal witness")
# label: "CAR" for the CAR algebra, else None
TateUHF = namedtuple("TateUHF", "descriptor k0 scale label")


def supernatural_from_sizes(m: UHFDescriptor) -> SupernaturalNumber:
    """Prime multiplicities of the full size product: the prefix contributes
    finitely, any prime dividing a size of the repeating tail contributes
    infinity.  Each size is factorized on its own, never their product."""
    exps: dict[int, int | float] = {}
    for k in m.prefix:
        for p, e in factorize(k).items():
            exps[p] = exps.get(p, 0) + e
    for k in m.tail:
        for p in factorize(k):
            exps[p] = INF
    return SupernaturalNumber._proven(exps)  # factorize proved every prime


def k0_of(m: UHFDescriptor) -> SupernaturalNumber:
    """The K0 invariant of the UHF algebra with size sequence m.

    Numerically identical to `supernatural_from_sizes`; the name records
    that the result classifies the algebra: K0 is Q(n) for this n.
    """
    return supernatural_from_sizes(m)


def qn_contains(n: SupernaturalNumber, r) -> bool:
    """Membership of a rational in Q(n): every prime power in the reduced
    denominator must be within n's exponent for that prime.  Each prime of
    n is split off the denominator and what is left must be 1, so nothing
    is factorized."""
    from fractions import Fraction  # here, so `uhf k0` and `stable-iso` load no fractions

    rest = Fraction(r).denominator
    for p, e in n.exponents.items():
        k, rest = split_power(rest, p)
        if k > e:
            return False
    return rest == 1


def stably_isomorphic(n: SupernaturalNumber, n2: SupernaturalNumber) -> StableIsomorphism:
    """Decide r*Q(n) = s*Q(n2) for some positive integers r, s.

    Over the representable class the infinite parts must match exactly,
    while finite exponents are absorbed by scaling; when equal, the minimal
    witness is returned: r collects p**(e1 - e2) wherever n's finite
    exponent e1 is the larger, s the reverse.
    """
    if n.infinite_support() != n2.infinite_support():
        return StableIsomorphism(equal=False, witness=None)
    r, s = [], []  # the witness as prime powers (p, e)
    for p in sorted(set(n.support()) | set(n2.support())):
        e1, e2 = n.exponent(p), n2.exponent(p)
        if e1 != e2:  # an infinite exponent is infinite in both: no scaling there
            (r if e1 > e2 else s).append((p, abs(e1 - e2)))
    printable(r, s)  # sized from the exponents, so a refused witness is never built
    witness = tuple(math.prod(p ** e for p, e in powers) for powers in (r, s))
    return StableIsomorphism(equal=True, witness=witness)


def uhf_from_tate(q) -> TateUHF:
    """The UHF algebra dual to the Tate parameter q, at the K0 level: its
    size sequence repeats q's prime, so K0 is p^inf up to the reported
    integer scale."""
    from .gamma import supernatural_limit  # deferred: only this command needs gamma

    limit = supernatural_limit(q)
    label = "CAR" if q.p == 2 else None
    return TateUHF(
        descriptor=UHFDescriptor(prefix=(), tail=(q.p,)),
        k0=limit.sn,
        scale=limit.scale,
        label=label,
    )


_FACTOR_RE = re.compile(r"^(\d+)(?:\^(inf|\d+))?$")


def parse_supernatural(text: str) -> SupernaturalNumber:
    """Parse `1` or an asterisk-separated factor list like `2^inf*3^2*5`."""
    text = text.strip()
    if text == "1":
        return SupernaturalNumber({})
    exps: dict[int, int | float] = {}
    for part in text.split("*"):
        m = _FACTOR_RE.match(part.strip())
        if m is None:
            raise InputError(f"malformed supernatural factor: {part!r}")
        p = int(m.group(1))
        raw = m.group(2)
        e: int | float = 1 if raw is None else (INF if raw == "inf" else int(raw))
        if e == 0:
            continue
        if p in exps:
            raise DomainError(f"prime {p} listed twice in {text!r}")
        exps[p] = e
    return SupernaturalNumber(exps)


def format_supernatural(n: SupernaturalNumber) -> str:
    if not n.exponents:
        return "1"
    parts = []
    for p in n.support():
        e = n.exponent(p)
        if e == INF:
            parts.append(f"{p}^inf")
        elif e == 1:
            parts.append(str(p))
        else:
            parts.append(f"{p}^{e}")
    return "*".join(parts)


def parse_descriptor(text: str) -> UHFDescriptor:
    """Parse `sizes=2,4,8` optionally followed by `;tail=3,3`."""
    prefix: tuple[int, ...] = ()
    tail: tuple[int, ...] = ()
    seen = set()
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, body = chunk.partition("=")
        key = key.strip()
        if not sep or key not in ("sizes", "tail") or key in seen:
            raise InputError(f"malformed descriptor chunk: {chunk!r}")
        seen.add(key)
        try:
            values = tuple(int(s) for s in body.split(",") if s.strip())
        except ValueError:
            raise InputError(f"malformed size list: {body!r}") from None
        if key == "sizes":
            prefix = values
        else:
            tail = values
    if not seen:
        raise InputError(f"malformed descriptor: {text!r}")
    return UHFDescriptor(prefix=prefix, tail=tail)


def format_descriptor(m: UHFDescriptor) -> str:
    out = f"sizes={','.join(map(str, m.prefix))}"
    if m.tail:
        out += f";tail={','.join(map(str, m.tail))}"
    return out
