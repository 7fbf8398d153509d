"""The additive subgroup of Q spanned by the scaled canonical residues
gamma_n = a_n / p**n of a p-adic integer q, its finite truncations, its
image in Q/Z, and the quasicyclic (Pruefer) relations those images satisfy.

Every finitely generated subgroup of Q is cyclic, so a truncation is
represented by a single nonnegative generator; the infinite group only ever
appears through its truncations, with stabilization reported explicitly.

Closed forms used throughout.  With a_n = q mod p**n, the level-n
truncation is generated by G_n / p**n, where G_0 = 0 and
G_n = gcd(a_k * p**(n-k) : k <= n) = gcd(p * G_{n-1}, a_n).  With q's digits
c_k and valuation v, G_n = p**v * content_n with content_n =
gcd(c_0, ..., c_{n-1}) (0 while n <= v): g = content_{n-1} divides a_{n-1}
and is prime to p, because it divides the first nonzero digit (< p), so
gcd(p * G_{n-1}, a_n) = p**v * gcd(g, c_{n-1}).  The generator is thus
content_N / p**(N-v), read without building any a_n, and the group tends
to content * Z[1/p].  In Q/Z: p*gamma_1 = a_1 is an integer,
p*gamma_{n+1} - gamma_n = c_n, and gamma_n reduces to level max(n - v, 0).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, PrecisionError, shown
from .numutil import check_prime, gcd_with_coefficients, split_power
from .padic import PAdicInt, prefix_residues
from .supernatural import INF, SupernaturalNumber


@dataclass(frozen=True)
class CyclicSubgroupQ:
    """The subgroup generator*Z of Q; generator 0 encodes the trivial group."""

    generator: Fraction

    def __post_init__(self):
        if not isinstance(self.generator, Fraction):
            object.__setattr__(self, "generator", Fraction(self.generator))
        if self.generator < 0:
            raise DomainError("group generators are normalized nonnegative")


@dataclass(frozen=True)
class PruferElement:
    """A fully reduced element a/p**n of the p-power torsion of Q/Z.

    level 0 with numerator 0 is the identity; otherwise 0 <= a < p**n with
    p not dividing a, and the element has order exactly p**n.
    """

    p: int
    level: int
    numerator: int

    def __post_init__(self):
        check_prime(self.p)
        if self.level < 0:
            raise DomainError("level must be nonnegative")
        if self.level == 0:
            if self.numerator != 0:
                raise DomainError("the only level-0 element is the identity")
            return
        if not 0 <= self.numerator < self.p ** self.level:
            raise DomainError(
                f"numerator {self.numerator} out of range for level {self.level}"
            )
        if self.numerator % self.p == 0:
            raise DomainError(
                f"{self.numerator}/{self.p}^{self.level} is not reduced"
            )

    def __str__(self):
        if self.level == 0:
            return "0"
        return f"{self.numerator}/{self.p}^{self.level}"


@dataclass(frozen=True)
class ContainsOneReport:
    contains_one: bool
    content: int


@dataclass(frozen=True)
class DensityWitness:
    witness: Fraction
    distance: Fraction


@dataclass(frozen=True)
class PruferRelation:
    # step n: p*gamma_{n+1} differs from gamma_n by the integer `discrepancy`
    n: int
    holds: bool
    discrepancy: int


@dataclass(frozen=True)
class PruferRelationsReport:
    p_gamma1_zero: bool
    relations: tuple[PruferRelation, ...]
    levels: tuple[int, ...]
    unbounded_order: bool

    @property
    def all_hold(self) -> bool:
        return self.p_gamma1_zero and all(r.holds for r in self.relations)


@dataclass(frozen=True)
class SupernaturalLimit:
    sn: SupernaturalNumber
    scale: int
    stabilized: bool


def _require_nonzero(q: PAdicInt) -> None:
    if q.is_zero():
        raise DomainError(
            f"q is 0 at precision {q.precision}; the group it spans is trivial"
        )


def _positive_valuation(q: PAdicInt) -> int:
    _require_nonzero(q)
    v = q.valuation()
    if v < 1:
        raise DomainError(f"q must satisfy valuation >= 1 (|q| < 1); got valuation {v}")
    return v


def gamma_generators(q: PAdicInt) -> list[Fraction]:
    """The generators gamma_n = a_n / p**n for n = 1..N, each in [0, 1)."""
    return [Fraction(a, pn) for a, pn in prefix_residues(q)]


def hull_with_coefficients(gens) -> tuple[CyclicSubgroupQ, list[int]]:
    """Cyclic hull of finitely many rationals plus a certificate.

    Over the common denominator D the hull generator is gcd of the scaled
    numerators divided by D; the returned coefficients c satisfy
    sum(c_i * gens_i) == generator exactly.
    """
    gens = [Fraction(g) for g in gens]
    if not gens:
        return CyclicSubgroupQ(Fraction(0)), []
    d = math.lcm(*(g.denominator for g in gens))
    nums = [g.numerator * (d // g.denominator) for g in gens]
    g, coeffs = gcd_with_coefficients(nums)
    return CyclicSubgroupQ(Fraction(g, d)), coeffs


def cyclic_hull(gens) -> CyclicSubgroupQ:
    """The smallest subgroup of Q containing every input (always cyclic):
    over reduced fractions its generator is gcd(numerators) / lcm(denominators)."""
    gens = [Fraction(g) for g in gens]
    return CyclicSubgroupQ(Fraction(
        math.gcd(*(g.numerator for g in gens)),
        math.lcm(*(g.denominator for g in gens)),
    ))


def gamma_group(q: PAdicInt) -> CyclicSubgroupQ:
    """The truncation at q's precision of the group its generators span:
    the gcd of q's digits over p**(N - v), or 0 for q = 0."""
    if q.is_zero():
        return CyclicSubgroupQ(Fraction(0))
    content = math.gcd(*q.digits)
    return CyclicSubgroupQ(Fraction(content, q.p ** (q.precision - q.valuation())))


def contains_one_report(q: PAdicInt) -> ContainsOneReport:
    """Whether 1 lies in the truncated group, plus the obstruction.

    `content` is the gcd of q's digits, the prime-to-p part of
    gcd{a_n : a_n != 0}; the hull generator is content / p**(N - v), so 1
    is inside exactly when the content is 1.  A content > 1 is a common
    factor of the generator numerators that no integer combination can
    remove.
    """
    _require_nonzero(q)
    content = math.gcd(*q.digits)
    return ContainsOneReport(contains_one=content == 1, content=content)


def _required_precision(q: PAdicInt, content: int, epsilon: Fraction) -> int:
    """v + k for the least k >= 1 with content / p**k <= epsilon = a/b; an
    upper bound, because content can only shrink at higher precision."""
    p, a, b = q.p, epsilon.numerator, epsilon.denominator
    # k read off the sizes is off by at most one; exact comparisons settle it
    k = max(1, math.ceil((math.log(content) + math.log(b) - math.log(a)) / math.log(p)))
    if k > 1 and p ** (k - 1) * a >= content * b:
        k -= 1
    elif p ** k * a < content * b:
        k += 1
    return q.valuation() + k


def density_witness(q: PAdicInt, target, epsilon) -> DensityWitness:
    """The nearest element of the truncated group to `target`, guaranteed
    within epsilon; ties between two multiples resolve to the smaller one."""
    target = Fraction(target)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {shown(epsilon)}")
    _require_nonzero(q)
    g = gamma_group(q).generator
    if g > epsilon:
        needed = _required_precision(q, g.numerator, epsilon)
        raise PrecisionError(
            f"hull generator {shown(g)} exceeds epsilon {shown(epsilon)}; "
            f"precision about N={needed} would suffice",
            required_precision=needed,
        )
    steps = target / g
    k = steps.numerator // steps.denominator
    if steps - k > Fraction(1, 2):
        k += 1
    witness = k * g
    return DensityWitness(witness=witness, distance=abs(witness - target))


def prufer_image(gamma, p: int) -> PruferElement:
    """Reduce a rational with p-power denominator mod 1 into the p-power
    torsion of Q/Z."""
    check_prime(p)
    gamma = Fraction(gamma)
    den = gamma.denominator
    # a power of p is recognised by one comparison with the power of its size;
    # a foreign factor needs the split; reducing mod 1 keeps the denominator
    level = round(math.log(den, p))
    if p ** level != den:
        level, rest = split_power(den, p)
        if rest != 1:
            raise DomainError(
                f"denominator of {shown(gamma)} has a factor {shown(rest)} prime to {p}"
            )
    return PruferElement(p=p, level=level, numerator=(gamma % 1).numerator)


def prufer_relations_check(q: PAdicInt) -> PruferRelationsReport:
    """Verify the quasicyclic chain in Q/Z: p*gamma_1 = 0 and
    p*gamma_{n+1} = gamma_n mod 1, reporting the integer discrepancy of
    each step (it equals q's digit at p**n) and whether the reduced images
    climb to unbounded order.

    All of it is read off the digits: p*gamma_1 = a_1 and
    p*gamma_{n+1} - gamma_n = (a_{n+1} - a_n) / p**n = c_n are integers,
    and a_n has valuation v once n > v, so gamma_n reduces to level
    max(n - v, 0): the levels past v climb 1, 2, ..., N - v."""
    v = _positive_valuation(q)
    return PruferRelationsReport(
        p_gamma1_zero=True,
        relations=tuple(
            PruferRelation(n=n, holds=True, discrepancy=c)
            for n, c in enumerate(q.digits[1:], start=1)
        ),
        levels=tuple(max(n - v, 0) for n in range(1, q.precision + 1)),
        unbounded_order=True,
    )


def supernatural_limit(q: PAdicInt) -> SupernaturalLimit:
    """Empirical limit of the truncations: the hull generators follow
    content / p**(n - v), so the group tends to content * Z[1/p].  The
    supernatural shape is p^inf; `scale` is the latest content and
    `stabilized` says whether it was constant over the last 3 levels."""
    _positive_valuation(q)
    # content_n = gcd(c_0, ..., c_{n-1}) at the last three levels n
    window = list(accumulate(q.digits, math.gcd))[-3:]
    scale = window[-1]
    stabilized = len(window) == 3 and all(c == scale for c in window)
    return SupernaturalLimit(
        sn=SupernaturalNumber({q.p: INF}), scale=scale, stabilized=stabilized
    )


_PRUFER_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*(?:\^\s*(\d+))?)?\s*$")


def parse_prufer(text: str, p: int) -> PruferElement:
    """Parse `a/p^n` (also `a/m` for a literal p-power m, or a bare integer)
    and reduce it into the p-power torsion of Q/Z."""
    m = _PRUFER_RE.match(text)
    if m is None:
        raise DomainError(f"malformed torsion element: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2) or 1) ** int(m.group(3) or 1)
    if den == 0:
        raise DomainError(f"zero denominator in {text!r}")
    return prufer_image(Fraction(num, den), p)
