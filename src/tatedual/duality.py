"""The finite-level Pontryagin pairing between p-adic integers and the
p-power torsion of Q/Z.

A p-adic integer z acts on a torsion element a/p**n as the character
sending it to z*a/p**n mod 1; only z mod p**n matters, every value lands in
the rational points of the circle, and at each finite level the induced
pairing (Z/p^n) x (Z/p^n) -> (1/p^n)Z/Z is perfect.  The exhaustive
finite-level verification is the content of `perfectness_check`: one packed
scan of the whole table decides bilinearity and both nondegeneracies, and
`pair` is the element-by-element route the tests hold it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import DomainError, PrecisionError, shown_power
from .gamma import PruferElement, prufer_image
from .numutil import check_prime
from .padic import PAdicInt

# the scan visits modulus**2 cells, one packed row of them per step: 2**13
# admits 2**26 cells, and a whole `dual check` at 2**13, 8191 or 89**2 takes
# 2.3-2.9 s in pure Python on a 2-vCPU host
ENUMERATION_GUARD = 2 ** 13


@dataclass(frozen=True)
class CircleElement:
    """A rational point of R/Z, stored reduced in [0, 1)."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if not 0 <= self.value < 1:
            raise DomainError(f"circle values live in [0, 1); got {self.value}")

    def __add__(self, other: CircleElement) -> CircleElement:
        return CircleElement((self.value + other.value) % 1)

    def __str__(self):
        return str(self.value)


CIRCLE_ZERO = CircleElement(Fraction(0))


@dataclass(frozen=True)
class PerfectnessReport:
    p: int
    level: int
    modulus: int
    left_nondegenerate: bool
    right_nondegenerate: bool
    bilinear: bool
    counterexamples: tuple

    @property
    def perfect(self) -> bool:
        return self.left_nondegenerate and self.right_nondegenerate and self.bilinear


def pair(z: PAdicInt, gamma: PruferElement) -> CircleElement:
    """The character value z*gamma mod 1; depends on z only mod p**level."""
    if z.p != gamma.p:
        raise DomainError(f"prime mismatch: z at p={z.p}, gamma at p={gamma.p}")
    if gamma.level > z.precision:
        raise PrecisionError(
            f"pairing at level {gamma.level} needs z mod {z.p}^{gamma.level}, "
            f"but z carries precision {z.precision}",
            required_precision=gamma.level,
        )
    if gamma.level == 0:
        return CIRCLE_ZERO
    modulus = gamma.p ** gamma.level
    z_mod = z.value % modulus
    return CircleElement(Fraction(z_mod * gamma.numerator, modulus) % 1)


def bidual_eval(gamma: PruferElement, z: PAdicInt) -> CircleElement:
    """Evaluation of the double-dual element attached to gamma on the
    character z, computed through exact rational arithmetic; agreement
    with `pair` is asserted by the test suite, not assumed here."""
    if z.p != gamma.p:
        raise DomainError(f"prime mismatch: z at p={z.p}, gamma at p={gamma.p}")
    if gamma.level > z.precision:
        raise PrecisionError(
            f"evaluation at level {gamma.level} needs z mod {z.p}^{gamma.level}, "
            f"but z carries precision {z.precision}",
            required_precision=gamma.level,
        )
    z_mod = z.value % (gamma.p ** max(gamma.level, 1))
    return CircleElement((z_mod * gamma.fraction) % 1)


def _check_enumeration_guard(p: int, level: int) -> None:
    """Reject p**level > ENUMERATION_GUARD before building a power of millions of
    digits: p >= 2 puts every level from ENUMERATION_GUARD.bit_length() on past it."""
    if level >= ENUMERATION_GUARD.bit_length() or p ** level > ENUMERATION_GUARD:
        raise DomainError(
            f"enumeration guard exceeded: {shown_power(p, level)} > {ENUMERATION_GUARD}"
        )


def perfectness_check(p: int, level: int) -> PerfectnessReport:
    """Brute-force verification that the level-n pairing is perfect.

    One kernel scan walks every pair (z, gamma) of the table.  Each pair is
    checked for the successor step in both slots, which implies full
    additivity by induction and keeps the exhaustion quadratic; the same
    rows give every residue z != 0 pairing to zero with all of the torsion
    (left degeneracy) and every torsion element c/p^n != 0 paired to zero
    by all residues (right degeneracy).  Counterexamples list the left ones,
    then the right ones, then the first failing bilinearity triple.
    """
    check_prime(p)
    if level < 0:
        raise DomainError(f"level must be nonnegative, got {level}")
    _check_enumeration_guard(p, level)
    modulus = p ** level
    zero_rows, zero_columns, failure = kernels.bilinear_scan(p, level)
    counterexamples = [("left", z) for z in zero_rows]
    counterexamples += [("right", str(prufer_image(Fraction(c, modulus), p)))
                        for c in zero_columns]
    if failure is not None:
        counterexamples.append(failure)
    return PerfectnessReport(
        p=p,
        level=level,
        modulus=modulus,
        left_nondegenerate=not zero_rows,
        right_nondegenerate=not zero_columns,
        bilinear=failure is None,
        counterexamples=tuple(counterexamples),
    )
