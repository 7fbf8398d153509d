"""The finite-level Pontryagin pairing between p-adic integers and the
p-power torsion of Q/Z.

A p-adic integer z acts on a torsion element a/p**n as the character
sending it to z*a/p**n mod 1; only z mod p**n matters, every value lands in
the rational points of the circle, and at each finite level the induced
pairing (Z/p^n) x (Z/p^n) -> (1/p^n)Z/Z is perfect.  The exhaustive
finite-level verification is the content of `perfectness_check`: one packed
scan of the whole table, one comparison per cell, decides bilinearity and
both nondegeneracies and reports a table that fails from the same pass, and
`pair` is the element-by-element route the tests hold it against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import kernels
from .errors import DomainError, PrecisionError, shown_power
from .numutil import check_prime

# the scan visits modulus**2 cells, one packed row of them per step: 2**13
# admits 2**26 cells, and a whole `dual check` at 2**13, 8191 or 89**2 takes
# 0.3-0.4 s in pure Python on a 2-vCPU host
ENUMERATION_GUARD = 2 ** 13


class CircleElement(namedtuple("CircleElement", "value")):
    """A rational point of R/Z, stored reduced in [0, 1)."""

    __slots__ = ()

    def __new__(cls, value: Fraction):
        self = tuple.__new__(cls, (value,))
        self.__post_init__()
        return self

    def __post_init__(self):
        if not 0 <= self.value < 1:
            raise DomainError(f"circle values live in [0, 1); got {self.value}")


CIRCLE_ZERO = CircleElement(Fraction(0))


class PerfectnessReport(namedtuple("PerfectnessReport", "p level modulus left_nondegenerate "
                                   "right_nondegenerate bilinear counterexamples")):
    __slots__ = ()

    @property
    def perfect(self) -> bool:
        return self.left_nondegenerate and self.right_nondegenerate and self.bilinear


def check_precision(z: PAdicInt, level: int) -> None:
    """Refuse to pair z with a torsion element of a level past z's precision."""
    if level > z.precision:
        raise PrecisionError(
            f"pairing at level {level} needs z mod {z.p}^{level}, "
            f"but z carries precision {z.precision}",
            required_precision=level,
        )


def pair(z: PAdicInt, gamma: PruferElement) -> CircleElement:
    """The character value z*gamma mod 1; depends on z only mod p**level."""
    if z.p != gamma.p:
        raise DomainError(f"prime mismatch: z at p={z.p}, gamma at p={gamma.p}")
    check_precision(z, gamma.level)
    if gamma.level == 0:
        return CIRCLE_ZERO
    modulus = gamma.p ** gamma.level
    z_mod = z.value % modulus
    return CircleElement(Fraction(z_mod * gamma.numerator, modulus) % 1)


def _check_enumeration_guard(p: int, level: int) -> None:
    """Reject p**level > ENUMERATION_GUARD before building a power of millions of
    digits: p >= 2 puts every level from ENUMERATION_GUARD.bit_length() on past it."""
    if level >= ENUMERATION_GUARD.bit_length() or p ** level > ENUMERATION_GUARD:
        raise DomainError(
            f"enumeration guard exceeded: {shown_power(p, level)} > {ENUMERATION_GUARD}"
        )


def perfectness_check(p: int, level: int) -> PerfectnessReport:
    """Brute-force verification that the level-n pairing is perfect.

    One kernel scan walks every row z of the table and compares each cell
    once, for the step in gamma: row z shifted down one lane must equal
    row z + z in every lane mod p^n.  The top lane wraps to 0, which forces
    lane 0 to be 0, so each passing row holds z*c mod p^n on its own, with
    no induction over rows; the table is then bilinear, which keeps the
    exhaustion quadratic, and has no residue z != 0 pairing to zero with
    all of the torsion (left degeneracy) and no torsion element c/p^n != 0
    paired to zero by all residues (right degeneracy).  For a table that
    fails, the same scan keeps its zero rows, its zero columns (the zero
    lanes of the OR of all rows) and the first row whose c-step fails, at
    its lowest failing lane, as ("gamma-additivity", z, c).  Counterexamples
    list the left ones, then the right ones, then that triple.
    """
    check_prime(p)
    if level < 0:
        raise DomainError(f"level must be nonnegative, got {level}")
    _check_enumeration_guard(p, level)
    modulus = p ** level
    zero_rows, zero_columns, failure = kernels.bilinear_scan(p, level)
    counterexamples = [("left", z) for z in zero_rows]
    if zero_columns:
        from .gamma import prufer_image  # deferred: a perfect table needs no gamma

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
