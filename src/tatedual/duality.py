"""The finite-level Pontryagin pairing between p-adic integers and the
p-power torsion of Q/Z.

A p-adic integer z acts on a torsion element a/p**n as the character
sending it to z*a/p**n mod 1; only z mod p**n matters, every value lands in
the rational points of the circle, and at each finite level the induced
pairing (Z/p^n) x (Z/p^n) -> (1/p^n)Z/Z is perfect.  `pair` is one value of
it, and `perfectness_check` verifies the finite-level claim exhaustively by
one `bilinear_scan` of the whole table z*c mod m, m = p**n; the tests hold
the scan against `pair`.

The scan takes one whole row z of the table per step, packed into one int
by `_Lanes`: lane c, W = k + 2 bits wide (k = (m-1).bit_length()), holds
z*c mod m.  Rows come from the z-step alone: row 0 is 0 and row z+1 is row
z plus the counting row (lane c holding c), one addition and one
conditional subtraction of m in every lane, with no products.  Each row is
checked on its own by its c-step, one comparison per cell: shifted down one
lane it must equal row + z in every lane mod m.  For a row whose lanes lie
below m, that says lane c+1 is lane c + z mod m; the top lane, shifted out,
must then wrap to 0, and lane m-1 + z = lane 0 + m*z = lane 0 mod m, so
lane 0 is 0 and lane c holds z*c mod m.  So a table that passes is z*c mod
m, with no induction over rows: it is bilinear, which keeps the exhaustion
quadratic, no residue z != 0 pairs to zero with all of the torsion (lane 1
of row z holds z: no left degeneracy) and no torsion element c/m != 0 is
paired to zero by all residues (row 1 holds c: no right degeneracy).  A
table that fails reports from the same pass its zero rows, the zero lanes
of the OR of all rows as its zero columns, and the first row whose c-step
fails, at its lowest failing lane, as ("gamma-additivity", z, c).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

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


class _Lanes:
    """m residues mod m packed into one int, lane c at bits [W*c, W*(c+1)).

    W = k + 2 for k = (m-1).bit_length(), so m <= 2**k: a sum of two lanes
    below m stays below 2m <= 2**(k+1) and leaves the top bit of its lane
    free as the guard bit of `wrap` (at m = 2**k a sum reaches 2m - 1, just
    under it), and adding 2**(W-1) - m to it carries into no neighbour.
    """

    def __init__(self, m):
        self.m = m
        self.width = w = (m - 1).bit_length() + 2
        self.ones = int(f"{1:0{w}b}" * m, 2)  # 1 in every lane
        self.guard = self.ones << w - 1
        self.guard_minus_m = self.guard - m * self.ones  # 2**(W-1) - m in every lane
        self.counting = int("".join(f"{c:0{w}b}" for c in reversed(range(m))), 2)

    def rows(self):
        """The packed rows z = 0..m-1, lane c of row z holding z*c mod m:
        row 0 is 0 and each next row is the last plus row 1 (the counting
        row C, lane c holding c) mod m, so every lane stays below m."""
        row, counting, wrap = 0, self.counting, self.wrap
        for _ in range(self.m):
            yield row
            row = wrap(row + counting)

    def wrap(self, x):
        """Every lane of x, each below 2m, brought into [0, m).

        Adding 2**(W-1) - m to every lane, which carries into none, sets
        the guard bit exactly in the lanes holding at least m and leaves
        x - m below it there.  A set guard g becomes the mask
        g - (g >> W-1) of its lane's low W-1 bits, which takes those lanes
        from the sum and the others from x."""
        lifted = x + self.guard_minus_m
        at_least_m = lifted & self.guard
        mask = at_least_m - (at_least_m >> self.width - 1)
        return x ^ ((x ^ lifted) & mask)


def _lanes_set(x, width):
    """The lanes of the packed int x holding a nonzero value, lowest first."""
    while x:
        low = x & -x
        yield (low.bit_length() - 1) // width
        x ^= low


def bilinear_scan(p, level):
    """Exhaustively check the level-n pairing for additivity in both slots
    and for zero rows and columns, by the one pass the module docstring
    describes.

    Returns (zero_rows, zero_columns, failure): the z != 0 and the c != 0
    whose row or column of z*c vanishes (left and right degeneracy), and
    None or ("gamma-additivity", z, c) for the first row z whose c-step
    fails, at its lowest failing lane c.
    """
    m = p ** level
    lanes = _Lanes(m)
    width, ones, wrap, guard = lanes.width, lanes.ones, lanes.wrap, lanes.guard
    zero_rows, seen, failure = [], 0, None
    step = 0  # z in every lane
    for z, row in enumerate(lanes.rows()):
        shifted, expected = row >> width, wrap(row + step)
        if shifted != expected and failure is None:
            failure = ("gamma-additivity", z, next(_lanes_set(shifted ^ expected, width)))
        if not row and z:
            zero_rows.append(z)
        seen |= row
        step += ones
    # each lane of seen is below m, so its guard bit survives subtracting 1
    # exactly when the lane is nonzero
    zero_lanes = (((seen | guard) - ones) & guard) ^ guard
    zero_columns = tuple(c for c in _lanes_set(zero_lanes, width) if c)
    return tuple(zero_rows), zero_columns, failure


def perfectness_check(p: int, level: int) -> PerfectnessReport:
    """Brute-force verification that the level-n pairing is perfect, by one
    `bilinear_scan`.  Counterexamples list the left ones (zero rows), then
    the right ones (zero columns, as torsion elements), then the scan's
    failing triple."""
    check_prime(p)
    if level < 0:
        raise DomainError(f"level must be nonnegative, got {level}")
    _check_enumeration_guard(p, level)
    modulus = p ** level
    zero_rows, zero_columns, failure = bilinear_scan(p, level)
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
