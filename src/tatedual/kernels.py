"""The residue kernels: ring operations on canonical integers mod m.

A residue mod m = p**N is its canonical representative in [0, m); add, neg,
mul and inv are each one big-integer operation, and `to_int`/`from_int`
convert to and from the little-endian base-p digit form used for input and
output.

`bilinear_scan` is the one exhaustive pass behind the finite-level
perfectness report: it decides bilinearity and both nondegeneracies.  It
takes one whole row z of the m x m table per step, with the row packed into
one int: lane c, W = 3b + 2 bits wide (b = m.bit_length()), holds z*c mod m.
A row is reduced in all lanes at once by a Barrett step: multiply by
r = floor(4**b / m), shift right by 2b and mask each lane to get the
quotient q, subtract q*m; a conditional subtraction of m finishes.  That
subtraction sets a guard bit at the top of every lane, subtracts m
everywhere, and reads which lanes borrowed off the guard bits; subtracting 1
instead of m reads which lanes are zero.
"""

from __future__ import annotations


def to_int(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def from_int(value, p, n):
    """The low n base-p digits of any integer, least significant first."""
    out = []
    for _ in range(n):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


def add(a, b, m):
    s = a + b
    return s - m if s >= m else s


def neg(a, m):
    return m - a if a else 0


def mul(a, b, m):
    return a * b % m


def inv(a, m):
    """The inverse of a mod m; a must be a unit (ValueError otherwise)."""
    return pow(a, -1, m)


class _Lanes:
    """m residues mod m packed into one int, lane c at bits [W*c, W*(c+1)).

    W = 3b + 2 for b = m.bit_length(): a lane value below 4**b times the
    Barrett constant r = floor(4**b / m) stays below 2**(3b+1), so the
    product of a whole packed int by r carries into no neighbour, and the
    top bit of each lane is left free as the guard bit of `wrap`.
    """

    def __init__(self, m):
        b = m.bit_length()
        self.m = m
        self.width = w = 3 * b + 2
        self.shift = 2 * b
        self.r = (1 << 2 * b) // m
        self.ones = int(f"{1:0{w}b}" * m, 2)  # 1 in every lane
        self.quotient_mask = ((1 << w - 2 * b) - 1) * self.ones
        self.guard = self.ones << w - 1
        self.mods = m * self.ones

    def counting(self):
        """The packed row whose lane c holds c."""
        return int("".join(f"{c:0{self.width}b}" for c in reversed(range(self.m))), 2)

    def reduce(self, x):
        """Every lane of x mod m, for lanes below 4**b.

        The Barrett quotient q = floor(x*r / 4**b) is at most one short of
        floor(x/m), since x*r/4**b > x/m - x/4**b > x/m - 1; so x - q*m
        lies in [0, 2m) and one conditional subtraction finishes."""
        q = (x * self.r >> self.shift) & self.quotient_mask
        return self.wrap(x - q * self.m)

    def wrap(self, x):
        """Every lane of x, each below 2m, brought into [0, m).

        Setting each lane's guard bit and subtracting m everywhere leaves
        the guard set exactly in the lanes holding at least m; those lanes
        then lose one m."""
        at_least_m = ((x | self.guard) - self.mods) & self.guard
        return x - (at_least_m >> self.width - 1) * self.m


def _lanes_set(x, width):
    """The lanes of the packed int x holding a nonzero value, lowest first."""
    while x:
        low = x & -x
        yield (low.bit_length() - 1) // width
        x ^= low


def bilinear_scan(p, level):
    """Exhaustively check the level-n pairing for additivity in both slots
    and for zero rows and columns.

    Every pair (z, c) in (Z/p^n)^2 is checked for the successor step
    z -> z+1 (first slot) and c -> c+1 (second slot); by induction that is
    full bilinearity.  Returns (zero_rows, zero_columns, failure): the
    z != 0 and the c != 0 whose row or column of z*c vanishes (left and
    right degeneracy), and None or the first failing (slot, z, c) triple,
    in z-major then c order with the first slot's check before the
    second's in each cell.  A failure does not stop the scan.

    A whole row z is checked per step, packed as `_Lanes`: row z is built
    from z alone as z*C (lane c of C holds c) reduced mod m.  The first
    slot compares row z+1 with row z + row 1 mod m; the second compares row
    z shifted down one lane with row z + z in every lane mod m (both top
    lanes are z*m mod m = 0).  Each comparison sets two independent routes
    against each other, as the cell-by-cell loop does.  A column is zero
    when its lane is zero in the OR of all rows.
    """
    m = p ** level
    if m == 1:
        return (), (), None
    lanes = _Lanes(m)
    counting, ones, width = lanes.counting(), lanes.ones, lanes.width
    reduce, wrap = lanes.reduce, lanes.wrap
    row_one = reduce(counting)
    row = reduce(0)
    zero_rows, seen, failure = [], 0, None
    for z in range(m):
        following = reduce((z + 1) % m * counting)
        first_slot = wrap(row + row_one)
        second_slot = wrap(row + z * ones)
        shifted = row >> width
        if failure is None and (following != first_slot or shifted != second_slot):
            c_first = next(_lanes_set(following ^ first_slot, width), None)
            c_second = next(_lanes_set(shifted ^ second_slot, width), None)
            if c_second is None or (c_first is not None and c_first <= c_second):
                failure = ("z-additivity", z, c_first)
            else:
                failure = ("gamma-additivity", z, c_second)
        if not row and z:
            zero_rows.append(z)
        seen |= row
        row = following
    # each lane of seen is below m, so its guard bit survives subtracting 1
    # exactly when the lane is nonzero
    zero_lanes = (((seen | lanes.guard) - ones) & lanes.guard) ^ lanes.guard
    zero_columns = tuple(c for c in _lanes_set(zero_lanes, width) if c)
    return tuple(zero_rows), zero_columns, failure
