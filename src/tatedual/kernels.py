"""The residue kernels: ring operations on canonical integers mod m.

A residue mod m = p**N is its canonical representative in [0, m); add, neg,
mul and inv are each one big-integer operation, and `to_int`/`from_int`
convert to and from the little-endian base-p digit form used for input and
output.

`bilinear_scan` is the one exhaustive pass behind the finite-level
perfectness report: it decides bilinearity and both nondegeneracies.  It
takes one whole row z of the m x m table per step, with the row packed into
one int: lane c, W = k + 2 bits wide (k = (m-1).bit_length()), holds z*c
mod m.  Rows come from the z-step alone: row 0 is 0 and row z+1 is row z
plus the counting row (lane c holding c), one addition and one conditional
subtraction of m in every lane, with no products.  Each row is checked by
its own c-step, one comparison per cell: shifted down one lane it must
equal row z + z in every lane mod m.  The shifted-out top lane must wrap to
0, which forces lane 0 to be 0, so a row that passes holds z*c mod m in
lane c, and the table is bilinear with no zero row or column.  A table
that fails reports, from the same pass, the first row whose c-step fails
with its lowest failing lane, the zero rows, and the zero lanes of the OR
of all rows as its zero columns.
The conditional subtraction adds 2**(W-1) - m to every lane, which sets the
guard bit at the top of a lane exactly when the lane held at least m, and
turns those guard bits into masks that keep the sum in those lanes; setting
the guard bits and subtracting 1 instead reads which lanes are zero.
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
    and for zero rows and columns.

    Returns (zero_rows, zero_columns, failure): the z != 0 and the c != 0
    whose row or column of z*c vanishes (left and right degeneracy), and
    None or ("gamma-additivity", z, c) for the first row z whose c-step
    fails, at its lowest failing lane c.

    A whole row z is checked per step, packed as `_Lanes` and walked by
    `_Lanes.rows`.  Each row is checked on its own by its c-step, one
    comparison per cell: shifted down one lane it must equal row + z in
    every lane mod m.  For a row whose lanes lie below m, that says lane
    c+1 is lane c + z mod m; the top lane, shifted out, must then wrap to
    0, and lane m-1 + z = lane 0 + m*z = lane 0 mod m, so lane 0 is 0 and
    lane c holds z*c mod m.  So a table that passes is z*c mod m, with no
    induction over rows: it passes the z-step too, and no row z != 0 (lane
    1 holds z) or column c != 0 (row 1 holds c) is 0.  The same pass keeps
    what the report of a table that fails needs: the zero rows, the first
    failing row's triple, and the OR of all rows, whose zero lanes are the
    zero columns.
    """
    m = p ** level
    if m == 1:
        return (), (), None
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
