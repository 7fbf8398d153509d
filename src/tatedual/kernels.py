"""The residue kernels: ring operations on canonical integers mod m.

A residue mod m = p**N is its canonical representative in [0, m); add, neg,
mul and inv are each one big-integer operation, and `to_int`/`from_int`
convert to and from the little-endian base-p digit form used for input and
output.

`bilinear_scan` is the one exhaustive pass behind the finite-level
perfectness report: it decides bilinearity and both nondegeneracies.  It
takes one whole row z of the m x m table per step, with the row packed into
one int: lane c, W = max(2k, k + 2) bits wide (k = (m-1).bit_length()),
holds z*c mod m.  Each row is built from z alone and compared with the row
before it plus row 1, one comparison per cell; rows 0 and 1 are checked
once, and by induction the table is then z*c mod m, which settles the
c-step as well.
Row z is built in all lanes at once by Shoup's multiplication by a
precomputed quotient constant: with C the row whose lane c holds c and
t = floor(z * 2**k / m), the lanes of q = (C*t >> k) masked are
floor(c*t / 2**k), which is floor(z*c/m) or one less because c < 2**k; so
z*C - q*m holds z*c mod m or that plus m in every lane, all in [0, 2m), and
a conditional subtraction of m finishes.  That subtraction adds
2**(W-1) - m to every lane, which sets the guard bit at the top of a lane
exactly when the lane held at least m, and turns those guard bits into
masks that keep the sum in those lanes; setting the guard bits and
subtracting 1 instead reads which lanes are zero.
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

    W = max(2k, k + 2) for k = (m-1).bit_length(), so every c and z below m
    is below 2**k: the lanes z*c of z*C and c*t of C*t stay below 2**(2k)
    and carry into no neighbour, every row lane below 2m <= 2**(k+1) leaves
    the top bit of its lane free as the guard bit of `wrap`, and a lane of
    C*t shifted right by k still fits in the W - k bits that the quotient
    mask keeps.
    """

    def __init__(self, m):
        k = (m - 1).bit_length()
        self.m = m
        self.width = w = max(2 * k, k + 2)
        self.shift = k
        self.ones = int(f"{1:0{w}b}" * m, 2)  # 1 in every lane
        self.quotient_mask = ((1 << w - k) - 1) * self.ones
        self.guard = self.ones << w - 1
        self.guard_minus_m = self.guard - m * self.ones  # 2**(W-1) - m in every lane
        self.counting = int("".join(f"{c:0{w}b}" for c in reversed(range(m))), 2)

    def row(self, z):
        """The packed row whose lane c holds z*c mod m, for 0 <= z < m.

        With t = floor(z * 2**k / m) > z * 2**k / m - 1, lane c of the
        quotient q is floor(c*t / 2**k), and z*c/m >= c*t / 2**k >
        z*c/m - c / 2**k > z*c/m - 1 because c < 2**k; so q is floor(z*c/m)
        or one less, z*c - q*m lies in [0, 2m) and one conditional
        subtraction finishes."""
        m, counting = self.m, self.counting
        t = (z << self.shift) // m
        q = (counting * t >> self.shift) & self.quotient_mask
        return self.wrap(z * counting - q * m)

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
    None or the first failing (slot, z, c) triple of the cell-by-cell walk
    that checks every pair (z, c) for the successor steps z -> z+1 (first
    slot) and c -> c+1 (second slot), in z-major then c order with the
    first slot's check before the second's in each cell.

    A whole row z is checked per step, packed as `_Lanes`: row z is built
    from z alone as z*C - q*m (lane c of C holds c) with the Shoup quotient
    q = (C*floor(z * 2**k / m) >> k) masked, whose lane c is floor(z*c/m)
    or one less because c < 2**k, so every lane lies in [0, 2m) before
    `wrap` takes it into [0, m).  Row z is compared with row z-1 + row 1
    mod m, so every cell is compared once, each comparison setting two
    independent routes against each other.  Rows 0
    and 1 are compared with 0 and C first.  A table that passes is z*c mod m:
      - rows 0 and 1 hold 0*c and 1*c in lane c;
      - if row z holds z*c, row z+1 = row z + row 1 holds z*c + c = (z+1)*c;
      - so lane c+1 of row z, z*(c+1) = z*c + z, passes the c-step, and no
        row z != 0 (lane 1 holds z) or column c != 0 (row 1 holds c) is 0.
    Only a table that fails somewhere is walked again by `_failing_scan`
    with both comparisons in every cell, for its triple and its zero rows
    and columns.
    """
    m = p ** level
    if m == 1:
        return (), (), None
    lanes = _Lanes(m)
    build, wrap = lanes.row, lanes.wrap
    row_one = build(1)
    if build(0) == 0 and row_one == lanes.counting:
        row = row_one
        for z in range(2, m + 1):
            following = build(z % m)
            if following != wrap(row + row_one):
                break
            row = following
        else:
            return (), (), None
    return _failing_scan(lanes)


def _failing_scan(lanes):
    """`bilinear_scan`'s result for a table that fails, walking every row
    with both steps: the first slot compares row z+1 with row z + row 1 mod
    m, the second compares row z shifted down one lane with row z + z in
    every lane mod m (both top lanes are z*m mod m = 0).  A failure does not
    stop the walk.  A column is zero when its lane is zero in the OR of all
    rows."""
    m, ones, width = lanes.m, lanes.ones, lanes.width
    build, wrap = lanes.row, lanes.wrap
    row_one = build(1)
    row = build(0)
    zero_rows, seen, failure = [], 0, None
    for z in range(m):
        following = build((z + 1) % m)
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
