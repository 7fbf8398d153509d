"""The residue kernels: ring operations on canonical integers mod m.

A residue mod m = p**N is its canonical representative in [0, m); add, neg,
mul and inv are each one big-integer operation, and `to_int`/`from_int`
convert to and from the little-endian base-p digit form used for input and
output.  `bilinear_scan` is the exhaustive check behind the finite-level
perfectness report.
"""

from __future__ import annotations


def to_int(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def from_int(value, p, n):
    value %= p ** n  # canonicalizes negatives too
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


def bilinear_scan(p, level):
    """Exhaustively check the level-n pairing for additivity in both slots.

    Every pair (z, c) in (Z/p^n)^2 is checked for the successor step
    z -> z+1 (first slot) and c -> c+1 (second slot); by induction that is
    full bilinearity.  Returns None on success, otherwise the first failing
    (slot, z, c) triple.
    """
    m = p ** level
    if m == 1:
        return None
    for z in range(m):
        z1 = z + 1
        if z1 == m:
            z1 = 0
        zc = 0  # z*c mod m, maintained incrementally
        for c in range(m):
            if (z1 * c) % m != (zc + c) % m:
                return ("z-additivity", z, c)
            if (z * (c + 1)) % m != (zc + z) % m:
                return ("gamma-additivity", z, c)
            zc += z
            if zc >= m:
                zc -= m
    return None
