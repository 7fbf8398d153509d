"""The residue kernels: ring operations on canonical integers mod m.

A residue mod m = p**N is its canonical representative in [0, m); add, neg,
mul and inv are each one big-integer operation, and `to_int`/`from_int`
convert to and from the little-endian base-p digit form used for input and
output.
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
