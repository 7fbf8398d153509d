"""The residue kernels: ring operations on canonical integers mod m.

A residue mod m = p**N is its canonical representative in [0, m); add, neg,
mul and inv are each one big-integer operation.
"""

from __future__ import annotations


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
