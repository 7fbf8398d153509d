"""Reference implementations shared by the tests: each states a fact of the
paper in plain exact arithmetic, for the package's routines to be checked
against."""

import argparse
from fractions import Fraction

from tatedual import cli
from tatedual.duality import CircleElement
from tatedual.gamma import CyclicSubgroupQ, PruferElement, prufer_image
from tatedual.padic import CanonicalSequence, PAdicInt
from tatedual.supernatural import UHFDescriptor


# --- the Tate series as exact rationals ---------------------------------------

def reduce_mod(f: Fraction, p: int, n: int) -> int:
    """Reduce an exact rational with unit denominator to its residue."""
    mod = p ** n
    return f.numerator * pow(f.denominator, -1, mod) % mod


def rational_a4(q_int: int, terms: int) -> Fraction:
    return -5 * sum(
        (Fraction(n ** 3 * q_int ** n, 1 - q_int ** n) for n in range(1, terms + 1)),
        Fraction(0),
    )


def rational_a6(q_int: int, terms: int) -> Fraction:
    return -sum(
        (
            Fraction(5 * n ** 3 + 7 * n ** 5, 12)
            * Fraction(q_int ** n, 1 - q_int ** n)
            for n in range(1, terms + 1)
        ),
        Fraction(0),
    )


# --- the canonical sequence ------------------------------------------------------

def check_canonical_sequence(seq: CanonicalSequence) -> None:
    """Assert what a_n = x mod p**n must satisfy: 0 <= a_n < p**n, and
    consecutive entries are congruent mod p**(n-1)."""
    pn, prev = 1, None
    for n, a in enumerate(seq.entries, start=1):
        pn *= seq.p
        assert 0 <= a < pn, f"a_{n}={a} out of range [0, {pn - 1}]"
        assert prev is None or (a - prev) % (pn // seq.p) == 0, (
            f"congruence broken: a_{n}={a} != a_{n - 1}={prev} mod {seq.p}^{n - 1}")
        prev = a


# --- groups in Q and Q/Z ---------------------------------------------------------

def contains(g: CyclicSubgroupQ, r) -> bool:
    """Membership of a rational in the cyclic group generator*Z."""
    r = Fraction(r)
    if g.generator == 0:
        return r == 0
    return (r / g.generator).denominator == 1


def _fraction(g: PruferElement) -> Fraction:
    return Fraction(g.numerator, g.p ** g.level)


def prufer_add(a: PruferElement, b: PruferElement) -> PruferElement:
    """The group law of the p-power torsion of Q/Z, through Q."""
    return prufer_image(_fraction(a) + _fraction(b), a.p)


def circle_add(x: CircleElement, y: CircleElement) -> CircleElement:
    """The group law of R/Z on rational points."""
    return CircleElement((x.value + y.value) % 1)


def rand_prufer(rng, p: int, max_level: int) -> PruferElement:
    """A random torsion element of level 0..max_level."""
    level = rng.randint(0, max_level)
    if level == 0:
        return PruferElement(p, 0, 0)
    num = rng.randrange(1, p ** level)
    while num % p == 0:
        num = rng.randrange(1, p ** level)
    return PruferElement(p, level, num)


# --- the pairing -------------------------------------------------------------------

def bidual_eval(gamma: PruferElement, z: PAdicInt) -> CircleElement:
    """Evaluation of the double-dual element attached to gamma on the
    character z, through exact rational arithmetic; `pair(z, gamma)` is
    checked against it."""
    z_mod = z.value % (gamma.p ** max(gamma.level, 1))
    return CircleElement((z_mod * _fraction(gamma)) % 1)


class _Lanes:
    """The Barrett layout of `two_comparison_scan`, sharing no row builder
    with `kernels._Lanes`: m residues mod m packed into one int, lane c at
    bits [W*c, W*(c+1)), W = 3b + 2 for b = m.bit_length().  A lane value
    below 4**b times the Barrett constant r = floor(4**b / m) stays below
    2**(3b+1), so the product of a whole packed int by r carries into no
    neighbour, and the top bit of each lane is left free as a guard bit."""

    def __init__(self, m):
        b = m.bit_length()
        self.m = m
        self.width = w = 3 * b + 2
        self.shift = 2 * b
        self.r = (1 << 2 * b) // m
        self.ones = int(f"{1:0{w}b}" * m, 2)  # 1 in every lane
        self.quotient_mask = ((1 << w - 2 * b) - 1) * self.ones
        self.guard = self.ones << w - 1
        self.guard_minus_m = self.guard - m * self.ones  # 2**(W-1) - m in every lane

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
        """Every lane of x, each below 2m, brought into [0, m): adding
        2**(W-1) - m sets the guard bit exactly in the lanes holding at
        least m, and those lanes take the sum, less the guard bit."""
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


def two_comparison_scan(p: int, level: int):
    """`kernels.bilinear_scan`'s (zero rows, zero columns, first failing
    triple) without the one-comparison argument it relies on, and with rows
    of its own Barrett layout: every packed row z is built from z alone as
    z*C reduced mod m, not walked by z-steps, and compared twice per cell,
    with row z-1 + row 1 (the z-step) and, shifted down one lane, with row
    z + z in every lane (the c-step)."""
    m = p ** level
    if m == 1:
        return (), (), None
    lanes = _Lanes(m)
    counting, ones, width = lanes.counting(), lanes.ones, lanes.width
    row_one, row = lanes.reduce(counting), lanes.reduce(0)
    zero_rows, seen, failure = [], 0, None
    for z in range(m):
        following = lanes.reduce((z + 1) % m * counting)
        first_slot = lanes.wrap(row + row_one)
        second_slot = lanes.wrap(row + z * ones)
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
    zero_lanes = (((seen | lanes.guard) - ones) & lanes.guard) ^ lanes.guard
    zero_columns = tuple(c for c in _lanes_set(zero_lanes, width) if c)
    return tuple(zero_rows), zero_columns, failure


# --- UHF size sequences ----------------------------------------------------------

def sizes(desc: UHFDescriptor, count: int) -> tuple[int, ...]:
    """The first `count` sizes of the (possibly infinite) sequence."""
    out = list(desc.prefix[:count])
    while desc.tail and len(out) < count:
        out.extend(desc.tail)
    return tuple(out[:count])


# --- the command line --------------------------------------------------------------

def default_formatter_parser() -> argparse.ArgumentParser:
    """`cli.build_parser`'s tree, from its `_COMMANDS` and `_FLAGS`, with
    argparse's own parser class and formatter: each formatter argparse makes
    asks the terminal for its width."""
    built = cli.build_parser()
    root = argparse.ArgumentParser(prog=built.prog, description=built.description)
    groups = root.add_subparsers(dest="group", required=True)
    subs = {}
    for group, name, _, flags in cli._COMMANDS:
        if group not in subs:
            subs[group] = groups.add_parser(group).add_subparsers(dest="sub", required=True)
        parser = subs[group].add_parser(name)
        for flag in flags + ("--json",):
            parser.add_argument(flag, **cli._FLAGS[flag])
    return root


def default_formatter_exit(argv) -> int:
    """The exit code of parsing argv on that tree, which prints --help and
    usage errors as argparse does."""
    try:
        default_formatter_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return 0
