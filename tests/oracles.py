"""Reference implementations shared by the tests: each states a fact of the
paper in plain exact arithmetic, for the package's routines to be checked
against."""

import argparse
from fractions import Fraction

from tatedual import cli
from tatedual.duality import CircleElement
from tatedual.gamma import CyclicSubgroupQ, PruferElement
from tatedual.padic import CanonicalSequence, PAdicInt
from tatedual.supernatural import UHFDescriptor


# --- the Tate curve: its series as exact rationals, its discriminant ----------

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


def tate_discriminant(q: PAdicInt) -> int:
    """The Tate curve's discriminant q * prod_{n >= 1} (1 - q^n)^24 mod p**N
    (Silverman, Advanced Topics, V.3), as the product, with no divisor sums.
    q must have valuation at least 1: a factor with q^n = 0 mod p**N is 1,
    and so are all after it."""
    m = q.p ** q.precision
    product, q_pow = 1, q.value
    while q_pow:
        product = product * pow(1 - q_pow, 24, m) % m
        q_pow = q_pow * q.value % m
    return q.value * product % m


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

CIRCLE_ZERO = CircleElement(Fraction(0))  # the zero of R/Z


def bidual_eval(gamma: PruferElement, z: PAdicInt) -> CircleElement:
    """Evaluation of the double-dual element attached to gamma on the
    character z, through exact rational arithmetic; `pair(z, gamma)` is
    checked against it."""
    z_mod = z.value % (gamma.p ** max(gamma.level, 1))
    return CircleElement((z_mod * _fraction(gamma)) % 1)


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
