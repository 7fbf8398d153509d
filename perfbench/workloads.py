"""Seeded argv generators for the three benchmark workloads.

Every op is an argv list for ``tatedual.cli.run`` plus the exit-code class
the CLI contract promises for it.  The program sees nothing but the argv.

A workload is a fixed *block design*: a list of slots, each naming a
command family and its shape (precision N, prime p, valuation v, length of
q's unit part, fresh-prime bit length).  N runs over a log-spaced grid, so
every block mixes small and large N log-uniformly, crossed with the primes
2, 3, 5, 7.  A run executes whole blocks.  Each block draws fresh content
for every slot from the seed (digits, fresh primes, targets, descriptors)
and runs the slots in a seed-shuffled order.  Because every block holds the
same shapes, a run's size mix does not depend on the seed or on where the
time budget ends, which keeps medians and throughput steady across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracle

N_MIN, N_MAX = 8, 512          # precision range of the p-adic workloads
LIMIT_N_MAX = 256              # precision cap for `gamma limit` / `uhf from-tate`
FRESH_N_MAX = 64               # precision cap for ops on fresh 20-40-bit primes
FRESH_BITS = (20, 40)          # bit length range of fresh primes
MODULUS_MAX = 2 ** 11          # largest p^level scanned by `dual check`
SMALL_PRIMES = (2, 3, 5, 7)
VALUATIONS = (1, 2, 3)
UNIT_DIGITS = (2, 8, 16)       # significant digits of q's unit part for hull commands

EXIT_OK, EXIT_INPUT, EXIT_DOMAIN = 0, 2, 3

# ROADMAP item 4: argv that the contract says must exit 0/2/3 but that crash
# the CLI today.  They run once per run outside the timed blocks (run.py).
KNOWN_DEFECT_FAMILIES = ("dual-check-huge-level", "stable-iso-long-witness")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_exit: int | None = EXIT_OK  # None: any contract code (0, 2 or 3)
    kind: str = ""  # command name, or "probe:<what>" for contract probes

    @property
    def command(self) -> str:
        return f"{self.argv[0]} {self.argv[1]}"


@dataclass(frozen=True)
class Slot:
    build: Callable  # build(generator, slot) -> Op
    n: int = 0       # precision, or the target modulus for dual ops
    p: int = 0
    v: int = 1
    digits: int = 0  # significant digits of q's unit part; 0 means all N - v
    bits: int = 0    # bit length of a fresh prime; 0 means a small prime
    variant: int = 0


# --- primes ------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_at_most(x: int) -> int:
    x = max(2, x)
    while not is_prime(x):
        x -= 1
    return x


def log_grid(lo: int, hi: int, points: int) -> list[int]:
    """`points` sizes evenly spaced in log from lo to hi inclusive."""
    span = math.log(hi) - math.log(lo)
    return [round(lo * math.exp(span * i / (points - 1))) for i in range(points)]


def bits_grid(count: int) -> list[int]:
    lo, hi = FRESH_BITS
    return [lo + round((hi - lo) * (i + 0.5) / count) for i in range(count)]


# --- generator ---------------------------------------------------------------


class Generator:
    """Deterministic block stream for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.design = WORKLOADS[workload]()
        self.rng = random.Random(f"{workload}:{seed}")
        self.probe_count = 0
        self.used_primes: set[int] = set()

    def block(self) -> list[tuple[int, Op]]:
        """One op per design slot, as (slot index, op) in shuffled order."""
        ops = [(i, slot.build(self, slot)) for i, slot in enumerate(self.design)]
        self.rng.shuffle(ops)
        return ops

    def take(self, count: int) -> list[Op]:
        out: list[Op] = []
        while len(out) < count:
            out += [op for _, op in self.block()]
        return out[:count]

    # inputs -----------------------------------------------------------------

    def prime(self, slot: Slot) -> int:
        """The slot's small prime, or a prime of `slot.bits` bits never used
        before in this run."""
        if not slot.bits:
            return slot.p
        while True:
            c = self.rng.randrange(2 ** (slot.bits - 1), 2 ** slot.bits) | 1
            if c not in self.used_primes and is_prime(c):
                self.used_primes.add(c)
                return c

    def residue_text(self, value: int, p: int, n: int) -> str:
        """`value` mod p^n as an integer, a negative representative, or a
        digit list with or without brackets."""
        r = self.rng.random()
        if r < 0.5:
            return str(value)
        if r < 0.625:
            return str(value - p ** n)
        body = ",".join(map(str, oracle.digits(value, p, n)))
        return f"[{body}]" if r < 0.875 else body

    def unit_value(self, p: int, k: int) -> int:
        """A random unit with exactly k base-p digits."""
        if k == 1:
            return self.rng.randrange(1, p)
        top = self.rng.randrange(1, p) * p ** (k - 1)
        return top + self.rng.randrange(p ** (k - 2)) * p + self.rng.randrange(1, p)

    def q_value(self, p: int, v: int, n: int, digits: int = 0) -> int:
        """q = p^v * unit with valuation exactly v, below p^n."""
        k = n - v if not digits else min(digits, n - v)
        return p ** v * self.unit_value(p, k)

    def padic_argv(self, group, sub, p, n, value, flag="q"):
        return (group, sub, "--p", str(p), "--prec", str(n),
                f"--{flag}", self.residue_text(value, p, n))

    def next_probe_kind(self, kinds):
        kind = kinds[self.probe_count % len(kinds)]
        self.probe_count += 1
        return kind

    def composite(self) -> int:
        return self.rng.choice(SMALL_PRIMES) * self.rng.choice((3, 5, 7, 11, 13))


def _op(argv, kind, expect=EXIT_OK) -> Op:
    return Op(argv=tuple(argv) + ("--json",), expect_exit=expect, kind=kind)


def _padic_probe(g: Generator, group: str, sub: str, p: int, n: int) -> Op:
    """One of the four expected rejections on a q-taking command."""
    kind = g.next_probe_kind(("nonprime-p", "unit-q", "malformed-q", "prec-mismatch"))
    if kind == "nonprime-p":
        argv = (group, sub, "--p", str(g.composite()), "--prec", str(n), "--q", str(p))
        return _op(argv, "probe:" + kind, EXIT_DOMAIN)
    if kind == "unit-q":
        argv = g.padic_argv(group, sub, p, n, g.unit_value(p, n))
        return _op(argv, "probe:" + kind, EXIT_DOMAIN)
    if kind == "malformed-q":
        argv = (group, sub, "--p", str(p), "--prec", str(n), "--q", f"{p}x{n}")
        return _op(argv, "probe:" + kind, EXIT_INPUT)
    body = ",".join(map(str, oracle.digits(g.q_value(p, 1, n), p, n)))
    argv = (group, sub, "--p", str(p), "--prec", str(n + 1), "--q", f"[{body}]")
    return _op(argv, "probe:" + kind, EXIT_INPUT)


# --- builders --------------------------------------------------------------------


def _q_command(group: str, sub: str):
    def build(g: Generator, s: Slot) -> Op:
        p = g.prime(s)
        return _op(g.padic_argv(group, sub, p, s.n, g.q_value(p, s.v, s.n, s.digits)),
                   f"{group} {sub}")
    return build


def _padic_arith(g: Generator, s: Slot) -> Op:
    p, n = g.prime(s), s.n
    if s.variant % 2 == 0:
        argv = ("padic", "arith", "--op", "mul", "--p", str(p), "--prec", str(n),
                "--x", g.residue_text(g.rng.randrange(p ** n), p, n),
                "--y", g.residue_text(g.rng.randrange(p ** n), p, n))
    else:
        argv = ("padic", "arith", "--op", "invert", "--p", str(p), "--prec", str(n),
                "--x", g.residue_text(g.unit_value(p, n), p, n))
    return _op(argv, "padic arith")


def _gamma_density(g: Generator, s: Slot) -> Op:
    p, n = g.prime(s), s.n
    # the hull generator is at most (p-1)/p^(n-v), so epsilon = 1/p^k with
    # k <= n-v-1 always admits a witness
    k = g.rng.randint(0, min(n - s.v - 1, 12))
    target = f"{g.rng.randrange(1000)}/{g.rng.randrange(1, 1000)}"
    argv = g.padic_argv("gamma", "density", p, n, g.q_value(p, s.v, n, s.digits)) + (
        "--target", target, "--epsilon", f"1/{p ** k}")
    return _op(argv, "gamma density")


def _uhf_k0(g: Generator, s: Slot) -> Op:
    prefix = [g.rng.randrange(1, 1000) for _ in range(g.rng.randint(1, 5))]
    tail = [g.rng.randrange(1, 60) for _ in range(g.rng.randint(0, 2))]
    desc = "sizes=" + ",".join(map(str, prefix))
    if tail:
        desc += ";tail=" + ",".join(map(str, tail))
    return _op(("uhf", "k0", "--desc", desc), "uhf k0")


_ISO_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _uhf_stable_iso(g: Generator, s: Slot) -> Op:
    rng = g.rng
    infinite = [p for p in _ISO_PRIMES if rng.random() < 0.3]
    n1, n2 = {}, {}
    for p in _ISO_PRIMES:
        for exps in (n1, n2):
            if p in infinite:
                exps[p] = None  # infinite exponent
            elif rng.random() < 0.5:
                exps[p] = rng.randint(1, 30)
    if s.variant % 4 == 0:  # unequal infinite parts
        p = rng.choice(_ISO_PRIMES)
        n2[p] = rng.randint(1, 30) if p in n2 and n2[p] is None else None
    argv = ("uhf", "stable-iso", "--n", oracle.format_supernatural(n1),
            "--n2", oracle.format_supernatural(n2))
    return _op(argv, "uhf stable-iso")


def _tate_probe(g: Generator, s: Slot) -> Op:
    return _padic_probe(g, "tate", "coeffs", s.p, s.n)


_PROBED_GAMMA = (("gamma", "limit"), ("uhf", "from-tate"), ("gamma", "prufer-check"))


def _gamma_probe(g: Generator, s: Slot) -> Op:
    group, sub = _PROBED_GAMMA[g.probe_count % len(_PROBED_GAMMA)]
    return _padic_probe(g, group, sub, s.p, s.n)


def _modulus(s: Slot) -> tuple[int, int]:
    """(p, level) with p^level near the slot's target modulus: variant 0 is
    level 1 (large p), variant 1 is level 2, variant 2 a power of a small
    prime."""
    if s.variant == 0:
        return _prime_at_most(s.n), 1
    if s.variant == 1:
        return _prime_at_most(math.isqrt(s.n)), 2
    level = max(1, round(math.log(s.n) / math.log(s.p)))
    while s.p ** level > MODULUS_MAX:
        level -= 1
    return s.p, level


def _dual_check(g: Generator, s: Slot) -> Op:
    p, level = _modulus(s)
    return _op(("dual", "check", "--p", str(p), "--level", str(level)), "dual check")


def _dual_pair(g: Generator, s: Slot) -> Op:
    p, level = (g.prime(s), 1 + s.variant % 2) if s.bits else _modulus(s)
    prec = level + g.rng.randint(0, 3)
    argv = ("dual", "pair", "--p", str(p), "--prec", str(prec),
            "--z", g.residue_text(g.rng.randrange(p ** prec), p, prec),
            "--gamma", f"{g.rng.randrange(p ** level)}/{p}^{level}")
    return _op(argv, "dual pair")


def _dual_probe(g: Generator, s: Slot) -> Op:
    kind = g.next_probe_kind(("nonprime-p", "malformed-z", "prec-mismatch", "over-guard"))
    p, level = _modulus(s)
    if kind == "nonprime-p":
        argv = ("dual", "check", "--p", str(g.composite()), "--level", str(level))
        return _op(argv, "probe:" + kind, EXIT_DOMAIN)
    if kind == "over-guard":
        # 2^20 < 10^6 < 2^21: the enumeration guard rejects these up front
        argv = ("dual", "check", "--p", "2", "--level", str(g.rng.randint(21, 40)))
        return _op(argv, "probe:" + kind, EXIT_DOMAIN)
    if kind == "malformed-z":
        argv = ("dual", "pair", "--p", str(p), "--prec", str(level),
                "--z", f"{p}z", "--gamma", f"1/{p}^{level}")
        return _op(argv, "probe:" + kind, EXIT_INPUT)
    body = ",".join(str(g.rng.randrange(p)) for _ in range(level + 1))
    argv = ("dual", "pair", "--p", str(p), "--prec", str(level + 2),
            "--z", f"[{body}]", "--gamma", f"1/{p}^{level}")
    return _op(argv, "probe:" + kind, EXIT_INPUT)


# --- the block designs -----------------------------------------------------------
# Heavy commands get one slot per grid point, so a block stays a few seconds
# long and a run samples every slot many times; cheap commands fill each
# design up to more than 100 slots, so p90 has at least ten slots beyond it.


def _along(build, lo, hi, points, offset=0, **fixed) -> list[Slot]:
    """One slot per log-grid N; p, v and the unit length rotate along the
    grid, so every prime meets small and large N."""
    return [
        Slot(build, n=n, p=SMALL_PRIMES[(i + offset) % 4], v=VALUATIONS[i % 3],
             digits=fixed.get("digits", UNIT_DIGITS[(i + offset) % 3]), variant=i)
        for i, n in enumerate(log_grid(lo, hi, points))
    ]


def _crossed(build, lo, hi, points, **fixed) -> list[Slot]:
    """Every log-grid N crossed with every small prime; v and the unit
    length rotate so each (N, p) cell gets one of each in turn."""
    return [
        Slot(build, n=n, p=p, v=VALUATIONS[(i + j) % 3],
             digits=fixed.get("digits", UNIT_DIGITS[(i + 2 * j) % 3]), variant=i + j)
        for i, n in enumerate(log_grid(lo, hi, points))
        for j, p in enumerate(SMALL_PRIMES)
    ]


def _fresh(build, count, **fixed) -> list[Slot]:
    """Ops on fresh primes: N from 8 to FRESH_N_MAX against bit lengths
    from 40 down to 20."""
    sizes, bits = log_grid(N_MIN, FRESH_N_MAX, count), bits_grid(count)[::-1]
    return [Slot(build, n=n, bits=b, v=VALUATIONS[i % 3], variant=i, **fixed)
            for i, (n, b) in enumerate(zip(sizes, bits))]


def tate_series() -> list[Slot]:
    slots = _along(_q_command("tate", "coeffs"), N_MIN, N_MAX, 30, digits=0)
    slots += _crossed(_padic_arith, N_MIN, N_MAX, 15)
    slots += _fresh(_padic_arith, 11)
    slots += [Slot(_tate_probe, n=16, p=p) for p in (3, 5)]
    return slots


def gamma_hulls() -> list[Slot]:
    slots = _along(_q_command("gamma", "limit"), N_MIN, LIMIT_N_MAX, 8)
    slots += _along(_q_command("uhf", "from-tate"), N_MIN, LIMIT_N_MAX, 8, offset=2)
    slots += _crossed(_q_command("gamma", "group"), N_MIN, N_MAX, 4)
    slots += _crossed(_q_command("gamma", "contains-one"), N_MIN, N_MAX, 3)
    slots += _crossed(_gamma_density, N_MIN, N_MAX, 3)
    slots += _crossed(_q_command("gamma", "gens"), N_MIN, N_MAX, 2, digits=0)
    slots += _crossed(_q_command("gamma", "prufer-check"), N_MIN, N_MAX, 2, digits=0)
    slots += _crossed(_q_command("padic", "canon"), N_MIN, N_MAX, 2, digits=0)
    slots += [Slot(_uhf_k0, variant=i) for i in range(10)]
    slots += [Slot(_uhf_stable_iso, variant=i) for i in range(10)]
    for group, sub in (("padic", "canon"), ("gamma", "group"),
                       ("gamma", "contains-one"), ("gamma", "gens")):
        slots += _fresh(_q_command(group, sub), 3, digits=8)
    slots += [Slot(_gamma_probe, n=16, p=p) for p in (2, 3, 7)]
    return slots


def dual_scan() -> list[Slot]:
    slots = [Slot(_dual_check, n=m, p=SMALL_PRIMES[i % 4], variant=cls)
             for i, m in enumerate(log_grid(2, MODULUS_MAX, 10)) for cls in range(3)]
    slots += [Slot(_dual_pair, n=m, p=SMALL_PRIMES[i % 4], variant=cls)
              for i, m in enumerate(log_grid(2, MODULUS_MAX, 30)) for cls in (0, 1)]
    slots += [Slot(_dual_pair, bits=b, variant=i) for i, b in enumerate(bits_grid(10))]
    slots += [Slot(_dual_probe, n=64, p=p) for p in (3, 5)]
    return slots


WORKLOADS = {
    "tate-series": tate_series,
    "gamma-hulls": gamma_hulls,
    "dual-scan": dual_scan,
}

# One small op per command family, run untimed before measuring so imports,
# regex compilation and the small-prime cache are warm.
WARMUP = {
    "tate-series": [
        ("tate", "coeffs", "--p", "3", "--prec", "8", "--q", "3", "--json"),
        ("padic", "arith", "--op", "invert", "--p", "5", "--prec", "8", "--x", "7", "--json"),
    ],
    "gamma-hulls": [
        ("gamma", "limit", "--p", "3", "--prec", "8", "--q", "6", "--json"),
        ("gamma", "density", "--p", "2", "--prec", "8", "--q", "6",
         "--target", "1/3", "--epsilon", "1/2", "--json"),
        ("uhf", "stable-iso", "--n", "2^inf*3", "--n2", "2^inf*5", "--json"),
        ("uhf", "k0", "--desc", "sizes=6,10;tail=3", "--json"),
    ],
    "dual-scan": [
        ("dual", "check", "--p", "3", "--level", "2", "--json"),
        ("dual", "pair", "--p", "7", "--prec", "2", "--z", "5", "--gamma", "1/7^2", "--json"),
    ],
}


def known_defect_probes(seed: int) -> list[Op]:
    """The two ROADMAP item 4 crash families.  The contract only asks that
    they end with exit 0, 2 or 3 and one JSON document."""
    rng = random.Random(f"known-defects:{seed}")
    e = rng.randint(9100, 9600)  # 3^e has more than 4300 decimal digits
    return [
        _op(("dual", "check", "--p", "2", "--level", "100000000"),
            "probe:" + KNOWN_DEFECT_FAMILIES[0], None),
        _op(("uhf", "stable-iso", "--n", f"2^inf*3^{e}", "--n2", "2^inf"),
            "probe:" + KNOWN_DEFECT_FAMILIES[1], None),
    ]


def op_digest(op: Op) -> bytes:
    return hashlib.sha256(json.dumps(op.argv).encode()).digest()


def argv_digest(ops) -> str:
    return hashlib.sha256(b"".join(op_digest(op) for op in ops)).hexdigest()
