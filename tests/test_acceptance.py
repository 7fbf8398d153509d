"""End-to-end acceptance suite: one test per criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them inline)."""

import functools
import json
import random
from fractions import Fraction

from tatedual.cli import run as cli_run
from tatedual.duality import pair, perfectness_check
from tatedual.gamma import (
    contains_one_report,
    density_witness,
    gamma_generators,
    gamma_group,
    prufer_relations_check,
    supernatural_limit,
)
from tatedual.errors import PrecisionError
from tatedual.padic import PAdicInt, canonical_sequence, padic_from_integer
from tatedual.supernatural import (
    INF,
    SupernaturalNumber,
    format_supernatural,
    qn_contains,
    stably_isomorphic,
    uhf_from_tate,
)
from tatedual.tate import a4, a6, truncation_index

from conftest import SMALL_PRIMES, random_q
from oracles import (
    bidual_eval,
    contains,
    rand_prufer,
    rational_a4,
    rational_a6,
    reduce_mod,
)

PRIMES = SMALL_PRIMES
BIG = 25  # denominator exponent far beyond what any r, s <= 1000 can absorb


def acceptance(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({title}): PASS")
            return result

        return wrapper

    return decorate


# --- 1: worked example q = p, end to end ------------------------------------

@acceptance(1, "worked example q=p end to end")
def test_criterion_1_worked_example():
    for p in PRIMES:
        q = padic_from_integer(p, p, 8)
        assert canonical_sequence(q).entries == (0,) + (p,) * 7
        assert gamma_generators(q) == [Fraction(0)] + [
            Fraction(1, p ** k) for k in range(1, 8)
        ]
        assert gamma_group(q).generator == Fraction(1, p ** 7)
        limit = supernatural_limit(q)
        assert limit.sn.exponents == {p: INF}
        assert limit.scale == 1
        out = uhf_from_tate(q)
        assert out.descriptor.prefix == () and out.descriptor.tail == (p,)
        assert (out.label == "CAR") == (p == 2)


# --- 2: the relation chain on random q ---------------------------------------

@acceptance(2, "torsion relation chain, 200 random q at N=12")
def test_criterion_2_relation_chain():
    rng = random.Random(2024)
    for _ in range(200):
        p = rng.choice(PRIMES)
        q = random_q(rng, p, 12, min_valuation=1)
        gens = gamma_generators(q)
        assert (p * gens[0]) % 1 == 0
        for n in range(len(gens) - 1):
            step = p * gens[n + 1] - gens[n]
            assert step.denominator == 1
            assert int(step) == q.digits[n + 1]
        report = prufer_relations_check(q)
        assert report.p_gamma1_zero and report.all_hold
        assert [r.discrepancy for r in report.relations] == list(q.digits[1:])


# --- 3: density ---------------------------------------------------------------

@acceptance(3, "density: shrinking hulls and epsilon witnesses")
def test_criterion_3_density():
    rng = random.Random(3033)
    for _ in range(200):
        p = rng.choice(PRIMES)
        q = random_q(rng, p, 12, min_valuation=1)
        prev = None
        for n in range(2, 13):
            g = gamma_group(q.truncate(n)).generator
            if g == 0:
                continue
            if prev is not None:
                assert g <= prev
                assert (prev / g).denominator == 1
            prev = g
        target = Fraction(rng.randint(0, 64), 64)
        epsilon = Fraction(1, p ** 4)
        work = q
        for _ in range(10):
            try:
                w = density_witness(work, target, epsilon)
                break
            except PrecisionError as exc:
                extend = exc.required_precision - work.precision
                work = PAdicInt(
                    p, work.digits + tuple(rng.randrange(p) for _ in range(extend))
                )
        else:
            raise AssertionError("witness never reached epsilon")
        assert w.distance < epsilon
        assert abs(w.witness - target) == w.distance
        assert contains(gamma_group(work), w.witness)


# --- 4: the integer-containment deviation record -------------------------------

@acceptance(4, "containment report: q=6 fails, q=p holds")
def test_criterion_4_containment_records():
    report = contains_one_report(padic_from_integer(6, 3, 6))
    assert report.contains_one is False
    assert report.content == 2
    for p in PRIMES:
        report = contains_one_report(padic_from_integer(p, p, 6))
        assert report.contains_one is True
        assert report.content == 1


# --- 5: series evaluation vs the exact-rational oracle --------------------------

@acceptance(5, "coefficient series vs exact-rational oracle")
def test_criterion_5_series_oracle():
    for p, q_int, n in [(2, 2, 4), (3, 3, 2)]:
        q = padic_from_integer(q_int, p, n)
        terms = truncation_index(q)
        assert a4(q).value == reduce_mod(rational_a4(q_int, terms), p, n)
        assert a6(q).value == reduce_mod(rational_a6(q_int, terms), p, n)
        # ten more terms change nothing mod p^N: the truncation loses nothing
        assert a4(q).value == reduce_mod(rational_a4(q_int, terms + 10), p, n)
        assert a6(q).value == reduce_mod(rational_a6(q_int, terms + 10), p, n)
    for k in range(1, 10 ** 4 + 1):
        assert (5 * k ** 3 + 7 * k ** 5) % 12 == 0


# --- 6: perfect pairing at every feasible level ---------------------------------

@acceptance(6, "finite-level perfectness and the double-dual identity")
def test_criterion_6_perfectness():
    for p in (2, 3, 5):
        level = 0
        while p ** level <= 3125:
            report = perfectness_check(p, level)
            assert report.perfect, (p, level, report.counterexamples)
            level += 1

    rng = random.Random(6066)
    for _ in range(10 ** 4):
        p = rng.choice((2, 3, 5))
        g = rand_prufer(rng, p, 6)
        prec = rng.randint(max(g.level, 1), 9)
        z = padic_from_integer(rng.randrange(p ** prec), p, prec)
        assert bidual_eval(g, z) == pair(z, g)


# --- 7: the classification decision vs brute force -------------------------------

def _delta_classes():
    """Equivalence classes of the full r, s <= 1000 search.

    Only pairs with equal rough (non-{2,3,5,7}) parts can satisfy the
    two-sided constraint at the sample element 1, and within those pairs a
    unit-numerator membership constraint sees only the exponent difference
    vector; one representative per vector preserves the search exactly.
    """
    vec = {}
    by_rough = {}
    for k in range(1, 1001):
        rest = k
        exps = []
        for p in PRIMES:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            exps.append(e)
        vec[k] = tuple(exps)
        by_rough.setdefault(rest, []).append(k)
    deltas = {}
    for members in by_rough.values():
        for r in members:
            vr = vec[r]
            for s in members:
                vs = vec[s]
                d = tuple(a - b for a, b in zip(vr, vs))
                deltas.setdefault(d, (r, s))
    return deltas


def _exponent_samples(n: SupernaturalNumber):
    """Denominator exponent vectors of unit-numerator sample elements."""
    caps = tuple(
        BIG if n.exponent(p) == INF else int(n.exponent(p)) for p in PRIMES
    )
    samples = {(0, 0, 0, 0), caps}
    for i in range(len(PRIMES)):
        spike = [0] * len(PRIMES)
        spike[i] = caps[i]
        samples.add(tuple(spike))
    return samples


def _brute_force_decision(n1, n2, deltas):
    s1 = _exponent_samples(n1)
    s2 = _exponent_samples(n2)
    e1 = tuple(n1.exponent(p) for p in PRIMES)
    e2 = tuple(n2.exponent(p) for p in PRIMES)
    for d, rep in deltas.items():
        ok = all(
            max(0, x - dd) <= t for e in s1 for x, dd, t in zip(e, d, e2)
        ) and all(
            max(0, x + dd) <= t for f in s2 for x, dd, t in zip(f, d, e1)
        )
        if ok:
            return rep
    return None


def _random_supernatural(rng, inf_set):
    exps = {}
    for p in PRIMES:
        if p in inf_set:
            exps[p] = INF
        else:
            e = rng.randint(0, 5)
            if e:
                exps[p] = e
    return SupernaturalNumber(exps)


def _random_element(rng, n: SupernaturalNumber) -> Fraction:
    den = 1
    for p in PRIMES:
        e = n.exponent(p)
        cap = 10 if e == INF else int(e)
        den *= p ** rng.randint(0, cap)
    return Fraction(rng.randint(-1000, 1000), den)


@acceptance(7, "stable isomorphism vs r,s<=1000 brute force")
def test_criterion_7_classification():
    deltas = _delta_classes()
    rng = random.Random(7077)
    pairs = []
    while len(pairs) < 100:
        subsets = [frozenset(s) for s in [(), (2,), (3,), (5,), (2, 3), (5, 7), (2, 7)]]
        s1 = rng.choice(subsets)
        if len(pairs) % 2 == 0:
            # same infinite part; keep the minimal witness below the search bound
            n1 = _random_supernatural(rng, s1)
            while True:
                exps = dict(n1.exponents)
                for p in PRIMES:
                    if p in s1:
                        continue
                    e = int(n1.exponent(p)) + rng.randint(-2, 2)
                    if e > 0:
                        exps[p] = e
                    else:
                        exps.pop(p, None)
                n2 = SupernaturalNumber(exps)
                r = s = 1
                for p in PRIMES:
                    if p in s1:
                        continue
                    d = int(n1.exponent(p)) - int(n2.exponent(p))
                    if d > 0:
                        r *= p ** d
                    elif d < 0:
                        s *= p ** (-d)
                if r <= 1000 and s <= 1000:
                    break
            pairs.append((n1, n2))
        else:
            s2 = rng.choice([s for s in subsets if s != s1])
            pairs.append(
                (_random_supernatural(rng, s1), _random_supernatural(rng, s2))
            )

    for n1, n2 in pairs:
        decision = stably_isomorphic(n1, n2)
        found = _brute_force_decision(n1, n2, deltas)
        assert decision.equal == (found is not None), (
            format_supernatural(n1), format_supernatural(n2), found)
        if decision.equal:
            r, s = decision.witness
            ratio = Fraction(r, s)
            for _ in range(50):
                x = _random_element(rng, n1)
                assert qn_contains(n2, x * ratio)
                y = _random_element(rng, n2)
                assert qn_contains(n1, y / ratio)

    # equivalence-relation laws on random triples
    pool = [n for pair_ in pairs for n in pair_]
    for _ in range(300):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert stably_isomorphic(a, a).equal
        assert stably_isomorphic(a, b).equal == stably_isomorphic(b, a).equal
        if stably_isomorphic(a, b).equal and stably_isomorphic(b, c).equal:
            assert stably_isomorphic(a, c).equal


# --- 8: the CLI contract ----------------------------------------------------------

@acceptance(8, "CLI byte-exact examples and exit codes")
def test_criterion_8_cli(capsys):
    code = cli_run(["gamma", "gens", "--p", "2", "--q", "2", "--prec", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0, 1/2, 1/4, 1/8" in out

    code = cli_run(
        ["gamma", "gens", "--p", "2", "--q", "2", "--prec", "4", "--json"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert '"generators":["0","1/2","1/4","1/8"]' in out
    assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) == out

    code = cli_run(
        ["uhf", "from-tate", "--p", "2", "--q", "2", "--prec", "6", "--json"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert '"k0":"2^inf"' in out
    assert '"label":"CAR"' in out

    code = cli_run(["tate", "coeffs", "--p", "2", "--q", "2", "--prec", "4", "--json"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert '"a4":"2 mod 2^4"' in out

    # exit-code contract: 0 above, 2 for input problems, 3 for domain errors
    assert cli_run(["no-such-group"]) == 2
    capsys.readouterr()
    assert cli_run(["tate", "coeffs", "--p", "2", "--q", "3", "--prec", "4"]) == 3
    capsys.readouterr()
    assert (
        cli_run(["tate", "coeffs", "--p", "2", "--q", "3", "--prec", "4", "--json"]) == 3
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error" and doc["diagnostics"]
