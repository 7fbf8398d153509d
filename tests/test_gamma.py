"""Gamma generators, cyclic hulls, density, the torsion images in Q/Z, and
the quasicyclic relation chain; the closed forms against the brute-force
forms they replaced."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SMALL_PRIMES, random_q
from oracles import contains, prufer_add
from tatedual.errors import DomainError, PrecisionError
from tatedual.gamma import (
    ContainsOneReport,
    CyclicSubgroupQ,
    PruferElement,
    PruferRelation,
    PruferRelationsReport,
    SupernaturalLimit,
    _required_precision,
    contains_one_report,
    cyclic_hull,
    density_witness,
    gamma_generators,
    gamma_group,
    hull_with_coefficients,
    parse_prufer,
    prufer_image,
    prufer_level,
    prufer_relations_check,
    supernatural_limit,
)
from tatedual.numutil import prime_to_part
from tatedual.padic import PAdicInt, canonical_sequence, padic_from_integer
from tatedual.supernatural import INF, SupernaturalNumber


def F(*args):
    return Fraction(*args)


# --- generators -----------------------------------------------------------

def test_generators_for_q_equals_p():
    for p in SMALL_PRIMES:
        gens = gamma_generators(padic_from_integer(p, p, 4))
        assert gens == [F(0), F(1, p), F(1, p * p), F(1, p ** 3)]


def test_generators_zero_and_12():
    assert gamma_generators(padic_from_integer(0, 5, 3)) == [F(0)] * 3
    gens = gamma_generators(padic_from_integer(12, 3, 3))
    assert gens == [F(0), F(1, 3), F(4, 9)]
    assert all(0 <= g < 1 for g in gens)


# --- cyclic hull ----------------------------------------------------------

def test_hull_brute_force_example():
    # smallest positive integer combination of 1/2 and 1/3
    combos = {
        a * F(1, 2) + b * F(1, 3)
        for a in range(-10, 11)
        for b in range(-10, 11)
    }
    best = min(c for c in combos if c > 0)
    assert best == F(1, 6)
    assert cyclic_hull([F(1, 2), F(1, 3)]).generator == F(1, 6)


def test_hull_trivial_cases():
    assert cyclic_hull([]).generator == 0
    assert cyclic_hull([F(0)]).generator == 0
    assert cyclic_hull([F(0), F(1, 3), F(4, 9)]).generator == F(1, 9)


def test_hull_certificate_on_random_sets():
    rng = random.Random(11)
    for _ in range(100):
        gens = [
            F(rng.randint(-30, 30), rng.randint(1, 30))
            for _ in range(rng.randint(1, 6))
        ]
        group, coeffs = hull_with_coefficients(gens)
        assert cyclic_hull(gens) == group
        g = group.generator
        assert sum(c * x for c, x in zip(coeffs, gens)) == g
        for x in gens:
            assert contains(group, x)
            if g:
                assert (x / g).denominator == 1


def test_gamma_group_examples():
    for p in SMALL_PRIMES:
        assert gamma_group(padic_from_integer(p, p, 5)).generator == F(1, p ** 4)
    assert gamma_group(padic_from_integer(0, 3, 4)).generator == 0
    assert gamma_group(padic_from_integer(6, 3, 3)).generator == F(2, 9)


def test_contains_examples():
    sixth = CyclicSubgroupQ(F(1, 6))
    assert contains(sixth, F(5, 6))
    assert not contains(sixth, F(1, 4))
    assert contains(CyclicSubgroupQ(F(1, 9)), F(1))
    assert not contains(CyclicSubgroupQ(F(0)), F(1, 2))
    assert contains(CyclicSubgroupQ(F(0)), F(0))


# --- integer containment --------------------------------------------------

def test_contains_one_for_q_equals_p():
    for p in SMALL_PRIMES:
        report = contains_one_report(padic_from_integer(p, p, 4))
        assert report.contains_one and report.content == 1


def test_contains_one_deviation_record_q6():
    # every nonzero numerator of the q=6 generators shares the factor 2,
    # so no integer combination reaches 1; kept as a regression pin
    for n in range(3, 9):
        report = contains_one_report(padic_from_integer(6, 3, n))
        assert report.contains_one is False
        assert report.content == 2


def test_contains_one_q12():
    report = contains_one_report(padic_from_integer(12, 3, 3))
    assert report.contains_one and report.content == 1


def test_contains_one_rejects_zero():
    with pytest.raises(DomainError, match="trivial"):
        contains_one_report(padic_from_integer(0, 3, 4))


# --- density --------------------------------------------------------------

def test_density_witness_examples():
    w = density_witness(padic_from_integer(3, 3, 4), F(1, 2), F(1, 9))
    assert (w.witness, w.distance) == (F(13, 27), F(1, 54))

    w = density_witness(padic_from_integer(2, 2, 5), F(1, 3), F(1, 10))
    assert (w.witness, w.distance) == (F(5, 16), F(1, 48))

    # a target already inside comes back exactly
    w = density_witness(padic_from_integer(2, 2, 5), F(3, 16), F(1, 10))
    assert (w.witness, w.distance) == (F(3, 16), F(0))


def test_density_witness_matches_nearest_multiple_oracle():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice(SMALL_PRIMES)
        q = random_q(rng, p, 10, min_valuation=1)
        g = gamma_group(q).generator
        target = F(rng.randint(0, 100), rng.randint(1, 100))
        if g == 0 or g > F(1, 50):
            continue
        w = density_witness(q, target, F(1, 50))
        k = target.numerator * g.denominator // (target.denominator * g.numerator)
        best = min(abs(k * g - target), abs((k + 1) * g - target))
        assert w.distance == best
        assert w.distance < F(1, 50)
        assert contains(gamma_group(q), w.witness)


def test_density_insufficient_precision_reports_estimate():
    q = padic_from_integer(3, 3, 3)  # hull generator 1/9
    with pytest.raises(PrecisionError) as exc:
        density_witness(q, F(1, 2), F(1, 100))
    needed = exc.value.required_precision
    assert needed is not None
    digits = q.digits + (0,) * (needed - q.precision)
    from tatedual.padic import PAdicInt

    w = density_witness(PAdicInt(3, digits), F(1, 2), F(1, 100))
    assert w.distance < F(1, 100)


def required_precision_by_search(q, content, epsilon):
    """The least n > v with content / p**(n - v) <= epsilon, by trying each n."""
    v = q.valuation()
    n = v + 1
    while Fraction(content, q.p ** (n - v)) > epsilon:
        n += 1
    return n


@st.composite
def precision_bounds(draw):
    """(q, content, epsilon) with epsilon often exactly content / p**k, or
    one part in 10**30 either side of it, where a size estimate is least sure."""
    p = draw(st.sampled_from(SMALL_PRIMES + (1099511627689,)))
    v = draw(st.integers(1, 5))
    q = padic_from_integer(p ** v, p, v + 1)
    content = draw(st.integers(1, 10 ** 30))
    if draw(st.booleans()):
        epsilon = draw(st.fractions(min_value=F(1, 10 ** 40), max_value=10 ** 31,
                                    max_denominator=10 ** 40))
        return q, content, epsilon
    k = draw(st.integers(0, 120))
    nudge = 1 + F(draw(st.integers(-1, 1)), 10 ** 30)
    return q, content, F(content, p ** k) * nudge


@settings(deadline=None)
@given(precision_bounds())
def test_required_precision_matches_the_search(bound):
    q, content, epsilon = bound
    assert _required_precision(q, content, epsilon) == required_precision_by_search(
        q, content, epsilon
    )


def test_density_rejects_bad_epsilon_and_zero():
    with pytest.raises(DomainError):
        density_witness(padic_from_integer(3, 3, 4), F(1, 2), F(0))
    with pytest.raises(DomainError):
        density_witness(padic_from_integer(0, 3, 4), F(1, 2), F(1, 9))


# --- torsion images -------------------------------------------------------

def test_prufer_image_examples():
    assert prufer_image(F(4, 9), 3) == PruferElement(3, 2, 4)
    assert prufer_image(F(6, 9), 3) == PruferElement(3, 1, 2)
    assert prufer_image(F(7, 3), 3) == PruferElement(3, 1, 1)
    assert prufer_image(F(5), 3) == PruferElement(3, 0, 0)
    assert prufer_image(F(-1, 3), 3) == PruferElement(3, 1, 2)


def test_prufer_image_rejects_foreign_denominator():
    with pytest.raises(DomainError, match="has a factor 2 prime to 3"):
        prufer_image(F(1, 6), 3)


@given(
    p=st.sampled_from(SMALL_PRIMES + (1099511627689,)),
    e=st.integers(0, 200),
    m=st.integers(1, 50),
    num=st.integers(-(10 ** 12), 10 ** 12),
)
def test_prufer_image_level_matches_one_division_at_a_time(p, e, m, num):
    gamma = F(num, p ** e * m)
    den, level = gamma.denominator, 0
    while den % p == 0:
        den //= p
        level += 1
    if den != 1:
        with pytest.raises(DomainError, match=f"has a factor {den} prime to {p}"):
            prufer_image(gamma, p)
    else:
        assert prufer_image(gamma, p) == PruferElement(
            p, level, (gamma % 1).numerator
        )


def test_prufer_element_validation_and_order():
    with pytest.raises(DomainError):
        PruferElement(3, 1, 3)  # not reduced
    with pytest.raises(DomainError):
        PruferElement(3, 0, 1)
    x = PruferElement(3, 2, 4)
    assert 3 ** x.level == 9
    assert str(x) == "4/3^2"
    assert prufer_add(x, PruferElement(3, 2, 5)) == PruferElement(3, 0, 0)


def test_parse_prufer_forms():
    assert parse_prufer("3/2^3", 2) == PruferElement(2, 3, 3)
    assert parse_prufer("1/8", 2) == PruferElement(2, 3, 1)
    assert parse_prufer("7", 5) == PruferElement(5, 0, 0)
    with pytest.raises(DomainError):
        parse_prufer("1/6", 3)
    with pytest.raises(DomainError):
        parse_prufer("x/y", 3)


@given(p=st.sampled_from((2, 3, 5)), a=st.integers(-10 ** 4, 10 ** 4),
       b=st.integers(1, 60), k=st.integers(0, 6))
def test_parse_prufer_reads_the_foreign_factor_off_the_base(p, a, b, k):
    # b'^k / gcd(a, b'^k) for b = p^e * b' is the prime-to-p part of the
    # reduced denominator that prufer_image splits off a/b^k
    text = f"{a}/{b}^{k}"
    try:
        expected = prufer_image(F(a, b ** k), p)
    except DomainError as error:
        with pytest.raises(DomainError) as got:
            parse_prufer(text, p)
        assert str(got.value) == str(error)
    else:
        assert parse_prufer(text, p) == expected


@given(p=st.sampled_from(SMALL_PRIMES), a=st.integers(-10 ** 6, 10 ** 6),
       e=st.integers(0, 3), k=st.integers(0, 40))
def test_prufer_level_from_the_exponent_is_the_parsed_level(p, a, e, k):
    text = f"{a}/{p ** e}^{k}"
    assert prufer_level(text, p) == parse_prufer(text, p).level


def test_prufer_level_reads_only_a_over_a_power_of_p_to_the_k():
    assert prufer_level(" -3 / 3 ^ 5 ", 3) == 4
    assert prufer_level("0/3^99999999", 3) == 0
    assert prufer_level("1/9^2", 3) == 4  # the base 3^2 counts twice per step of k
    assert prufer_level("1/1^5", 3) == 0
    for text in ("1/6^2", "0/0^3", "1/27", "5", "x/y", "1/3^-1"):
        assert prufer_level(text, 3) is None


# --- relation chain -------------------------------------------------------

def test_relations_q2_discrepancies_are_digits():
    q = padic_from_integer(2, 2, 5)
    report = prufer_relations_check(q)
    assert report.p_gamma1_zero
    assert report.all_hold
    assert [r.discrepancy for r in report.relations] == list(q.digits[1:])
    assert report.unbounded_order


def test_relations_q12_and_q6():
    report = prufer_relations_check(padic_from_integer(12, 3, 3))
    assert report.all_hold
    report = prufer_relations_check(padic_from_integer(6, 3, 3))
    assert report.all_hold  # the chain holds even though 1 is not inside


def test_relations_reject_units_and_zero():
    with pytest.raises(DomainError, match="valuation"):
        prufer_relations_check(padic_from_integer(1, 3, 4))
    with pytest.raises(DomainError):
        prufer_relations_check(padic_from_integer(0, 3, 4))


def test_relation_chain_exact_on_random_q():
    rng = random.Random(37)
    for _ in range(60):
        p = rng.choice(SMALL_PRIMES)
        q = random_q(rng, p, 12, min_valuation=1)
        gens = gamma_generators(q)
        assert (p * gens[0]) % 1 == 0
        for n in range(len(gens) - 1):
            diff = p * gens[n + 1] - gens[n]
            assert diff.denominator == 1
            assert int(diff) == q.digits[n + 1]
        assert prufer_relations_check(q).all_hold


def test_prufer_order_signature():
    rng = random.Random(41)
    for _ in range(40):
        p = rng.choice(SMALL_PRIMES)
        q = random_q(rng, p, 10, min_valuation=1)
        v = q.valuation()
        gens = gamma_generators(q)
        for n in range(v + 1, len(gens) + 1):
            assert p ** prufer_image(gens[n - 1], p).level == p ** (n - v)


# --- truncations ----------------------------------------------------------

def test_truncation_monotonicity_and_shrink():
    rng = random.Random(43)
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES)
        q = random_q(rng, p, 12, min_valuation=1)
        prev = None
        for n in range(1, q.precision + 1):
            g = gamma_group(q.truncate(n)).generator
            if prev not in (None, Fraction(0)) and g != 0:
                assert (prev / g).denominator == 1  # divides exactly
                assert g <= prev
            if g != 0:
                prev = g
        v = q.valuation()
        content = contains_one_report(q).content
        assert gamma_group(q).generator == Fraction(content, p ** (q.precision - v))


def test_supernatural_limit_examples():
    for p in SMALL_PRIMES:
        limit = supernatural_limit(padic_from_integer(p, p, 6))
        assert limit.sn.exponents == {p: INF}
        assert limit.scale == 1
        assert limit.stabilized

    limit = supernatural_limit(padic_from_integer(6, 3, 6))
    assert limit.sn.exponents == {3: INF}
    assert limit.scale == 2
    assert limit.stabilized

    limit = supernatural_limit(padic_from_integer(12, 3, 6))
    assert limit.scale == 1


def test_supernatural_limit_rejections():
    with pytest.raises(DomainError):
        supernatural_limit(padic_from_integer(0, 3, 4))
    with pytest.raises(DomainError, match="valuation"):
        supernatural_limit(padic_from_integer(2, 3, 4))


# --- closed forms against brute force --------------------------------------
#
# The oracles below rebuild each object from Fractions the way the package
# did before it read everything off the running gcd G_n = gcd(p*G_{n-1}, a_n)
# and the digits of q.  Their hulls scale every generator to the common
# denominator d and take gcd(d*g)/d, so they share no code with cyclic_hull.

def oracle_hull(gens):
    d = math.lcm(*(g.denominator for g in gens))
    return CyclicSubgroupQ(Fraction(math.gcd(*(g.numerator * (d // g.denominator)
                                               for g in gens)), d))


def oracle_gamma_group(q):
    return oracle_hull(gamma_generators(q))


def oracle_supernatural_limit(q):
    contents = []
    for n in range(1, q.precision + 1):
        g = oracle_hull(gamma_generators(q.truncate(n))).generator
        contents.append(g.numerator if g else None)
    scale = contents[-1]
    window = contents[-3:]
    return SupernaturalLimit(
        sn=SupernaturalNumber({q.p: INF}),
        scale=scale,
        stabilized=len(window) == 3 and all(c == scale for c in window),
    )


def oracle_contains_one_report(q):
    nonzero = [a for a in canonical_sequence(q).entries if a]
    content = prime_to_part(math.gcd(*nonzero), q.p)
    return ContainsOneReport(
        contains_one=contains(oracle_gamma_group(q), Fraction(1)), content=content
    )


def oracle_prufer_relations(q):
    v = q.valuation()
    gens = gamma_generators(q)
    first = prufer_image(q.p * gens[0], q.p)
    relations = []
    for n in range(1, len(gens)):
        diff = q.p * gens[n] - gens[n - 1]
        holds = diff.denominator == 1
        relations.append(
            PruferRelation(n=n, holds=holds, discrepancy=int(diff) if holds else 0)
        )
    levels = tuple(prufer_image(g, q.p).level for g in gens)
    tail = levels[v:]
    unbounded = all(b > a for a, b in zip(tail, tail[1:])) and (
        not tail or tail[-1] == q.precision - v
    )
    return PruferRelationsReport(
        p_gamma1_zero=(first.level == 0),
        relations=tuple(relations),
        levels=levels,
        unbounded_order=unbounded,
    )


@st.composite
def residue_q(draw, min_v=1, allow_zero=False):
    """q = p**v * u mod p**N with min_v <= v < N and a unit u of 1..N digits;
    with allow_zero, v = N (so q = 0) may be drawn too.  Some q are built
    from their digit list, which then seeds q.digits (the `--q [..]` path)."""
    p = draw(st.sampled_from(SMALL_PRIMES + (1099511627689,  # a 40-bit prime
                                             9223372036854775783)))  # a 63-bit prime
    n = draw(st.integers(2, 40))
    v = draw(st.integers(min_v, n if allow_zero else n - 1))
    k = draw(st.integers(1, n))
    digits = [draw(st.integers(1, p - 1))]
    digits += [draw(st.integers(0, p - 1)) for _ in range(k - 1)]
    if draw(st.booleans()):
        return PAdicInt(p, ([0] * v + digits + [0] * n)[:n])
    u = sum(d * p ** i for i, d in enumerate(digits))
    return padic_from_integer(p ** v * u, p, n)


@settings(deadline=None)
@given(residue_q())
def test_closed_forms_match_brute_force(q):
    assert gamma_group(q) == oracle_gamma_group(q)
    assert supernatural_limit(q) == oracle_supernatural_limit(q)
    assert contains_one_report(q) == oracle_contains_one_report(q)
    assert prufer_relations_check(q) == oracle_prufer_relations(q)


@settings(deadline=None)
@given(residue_q(min_v=0, allow_zero=True))
@example(padic_from_integer(0, 2, 7))
@example(padic_from_integer(0, 1099511627689, 3))
def test_group_and_content_match_brute_force_on_units_and_zero(q):
    assert gamma_group(q) == oracle_gamma_group(q)
    if q.is_zero():
        with pytest.raises(DomainError, match="trivial"):
            contains_one_report(q)
    else:
        assert contains_one_report(q) == oracle_contains_one_report(q)


def residues_by_reduction(q):
    """(a_n, p**n) with a_n = q mod p**n reduced from q's value for each n:
    the loop gamma_generators and the K0 side ran before they read the
    digits."""
    out = []
    pn = 1
    for _ in range(q.precision):
        pn *= q.p
        out.append((q.value % pn, pn))
    return out


@settings(deadline=None)
@given(residue_q(min_v=0, allow_zero=True))
@example(padic_from_integer(-2, 2, 40))
def test_digit_pass_matches_reduction_mod_each_power(q):
    pairs = residues_by_reduction(q)
    assert gamma_generators(q) == [Fraction(a, pn) for a, pn in pairs]
    # the running gcd G_n = gcd(p * G_{n-1}, a_n) is p**v * gcd(c_0..c_{n-1})
    hull, g = [], 0
    for a, _ in pairs:
        g = math.gcd(g * q.p, a)
        hull.append(g)
    pv = q.p ** q.valuation() if q.value else 0
    assert hull == [pv * math.gcd(*q.digits[:n]) for n in range(1, q.precision + 1)]
    for n, (g, (_, pn)) in enumerate(zip(hull, pairs), start=1):
        assert gamma_group(q.truncate(n)).generator == Fraction(g, pn)
