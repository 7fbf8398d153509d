"""The finite-level pairing: values, bilinearity, nondegeneracy, and the
double-dual evaluation identity; the scan's nondegeneracy flags against a
search through the public `pair`; and the packed scan itself: its rows lane
by lane, its results against the cell-by-cell loop up to m = 256 and the
known perfect result above, and the report of a table that fails, with one
lane corrupted, one row zeroed or one column zeroed, against the c-step
read off the unpacked table."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CIRCLE_ZERO, bidual_eval, circle_add, prufer_add, rand_prufer
from tatedual import duality
from tatedual.duality import CircleElement, pair, perfectness_check
from tatedual.errors import DomainError, PrecisionError
from tatedual.gamma import PruferElement, prufer_image
from tatedual.numutil import factorize
from tatedual.padic import PAdicInt, padic_from_integer


def F(*args):
    return Fraction(*args)


# --- pairing values --------------------------------------------------------

def test_pair_examples():
    z0 = padic_from_integer(0, 2, 4)
    assert pair(z0, PruferElement(2, 3, 3)) == CIRCLE_ZERO

    one = padic_from_integer(1, 3, 4)
    g = PruferElement(3, 2, 4)
    assert pair(one, g).value == F(4, 9)  # unit acts as plain inclusion

    z = padic_from_integer(5, 2, 3)
    assert pair(z, PruferElement(2, 3, 1)).value == F(5, 8)


def test_pair_depends_only_on_low_digits():
    g = PruferElement(2, 3, 1)
    base = padic_from_integer(5, 2, 3)
    rng = random.Random(3)
    for _ in range(20):
        extended = PAdicInt(2, base.digits + tuple(rng.randrange(2) for _ in range(5)))
        assert pair(extended, g) == pair(base, g)


def test_pair_rejections():
    z = padic_from_integer(1, 2, 2)
    with pytest.raises(DomainError, match="mismatch"):
        pair(z, PruferElement(3, 1, 1))
    with pytest.raises(PrecisionError) as exc:
        pair(z, PruferElement(2, 5, 3))
    assert exc.value.required_precision == 5


def test_bidual_examples():
    z = padic_from_integer(7, 3, 4)
    assert bidual_eval(PruferElement(3, 0, 0), z) == CIRCLE_ZERO

    z = padic_from_integer(2, 3, 3)
    assert bidual_eval(PruferElement(3, 1, 1), z).value == F(2, 3)

    z = padic_from_integer(3, 2, 4)
    assert bidual_eval(PruferElement(2, 2, 3), z).value == F(1, 4)


def test_bidual_matches_pair_on_random_inputs():
    rng = random.Random(5)
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        g = rand_prufer(rng, p, 6)
        z = padic_from_integer(rng.randrange(0, p ** 8), p, rng.randint(max(g.level, 1), 10))
        assert bidual_eval(g, z) == pair(z, g)


# --- bilinearity -----------------------------------------------------------

def test_additive_in_z():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        g = rand_prufer(rng, p, 5)
        n = max(g.level, 1) + rng.randint(0, 3)
        z1 = padic_from_integer(rng.randrange(p ** n), p, n)
        z2 = padic_from_integer(rng.randrange(p ** n), p, n)
        assert pair(z1 + z2, g) == circle_add(pair(z1, g), pair(z2, g))


def test_additive_in_gamma():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        g1 = rand_prufer(rng, p, 5)
        g2 = rand_prufer(rng, p, 5)
        both = prufer_add(g1, g2)
        n = max(g1.level, g2.level, both.level, 1)
        z = padic_from_integer(rng.randrange(p ** n), p, n)
        assert pair(z, both) == circle_add(pair(z, g1), pair(z, g2))


# --- kernel characterization ------------------------------------------------

def test_kernel_is_exactly_multiples_of_p_to_n():
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        mod = p ** n
        torsion = [prufer_image(F(c, mod), p) for c in range(mod)]
        for z_val in range(mod):
            z = padic_from_integer(z_val, p, n)
            vanishes = all(pair(z, g) == CIRCLE_ZERO for g in torsion)
            assert vanishes == (z_val % mod == 0)


# --- perfectness -----------------------------------------------------------

def test_perfectness_small_levels():
    report = perfectness_check(2, 3)
    assert report.perfect
    assert report.modulus == 8
    assert report.counterexamples == ()

    assert perfectness_check(3, 1).perfect


def test_perfectness_level_zero_vacuous():
    report = perfectness_check(7, 0)
    assert report.perfect
    assert report.modulus == 1


def test_perfectness_guard():
    with pytest.raises(DomainError, match="guard"):
        perfectness_check(2, 21)
    with pytest.raises(DomainError):
        perfectness_check(2, -1)


def pair_nondegeneracy(p, level):
    """(left, right) nondegeneracy at level >= 1, searched element by element
    through `pair`: every residue z != 0 and every torsion element g != 0
    needs a partner it pairs with nontrivially."""
    modulus = p ** level
    torsion = [prufer_image(F(c, modulus), p) for c in range(modulus)]
    residues = [padic_from_integer(z, p, level) for z in range(modulus)]
    left = all(any(pair(z, g) != CIRCLE_ZERO for g in torsion) for z in residues[1:])
    right = all(any(pair(z, g) != CIRCLE_ZERO for z in residues) for g in torsion[1:])
    return left, right


def nondegeneracy(report):
    return report.left_nondegenerate, report.right_nondegenerate


@settings(deadline=None, max_examples=10)
@given(case=st.sampled_from(
    [(p, k) for p in (2, 3, 5, 7) for k in range(1, 13) if p ** k <= 4096]))
def test_scan_nondegeneracy_matches_pair_search(case):
    assert nondegeneracy(perfectness_check(*case)) == pair_nondegeneracy(*case)


@settings(deadline=None, max_examples=5)
@given(p=st.sampled_from([n for n in range(11, 2048) if factorize(n) == {n: 1}]))
def test_scan_nondegeneracy_matches_pair_search_at_large_primes(p):
    assert nondegeneracy(perfectness_check(p, 1)) == pair_nondegeneracy(p, 1)


def test_perfect_table_pairs_nothing_and_builds_no_elements(monkeypatch):
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(duality, "pair", counted("pair", duality.pair))
    for cls in (PAdicInt, PruferElement):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    assert perfectness_check(3, 5).perfect
    assert calls == []
    # the counters are live: one pairing by hand trips all three
    duality.pair(padic_from_integer(1, 3, 1), PruferElement(3, 1, 1))
    assert calls == ["PAdicInt", "PruferElement", "pair"]


def test_circle_element_validation_and_addition():
    with pytest.raises(DomainError):
        CircleElement(F(3, 2))
    assert circle_add(CircleElement(F(2, 3)), CircleElement(F(2, 3))).value == F(1, 3)


# --- the packed scan ----------------------------------------------------------

def loop_scan(p, level):
    """The cell-by-cell scan the packed one replaced: the differential oracle."""
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


def unpack(row, lanes):
    lane = (1 << lanes.width) - 1
    return [row >> lanes.width * c & lane for c in range(lanes.m)]


def small_prime_levels(bound):
    return [(p, k) for p in (2, 3, 5, 7) for k in range(1, 13) if p ** k <= bound]


def scan_oracle(p, level):
    """The cell-by-cell loop's result up to m = 256, where it is cheap, and
    the perfect table's above: multiplication mod a prime power is bilinear
    with no zero row or column."""
    if p ** level <= 256:
        return (), (), loop_scan(p, level)
    return (), (), None


@settings(deadline=None, max_examples=10)
@given(case=st.sampled_from(small_prime_levels(4096)))
def test_packed_scan_matches_loop(case):
    assert duality.bilinear_scan(*case) == scan_oracle(*case)


@settings(deadline=None, max_examples=5)
@given(p=st.sampled_from([n for n in range(11, 2048) if factorize(n) == {n: 1}]))
def test_packed_scan_matches_loop_at_large_primes(p):
    assert duality.bilinear_scan(p, 1) == scan_oracle(p, 1)


PRIME_POWERS = sorted(
    (p, k) for p in range(2, 2 ** 11 + 1) if factorize(p) == {p: 1}
    for k in range(1, 12) if p ** k <= 2 ** 11
)


@settings(deadline=None, max_examples=20)
@given(case=st.sampled_from(PRIME_POWERS))
def test_scan_finds_prime_powers_up_to_2_to_the_11_perfect(case):
    # 20 of the prime powers up to 2^11
    assert duality.bilinear_scan(*case) == ((), (), None)


# m just below, at and just above powers of two, and the largest moduli under
# the enumeration guard (2^13, the prime 8191 and 89^2)
LANE_MODULI = sorted({2 ** k + d for k in range(1, 14) for d in (-1, 0, 1)} | {7921})


def assert_rows_are_z_times_c_mod_m(lanes, zs):
    """The walk gives m rows, and each row z in zs equals the int packed from
    the lanes z*c mod m, so it holds nothing past lane m-1 either."""
    m = lanes.m
    lane_bits = [f"{v:0{lanes.width}b}" for v in range(m)]
    count = 0
    for z, row in enumerate(lanes.rows()):
        count += 1
        if z in zs:
            expected = int("".join([lane_bits[z * c % m] for c in reversed(range(m))]), 2)
            assert row == expected, f"row {z} at m = {m}"
    assert count == m


def test_lane_width_is_k_plus_2():
    # a lane holds the sum of two residues, below 2m <= 2**(k+1), under its guard bit
    for m in LANE_MODULI:
        assert duality._Lanes(m).width == (m - 1).bit_length() + 2
    assert [duality._Lanes(m).width for m in (2039, 2048, 2049, 8191, 8192)] == [
        13, 13, 14, 15, 15]


@pytest.mark.parametrize("m", LANE_MODULI)
def test_packed_row_is_z_times_c_mod_m_in_every_lane(m):
    lanes = duality._Lanes(m)
    assert unpack(lanes.counting, lanes) == list(range(m))
    rng = random.Random(m)
    assert_rows_are_z_times_c_mod_m(
        lanes, {z % m for z in (0, 1, m - 1, m // 2)} | {rng.randrange(m) for _ in range(3)})


def test_every_row_is_z_times_c_mod_m_up_to_256():
    for m in range(2, 257):
        assert_rows_are_z_times_c_mod_m(duality._Lanes(m), range(m))


@settings(deadline=None)
@given(m=st.integers(257, 2 ** 13 + 1), data=st.data())
def test_row_is_z_times_c_mod_m_at_drawn_moduli(m, data):
    # each example walks all m rows; z = m-1 is the last row of the walk,
    # after m-1 z-steps
    z = data.draw(st.integers(0, m - 1))
    assert_rows_are_z_times_c_mod_m(duality._Lanes(m), {0, 1, m - 1, z})


# levels 0-3 at p = 2, 3 and 5, a few more small moduli, and the prime powers
# among LANE_MODULI up to 2^12 + 1 (the guard-sized moduli take 0.3-0.4 s
# each, and test_cli runs dual check on them): at m = 2**j a lane sum reaches
# 2m - 1, just under the guard bit; 2**j + 1 takes a lane one bit wider than 2**j
PERFECT_CASES = sorted(
    {(p, level) for p in (2, 3, 5) for level in range(4)}
    | {(2, 5), (3, 3), (5, 2), (7, 1), (2, 0)}
    | {(p, k) for m in LANE_MODULI if m <= 2 ** 12 + 1
       for p, k in factorize(m).items() if p ** k == m})


@pytest.mark.parametrize("p, level", PERFECT_CASES)
def test_scan_is_perfect(p, level):
    assert duality.bilinear_scan(p, level) == ((), (), None)


def table_scan(table, m):
    """The scan's (zero rows, zero columns, first failing triple), reading
    row z's lane c from table[z][c]."""
    zero_rows = tuple(z for z in range(1, m) if not any(table[z]))
    zero_columns = tuple(c for c in range(1, m) if not any(row[c] for row in table))
    return zero_rows, zero_columns, first_failure(table, m)


def first_failure(table, m):
    """The first cell, in z-major then c order, whose c-step fails: lane
    c+1 of row z (0 past the top lane) is not lane c + z mod m."""
    for z in range(m):
        for c in range(m):
            shifted = table[z][c + 1] if c + 1 < m else 0
            if shifted != (table[z][c] + z) % m:
                return ("gamma-additivity", z, c)
    return None


def reduced_rows(m):
    """Every row as `_Lanes.rows` yields it, unpacked."""
    lanes = duality._Lanes(m)
    return [unpack(row, lanes) for row in lanes.rows()]


def edit_rows(monkeypatch, edit):
    """Make `_Lanes.rows` yield edit(lanes, z, row) for each row z it walks;
    the walk itself goes on from the unedited row."""
    rows = duality._Lanes.rows

    def edited(self):
        for z, row in enumerate(rows(self)):
            yield edit(self, z, row)

    monkeypatch.setattr(duality._Lanes, "rows", edited)


def corrupt_lane(monkeypatch, m, z0, c0):
    """Make `_Lanes.rows` yield row z0 with lane c0 moved up by one mod m."""

    def corrupted(lanes, z, row):
        if z == z0:
            old = row >> lanes.width * c0 & (1 << lanes.width) - 1
            row += ((old + 1) % m - old) << lanes.width * c0
        return row

    edit_rows(monkeypatch, corrupted)


# a lane c0 > 0 moved up fails the c-step from lane c0 - 1 first; lane 0 its own
@pytest.mark.parametrize(
    "p, level, z0, c0, expected",
    [
        (3, 4, 40, 17, ("gamma-additivity", 40, 16)),
        (2, 6, 63, 0, ("gamma-additivity", 63, 0)),
        (7, 2, 0, 5, ("gamma-additivity", 0, 4)),
        (5, 2, 1, 3, ("gamma-additivity", 1, 2)),
        (2, 3, 2, 7, ("gamma-additivity", 2, 6)),  # the top lane
    ],
)
def test_mismatch_returns_the_first_failing_c_step(monkeypatch, p, level, z0, c0, expected):
    m = p ** level
    corrupt_lane(monkeypatch, m, z0, c0)
    assert table_scan(reduced_rows(m), m) == ((), (), expected)
    assert duality.bilinear_scan(p, level) == ((), (), expected)
    report = perfectness_check(p, level)
    assert (report.left_nondegenerate, report.right_nondegenerate, report.bilinear) == (
        True, True, False)
    assert report.counterexamples == (expected,)


@settings(deadline=None, max_examples=30)
@given(case=st.sampled_from(small_prime_levels(243)), data=st.data())
def test_any_corrupted_lane_gives_the_table_loops_triple(case, data):
    m = case[0] ** case[1]
    z0, c0 = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    with pytest.MonkeyPatch.context() as monkeypatch:
        corrupt_lane(monkeypatch, m, z0, c0)
        table = table_scan(reduced_rows(m), m)
        assert table[2] is not None
        assert duality.bilinear_scan(*case) == table


# a zeroed row z fails its c-step at lane 0: lane 1 holds 0, not 0 + z
@pytest.mark.parametrize(
    "p, level, z0, right, expected",
    [
        (3, 2, 4, True, (("left", 4), ("gamma-additivity", 4, 0))),
        (2, 4, 15, True, (("left", 15), ("gamma-additivity", 15, 0))),
        (7, 1, 1, True, (("left", 1), ("gamma-additivity", 1, 0))),
        # at m = 2 the zeroed row holds the only nonzero lane, so column 1 goes too
        (2, 1, 1, False, (("left", 1), ("right", "1/2^1"), ("gamma-additivity", 1, 0))),
    ],
)
def test_zero_row_is_a_left_counterexample(monkeypatch, p, level, z0, right, expected):
    m = p ** level
    edit_rows(monkeypatch, lambda lanes, z, row: 0 if z == z0 else row)
    zero_columns = () if right else (1,)
    assert table_scan(reduced_rows(m), m) == ((z0,), zero_columns, expected[-1])
    assert duality.bilinear_scan(p, level) == ((z0,), zero_columns, expected[-1])
    report = perfectness_check(p, level)
    assert (report.left_nondegenerate, report.right_nondegenerate, report.bilinear) == (
        False, right, False)
    assert report.counterexamples == expected


@pytest.mark.parametrize(
    "p, level, c0, expected",
    [
        (2, 4, 4, (("right", "1/2^2"), ("gamma-additivity", 1, 3))),
        (3, 3, 1, (("right", "1/3^3"), ("gamma-additivity", 1, 0))),
        (5, 2, 24, (("right", "24/5^2"), ("gamma-additivity", 1, 23))),
    ],
)
def test_zero_column_is_a_right_counterexample(monkeypatch, p, level, c0, expected):
    m = p ** level

    def zero_lane(lanes, z, row):
        return row & ~((1 << lanes.width) - 1 << lanes.width * c0)

    edit_rows(monkeypatch, zero_lane)
    assert table_scan(reduced_rows(m), m) == ((), (c0,), expected[-1])
    assert duality.bilinear_scan(p, level) == ((), (c0,), expected[-1])
    report = perfectness_check(p, level)
    assert (report.left_nondegenerate, report.right_nondegenerate, report.bilinear) == (
        True, False, False)
    assert report.counterexamples == expected
