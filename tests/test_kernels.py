"""Residue-kernel tests: the ring operations against a big-integer oracle,
the digit/integer round trip, and the exhaustive pairing scan: its packed
rows lane by lane, its results against the cell-by-cell loop up to m = 256
and the known perfect result above, and the report of a table that fails,
with one lane corrupted, one row zeroed or one column zeroed, against the
c-step read off the unpacked table."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatedual import kernels
from tatedual.duality import perfectness_check
from tatedual.errors import DomainError
from tatedual.numutil import factorize
from tatedual.padic import PAdicInt, arithmetic, padic_from_integer

PRIMES = (2, 3, 5, 7, 11, 97)


def rand_digits(rng, p, n):
    return tuple(rng.randrange(p) for _ in range(n))


@given(
    m=st.integers(min_value=-(10 ** 12), max_value=10 ** 12),
    p=st.sampled_from(PRIMES),
    n=st.integers(min_value=1, max_value=24),
)
def test_from_int_to_int_roundtrip(m, p, n):
    digits = kernels.from_int(m, p, n)
    assert len(digits) == n
    assert all(0 <= d < p for d in digits)
    assert kernels.to_int(digits, p) == m % p ** n


def test_ops_match_big_integer_oracle():
    rng = random.Random(101)
    for _ in range(300):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 20)
        mod = p ** n
        a = PAdicInt(p, rand_digits(rng, p, n))
        b = PAdicInt(p, rand_digits(rng, p, n))
        va, vb = kernels.to_int(a.digits, p), kernels.to_int(b.digits, p)
        assert (a + b).value == (va + vb) % mod
        assert (-a).value == (-va) % mod
        assert (a * b).value == (va * vb) % mod
        assert (a * b).digits == kernels.from_int(va * vb, p, n)


def test_inverse_of_units():
    rng = random.Random(202)
    for _ in range(150):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 20)
        digits = rand_digits(rng, p, n)
        a = PAdicInt(p, (rng.randrange(1, p),) + digits[1:])  # force a unit
        z = a.inverse()
        assert (a * z).value == 1
        assert a.value * z.value % p ** n == 1


def test_inverse_rejects_non_units():
    with pytest.raises(DomainError, match="non-unit"):
        PAdicInt(2, (0, 1, 1)).inverse()


def test_large_prime_falls_back_transparently():
    # the first prime above 2**31
    p = 2 ** 31
    while factorize(p) != {p: 1}:
        p += 1
    a = padic_from_integer(3 * p + 5, p, 3)
    b = padic_from_integer(p - 1, p, 3)
    mod = p ** 3
    assert (a * b).value == ((3 * p + 5) * (p - 1)) % mod
    assert b.inverse().value == pow(p - 1, -1, mod)
    assert (a * b).digits == kernels.from_int((3 * p + 5) * (p - 1), p, 3)


@st.composite
def residue_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(min_value=1, max_value=24))
    digit = st.integers(min_value=0, max_value=p - 1)
    x = draw(st.lists(digit, min_size=n, max_size=n).map(tuple))
    y = draw(st.lists(digit, min_size=n, max_size=n).map(tuple))
    return p, x, y


@given(residue_pairs())
def test_digits_roundtrip_through_every_result(case):
    p, x, y = case
    a, b = PAdicInt(p, x), PAdicInt(p, y)
    assert a.digits == x and b.digits == y
    results = [a + b, -a, a + (-b), a * b, a.truncate(1)]
    if x[0]:
        results.append(arithmetic("invert", a))
    for r in results:
        assert 0 <= r.value < r.p ** r.precision
        assert PAdicInt(r.p, r.digits) == r


@settings(deadline=None)
@given(p=st.sampled_from((2, 3, 5)), level=st.integers(min_value=0, max_value=3))
def test_bilinear_scan_passes_small_levels(p, level):
    assert kernels.bilinear_scan(p, level) == ((), (), None)


def test_bilinear_scan_passes_listed_levels():
    for p, level in [(2, 5), (3, 3), (5, 2), (7, 1), (2, 0)]:
        assert kernels.bilinear_scan(p, level) == ((), (), None)


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
    assert kernels.bilinear_scan(*case) == scan_oracle(*case)


@settings(deadline=None, max_examples=5)
@given(p=st.sampled_from([n for n in range(11, 2048) if factorize(n) == {n: 1}]))
def test_packed_scan_matches_loop_at_large_primes(p):
    assert kernels.bilinear_scan(p, 1) == scan_oracle(p, 1)


PRIME_POWERS = sorted(
    (p, k) for p in range(2, 2 ** 11 + 1) if factorize(p) == {p: 1}
    for k in range(1, 12) if p ** k <= 2 ** 11
)


@settings(deadline=None, max_examples=20)
@given(case=st.sampled_from(PRIME_POWERS))
def test_scan_finds_prime_powers_up_to_2_to_the_11_perfect(case):
    # 20 of the prime powers up to 2^11
    assert kernels.bilinear_scan(*case) == ((), (), None)


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
        assert kernels._Lanes(m).width == (m - 1).bit_length() + 2
    assert [kernels._Lanes(m).width for m in (2039, 2048, 2049, 8191, 8192)] == [
        13, 13, 14, 15, 15]


@pytest.mark.parametrize("m", LANE_MODULI)
def test_packed_row_is_z_times_c_mod_m_in_every_lane(m):
    lanes = kernels._Lanes(m)
    assert unpack(lanes.counting, lanes) == list(range(m))
    rng = random.Random(m)
    assert_rows_are_z_times_c_mod_m(
        lanes, {z % m for z in (0, 1, m - 1, m // 2)} | {rng.randrange(m) for _ in range(3)})


def test_every_row_is_z_times_c_mod_m_up_to_256():
    for m in range(2, 257):
        assert_rows_are_z_times_c_mod_m(kernels._Lanes(m), range(m))


@settings(deadline=None)
@given(m=st.integers(257, 2 ** 13 + 1), data=st.data())
def test_row_is_z_times_c_mod_m_at_drawn_moduli(m, data):
    # each example walks all m rows; z = m-1 is the last row of the walk,
    # after m-1 z-steps
    z = data.draw(st.integers(0, m - 1))
    assert_rows_are_z_times_c_mod_m(kernels._Lanes(m), {0, 1, m - 1, z})


# the prime powers among LANE_MODULI up to 2^12 + 1 (the guard-sized moduli
# take 0.3-0.4 s each, and test_cli runs dual check on them): at m = 2**j a
# lane sum reaches 2m - 1, just under the guard bit; 2**j + 1 takes a lane one
# bit wider than 2**j
LANE_PRIME_POWERS = [
    (p, k) for m in LANE_MODULI if m <= 2 ** 12 + 1
    for p, k in factorize(m).items() if p ** k == m]


@pytest.mark.parametrize("p, level", LANE_PRIME_POWERS)
def test_scan_is_perfect_next_to_powers_of_two(p, level):
    assert kernels.bilinear_scan(p, level) == ((), (), None)


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
    lanes = kernels._Lanes(m)
    return [unpack(row, lanes) for row in lanes.rows()]


def edit_rows(monkeypatch, edit):
    """Make `_Lanes.rows` yield edit(lanes, z, row) for each row z it walks;
    the walk itself goes on from the unedited row."""
    rows = kernels._Lanes.rows

    def edited(self):
        for z, row in enumerate(rows(self)):
            yield edit(self, z, row)

    monkeypatch.setattr(kernels._Lanes, "rows", edited)


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
    assert kernels.bilinear_scan(p, level) == ((), (), expected)
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
        assert kernels.bilinear_scan(*case) == table


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
    assert kernels.bilinear_scan(p, level) == ((z0,), zero_columns, expected[-1])
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
    assert kernels.bilinear_scan(p, level) == ((), (c0,), expected[-1])
    report = perfectness_check(p, level)
    assert (report.left_nondegenerate, report.right_nondegenerate, report.bilinear) == (
        True, False, False)
    assert report.counterexamples == expected
