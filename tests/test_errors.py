"""The int-to-str size test behind every message and output that names a
number by its digit count."""

import sys

import pytest

from tatedual.errors import digits_past_limit, int_str_limit

def digit_count(n):
    """len(str(n)) with the int-to-str limit lifted for the conversion."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return len(str(abs(n)))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("k", [4299, 4300, 4301, 5000, 54321])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_digits_next_to_a_power_of_ten(k, offset):
    n = 10 ** k + offset
    count = digit_count(n)
    assert digits_past_limit(n) == (count if count > int_str_limit() else 0)
    assert digits_past_limit(-n) == digits_past_limit(n)


def test_digits_far_from_a_power_of_ten():
    for n in (2 ** 20000, 3 ** 9999 * 7, 2 ** 14284 - 1, 2 ** 14290):
        count = digit_count(n)
        assert digits_past_limit(n) == (count if count > int_str_limit() else 0)
