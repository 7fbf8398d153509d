"""The int-to-str size test behind every message and output that names a
number by its digit count."""

import json
import math
import re
import sys
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest

from tatedual.cli import run
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


# continued-fraction denominators of log10(2): e*log10(2) lies about 7e-22
# below and 2e-22 above an integer, closer than the first pass of decimal
# logs (43 and 44 digits) can tell apart, so the precision must double
@pytest.mark.parametrize("e", [400414859935128459295, 1420054136973777352353])
def test_power_of_two_next_to_a_power_of_ten_refines_its_decimal_log(capsys, e):
    with localcontext(Context(prec=120)):
        x = e * Decimal(2).log10()
        first_pass = 20 + (2 * e).bit_length() // 3
        assert abs(x - round(x)) <= x * Decimal(10) ** (2 - first_pass)
        count = math.floor(x) + 1
    assert digits_past_limit([(2, e)]) == count
    code = run(["uhf", "stable-iso", "--n", f"2^{e}", "--n2", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["diagnostics"] == [
        f"an output integer has {count} decimal digits, over the int-to-str limit "
        f"of {int_str_limit()} (sys.get_int_max_str_digits())"
    ]


def test_only_errors_reads_the_int_str_limit():
    # errors owns the limit; every other module asks it
    package = Path(__file__).resolve().parents[1] / "src" / "tatedual"
    readers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "errors.py"
               and re.search(r"int_str_limit|get_int_max_str_digits", path.read_text())]
    assert readers == []
