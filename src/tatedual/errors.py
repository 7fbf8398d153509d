import math
import re
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction


class DomainError(ValueError):
    """An operation was called outside its domain (bad input or violated precondition)."""


class PrecisionError(DomainError):
    """The stored precision is too small for the requested computation.

    `required_precision`, when known, is an upper bound on the precision
    that would make the call succeed.
    """

    def __init__(self, message, required_precision=None):
        super().__init__(message)
        self.required_precision = required_precision


def int_str_limit() -> int:
    """The most decimal digits str() gives an int (Python 3.10.7 on), 0 for no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


def digits_past_limit(n: int | list[tuple[int, int]]) -> int:
    """The decimal digit count of n when str(n) would pass the int-to-str
    limit, else 0, decided from sizes: at most 3*limit bits is below
    8**limit < 10**limit.  n may be a list of prime powers (p, e) instead,
    built only below 4*limit bits; past that, decimal logs are refined until
    the floor is certain (their product is 10**k only as 2**k * 5**k)."""
    limit = int_str_limit()
    if isinstance(n, int):
        n = abs(n)
        if not limit or n.bit_length() <= 3 * limit:
            return 0
        x = math.log10(n)
        k = round(x)
        # log10 of an int is off by far less than x * 1e-12, so only a number
        # that close to the power of ten 10**k needs that power to settle it
        digits = k + (n >= 10 ** k) if abs(x - k) <= x * 1e-12 else math.floor(x) + 1
    elif not limit or (bits := sum(e * p.bit_length() for p, e in n)) < 4 * limit:
        return limit and digits_past_limit(math.prod(p ** e for p, e in n))  # no limit: 0
    else:
        prec = 20 + bits.bit_length() // 3  # more than the log's integer digits
        while True:
            with localcontext(Context(prec=prec)):
                x = sum(e * Decimal(p).log10() for p, e in n)
                k = round(x)
                near = abs(x - k) <= x * len(n) * Decimal(10) ** (2 - prec)
            if not near or dict(n) == {2: k, 5: k}:
                break
            prec *= 2
        digits = k + (near or x > k)
    return digits if digits > limit else 0


def check_literals(texts) -> None:
    """Refuse a run of more decimal digits than the str-to-int limit in any
    of texts; a text no longer than the limit costs one len()."""
    limit = int_str_limit()
    for text in texts:
        if limit and len(text) > limit:
            digits = max(map(len, re.findall(r"\d+", text)), default=0)
            if digits > limit:
                raise DomainError(
                    f"an input integer has {digits} decimal digits, over "
                    f"the str-to-int limit of {limit} (sys.get_int_max_str_digits())"
                )


def printable(*numbers) -> None:
    """Refuse output integers (or lists of prime powers) past the int-to-str limit."""
    for n in numbers:
        if digits := digits_past_limit(n):
            raise DomainError(
                f"an output integer has {shown(digits)} decimal digits, over "
                f"the int-to-str limit of {int_str_limit()} (sys.get_int_max_str_digits())"
            )


def shown_power(p: int, e: int) -> str:
    """`p^e`, with ` = ` and its value when str() shows it; a power past
    4*limit bits, and with no limit any power, is never built."""
    small = e * (p.bit_length() - 1) < 4 * int_str_limit()
    return f"{p}^{e}" + (f" = {p ** e}" if small and not digits_past_limit(p ** e) else "")


def shown(x) -> str:
    """An int or Fraction as message text; a numerator or denominator too
    long for str() is named by its decimal digit count, as `<D digits>`."""
    x = Fraction(x)
    parts = (x.numerator,) if x.denominator == 1 else (x.numerator, x.denominator)
    return "/".join(
        f"{'-' * (n < 0)}<{d} digits>" if (d := digits_past_limit(n)) else str(n)
        for n in parts
    )
