import math
import sys
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


def digits_past_limit(n: int) -> int:
    """The decimal digit count of n when str(n) would pass the int-to-str
    limit, else 0.  The decision is made from sizes before any conversion:
    a number of at most 3*limit bits is below 8**limit < 10**limit."""
    limit = int_str_limit()
    n = abs(n)
    if not limit or n.bit_length() <= 3 * limit:
        return 0
    x = math.log10(n)
    k = round(x)
    # log10 of an int is off by far less than x * 1e-12, so only a number
    # that close to the power of ten 10**k needs that power to settle it
    digits = k + (n >= 10 ** k) if abs(x - k) <= x * 1e-12 else math.floor(x) + 1
    return digits if digits > limit else 0


def parse_int(literal: str) -> int:
    """int(literal) for a literal of decimal digits; one longer than the
    str-to-int limit is a DomainError naming its length."""
    try:
        return int(literal)
    except ValueError:
        raise DomainError(
            f"an input integer has {len(literal.lstrip('-'))} decimal digits, over "
            f"the str-to-int limit of {int_str_limit()} (sys.get_int_max_str_digits())"
        ) from None


def shown(x) -> str:
    """An int or Fraction as message text; a numerator or denominator too
    long for str() is named by its decimal digit count, as `<D digits>`."""
    x = Fraction(x)
    parts = (x.numerator,) if x.denominator == 1 else (x.numerator, x.denominator)
    return "/".join(
        f"{'-' * (n < 0)}<{d} digits>" if (d := digits_past_limit(n)) else str(n)
        for n in parts
    )
