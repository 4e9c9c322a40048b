"""Exact rational scalars.

The ground field is the rationals, represented by ``fractions.Fraction``
(arbitrary precision, always in lowest terms with positive denominator).
Polynomials, multisets and parsed input coerce their values here. The
integer kernels of `linalg`, `schur` and `sylvester` do not: they scale
values to integers by a common denominator and build Fractions themselves,
so the field is the rationals throughout.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Sequence

from .errors import ValidationError

Q0 = Fraction(0)
Q1 = Fraction(1)


def qof(value) -> Fraction:
    """Coerce an int, string or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValidationError(f"not a rational value: {value!r}")


# The interpreter's int-to-str digit limit; 0 (none) before Python 3.10.7.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal such as "-1.5e3".

    Rejects zero denominators, and literals whose numerator or denominator
    would have more digits than `sys.get_int_max_str_digits()` before
    reduction, with a clear message. The digits are counted on the text,
    exponent included, before the value is built.
    """
    s = text.strip()
    limit = _max_str_digits()
    try:
        # without an exponent a literal has no more digits than characters
        if limit and ("e" in s or "E" in s or len(s) > limit):
            mantissa, _, exp = s.replace("E", "e").partition("e")
            num, _, den = mantissa.partition("/")
            whole, _, frac = num.lstrip("+-").partition(".")
            e = int(exp or 0)
            if max(len(whole) + max(len(frac), e), len(den),
                   1 + len(frac) - e) > limit:
                raise ValidationError(
                    f"rational {s[:40]!r} has more than {limit} digits")
        return Fraction(s)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in rational {text[:40]!r}")
    except ValueError:
        raise ValidationError(f"malformed rational {text[:40]!r}")


def common_denominator(*groups: Iterable[Fraction]) -> int:
    """Least common denominator of every value in the groups."""
    return lcm(*(v.denominator for group in groups for v in group))


def scaled(values: Sequence[Fraction], den: int) -> List[int]:
    """The values times a common multiple den of their denominators, as
    integers."""
    return [v.numerator * (den // v.denominator) for v in values]
