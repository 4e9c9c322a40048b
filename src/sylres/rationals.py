"""Exact rational scalars.

The ground field is the rationals, represented by ``fractions.Fraction``
(arbitrary precision, always in lowest terms with positive denominator).
Everything downstream goes through this module so a different exact field
could be substituted in one place.
"""

from __future__ import annotations

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


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p". Rejects zero denominators with a clear message."""
    s = text.strip()
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in rational {text!r}")
    except ValueError:
        raise ValidationError(f"malformed rational {text!r}")


def common_denominator(*groups: Iterable[Fraction]) -> int:
    """Least common denominator of every value in the groups."""
    return lcm(*(v.denominator for group in groups for v in group))


def scaled(values: Sequence[Fraction], den: int) -> List[int]:
    """The values times a common multiple den of their denominators, as
    integers."""
    return [v.numerator * (den // v.denominator) for v in values]
