"""Dense univariate polynomials over the rationals.

Coefficients are stored in ascending degree with no trailing zeros; the zero
polynomial is the empty coefficient sequence and its degree is ``None``.
All values are immutable and all operations are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from .errors import DivisionByZeroPoly, NotDivisible, ValidationError
from .rationals import Q0, Q1, common_denominator, qof, scaled


def linear_product(roots: Sequence[int]) -> List[int]:
    """Ascending coefficients of prod (x - r) over the integer roots."""
    out = [1]
    for r in roots:
        out = [0] + out
        for k in range(len(out) - 1):
            out[k] -= r * out[k + 1]
    return out


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [qof(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((Q1,))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((qof(c),))

    @classmethod
    def monomial(cls, k: int) -> "Poly":
        return cls((Q0,) * k + (Q1,))

    @classmethod
    def from_roots(cls, roots: Iterable) -> "Poly":
        """Monic product of (x - a) over the given roots, with repetition.

        The roots are scaled to integers w = D a by their least common
        denominator D. The coefficient of x^k in prod (x - w) is D^(r-k)
        times the one sought, so each coefficient is one Fraction.
        """
        roots = [qof(a) for a in roots]
        den = common_denominator(roots)
        coeffs = linear_product(scaled(roots, den))
        r = len(roots)
        return cls(Fraction(c, den ** (r - k)) for k, c in enumerate(coeffs))

    # -- inspection -----------------------------------------------------------

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k; zero outside the stored range."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Q0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValidationError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else Q0

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [Q0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = qof(c)
        if c == 0:
            return Poly.zero()
        return Poly(tuple(c * a for a in self.coeffs))

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Quotient self / divisor; raises NotDivisible on nonzero remainder."""
        if divisor.is_zero():
            raise DivisionByZeroPoly("division by the zero polynomial")
        if self.is_zero():
            return Poly.zero()
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dd = len(dc) - 1
        lead = dc[-1]
        if len(rem) - 1 < dd:
            raise NotDivisible("degree of dividend below divisor degree")
        quot = [Q0] * (len(rem) - dd)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dd] / lead
            quot[k] = c
            if c != 0:
                for j, d in enumerate(dc):
                    rem[k + j] -= c * d
        if any(c != 0 for c in rem[:dd]):
            raise NotDivisible("exact division left a nonzero remainder")
        return Poly(quot)

    def __call__(self, v) -> Fraction:
        """Horner evaluation."""
        v = qof(v)
        acc = Q0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    # -- comparisons / formatting ----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    term = xs
                elif c == -1:
                    term = f"-{xs}"
                else:
                    term = f"{c!s}*{xs}"
            parts.append(term)
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    # -- JSON wire format --------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Poly":
        coeffs = obj.get("coeffs") if isinstance(obj, dict) else None
        if not isinstance(coeffs, list):
            raise ValidationError('polynomial JSON must be {"coeffs": [...]}')
        # JSON true and false would otherwise read as 1 and 0
        if any(isinstance(c, bool) for c in coeffs):
            raise ValidationError("coefficients must be rational, not boolean")
        return cls(coeffs)
