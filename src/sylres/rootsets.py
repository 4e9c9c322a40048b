"""Canonical multisets of rational roots and the pairwise-difference product.

A root multiset keeps (value, multiplicity) pairs sorted by value, so
enumeration order, signs and traces are deterministic. The product
R(X, Y) = prod (x - y) over all pairs (with multiplicity) returns 1 when
either side is empty.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import ValidationError
from .rationals import Q1, qof


class RootMultiset:
    __slots__ = ("entries",)

    def __init__(self, pairs: Iterable[Tuple] = ()):
        merged: dict[Fraction, int] = {}
        for value, mult in pairs:
            v = qof(value)
            m = int(mult)
            if m < 1:
                raise ValidationError(
                    f"multiplicity must be >= 1, got {m} for root {v}")
            merged[v] = merged.get(v, 0) + m
        object.__setattr__(
            self, "entries", tuple(sorted(merged.items())))

    def __setattr__(self, name, value):
        raise AttributeError("RootMultiset is immutable")

    @classmethod
    def from_values(cls, values: Iterable) -> "RootMultiset":
        return cls((v, 1) for v in values)

    @classmethod
    def empty(cls) -> "RootMultiset":
        return cls(())

    # -- cardinalities ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Total length m, counting multiplicities."""
        return sum(m for _, m in self.entries)

    @property
    def distinct_count(self) -> int:
        return len(self.entries)

    @property
    def excess_count(self) -> int:
        """m' = m - (number of distinct values)."""
        return self.size - self.distinct_count

    def is_set(self) -> bool:
        return all(m == 1 for _, m in self.entries)

    def values(self) -> Tuple[Fraction, ...]:
        """All values expanded with multiplicity, ascending."""
        out = []
        for v, m in self.entries:
            out.extend([v] * m)
        return tuple(out)

    def distinct_values(self) -> Tuple[Fraction, ...]:
        return tuple(v for v, _ in self.entries)

    # -- structure -------------------------------------------------------------

    def split(self) -> Tuple["RootMultiset", "RootMultiset"]:
        """(distinct part with all multiplicities 1, excess part)."""
        distinct = RootMultiset((v, 1) for v, _ in self.entries)
        excess = RootMultiset((v, m - 1) for v, m in self.entries if m > 1)
        return distinct, excess

    def difference(self, other: "RootMultiset") -> "RootMultiset":
        """Multiset difference; raises if other is not contained in self."""
        counts = dict(self.entries)
        for v, m in other.entries:
            have = counts.get(v, 0)
            if have < m:
                raise ValidationError(
                    f"cannot remove {m} copies of {v} (have {have})")
            if have == m:
                del counts[v]
            else:
                counts[v] = have - m
        return RootMultiset(counts.items())

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RootMultiset) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = ",".join(f"{v!s}:{m}" for v, m in self.entries)
        return f"RootMultiset({inner})"

    # -- wire formats -------------------------------------------------------------

    def to_json(self) -> dict:
        return {"roots": [{"value": str(v), "mult": m}
                          for v, m in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "RootMultiset":
        if (not isinstance(obj, dict)
                or not isinstance(obj.get("roots"), list)):
            raise ValidationError('multiset JSON must be {"roots": [...]}')
        pairs = []
        for item in obj["roots"]:
            if not isinstance(item, dict) or "value" not in item:
                raise ValidationError("each root needs a value")
            if isinstance(item["value"], bool):
                raise ValidationError(
                    "root values must be rational, not boolean")
            mult = item.get("mult", 1)
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise ValidationError(
                    f"multiplicity must be an integer, got {mult!r}")
            pairs.append((item["value"], mult))
        return cls(pairs)

    def to_shorthand(self) -> str:
        return ",".join(f"{v!s}:{m}" for v, m in self.entries)


def rprod(x: RootMultiset, y: RootMultiset) -> Fraction:
    """prod (a - b) over all pairs with multiplicity; 1 on empty arguments."""
    out = Q1
    for a, ma in x.entries:
        for b, mb in y.entries:
            d = a - b
            if d == 0:
                return Fraction(0)
            out *= d ** (ma * mb)
    return out


def rprod_vals(xs: Sequence, y: RootMultiset) -> Fraction:
    """R(X, Y) where X is a plain tuple of values (repetition allowed).

    No library code calls it since the split sums moved onto integer
    difference tables; the tests' reference sums do, and the benchmark's
    tracer wraps it by name.
    """
    out = Q1
    for a in xs:
        a = qof(a)
        for b, mb in y.entries:
            out *= (a - b) ** mb
    return out
