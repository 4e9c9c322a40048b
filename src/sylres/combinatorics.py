"""Subset and partition enumeration plus the transposition-count signs.

Index sets live in {1,..,r} (1-based, matching the matrix row indexing).
Enumeration is lexicographic everywhere so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence, Tuple

from .errors import IndexOutOfRange, InvalidPartition, ShiftOutOfRange

IndexSet = Tuple[int, ...]


def enum_splits(universe: Sequence[int],
                k: int) -> Iterator[Tuple[IndexSet, IndexSet]]:
    """(S, universe - S) for every size-k subset S of the sorted universe.

    The subsets come in lexicographic order, and both blocks are sorted.
    Taking complements reverses the lexicographic order of equal-size
    subsets, so the complements are the size-(|universe| - k) subsets in
    reverse order.
    """
    universe = tuple(universe)
    if k > len(universe):
        return iter(())
    return zip(combinations(universe, k),
               reversed(list(combinations(universe, len(universe) - k))))


def sg_set(r: int, subset: Sequence[int]) -> int:
    """Sign of moving the subset to the front of {1,..,r}, order preserved.

    Closed form: parity of sum(i_l - l) over the sorted subset elements.
    """
    s = tuple(sorted(subset))
    if s and (s[0] < 1 or s[-1] > r):
        raise IndexOutOfRange(f"subset {s} not contained in 1..{r}")
    total = sum(i - pos for pos, i in enumerate(s, start=1))
    return -1 if total % 2 else 1


def _inversion_sign(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def sg_blocks(blocks: Sequence[Sequence[int]]) -> int:
    """Sign of the permutation given by concatenating the sorted blocks."""
    seq = [i for block in blocks for i in sorted(block)]
    return _inversion_sign(seq)


@dataclass(frozen=True)
class IndexPartition:
    """Ordered partition (R1, R2, R3) of {1,..,r}, each block sorted."""

    r: int
    blocks: Tuple[IndexSet, IndexSet, IndexSet]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            for a, b in zip(block, block[1:]):
                if a >= b:
                    raise InvalidPartition("block not sorted ascending")
            for i in block:
                if not 1 <= i <= self.r:
                    raise InvalidPartition(f"index {i} outside 1..{self.r}")
                if i in seen:
                    raise InvalidPartition(f"index {i} repeated across blocks")
                seen.add(i)
        if len(seen) != self.r:
            raise InvalidPartition("blocks do not cover {1,..,r}")

    @property
    def sizes(self) -> Tuple[int, int, int]:
        return tuple(len(b) for b in self.blocks)  # type: ignore[return-value]


def sg_partition(p: IndexPartition) -> int:
    return sg_blocks(p.blocks)


def enum_partitions3(r: int) -> Iterator[IndexPartition]:
    """All 3^r ordered partitions of {1,..,r}, by sizes then lexicographic."""
    universe = tuple(range(1, max(r, 0) + 1))
    for r1 in range(len(universe) + 1):
        for r2 in range(len(universe) - r1 + 1):
            for b1 in combinations(universe, r1):
                rest = tuple(i for i in universe if i not in b1)
                for b2 in combinations(rest, r2):
                    b3 = tuple(i for i in rest if i not in b2)
                    yield IndexPartition(r, (b1, b2, b3))


def sigma_sign(m: int, n: int, mbar: int, nbar: int, d: int,
               p: IndexPartition) -> int:
    """Exact sign of a triple-partition term in the multiset Sylvester sum.

    With r1 = 0 the exponent reduces to
    m'(m-d) + r2(mbar-1) + r3(m'+n'-d-1) + r2*r3.
    """
    mp, np_ = m - mbar, n - nbar
    r = mp + np_ - d
    if p.r != max(r, 0):
        raise InvalidPartition(
            f"partition is over 1..{p.r}, expected 1..{max(r, 0)}")
    r1, r2, r3 = p.sizes
    exp = (mp * (m - d) + r1 * (n - d + r2 + r3)
           + r2 * (mbar - 1) + r3 * (mp + np_ - d - 1) + r2 * r3)
    return (-1 if exp % 2 else 1) * sg_partition(p)


def check_sign_lemma(r: int, s: int, p: IndexPartition) -> bool:
    """Verify sg_{r-s}(R1 - s) * sg_r(R2) * sg_r(R3) = (-1)^(r1(r2+r3+s)+r2r3)."""
    if p.r != r:
        raise InvalidPartition(f"partition is over 1..{p.r}, expected 1..{r}")
    b1, b2, b3 = p.blocks
    shifted = tuple(i - s for i in b1)
    if shifted and shifted[0] < 1:
        raise ShiftOutOfRange(
            f"shifted block {shifted} leaves 1..{r - s}")
    r1, r2, r3 = p.sizes
    lhs = (sg_set(r - s, shifted) * sg_set(r, b2) * sg_set(r, b3))
    rhs = -1 if (r1 * (r2 + r3 + s) + r2 * r3) % 2 else 1
    return lhs == rhs
