"""Subset and partition enumeration plus the transposition-count signs.

Index sets live in {1,..,r} (1-based, matching the matrix row indexing)
as sorted tuples, and an ordered partition (R1, R2, R3) of {1,..,r} is the
plain triple of its blocks. Enumeration is lexicographic everywhere so runs
are reproducible.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence, Tuple

from .errors import IndexOutOfRange, ShiftOutOfRange

IndexSet = Tuple[int, ...]
Partition3 = Tuple[IndexSet, IndexSet, IndexSet]


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


def sg_blocks(blocks: Sequence[Sequence[int]]) -> int:
    """Sign of the permutation given by concatenating the sorted blocks."""
    seq = [i for block in blocks for i in sorted(block)]
    inversions = sum(1 for i, j in combinations(seq, 2) if i > j)
    return -1 if inversions % 2 else 1


def enum_partitions3(r: int) -> Iterator[Partition3]:
    """All 3^r ordered partitions of {1,..,r}, by sizes then lexicographic."""
    universe = tuple(range(1, max(r, 0) + 1))
    for r1 in range(len(universe) + 1):
        for r2 in range(len(universe) - r1 + 1):
            for b1 in combinations(universe, r1):
                rest = tuple(i for i in universe if i not in b1)
                for b2 in combinations(rest, r2):
                    b3 = tuple(i for i in rest if i not in b2)
                    yield b1, b2, b3


def sigma_sign(m: int, n: int, mbar: int, nbar: int, d: int,
               p: Partition3) -> int:
    """Exact sign of a triple-partition term in the multiset Sylvester sum,
    for the partition p = (R1, R2, R3) of {1,..,m'+n'-d}.

    With r1 = 0 the exponent reduces to
    m'(m-d) + r2(mbar-1) + r3(m'+n'-d-1) + r2*r3.
    """
    mp, np_ = m - mbar, n - nbar
    r1, r2, r3 = map(len, p)
    exp = (mp * (m - d) + r1 * (n - d + r2 + r3)
           + r2 * (mbar - 1) + r3 * (mp + np_ - d - 1) + r2 * r3)
    return (-1 if exp % 2 else 1) * sg_blocks(p)


def check_sign_lemma(r: int, s: int, p: Partition3) -> bool:
    """Verify sg_{r-s}(R1 - s) * sg_r(R2) * sg_r(R3) = (-1)^(r1(r2+r3+s)+r2r3)
    for the partition p = (R1, R2, R3) of {1,..,r}."""
    b1, b2, b3 = p
    shifted = tuple(i - s for i in b1)
    if shifted and shifted[0] < 1:
        raise ShiftOutOfRange(
            f"shifted block {shifted} leaves 1..{r - s}")
    r1, r2, r3 = map(len, p)
    lhs = (sg_set(r - s, shifted) * sg_set(r, b2) * sg_set(r, b3))
    rhs = -1 if (r1 * (r2 + r3 + s) + r2 * r3) % 2 else 1
    return lhs == rhs
