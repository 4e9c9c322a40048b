"""Exact determinants and confluent Vandermonde builders.

Every determinant runs through one kernel, `_bareiss`: integer
fraction-free elimination with row pivoting (Bareiss, Math. Comp. 22,
1968). A row still zero in every column eliminated so far equals its row
as read times the leading minor (Sylvester's identity), so the kernel
leaves it as read; that skips most of a Sylvester matrix's staircase. Its
general entry is `det_z_bordered`: for n integer rows of width w >= n, it
eliminates the first n-1 columns once and returns the w-n+1 determinants
of those columns bordered by each later column. `det_z` is the square case
of one border. `det_q` and `det_p` scale each row to integers by the least
common multiple of its denominators; `det_q` is then `det_z` over the
product of those multipliers. `det_p` admits one column of polynomials: it
moves that column last and spreads it into one column per coefficient, so
the bordered determinants are the coefficients of the determinant. Its
only library caller is the reference ratio of `schur-consistency`;
`sres_det` builds its integer rows itself and calls `det_z_bordered`.
Matrices are plain sequences of rows. Row indices are 1-based to match the
index-set conventions used by the Schur and Sylvester modules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import (IndexOutOfRange, MultiplePolyColumns, NotSquare,
                     NotSquareAfterRemoval, TooManyColumns)
from .poly import Poly
from .rationals import Q0, common_denominator, scaled
from .rootsets import RootMultiset


def _integer_rows(rows: Sequence[Sequence[Fraction]]
                  ) -> Tuple[List[List[int]], int]:
    """(rows, scale): each row times the lcm of its denominators, as
    integers, and the product of those multipliers."""
    a, scale = [], 1
    for row in rows:
        den = common_denominator(row)
        scale *= den
        a.append(scaled(row, den))
    return a, scale


def _bareiss(a: List[List[int]], steps: int) -> Tuple[List[int], int]:
    """(last row, sign) after integer elimination, in place, of the first
    `steps` columns of the steps + 1 integer rows `a`.

    Entry j >= steps of the last row, times sign, is then the determinant
    of columns 0..steps-1 and j of the rows; sign is that of the row
    swaps. Every entry is 0 when those columns have no pivot.

    A row zero in all k columns eliminated so far is left as read: its
    (k+1)-minors are its entries times the leading k-minor `prev`. It skips
    its zero steps, takes its first nonzero one without division, and is
    multiplied by `prev` once when it becomes the pivot row or the result.
    """
    sign, prev = 1, 1
    untouched = [True] * len(a)
    for k in range(steps):
        if a[k][k] == 0:
            for i in range(k + 1, len(a)):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    untouched[k], untouched[i] = untouched[i], untouched[k]
                    sign = -sign
                    break
            else:
                return [0] * len(a[-1]), sign
        if untouched[k]:
            a[k][k:] = [x * prev for x in a[k][k:]]
        pivot = a[k][k]
        tail = a[k][k + 1:]
        for i in range(k + 1, len(a)):
            row = a[i]
            aik = row[k]
            if untouched[i]:
                if aik:
                    row[k + 1:] = [x * pivot - aik * y
                                   for x, y in zip(row[k + 1:], tail)]
                    untouched[i] = False
            elif aik:
                row[k + 1:] = [(x * pivot - aik * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
            else:
                # banded rows: the cross term vanishes, and the
                # division stays exact
                row[k + 1:] = [x * pivot // prev for x in row[k + 1:]]
        prev = pivot
    return ([x * prev for x in a[-1]] if untouched[-1] else a[-1]), sign


def _check_square(rows: Sequence[Sequence]) -> int:
    """The side of a square matrix given as its rows; NotSquare if any
    row's width differs from the row count."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NotSquare(f"{n} rows of widths "
                        f"{sorted({len(row) for row in rows})}")
    return n


def det_z_bordered(rows: Sequence[Sequence[int]]) -> List[int]:
    """Determinants of the first n-1 columns of n >= 1 integer rows of
    common width w >= n, bordered by each of the columns n-1..w-1 in turn:
    w-n+1 values, in column order. The rows are not modified."""
    n = len(rows)
    widths = sorted({len(row) for row in rows})
    if n == 0 or len(widths) > 1 or widths[0] < n:
        raise NotSquare(f"{n} rows of widths {widths}")
    last, sign = _bareiss([list(row) for row in rows], n - 1)
    return [sign * v for v in last[n - 1:]]


def det_z(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix, given as its rows."""
    n = _check_square(rows)
    if n == 0:
        return 1
    last, sign = _bareiss([list(row) for row in rows], n - 1)
    return sign * last[-1]


def det_q(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix of rationals (or integers),
    given as its rows."""
    a, scale = _integer_rows(rows)
    return Fraction(det_z(a), scale)


def det_p(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials, given as its rows, of
    which at most one column is nonconstant."""
    n = _check_square(rows)
    if n == 0:
        return Poly.one()
    poly_cols = [j for j in range(n)
                 if any(not row[j].is_constant() for row in rows)]
    if len(poly_cols) > 1:
        raise MultiplePolyColumns(
            f"nonconstant entries in columns {[j + 1 for j in poly_cols]}")
    col = poly_cols[0] if poly_cols else n - 1
    width = max(1, *(len(row[col].coeffs) for row in rows))
    spread = [[c.constant_value() for j, c in enumerate(row) if j != col]
              + [row[col].coeff(k) for k in range(width)] for row in rows]
    a, scale = _integer_rows(spread)
    # Moving column col last takes n-1-col adjacent swaps.
    if (n - 1 - col) % 2:
        scale = -scale
    return Poly(Fraction(c, scale) for c in det_z_bordered(a))


def vandermonde_confluent(k: int, x: RootMultiset) -> List[List[Fraction]]:
    """Rows of the k x |X| confluent Vandermonde; row 1 carries exponent
    k-1. A point of multiplicity mult has mult columns: the column
    [x^(k-1),..,x,1] and its first mult-1 derivatives, at the point."""
    if k < x.size:
        raise TooManyColumns(f"k={k} rows but {x.size} columns requested")
    return [[math.perm(e, c) * value ** (e - c) if e >= c else Q0
             for value, mult in x.entries for c in range(mult)]
            for e in range(k - 1, -1, -1)]


def vandermonde_confluent_with_x(k: int, x: RootMultiset) -> List[List[Poly]]:
    """Rows of the confluent columns for X plus one symbolic column
    [x^(k-1),..,x,1]."""
    if k < x.size + 1:
        raise TooManyColumns(f"k={k} rows but {x.size + 1} columns requested")
    return [[Poly.constant(c) for c in row] + [Poly.monomial(k - t)]
            for t, row in enumerate(vandermonde_confluent(k, x), start=1)]


def remove_rows(rows: Sequence[Sequence],
                removed: Sequence[int]) -> List[Sequence]:
    """Square submatrix after dropping the 1-based rows in `removed`."""
    drop = set(removed)
    for i in drop:
        if not 1 <= i <= len(rows):
            raise IndexOutOfRange(f"row {i} outside 1..{len(rows)}")
    kept = [row for i, row in enumerate(rows, start=1) if i not in drop]
    cols = len(rows[0]) if rows else 0
    if len(kept) != cols:
        raise NotSquareAfterRemoval(
            f"{len(kept)} rows remain for {cols} columns")
    return kept
