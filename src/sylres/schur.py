"""Classical and confluent Schur polynomials, evaluated exactly.

S_k^(R)(X) = det(V_k(X) with rows R removed) / det(V(X)), where V is the
(confluent) Vandermonde matrix of the point multiset X and row i of V_k
carries exponent k-i. The ratio is the Schur function s_lambda at the points
of X, repeated by multiplicity: with eps_1 > ... > eps_r the kept exponents,
lambda_j = eps_j - (r-j), so lambda_1 <= |R|.

Values come from the dual Jacobi-Trudi identity s_lambda = det(e_{lambda'_i
- i + j}) on the elementary symmetric values e_j(X), a determinant of side
lambda_1 (Macdonald, Symmetric Functions and Hall Polynomials, I.3). The
kernel is integer. The points are scaled by their common denominator D, the
e_j of the scaled points come from one integer product of linear factors,
stopped at the largest e_j the determinant reads, and the determinant runs
on `linalg.det_z`. s_lambda is homogeneous of degree |lambda|, so the value
is that integer over D^|lambda|. With one symbolic extra point x the
branching rule gives the polynomial: s_lambda(X + x) = sum of s_mu(X)
x^{|lambda/mu|} over the mu for which lambda/mu is a horizontal strip, one
integer sum over D^|mu| per coefficient.

`schur_value` and `schur_poly_x` are cached entries to this kernel for one
`SchurSpec`, and make its integers Fractions; for an empty lambda they
return 1 without building any e_j. `sylm` calls the integer functions
themselves (`elementary`, `removal_partition`, `jacobi_trudi`,
`strip_sums`) once per factor at the loop level that fixes its removed rows,
and keeps each factor an integer over its power of D. `evaluation_size`
gives the size of a spec's evaluation before any of it runs, for the
command line's caps.

The determinant ratio itself is `schur_vandermonde_ratio`, the reference of
`schur_consistency_check`. With the symbolic point it is an exact polynomial
division, which must leave no remainder.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import List, Optional, Sequence, Tuple, Union

from .errors import EmptyPoints, InconsistentRemovalCount
from .linalg import (det_p, det_q, det_z, remove_rows,
                     vandermonde_confluent, vandermonde_confluent_with_x)
from .poly import Poly
from .rationals import Q1, common_denominator, scaled
from .records import Frozen
from .rootsets import RootMultiset

# Entries kept by each of the two caches below. Unbounded, they would grow
# with every distinct spec a process sees.
SCHUR_CACHE_SIZE = 1024


class SchurSpec(Frozen):
    """The Schur ratio with rows `removed` (indices in 1..k, stored sorted)
    removed from V_k of `points`, and one symbolic point when `with_x`.
    Immutable and hashable: the key of the caches below."""

    __slots__ = ("k", "removed", "points", "with_x")

    def __init__(self, k: int, removed: Sequence[int], points: RootMultiset,
                 with_x: bool = False):
        removed = tuple(sorted(removed))
        expected = k - (points.size + (1 if with_x else 0))
        if len(removed) != expected or len(set(removed)) != len(removed):
            raise InconsistentRemovalCount(
                f"need {expected} removed rows for k={k}, got {removed}")
        if removed and not (1 <= removed[0] and removed[-1] <= k):
            raise InconsistentRemovalCount(
                f"removed rows {removed} outside 1..{k}")
        super().__init__(k, removed, points, with_x)


def removal_partition(k: int, removed: Sequence[int],
                      rows: int) -> Tuple[int, ...]:
    """lambda_j = eps_j - (rows - j) over the kept exponents eps_j."""
    drop = set(removed)
    kept = [k - i for i in range(1, k + 1) if i not in drop]
    return tuple(e - (rows - j) for j, e in enumerate(kept, start=1))


def elementary(w: Sequence[int], top: Optional[int] = None) -> List[int]:
    """(e_0, ..., e_top) of the integer points w, the coefficients of
    prod (1 + w t) up to t^top; all r + 1 of them without `top`, and none
    past e_r, which are 0."""
    top = len(w) if top is None else top
    e = [1]
    for x in w:
        if len(e) <= top:
            e.append(0)
        for j in range(len(e) - 1, 0, -1):
            e[j] += x * e[j - 1]
    return e


def _top(lam: Sequence[int]) -> int:
    """The largest j whose e_j the Jacobi-Trudi matrix of lambda, or of a
    mu inside it, reads: l(lambda) + lambda_1 - 1."""
    return sum(1 for p in lam if p) + lam[0] - 1


def jacobi_trudi(lam: Sequence[int], e: Sequence[int]) -> int:
    """det(e_{lambda'_i - i + j}), of side lambda_1, on integer e_j."""
    side = lam[0] if lam else 0
    r = len(e)
    rows = []
    for i in range(side):
        t = sum(1 for p in lam if p > i) - i
        rows.append([e[t + j] if 0 <= t + j < r else 0
                     for j in range(side)])
    return det_z(rows)


def strip_sums(lam: Sequence[int], e: Sequence[int]) -> List[int]:
    """The integers S_t, t = 0..|lambda|, with s_lambda(X + x) = sum of
    S_t x^t / den^(|lambda| - t), given the e_j of the scaled points
    w = den X.

    S_t sums the Jacobi-Trudi integers of the mu of size |lambda| - t that
    make lambda/mu a horizontal strip.
    """
    size = sum(lam)
    sums = [0] * (size + 1)
    strips = [range(lam[j + 1], lam[j] + 1) for j in range(len(lam) - 1)]
    for mu in product(*strips):
        sums[size - sum(mu)] += jacobi_trudi(mu, e)
    return sums


def _scaled_points(points: RootMultiset) -> Tuple[List[int], int]:
    """The points with multiplicity times their common denominator D,
    as integers, and D."""
    den = common_denominator(points.distinct_values())
    return scaled(points.values(), den), den


def evaluation_size(spec: SchurSpec) -> Tuple[int, int, int]:
    """(dets, side, bits) of the kernel's evaluation of `spec`, from its
    sizes alone.

    dets is the number of Jacobi-Trudi determinants, one per horizontal
    strip with the symbolic point and one without; side is lambda_1, the
    side of the largest. bits is max(|lambda|, r) times the bit length of
    the sum S of |w| over the r scaled points w (at least 1): e_j(w) is at
    most S^j, and s_lambda(w) at most S^|lambda|.
    """
    points = spec.points
    lam = removal_partition(spec.k, spec.removed,
                            points.size + (1 if spec.with_x else 0))
    dets = 1
    if spec.with_x:
        for j in range(len(lam) - 1):
            dets *= lam[j] - lam[j + 1] + 1
    w, _ = _scaled_points(points)
    bits = max(sum(lam), points.size) * max(sum(map(abs, w)), 1).bit_length()
    return dets, lam[0] if lam else 0, bits


@lru_cache(maxsize=SCHUR_CACHE_SIZE)
def schur_value(spec: SchurSpec) -> Fraction:
    """Confluent Schur value det(V_k^(R)(X)) / det(V(X))."""
    if spec.with_x:
        raise ValueError("use schur_poly_x for the symbolic variant")
    r = spec.points.size
    if r == 0:
        if spec.k == 0:
            return Q1  # empty-determinant convention
        raise EmptyPoints("no points: denominator Vandermonde is undefined")
    lam = removal_partition(spec.k, spec.removed, r)
    if not any(lam):
        return Q1
    w, den = _scaled_points(spec.points)
    return Fraction(jacobi_trudi(lam, elementary(w, _top(lam))),
                    den ** sum(lam))


@lru_cache(maxsize=SCHUR_CACHE_SIZE)
def schur_poly_x(spec: SchurSpec) -> Poly:
    """S_k^(R)(X with one symbolic point), as an exact polynomial."""
    if not spec.with_x:
        raise ValueError("spec.with_x must be set")
    lam = removal_partition(spec.k, spec.removed, spec.points.size + 1)
    if not any(lam):
        return Poly.one()
    w, den = _scaled_points(spec.points)
    size = sum(lam)
    return Poly(Fraction(s, den ** (size - t)) for t, s in
                enumerate(strip_sums(lam, elementary(w, _top(lam)))))


def schur_vandermonde_ratio(spec: SchurSpec) -> Union[Fraction, Poly]:
    """det(V_k^(R)(X)) / det(V(X)) from the two confluent determinants.

    With spec.with_x the determinants are polynomials and the quotient is
    an exact division that raises NotDivisible on a nonzero remainder.
    Uncached and slower than schur_value; the consistency check's reference.
    """
    r = spec.points.size
    if spec.with_x:
        num = det_p(remove_rows(
            vandermonde_confluent_with_x(spec.k, spec.points), spec.removed))
        den = det_p(vandermonde_confluent_with_x(r + 1, spec.points))
        return num.exact_div(den)
    if r == 0:
        if spec.k == 0:
            return Q1
        raise EmptyPoints("no points: denominator Vandermonde is undefined")
    num = det_q(remove_rows(vandermonde_confluent(spec.k, spec.points),
                            spec.removed))
    den = det_q(vandermonde_confluent(r, spec.points))
    return num / den


def schur_classical_ratio(k: int, removed: Sequence[int],
                          points: Sequence[Fraction]) -> Fraction:
    """Bialternant ratio for a plain set of points, built independently.

    Kept deliberately separate from the confluent path so the two can be
    cross-checked against each other.
    """
    xs = list(points)
    r = len(xs)
    if len(set(xs)) != r:
        raise ValueError("points must be pairwise distinct")
    drop = set(removed)
    kept_exponents = [k - i for i in range(1, k + 1) if i not in drop]
    num = [[x ** e for x in xs] for e in kept_exponents]
    den = [[x ** (r - i) for x in xs] for i in range(1, r + 1)]
    return det_q(num) / det_q(den)


def schur_consistency_check(k: int, removed: Sequence[int],
                            points: RootMultiset,
                            with_x: bool = False) -> bool:
    """schur_value (or schur_poly_x) equals the confluent determinant ratio.

    When the points are all simple and there is no symbolic point, the value
    must also equal the classical bialternant ratio.
    """
    spec = SchurSpec(k, tuple(removed), points, with_x)
    value = schur_poly_x(spec) if with_x else schur_value(spec)
    if value != schur_vandermonde_ratio(spec):
        return False
    if with_x or not points.is_set():
        return True
    return value == schur_classical_ratio(k, removed, points.values())
