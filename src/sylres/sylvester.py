"""Subresultants and Sylvester-type sums in the roots.

Two independent routes to the same object live here: the coefficient-side
determinant (`sres_det`) and the root-side sums (`syl_single`, `syl_double`,
and the multiset generalization `sylm`). They are tied together by the sign
(-1)^(d(m-d)). The multivariate evaluators at the bottom back the grid-based
identity checks.

The split sums over sets run on one kernel, `_DifferenceTable`: the values are
scaled to integers by their common denominator D, every term is an integer
over one Vandermonde product, and the kernel totals the later blocks' terms
per first block. `_split_sum` sets it up for the sums over one set and derives
their power of D. The points X of the evaluators are applied per evaluation,
scaled by their own common denominator, as one product per first block. The
`*_at` forms build a sum once, `syl_double_at` the blocks of each size of A
and of B once for all (p, q), and `verify` builds them once per record.
`sylm` runs in one of two regimes, chosen by its input alone: the collapsed
two-index sum when d >= m'+n', the triple-partition sum otherwise. Only the
literal two-index sum of `verify` applies the collapsed formula below its
range, for the worked examples' negative case.
`sylm` takes its difference-product ratios and x-parts from `_base_table`, on
the same kernel, and its confluent Schur factors from the integer
Jacobi–Trudi kernel of `schur`, each computed once at the loop level of
`_integer_terms` that fixes its removed rows. On the roots scaled by D every
term is an integer over V = vand(Ā) vand(B̄), and every term is homogeneous
of the degree δ = (m-d)(n-d) + d of Sres_d, so coefficient j of every term
is an integer over the one V D^(δ-j). `sylm` adds those integers and builds
one Fraction per output coefficient; `sylm_terms` builds each term's
Fractions for the audit. The literal forms of these sums survive only as
test references.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, prod
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .combinatorics import Partition3, enum_splits, sigma_sign
from .errors import (ArityMismatch, CardinalityTooSmall, DegreeWindow,
                     MultiplicityNotOne, TooFewElements)
from .linalg import det_z_bordered
from .poly import Poly, linear_product
from .rationals import common_denominator, qof, scaled
from .rootsets import RootMultiset
from .schur import elementary, jacobi_trudi, removal_partition, strip_sums


def check_degree_window(m: int, n: int, d: int) -> None:
    """The standing range: 0 <= d <= min(m,n), strict upper bound at m = n."""
    if m < 1 or n < 1:
        raise DegreeWindow(f"degrees must be >= 1, got m={m}, n={n}")
    if d < 0:
        raise DegreeWindow(f"d={d} is negative")
    if m == n:
        if d >= m:
            raise DegreeWindow(f"d={d} not below m=n={m}")
    elif d > min(m, n):
        raise DegreeWindow(f"d={d} exceeds min(m,n)={min(m, n)}")


def _require_set(x: RootMultiset, name: str) -> None:
    if not x.is_set():
        raise MultiplicityNotOne(f"{name} has a repeated value")


# -- determinant oracle ---------------------------------------------------------


def sres_det(f: Poly, g: Poly, d: int) -> Poly:
    """Order-d subresultant of f and g by its determinant definition.

    The matrix is (m+n-2d) square: n-d rows of shifted f coefficients, then
    m-d rows of shifted g coefficients, with the last column holding the
    polynomials x^(n-d-i) f and x^(m-d-i) g. Out-of-range coefficient
    subscripts are zero. Inputs need not be monic.

    Only d+1 coefficient columns are built for the last one. The other
    columns hold the coefficients of x^(m+n-d-1) down to x^(d+1) of the
    same polynomials, so the last column's coefficient of x^k, k > d,
    repeats one of them and its minor is 0. Each row is the coefficients of
    its polynomial at those exponents and then at x^0..x^d, as integers
    times the common denominator of f (or g). One elimination of the first
    m+n-2d-1 columns then borders them by each of the last d+1, which gives
    the d+1 coefficients times den_f^(n-d) den_g^(m-d).
    """
    m, n = f.degree, g.degree
    if m is None or n is None:
        raise DegreeWindow("zero polynomial has no subresultants")
    check_degree_window(m, n, d)
    exponents = [*range(m + n - d - 1, d, -1), *range(d + 1)]
    rows, scale = [], 1
    for p, shifts in ((f, n - d), (g, m - d)):
        den = common_denominator(p.coeffs)
        coeffs = scaled(p.coeffs, den)
        scale *= den ** shifts
        for s in range(shifts - 1, -1, -1):
            rows.append([coeffs[e - s] if 0 <= e - s < len(coeffs) else 0
                         for e in exponents])
    return Poly(Fraction(v, scale) for v in det_z_bordered(rows))


# -- split-sum kernel ------------------------------------------------------


def _over(num: int, vand: int, den: int, exp: int) -> Fraction:
    """num * den^exp / vand, exactly."""
    if exp >= 0:
        return Fraction(num * den ** exp, vand)
    return Fraction(num, vand * den ** -exp)


class _DifferenceTable:
    """Split sums over distinct integer values w by one difference table.

    A split sum runs over the ordered splits of the values into blocks of
    fixed sizes and divides each term by the product `cross` of
    (w_i - w_j) over i in an earlier block than j. With the Vandermonde
    product V = prod_{i<j} (w_i - w_j), which `cross` divides up to sign,
    that quotient is (V // cross) / V: every term becomes an integer over
    the one denominator V, and no Fraction is made per term.

    Callers scale all values by their common denominator D first, so a
    product of k differences is D^k times its rational value, and divide
    each integer total by V D^exp once per output coefficient.
    """

    __slots__ = ("diff", "vandermonde")

    def __init__(self, w: Sequence[int]):
        self.diff = [[wi - wj for wj in w] for wi in w]
        self.vandermonde = prod(row[j] for i, row in enumerate(self.diff)
                                for j in range(i + 1, len(w)))

    def splits(self, sizes: Sequence[int],
               factors: Sequence[Optional[Sequence[int]]]
               ) -> Iterator[Tuple[tuple, tuple, int]]:
        """(B1, rest, total) for each first block B1 with a nonzero total.

        `sizes` and `factors` have one entry per block, two or three
        blocks. `factors[b][i]` is the factor of value i when it lies in
        block b (None: 1). A split's weight is the product of the element
        factors times V // cross; `total` sums the weights of the splits
        of `rest` into the later blocks, one split for two blocks.
        """
        diff, vand = self.diff, self.vandermonde
        three = len(sizes) == 3
        f1, f2, f3 = factors if three else (*factors, None)
        for b1, rest in enum_splits(range(len(diff)), sizes[0]):
            w1 = 1
            if f1 is not None:
                for i in b1:
                    w1 *= f1[i]
                if w1 == 0:
                    continue
            c1 = 1
            for i in b1:
                row = diff[i]
                for j in rest:
                    c1 *= row[j]
            inner = enum_splits(rest, sizes[1]) if three else ((rest, ()),)
            total = 0
            for b2, b3 in inner:
                weight = w1
                if f2 is not None:
                    for i in b2:
                        weight *= f2[i]
                if f3 is not None:
                    for i in b3:
                        weight *= f3[i]
                if weight == 0:
                    continue
                cross = c1
                for i in b2:
                    row = diff[i]
                    for j in b3:
                        cross *= row[j]
                total += weight * (vand // cross)
            if total:
                yield b1, rest, total


def _split_sum(values: Sequence[Fraction], sizes: Sequence[int],
               sides: Sequence[Sequence[Tuple[Fraction, int]]]) -> tuple:
    """The setup of a split sum over the distinct values E of a set.

    Block 0 holds s_0 values e of E, each with the factor R(e, X) for the
    points X of one evaluation; block b > 0 holds s_b values, each with
    R(e, Y_b) for the (value, multiplicity) pairs Y_b = `sides[b - 1]`.
    Returns E's values scaled by their common denominator D, the totals
    per first block E1, and `at(xs)`, which scales X by its own common
    denominator dx and returns the integers (D dx)^|X| R(e, X) per value
    and `over(t, shift=0)`: D^shift times the value of an integer t, a
    sum of totals times the factors of E1."""
    den = common_denominator(values, *([v for v, _ in y] for y in sides))
    w = scaled(values, den)
    table = _DifferenceTable(w)
    factors = [None]
    for side in sides:
        wy = scaled([v for v, _ in side], den)
        factors.append([prod((e - v) ** mu for v, (_, mu) in zip(wy, side))
                        for e in w] if side else None)
    exp = (sum(s * t for s, t in combinations(sizes, 2))
           - sum(s * mu for s, y in zip(sizes[1:], sides) for _, mu in y))
    splits = list(table.splits(sizes, factors))

    def at(xs: Sequence) -> tuple:
        xs = [qof(v) for v in xs]
        dx = common_denominator(xs)
        ux, k = scaled(xs, dx), sizes[0] * len(xs)
        vand, exp_x = table.vandermonde * dx ** k, exp - k
        return ([prod(e * dx - den * u for u in ux) for e in w],
                lambda num, shift=0: _over(num, vand, den, exp_x + shift))

    return w, splits, at


# -- classical sums for sets ------------------------------------------------------


def _single_sum(a: RootMultiset, b: RootMultiset, d: int) -> tuple:
    """The checks and `_split_sum` of the single sum over A, |A1| = d."""
    _require_set(a, "A")
    m = a.size
    if not 0 <= d <= m:
        raise DegreeWindow(f"d={d} outside 0..{m}")
    return _split_sum(a.distinct_values(), (d, m - d), (b.entries,))


def syl_single(a: RootMultiset, b: RootMultiset, d: int) -> Poly:
    """Sylvester single sum over splits A1 | A2 of A with |A1| = d.

    Each split contributes R(x, A1) R(A2, B) / R(A1, A2). A must be a
    set; B may be any multiset (it only enters through R(A2, B)).
    """
    wa, splits, at = _single_sum(a, b, d)
    _, over = at(())
    coeffs = [0] * (d + 1)
    for a1, _, weight in splits:
        for k, c in enumerate(linear_product([wa[i] for i in a1])):
            coeffs[k] += weight * c
    # the coefficient of x^k in R(x, A1) is a product of d-k roots
    return Poly(over(c, k - d) for k, c in enumerate(coeffs))


def syl_double_at(a: RootMultiset,
                  b: RootMultiset) -> Callable[[int, int], Poly]:
    """Sylvester double sums over subset pairs (A', B') of sizes (p, q), as
    a function of (p, q), after the set checks and the scaling. Each pair
    contributes R(x, A') R(x, B') R(A', B') R(A-A', B-B') over R(A', A-A')
    R(B', B-B'). The first call at a size p lists each A' with V_A // cross
    times the coefficients of R(x, A'); the first at q lists each B' alike,
    with the products in_bp, out_bp of (a_i - b_j) over j in and outside B'
    per a_i. A pair costs in_bp over A' times out_bp over A - A'."""
    _require_set(a, "A")
    _require_set(b, "B")
    m, n = a.size, b.size
    avals, bvals = a.distinct_values(), b.distinct_values()
    den = common_denominator(avals, bvals)
    wa, wb = scaled(avals, den), scaled(bvals, den)
    ta, tb = _DifferenceTable(wa), _DifferenceTable(wb)
    cross_ab = [[u - v for v in wb] for u in wa]
    a_sides, b_sides = {}, {}

    def double(p: int, q: int) -> Poly:
        if not (0 <= p <= m and 0 <= q <= n):
            raise DegreeWindow(f"(p,q)=({p},{q}) outside ({m},{n})")
        if p not in a_sides:
            a_sides[p] = [
                (ap, a_rest, [outer * c for c in
                              linear_product([wa[i] for i in ap])])
                for ap, a_rest, outer in ta.splits((p, m - p), (None, None))]
        if q not in b_sides:
            b_sides[q] = [
                ([prod(row[j] for j in bp) for row in cross_ab],
                 [prod(row[j] for j in b_rest) for row in cross_ab],
                 [outer * c for c in linear_product([wb[j] for j in bp])])
                for bp, b_rest, outer in tb.splits((q, n - q), (None, None))]
        coeffs = [0] * (p + q + 1)
        for in_bp, out_bp, b_coeffs in b_sides[q]:
            inner = [0] * (p + 1)
            for ap, a_rest, a_coeffs in a_sides[p]:
                weight = 1
                for i in ap:
                    weight *= in_bp[i]
                for i in a_rest:
                    weight *= out_bp[i]
                if weight:
                    for k, c in enumerate(a_coeffs):
                        inner[k] += weight * c
            for k, c in enumerate(_convolve(b_coeffs, inner)):
                coeffs[k] += c
        # With d = p+q, the denominators have d(m+n-d) - mn more differences
        # than the numerators, and coefficient k has d-k roots.
        exp = (p + q) * (m + n - p - q - 1) - m * n
        return Poly(_over(c, ta.vandermonde * tb.vandermonde, den, exp + k)
                    for k, c in enumerate(coeffs))

    return double


def syl_double(a: RootMultiset, b: RootMultiset, p: int, q: int) -> Poly:
    """The Sylvester double sum: `syl_double_at(a, b)` at (p, q)."""
    return syl_double_at(a, b)(p, q)


# -- multiset Sylvester sum ----------------------------------------------------


class SylmTerm(NamedTuple):
    """One audited term of the multiset sum.

    `partition` is (R1, R2, R3), all empty in the collapsed regime.
    `a_prime` and `b_prime` are the distinct values of A' and B',
    ascending.
    """

    partition: Partition3
    a_prime: Tuple[Fraction, ...]
    b_prime: Tuple[Fraction, ...]
    sign: int
    value: Poly


def _base_table(a: RootMultiset, b: RootMultiset) -> tuple:
    """The difference-product ratios and x-parts common to both regimes,
    as integers: (D, wa, wb, V, table).

    wa and wb are Ā and B̄ times their common denominator D, and V =
    vand(wa) vand(wb). `table(s_a, s_b)` maps each pair of index tuples
    (A', B') of sizes (s_a, s_b) to the integers N c on the scaled roots:
    R(A excess, B̄ - B') R(Ā - A', B - B') / (R(A', Ā - A') R(B', B̄ - B'))
    is N / V there, and c_i is the coefficient of x^i in R(x, A') R(x, B').
    It leaves out the pairs whose N vanishes. It runs as an outer split of
    Ā and, per A', an inner split of B̄ whose element factors are the
    numerator's differences, so the pairs come in A'-outer lexicographic
    order.
    """
    avals, bvals = a.distinct_values(), b.distinct_values()
    mult_a = [mult for _, mult in a.entries]
    mult_b = [mult for _, mult in b.entries]
    mbar, nbar = len(avals), len(bvals)
    den = common_denominator(avals, bvals)
    wa, wb = scaled(avals, den), scaled(bvals, den)
    ta, tb = _DifferenceTable(wa), _DifferenceTable(wb)
    cross = [[u - v for u in wa] for v in wb]
    # R(A excess, b_j) and, per A', R(Ā - A', b_j) for each b_j
    excess = [prod(c ** (ma - 1) for c, ma in zip(row, mult_a))
              for row in cross]

    def table(s_a: int, s_b: int) -> dict:
        pairs = {}
        for ap, a_rest, outer in ta.splits((s_a, mbar - s_a), (None, None)):
            rest = [prod(row[i] for i in a_rest) for row in cross]
            in_bp = [r ** (mb - 1) for r, mb in zip(rest, mult_b)]
            out_bp = [e * r ** mb for e, r, mb in zip(excess, rest, mult_b)]
            ap_roots = [wa[i] for i in ap]
            for bp, _, w in tb.splits((s_b, nbar - s_b), (in_bp, out_bp)):
                num = w * outer
                pairs[ap, bp] = [num * c for c in linear_product(
                    ap_roots + [wb[j] for j in bp])]
        return pairs

    return den, wa, wb, ta.vandermonde * tb.vandermonde, table


def _size_triples(a: RootMultiset, b: RootMultiset, d: int) -> tuple:
    """The R1 window, None in the collapsed regime d >= m'+n', and the sizes
    (r1, r2, r3, s_a, s_b) of R1, R2, R3, A' and B' that the multiset sum
    runs over, in loop order."""
    m, n = a.size, b.size
    check_degree_window(m, n, d)
    mbar, nbar = a.distinct_count, b.distinct_count
    mp, np_ = m - mbar, n - nbar
    r = mp + np_ - d
    if r <= 0:
        return None, [(0, 0, 0, d - mp, mp)]
    # from m+n-2d, which the degree window keeps >= 1
    window, sizes = range(m + n - 2 * d, r + 1), []
    for r1 in range(len(window) + 1):
        for r2 in range(max(0, mp - d), min(m - d, r - r1) + 1):
            r3 = r - r1 - r2
            # each factor removes the rows its points leave over:
            # r1 = d-s_a-s_b, r2 = m-d-(m̄-s_a) and r3 = n-d-(n̄-s_b)
            if max(0, np_ - d) <= r3 <= n - d:
                sizes.append((r1, r2, r3, r2 + d - mp, r3 + d - np_))
    return window, sizes


def sylm_term_bound(a: RootMultiset, b: RootMultiset, d: int) -> int:
    """The terms `sylm_terms` enumerates, at no cost per term: the sum of
    C(|window|, r1) C(r2 + r3, r2) C(m̄, s_a) C(n̄, s_b) over the size
    triples. The pairs whose ratio vanishes are not yielded."""
    window, sizes = _size_triples(a, b, d)
    return sum(comb(len(window or ()), r1) * comb(r2 + r3, r2)
               * comb(a.distinct_count, s_a) * comb(b.distinct_count, s_b)
               for r1, r2, r3, s_a, s_b in sizes)


def _convolve(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """The coefficients of the product of two integer polynomials."""
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, e in enumerate(q):
            out[i + j] += c * e
    return out


def _integer_terms(a: RootMultiset, b: RootMultiset, d: int) -> tuple:
    """(dens, terms) for the multiset sum: a term (partition, A' idx,
    B' idx, sign, coeffs) has the coefficient coeffs[j] / dens[j] of x^j.

    coeffs is sign N J2 J3 (c ⋆ S) on the roots scaled by D, for the
    pair's N c of `_base_table`, the strip sums S of s1 (`strip_sums`) and
    J2, J3 = s2, s3 (`jacobi_trudi`), on A' + B' with the symbolic point,
    (Ā - A') + B and A + (B̄ - B') less the rows R1 (shifted), R2 and R3;
    the collapsed regime has no Schur factors. The subset sizes fix the
    pairs, N c and the e-vectors, the R1 block s1 per pair, and the R2
    block s2 per A' and s3 per B': each is computed once.

    With x scaled by D too, a term is coeffs / V. Like the sum, each term is
    homogeneous of degree δ = (m-d)(n-d) + d in the roots and x: the ratio's
    numerator differences less its denominator's, s_a + s_b for the x-part
    and |λ1| + |λ2| + |λ3|, which the sizes fix as ΣR1 + ΣR2 + ΣR3 =
    r(r+1)/2, add up to δ, in both regimes, by s_a = r2+d-m',
    s_b = r3+d-n' and r1+r2+r3 = m'+n'-d. Coefficient j has degree δ - j in
    the roots, so dens[j] = V D^(δ-j).
    """
    m, n = a.size, b.size
    mbar, nbar = a.distinct_count, b.distinct_count
    window, sizes = _size_triples(a, b, d)
    den, wa, wb, vand, table = _base_table(a, b)
    a_all, b_all = scaled(a.values(), den), scaled(b.values(), den)
    delta = (m - d) * (n - d) + d
    dens = [vand * den ** (delta - j) for j in range(d + 1)]

    def terms() -> Iterator[tuple]:
        for r1, r2, r3, s_a, s_b in sizes:
            pairs = list(table(s_a, s_b).items())
            if window is None:
                sign = -1 if ((m - mbar) * (m - d)) % 2 else 1
                for (a_idx, b_idx), poly in pairs:
                    yield (((), (), ()), a_idx, b_idx, sign,
                           [sign * c for c in poly])
                continue
            e1 = [elementary([wa[i] for i in a_idx] + [wb[j] for j in b_idx])
                  for (a_idx, b_idx), _ in pairs]
            e2 = {a_idx: elementary([w for i, w in enumerate(wa)
                                     if i not in a_idx] + b_all)
                  for a_idx in dict.fromkeys(a for (a, _), _ in pairs)}
            e3 = {b_idx: elementary(a_all + [w for j, w in enumerate(wb)
                                             if j not in b_idx])
                  for b_idx in dict.fromkeys(b for (_, b), _ in pairs)}
            r, k = r1 + r2 + r3, m + n - d
            for r1_block in combinations(window, r1):
                rest = tuple(i for i in range(1, r + 1) if i not in r1_block)
                r1_shift = tuple(i - (window.start - 1) for i in r1_block)
                # the points and x fill s_a + s_b + 1 rows
                lam1 = removal_partition(d + 1, r1_shift, s_a + s_b + 1)
                x1 = [_convolve(poly, strip_sums(lam1, e))
                      for (_, poly), e in zip(pairs, e1)]
                for r2_block in combinations(rest, r2):
                    r3_block = tuple(i for i in rest if i not in r2_block)
                    part = (r1_block, r2_block, r3_block)
                    sign = sigma_sign(m, n, mbar, nbar, d, part)
                    lam2 = removal_partition(k, r2_block, mbar - s_a + n)
                    lam3 = removal_partition(k, r3_block, m + nbar - s_b)
                    s2 = {i: jacobi_trudi(lam2, e) for i, e in e2.items()}
                    s3 = {j: jacobi_trudi(lam3, e) for j, e in e3.items()}
                    for ((a_idx, b_idx), _), poly in zip(pairs, x1):
                        f = sign * s2[a_idx] * s3[b_idx]
                        yield (part, a_idx, b_idx, sign,
                               [f * c for c in poly])

    return dens, terms()


def sylm_terms(a: RootMultiset, b: RootMultiset,
               d: int) -> Iterator[SylmTerm]:
    """Stream of audited terms; order is deterministic.

    The regime follows from the input: the two-index terms of the collapsed
    formula when d >= m'+n', the triple-partition terms otherwise.
    """
    dens, terms = _integer_terms(a, b, d)
    avals, bvals = a.distinct_values(), b.distinct_values()
    return (SylmTerm(part, tuple(avals[i] for i in a_idx),
                     tuple(bvals[j] for j in b_idx), sign,
                     Poly(Fraction(c, dens[j]) for j, c in enumerate(coeffs)))
            for part, a_idx, b_idx, sign, coeffs in terms)


def sylm(a: RootMultiset, b: RootMultiset, d: int) -> Poly:
    """Multiset Sylvester single sum; equals (-1)^(d(m-d)) Sres_d.

    The terms' integers, each of degree at most d (s1's is at most
    λ1_1 <= d - s_a - s_b), are summed per coefficient over its one
    denominator, which makes one Fraction per coefficient.
    """
    dens, terms = _integer_terms(a, b, d)
    acc = [0] * (d + 1)
    for *_, coeffs in terms:
        for j, c in enumerate(coeffs):
            acc[j] += c
    return Poly(Fraction(c, v) for c, v in zip(acc, dens))


# -- multivariate evaluators --------------------------------------------------


def _point_sum(splits: list, at: Callable, s0: int, sign: int,
               nx: Optional[int] = None) -> Callable[[Sequence], Fraction]:
    """The split sum as a function of the points X, times (-1)^sign, where
    R(X, E1) = (-1)^(s0 |X|) R(E1, X); with nx, others raise ArityMismatch."""
    def evaluate(xs: Sequence) -> Fraction:
        if nx is not None and len(xs) != nx:
            raise ArityMismatch(f"need {nx} values, got {len(xs)}")
        rx, over = at(xs)
        total = 0
        for e1, _, weight in splits:
            for i in e1:
                weight *= rx[i]
            total += weight
        return over(-total if (s0 * len(xs) + sign) % 2 else total)
    return evaluate


def single_sum_at(a: RootMultiset, b: RootMultiset,
                  d: int) -> Callable[[Sequence], Fraction]:
    """The single sum as a function of the values that replace x."""
    _, splits, at = _single_sum(a, b, d)
    return _point_sum(splits, at, d, 0)


def single_sum_eval(a: RootMultiset, b: RootMultiset, d: int,
                    xs: Sequence) -> Fraction:
    """`single_sum_at(a, b, d)` at xs."""
    return single_sum_at(a, b, d)(xs)


def exchange_rhs_at(a: RootMultiset, b: RootMultiset,
                    d: int) -> Callable[[Sequence], Fraction]:
    """Right-hand side of the exchange identity, summing over B instead.

    Each split B1 | B2 of B with |B1| = d contributes (-1)^(d(m-d))
    R(X, B1) R(A, B2) / R(B1, B2): as R(A, B2) = (-1)^(m(n-d)) R(B2, A),
    a sign times the single sum over B.
    """
    _require_set(b, "B")
    m, n = a.size, b.size
    if d < 0:
        raise DegreeWindow(f"d={d} is negative")
    if n < d:
        raise TooFewElements(f"|B|={n} below d={d}")
    _, splits, at = _single_sum(b, a, d)
    return _point_sum(splits, at, d, d * (m - d) + m * (n - d))


def exchange_rhs_eval(a: RootMultiset, b: RootMultiset, d: int,
                      xs: Sequence) -> Fraction:
    """`exchange_rhs_at(a, b, d)` at xs."""
    return exchange_rhs_at(a, b, d)(xs)


def apery_jouanolou_rhs_at(a: RootMultiset, b: RootMultiset, d: int,
                           e: RootMultiset,
                           nx: int) -> Callable[[Sequence], Fraction]:
    """Three-block sum over a large enough set E, as a function of nx points.

    Each split E1 | E2 | E3 with |E1| = d and |E2| = m - d contributes
    R(X, E1) R(E2, B) R(A, E3) / (R(E1, E2) R(E1, E3) R(E2, E3)).
    """
    _require_set(e, "E")
    m, n = a.size, b.size
    bound = max(nx + d, m + n - d, m)
    if e.size < bound:
        raise CardinalityTooSmall(f"|E|={e.size} below required {bound}")
    if not 0 <= d <= m:
        raise DegreeWindow(f"d={d} outside 0..{m}")
    _, splits, at = _split_sum(e.distinct_values(), (d, m - d, e.size - m),
                               (b.entries, a.entries))
    # R(A, E3) = (-1)^((|E|-m)m) R(E3, A)
    return _point_sum(splits, at, d, (e.size - m) * m, nx)


def apery_jouanolou_rhs(a: RootMultiset, b: RootMultiset, d: int,
                        e: RootMultiset, xs: Sequence) -> Fraction:
    """`apery_jouanolou_rhs_at(a, b, d, e, len(xs))` at xs."""
    return apery_jouanolou_rhs_at(a, b, d, e, len(xs))(xs)


def sym_interp_eval(e: RootMultiset, d: int,
                    h: Callable[[Tuple[Fraction, ...]], Fraction],
                    xs: Sequence) -> Fraction:
    """Symmetric Lagrange interpolation of h through the nodes E \\ E'.

    Each split E' | E - E' with |E'| = d contributes
    h(E - E') R(X, E') / R(E - E', E').
    """
    _require_set(e, "E")
    size = e.size
    if not 0 <= d < size:
        raise DegreeWindow(f"d={d} outside 0..{size - 1}")
    evals = e.distinct_values()
    _, splits, at = _split_sum(evals, (d, size - d), ((),))
    weighted = [(e1, rest, weight * qof(h(tuple(evals[i] for i in rest))))
                for e1, rest, weight in splits]
    # R(E - E', E') = (-1)^(d(|E|-d)) R(E', E - E')
    return _point_sum(weighted, at, d, d * (size - d), size - d)(xs)
