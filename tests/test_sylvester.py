import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sylres import sylvester
from sylres.combinatorics import sigma_sign
from sylres.errors import (ArityMismatch, CardinalityTooSmall, DegreeWindow,
                           MultiplicityNotOne, TooFewElements)
from sylres.poly import Poly
from sylres.rootsets import RootMultiset, rprod, rprod_vals
from sylres.schur import (SchurSpec, removal_partition, schur_poly_x,
                          schur_value)
from sylres.sylvester import (SylmTerm, _base_table, _size_triples,
                              apery_jouanolou_rhs, apery_jouanolou_rhs_at,
                              exchange_rhs_at, exchange_rhs_eval,
                              single_sum_at, single_sum_eval, sres_det,
                              syl_double, syl_double_at, syl_single, sylm,
                              sylm_term_bound, sylm_terms, sym_interp_eval)
from sylres.verify import _collapsed_double_sum, _symmetric_pool
from test_combinatorics import is_partition
from test_linalg import ref_det_p

SRC = Path(__file__).parent.parent / "src"


def RM(*pairs):
    return RootMultiset(pairs)


def sets(*values):
    return RootMultiset.from_values([F(v) for v in values])


def sres_sign(d, m):
    return -1 if (d * (m - d)) % 2 else 1


class TestSresDet:
    def test_two_quadratics(self):
        f = Poly.from_roots([1, 2])
        g = Poly.from_roots([2, 3])
        assert sres_det(f, g, 1) == Poly([4, -2])

    def test_d_equals_n_below_m(self):
        f = Poly.from_roots([1, 4, 6])
        g = Poly.from_roots([2, 3])
        assert sres_det(f, g, 2) == g

    def test_d_equals_m_below_n(self):
        f = Poly.from_roots([1, 4])
        g = Poly.from_roots([2, 3, 5])
        assert sres_det(f, g, 2) == f

    def test_repeated_root_pair(self):
        f = Poly.from_roots([0, 1, 1])
        g = Poly.from_roots([2, 2, 2])
        assert sres_det(f, g, 2) == g - f

    def test_resultant_at_d0(self):
        a, b = sets(1, 2), sets(3, 5)
        f, g = Poly.from_roots(a.values()), Poly.from_roots(b.values())
        assert sres_det(f, g, 0) == Poly.constant(rprod(a, b))

    def test_degree_window_rejections(self):
        f = Poly.from_roots([1, 2])
        g = Poly.from_roots([3, 4])
        with pytest.raises(DegreeWindow):
            sres_det(f, g, 2)  # d = m = n rejected
        with pytest.raises(DegreeWindow):
            sres_det(f, g, -1)
        with pytest.raises(DegreeWindow):
            sres_det(Poly.constant(3), g, 0)

    def test_degree_bound(self):
        f = Poly.from_roots([1, 2, 3, 4])
        g = Poly.from_roots([5, 6, 7])
        for d in range(0, 4):
            s = sres_det(f, g, d)
            assert s.is_zero() or s.degree <= d

    def test_non_monic_inputs(self):
        # determinant definition scales with the leading coefficients
        f = Poly.from_roots([1, 2])
        g = Poly.from_roots([2, 3])
        assert sres_det(f.scale(3), g, 1) == sres_det(f, g, 1).scale(3)

    @pytest.mark.parametrize("m, n", [(13, 5), (15, 4), (18, 3)])
    def test_benchmark_shapes(self, m, n):
        # the sres-large shapes of perfbench, and the identity its worker
        # checks: Sres_d(f, g) = (-1)^((m-d)(n-d)) Sres_d(g, f), and
        # Sres_d(g, f) = (-1)^(d(n-d)) syl_single(B, A, d)
        rng = random.Random(f"sres-large {m} {n}")
        values = []
        while len(values) < m + n:
            v = F(rng.randint(-8, 8), rng.randint(1, 8))
            if v not in values:
                values.append(v)
        a, b = sets(*values[:m]), sets(*values[m:])
        f, g = Poly.from_roots(a.values()), Poly.from_roots(b.values())
        for d in range(n + 1):
            sign = -1 if ((m - d) * (n - d) + d * (n - d)) % 2 else 1
            assert sres_det(f, g, d) == syl_single(b, a, d).scale(sign)


class TestSylSingle:
    def test_full_split_is_monic(self):
        a = sets(1, 2, 3)
        assert syl_single(a, sets(7), 3) == Poly.from_roots(a.values())

    def test_d0_is_resultant_product(self):
        a, b = sets(1, 2), sets(2, 3)
        assert syl_single(a, b, 0) == Poly.constant(rprod(a, b))

    def test_hand_sum(self):
        assert syl_single(sets(1, 2), sets(2, 3), 1) == Poly([-4, 2])

    def test_multiset_a_rejected(self):
        with pytest.raises(MultiplicityNotOne):
            syl_single(RM((1, 2)), sets(3), 1)

    def test_multiset_b_allowed(self):
        # A1={1}: (x-1)(2-3)^2/(1-2); A1={2}: (x-2)(1-3)^2/(2-1)
        assert syl_single(sets(1, 2), RM((3, 2)), 1) == Poly([-7, 3])


class TestSylDouble:
    def test_p0_q0(self):
        a, b = sets(1, 2), sets(2, 3)
        assert syl_double(a, b, 0, 0) == Poly.constant(rprod(a, b))

    def test_matches_single(self):
        a, b = sets(1, 2), sets(2, 3)
        assert syl_double(a, b, 1, 0) == Poly([-4, 2])

    def test_rewriting_identity(self):
        a, b = sets(1, 2), sets(3)
        d = 1
        got = syl_double(a, b, 0, 1)
        sign = -1 if (1 * (2 - d)) % 2 else 1
        assert got == syl_single(a, b, d).scale(sign * comb(d, 0))

    def test_multiset_rejected(self):
        with pytest.raises(MultiplicityNotOne):
            syl_double(RM((1, 2)), sets(3), 1, 0)


class TestSylDoubleAt:
    def test_multiset_rejected_when_built(self):
        for a, b in ((RM((1, 2)), sets(3)), (sets(3), RM((1, 2)))):
            with pytest.raises(MultiplicityNotOne):
                syl_double_at(a, b)

    def test_window_checked_on_each_call(self):
        double = syl_double_at(sets(1, 2), sets(2, 3))
        for p, q in ((-1, 0), (3, 0), (0, 3), (0, -1), (3, 3)):
            with pytest.raises(DegreeWindow, match=rf"\({p},{q}\) outside"):
                double(p, q)
            assert double(1, 0) == Poly([-4, 2])


class TestSylm:
    def test_repeated_roots_collapsed_regime(self):
        a = RM((0, 1), (1, 2))
        b = RM((2, 2))
        g = Poly.from_roots(b.values())
        assert sylm(a, b, 2).scale(sres_sign(2, 3)) == g

    def test_repeated_roots_general_regime(self):
        a = RM((0, 1), (1, 2))
        b = RM((2, 3))
        f = Poly.from_roots(a.values())
        g = Poly.from_roots(b.values())
        assert sylm(a, b, 2).scale(sres_sign(2, 3)) == g - f

    def test_collapses_to_single_sum_for_sets(self):
        a, b = sets(1, 2, 4), sets(3, 5)
        for d in range(0, 3):
            assert sylm(a, b, d) == syl_single(a, b, d)

    def test_collapsed_regime_has_empty_partitions(self):
        a = RM((0, 1), (1, 2))
        b = RM((2, 2))
        for term in sylm_terms(a, b, 2):
            assert term.partition == ((), (), ())

    def test_general_regime_has_nonempty_partitions(self):
        a = RM((0, 1), (1, 2))
        b = RM((2, 3))
        assert any(any(term.partition)
                   for term in sylm_terms(a, b, 2))

    def test_forced_collapsed_below_range(self):
        # outside its range the two-index formula, here verify's literal
        # sum, picks up a spurious root at the repeated value of B and
        # misses the subresultant
        a = RM((0, 1), (1, 2))
        b = RM((2, 3))
        f = Poly.from_roots(a.values())
        g = Poly.from_roots(b.values())
        forced = _collapsed_double_sum(a, b, 2)
        assert forced.exact_div(Poly.from_roots([F(2)]))  # divisible
        assert forced.scale(sres_sign(2, 3)) != g - f

    def test_shared_roots(self):
        a = RM((1, 2), (3, 1))
        b = RM((1, 1), (3, 2))
        f = Poly.from_roots(a.values())
        g = Poly.from_roots(b.values())
        for d in range(0, 3):
            assert (sres_det(f, g, d)
                    == sylm(a, b, d).scale(sres_sign(d, 3)))

    def test_degree_window(self):
        with pytest.raises(DegreeWindow):
            sylm(sets(1, 2), sets(3, 4), 2)


class TestSingleSumEval:
    def test_consistent_with_univariate(self):
        a, b = sets(1, 2, 3), sets(5, 6)
        p = syl_single(a, b, 2)
        for x0 in (F(0), F(7, 2), F(-4)):
            assert single_sum_eval(a, b, 2, (x0,)) == p(x0)

    def test_vanishing_case(self):
        # |B| < d <= |A| with |X| <= |A| + |B| - 2d forces zero
        a, b = sets(1, 2, 3, 4, 6), sets(5)
        d = 2
        for xs in ((F(0), F(9)), (F(11), F(-2))):
            assert single_sum_eval(a, b, d, xs) == 0

    def test_exchange_both_sides(self):
        a, b = sets(1, 2, 3), sets(5)
        d = 1
        sign = -1 if (d * (3 - d)) % 2 else 1
        for xs in ((F(4), F(7)), (F(0), F(-1))):
            assert (single_sum_eval(a, b, d, xs)
                    == exchange_rhs_eval(a, b, d, xs))
            assert sign == 1  # d(m-d) = 2 even here


class TestExchangeRhs:
    def test_d0(self):
        a, b = sets(1, 2), sets(4, 5)
        assert exchange_rhs_eval(a, b, 0, ()) == rprod(a, b)

    def test_single_b(self):
        a, b = sets(1, 2, 3), sets(7)
        # single split B1 = {7}: (-1)^(1*(3-1)) R(xs, {7})
        assert exchange_rhs_eval(a, b, 1, (F(9),)) == 2

    def test_too_few(self):
        with pytest.raises(TooFewElements):
            exchange_rhs_eval(sets(1, 2), sets(3), 2, ())

    def test_negative_d(self):
        with pytest.raises(DegreeWindow):
            exchange_rhs_eval(sets(1, 2), sets(3, 4), -1, ())


class TestAperyJouanolou:
    def test_matches_single_sum(self):
        a, b = sets(1, 2), sets(4)
        d = 1
        e = sets(5, 6, 7)  # |E| = m + n - d = 2
        for xs in ((F(0),), (F(3),), (F(-2),)):
            assert (apery_jouanolou_rhs(a, b, d, e, xs)
                    == single_sum_eval(a, b, d, xs))

    def test_original_statement_vs_sres(self):
        # |E| = m + n - d, X = {x}: RHS recovers (-1)^(d(m-d)) Sres_d
        a, b = sets(1, 2, 3), sets(5, 6)
        d = 1
        e = sets(-1, -2, -3, -4)
        f = Poly.from_roots(a.values())
        g = Poly.from_roots(b.values())
        s = sres_det(f, g, d)
        for x0 in (F(0), F(4), F(9)):
            assert (apery_jouanolou_rhs(a, b, d, e, (x0,))
                    == sres_sign(d, 3) * s(x0))

    def test_cardinality_bound(self):
        with pytest.raises(CardinalityTooSmall):
            apery_jouanolou_rhs(sets(1, 2), sets(3), 1, sets(4), (F(0),))

    def test_degree_window(self):
        e = sets(4, 5, 6, 7, 8, 9)
        for d in (-1, 3):  # |A| = 2
            with pytest.raises(DegreeWindow):
                apery_jouanolou_rhs(sets(1, 2), sets(3), d, e, (F(0),))


class TestSymInterp:
    def test_partition_of_unity(self):
        e = sets(1, 2, 3, 4)
        d = 2

        def one(xs):
            return F(1)
        assert sym_interp_eval(e, d, one, (F(7), F(9))) == 1

    def test_reproduces_e1(self):
        e = sets(1, 2, 3)
        d = 1

        def e1(xs):
            return sum(xs, F(0))
        xs = (F(5), F(-2))
        assert sym_interp_eval(e, d, e1, xs) == e1(xs)

    def test_d0_constant(self):
        e = sets(1, 2)

        def c(xs):
            return F(4, 3)
        assert sym_interp_eval(e, 0, c, (F(8), F(9))) == F(4, 3)

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            sym_interp_eval(sets(1, 2, 3), 1, lambda xs: F(1), (F(0),))


# -- reference determinant ---------------------------------------------------


def ref_sres_det(f, g, d):
    """The matrix sres_det built before its rows became integers: one Poly
    per entry, the polynomials x^s f and x^s g in the last column, taken
    by cofactor expansion."""
    m, n = f.degree, g.degree
    size = m + n - 2 * d
    rows = []
    for p, deg, shifts in ((f, m, n - d), (g, n, m - d)):
        for i in range(1, shifts + 1):
            rows.append([Poly.constant(p.coeff(deg - (j - i)))
                         for j in range(1, size)]
                        + [Poly.monomial(shifts - i) * p])
    return ref_det_p(rows)


# -- reference sums ---------------------------------------------------------
# The literal rprod loops that the split sums ran before they moved onto the
# integer difference-table kernel. They check no arguments.


def ref_syl_single(a, b, d):
    total = Poly.zero()
    for a1_vals in combinations(a.distinct_values(), d):
        a1 = RootMultiset.from_values(a1_vals)
        a2 = a.difference(a1)
        num = rprod(a2, b)
        if num == 0:
            continue
        total = total + Poly.from_roots(a1_vals).scale(num / rprod(a1, a2))
    return total


def ref_syl_double(a, b, p, q):
    total = Poly.zero()
    for ap_vals in combinations(a.distinct_values(), p):
        ap = RootMultiset.from_values(ap_vals)
        a_rest = a.difference(ap)
        for bp_vals in combinations(b.distinct_values(), q):
            bp = RootMultiset.from_values(bp_vals)
            b_rest = b.difference(bp)
            num = rprod(ap, bp) * rprod(a_rest, b_rest)
            if num == 0:
                continue
            den = rprod(ap, a_rest) * rprod(bp, b_rest)
            total = total + (Poly.from_roots(ap_vals)
                             * Poly.from_roots(bp_vals)).scale(num / den)
    return total


def ref_single_sum_eval(a, b, d, xs):
    total = F(0)
    for a1_vals in combinations(a.distinct_values(), d):
        a1 = RootMultiset.from_values(a1_vals)
        a2 = a.difference(a1)
        num = rprod(a2, b)
        if num == 0:
            continue
        total += num * rprod_vals(xs, a1) / rprod(a1, a2)
    return total


def ref_exchange_rhs_eval(a, b, d, xs):
    total = F(0)
    for b1_vals in combinations(b.distinct_values(), d):
        b1 = RootMultiset.from_values(b1_vals)
        b2 = b.difference(b1)
        num = rprod(a, b2)
        if num == 0:
            continue
        total += num * rprod_vals(xs, b1) / rprod(b1, b2)
    return -total if (d * (a.size - d)) % 2 else total


def ref_apery_jouanolou_rhs(a, b, d, e, xs):
    evals = e.distinct_values()
    total = F(0)
    for e1_vals in combinations(evals, d):
        e1 = RootMultiset.from_values(e1_vals)
        rest = tuple(v for v in evals if v not in set(e1_vals))
        for e2_vals in combinations(rest, a.size - d):
            e2 = RootMultiset.from_values(e2_vals)
            e3 = RootMultiset.from_values(
                v for v in rest if v not in set(e2_vals))
            num = rprod(a, e3) * rprod(e2, b) * rprod_vals(xs, e1)
            if num == 0:
                continue
            den = rprod(e1, e2) * rprod(e1, e3) * rprod(e2, e3)
            total += num / den
    return total


def ref_base_factor(a, b, ap_vals, bp_vals):
    abar, a_excess = a.split()
    bbar, _ = b.split()
    ap = RootMultiset.from_values(ap_vals)
    bp = RootMultiset.from_values(bp_vals)
    abar_rest = abar.difference(ap)
    bbar_rest = bbar.difference(bp)
    num = rprod(a_excess, bbar_rest) * rprod(abar_rest, b.difference(bp))
    if num == 0:
        return None
    den = rprod(ap, abar_rest) * rprod(bp, bbar_rest)
    xpart = Poly.from_roots(ap_vals) * Poly.from_roots(bp_vals)
    return xpart.scale(num / den)


def base_degree(a, b, s_a, s_b):
    """The degree in the roots and x of a pair's ratio times its x-part:
    the differences of R(A excess, B̄ - B') R(Ā - A', B - B') less those of
    R(A', Ā - A') R(B', B̄ - B'), plus s_a + s_b."""
    mbar, nbar = a.distinct_count, b.distinct_count
    return (s_a + s_b + (a.size - mbar) * (nbar - s_b)
            + (mbar - s_a) * (b.size - s_b)
            - s_a * (mbar - s_a) - s_b * (nbar - s_b))


def base_table(a, b, s_a, s_b):
    """`_base_table` as the rationals its integers stand for: each pair
    (A' idx, B' idx) to its ratio times its x-part, whose coefficient of
    x^i is N c_i / (V D^(deg - i))."""
    den, _, _, vand, table = _base_table(a, b)
    deg = base_degree(a, b, s_a, s_b)
    return {pair: Poly(F(c, vand) * F(den) ** (i - deg)
                       for i, c in enumerate(coeffs))
            for pair, coeffs in table(s_a, s_b).items()}


def ref_terms_general(a, b, d):
    """The triple-partition loop as it ran before its Schur factors moved
    onto per-call integer tables: per term, it builds the RootMultisets of
    the points and asks the cached schur_value and schur_poly_x."""
    abar, _ = a.split()
    bbar, _ = b.split()
    avals, bvals = a.distinct_values(), b.distinct_values()
    m, n = a.size, b.size
    mbar, nbar = a.distinct_count, b.distinct_count
    mp, np_ = m - mbar, n - nbar
    r = mp + np_ - d
    lo = m + n - 2 * d
    window = tuple(i for i in range(max(lo, 1), r + 1))
    r1_cap = max(0, d - (mbar + nbar) + 1)
    for r1 in range(0, min(len(window), r1_cap) + 1):
        for r2 in range(max(0, mp - d), min(m - d, r - r1) + 1):
            r3 = r - r1 - r2
            if not max(0, np_ - d) <= r3 <= n - d:
                continue
            s_a = r2 + d - mp
            s_b = r3 + min(mp, d - np_)
            if not (0 <= s_a <= mbar and 0 <= s_b <= nbar):
                continue
            base_of = base_table(a, b, s_a, s_b)
            for r1_block in combinations(window, r1):
                rest = tuple(i for i in range(1, r + 1) if i not in r1_block)
                for r2_block in combinations(rest, r2):
                    r3_block = tuple(i for i in rest if i not in r2_block)
                    part = (r1_block, r2_block, r3_block)
                    sign = sigma_sign(m, n, mbar, nbar, d, part)
                    r1_shift = tuple(i - (m + n - 2 * d - 1)
                                     for i in r1_block)
                    for a_idx in combinations(range(mbar), s_a):
                        ap_vals = tuple(avals[i] for i in a_idx)
                        ap = RootMultiset.from_values(ap_vals)
                        for b_idx in combinations(range(nbar), s_b):
                            bp_vals = tuple(bvals[j] for j in b_idx)
                            bp = RootMultiset.from_values(bp_vals)
                            base = base_of.get((a_idx, b_idx))
                            if base is None:
                                continue
                            s1 = schur_poly_x(SchurSpec(
                                d + 1, r1_shift,
                                RootMultiset.from_values(ap_vals + bp_vals),
                                with_x=True))
                            s2 = schur_value(SchurSpec(
                                m + n - d, r2_block,
                                RootMultiset(abar.difference(ap).entries
                                             + b.entries)))
                            s3 = schur_value(SchurSpec(
                                m + n - d, r3_block,
                                RootMultiset(a.entries
                                             + bbar.difference(bp).entries)))
                            value = (base * s1).scale(sign * s2 * s3)
                            yield SylmTerm(part, ap_vals, bp_vals, sign,
                                           value)


def ref_terms_collapsed(a, b, d):
    """The two-index loop, one lookup in the base table per index pair."""
    avals, bvals = a.distinct_values(), b.distinct_values()
    m, mbar = a.size, a.distinct_count
    mp = m - mbar
    sign = -1 if (mp * (m - d)) % 2 else 1
    s_a, s_b = d - mp, mp
    if not (0 <= s_a <= mbar and 0 <= s_b <= len(bvals)):
        return
    bases = base_table(a, b, s_a, s_b)
    for a_idx in combinations(range(mbar), s_a):
        for b_idx in combinations(range(len(bvals)), s_b):
            base = bases.get((a_idx, b_idx))
            if base is not None:
                yield SylmTerm(((), (), ()), tuple(avals[i] for i in a_idx),
                               tuple(bvals[j] for j in b_idx), sign,
                               base.scale(sign))


def ref_sym_interp_eval(e, d, h, xs):
    total = F(0)
    for ep_vals in combinations(e.distinct_values(), d):
        ep = RootMultiset.from_values(ep_vals)
        rest = e.difference(ep)
        total += h(rest.values()) * rprod_vals(xs, ep) / rprod(rest, ep)
    return total


# Rationals with denominators up to 97. Values drawn from `shared` coincide
# with roots of the other side, so zero terms occur.
rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 97))


def pool(shared=()):
    if shared:
        return st.one_of(rationals, st.sampled_from(shared))
    return rationals


def distinct(draw, k, shared=()):
    return draw(st.lists(pool(shared), min_size=k, max_size=k, unique=True))


def multiset(draw, k, shared=()):
    values = distinct(draw, draw(st.integers(min(k, 1), k)), shared)
    mults = [1] * len(values)
    for _ in range(k - len(values)):
        mults[draw(st.integers(0, len(values) - 1))] += 1
    return RootMultiset(zip(values, mults))


@st.composite
def set_and_multiset(draw, max_set=5, max_multi=4):
    """(a set, a multiset sharing some of its values, evaluation points
    that may repeat and may hit values of either)."""
    s = sets(*distinct(draw, draw(st.integers(0, max_set))))
    shared = s.distinct_values()
    multi = multiset(draw, draw(st.integers(0, max_multi)), shared)
    xs = tuple(draw(st.lists(pool(shared + multi.distinct_values()),
                             max_size=2)))
    return s, multi, xs


# Sparse coefficients: zero about half the time, constant terms included.
sparse_coeffs = st.one_of(st.just(F(0)), rationals)
leading = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@st.composite
def poly_pair(draw, max_deg=6):
    """(f, g) of degrees 1..max_deg each, not monic in general."""
    def poly():
        deg = draw(st.integers(1, max_deg))
        low = draw(st.lists(sparse_coeffs, min_size=deg, max_size=deg))
        return Poly(low + [draw(leading)])
    return poly(), poly()


@settings(max_examples=150, deadline=None)
@given(poly_pair())
@example((Poly([0, 0, 3]), Poly([1, 0, 0, 0, F(-1, 2)])))  # d = 2: no g rows
@example((Poly([F(1, 3), 0, 0, 2]), Poly([0, 5])))  # d = 1: no f rows
def test_sres_det_matches_reference(pair):
    f, g = pair
    m, n = f.degree, g.degree
    for d in range(min(m, n) + (m != n)):
        assert sres_det(f, g, d) == ref_sres_det(f, g, d)


@settings(max_examples=40, deadline=None)
@given(set_and_multiset())
@example((sets(0, 1, 2), RM((1, 2), (3, 1)), (F(3), F(3), F(0))))
def test_single_sums_match_reference(case):
    a, b, xs = case  # B a multiset
    for d in range(a.size + 1):
        assert syl_single(a, b, d) == ref_syl_single(a, b, d)
        assert (single_sum_eval(a, b, d, xs)
                == ref_single_sum_eval(a, b, d, xs))


@settings(max_examples=40, deadline=None)
@given(set_and_multiset())
@example((sets(0, 1, 2), RM((1, 2), (3, 1)), (F(1), F(1), F(2))))
def test_exchange_rhs_matches_reference(case):
    b, a, xs = case  # A a multiset
    for d in range(b.size + 1):
        assert (exchange_rhs_eval(a, b, d, xs)
                == ref_exchange_rhs_eval(a, b, d, xs))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_syl_double_matches_reference(data):
    a = sets(*distinct(data.draw, data.draw(st.integers(0, 4))))
    b = sets(*distinct(data.draw, data.draw(st.integers(0, 4)),
                       a.distinct_values()))
    for p in range(a.size + 1):
        for q in range(b.size + 1):
            assert syl_double(a, b, p, q) == ref_syl_double(a, b, p, q)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_syl_double_at_matches_reference_in_any_order(data):
    # one prepared table, called at every (p, q) in a drawn order and then
    # at drawn repeats: no call may depend on the sizes called before it
    a = sets(*distinct(data.draw, data.draw(st.integers(0, 5))))
    b = sets(*distinct(data.draw, data.draw(st.integers(0, 5)),
                       a.distinct_values()))
    sizes = [(p, q) for p in range(a.size + 1) for q in range(b.size + 1)]
    order = (data.draw(st.permutations(sizes))
             + data.draw(st.lists(st.sampled_from(sizes), max_size=8)))
    double = syl_double_at(a, b)
    for p, q in order:
        assert double(p, q) == ref_syl_double(a, b, p, q)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_apery_jouanolou_matches_reference(data):
    a, b, xs = data.draw(set_and_multiset(max_set=3, max_multi=3))
    m, n = a.size, b.size
    size = max(len(xs) + m, m + n, 1) + data.draw(st.integers(0, 1))
    e = sets(*distinct(data.draw, size,
                       a.distinct_values() + b.distinct_values()))
    for d in range(m + 1):
        assert (apery_jouanolou_rhs(a, b, d, e, xs)
                == ref_apery_jouanolou_rhs(a, b, d, e, xs))


@st.composite
def prepared_case(draw):
    """(a set S, a multiset M sharing values with S, a set E large enough
    for the three-block sum over S and M, d, nx, grid points of arity nx).

    The points have denominators up to 97, hit values of S, M and E, and
    the first one comes again last."""
    s, multi, _ = draw(set_and_multiset(max_set=3, max_multi=3))
    m, n = s.size, multi.size
    d = draw(st.integers(0, m))
    nx = draw(st.integers(0, 2))
    size = max(nx + d, m + n - d, m) + draw(st.integers(0, 1))
    e = sets(*distinct(draw, size, s.distinct_values()
                       + multi.distinct_values()))
    hit = s.distinct_values() + multi.distinct_values() + e.distinct_values()
    point = st.lists(pool(hit), min_size=nx, max_size=nx).map(tuple)
    points = draw(st.lists(point, min_size=1, max_size=4))
    return s, multi, e, d, nx, points + points[:1]


@settings(max_examples=40, deadline=None)
@given(prepared_case())
@example((sets(F(1, 2), 3), RM((F(1, 2), 2), (F(5, 3), 1)),
          sets(F(7, 4), -1, F(2, 3), 4), 1, 2,
          [(F(1, 2), F(7, 4)), (F(5, 3), F(5, 3)), (F(1, 3), F(2, 7)),
           (F(1, 2), F(7, 4))]))
def test_prepared_evaluators_match_reference(case):
    # one evaluator per record serves every point, in any order
    s, multi, e, d, nx, points = case
    pairs = [
        (single_sum_at(s, multi, d),
         lambda xs: ref_single_sum_eval(s, multi, d, xs)),
        (exchange_rhs_at(multi, s, d),
         lambda xs: ref_exchange_rhs_eval(multi, s, d, xs)),
        (apery_jouanolou_rhs_at(s, multi, d, e, nx),
         lambda xs: ref_apery_jouanolou_rhs(s, multi, d, e, xs)),
    ]
    for evaluate, ref in pairs:
        want = [ref(xs) for xs in points]
        assert [evaluate(xs) for xs in points] == want
        assert [evaluate(xs) for xs in reversed(points)] == want[::-1]


class TestPreparedEvaluatorErrors:
    def test_apery_arity(self):
        evaluate = apery_jouanolou_rhs_at(sets(1, 2), sets(3), 1,
                                          sets(4, 5, 6), 1)
        assert evaluate((F(0),)) == apery_jouanolou_rhs(
            sets(1, 2), sets(3), 1, sets(4, 5, 6), (F(0),))
        for xs in ((), (F(0), F(1))):
            with pytest.raises(ArityMismatch):
                evaluate(xs)

    def test_cardinality_before_degree_window(self):
        # |E| = 1 is too small and d = 3 > |A|: the |E| bound comes first
        for call in (
                lambda: apery_jouanolou_rhs_at(sets(1, 2), sets(3), 3,
                                               sets(4), 1),
                lambda: apery_jouanolou_rhs(sets(1, 2), sets(3), 3,
                                            sets(4), (F(0),))):
            with pytest.raises(CardinalityTooSmall):
                call()

    def test_multiplicity_before_degree_window(self):
        # B is not a set and d < 0: the set check comes first
        with pytest.raises(MultiplicityNotOne):
            exchange_rhs_at(sets(1, 2), RM((3, 2)), -1)
        with pytest.raises(MultiplicityNotOne):
            exchange_rhs_eval(sets(1, 2), RM((3, 2)), -1, ())
        with pytest.raises(MultiplicityNotOne):
            single_sum_at(RM((1, 2)), sets(3), 5)

    def test_too_few_before_evaluation(self):
        with pytest.raises(TooFewElements):
            exchange_rhs_at(sets(1, 2), sets(3), 2)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sym_interp_matches_reference(data):
    e = sets(*distinct(data.draw, data.draw(st.integers(1, 5))))
    for d in range(e.size):
        xs = tuple(data.draw(st.lists(pool(e.distinct_values()),
                                      min_size=e.size - d,
                                      max_size=e.size - d)))
        for _, h in _symmetric_pool(d, len(xs)):
            assert (sym_interp_eval(e, d, h, xs)
                    == ref_sym_interp_eval(e, d, h, xs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_base_table_matches_reference(data):
    # repeated roots on both sides, and roots of B drawn from A's
    a = multiset(data.draw, data.draw(st.integers(1, 5)))
    b = multiset(data.draw, data.draw(st.integers(1, 5)), a.distinct_values())
    avals, bvals = a.distinct_values(), b.distinct_values()
    for s_a in range(len(avals) + 1):
        for s_b in range(len(bvals) + 1):
            table = base_table(a, b, s_a, s_b)
            for a_idx in combinations(range(len(avals)), s_a):
                for b_idx in combinations(range(len(bvals)), s_b):
                    want = ref_base_factor(a, b,
                                           tuple(avals[i] for i in a_idx),
                                           tuple(bvals[j] for j in b_idx))
                    assert table.get((a_idx, b_idx)) == want


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sylm_terms_match_reference(data):
    # repeated roots on both sides, and roots of B drawn from A's
    a = multiset(data.draw, data.draw(st.integers(1, 6)))
    b = multiset(data.draw, data.draw(st.integers(1, 6)), a.distinct_values())
    m, n = a.size, b.size
    for d in range(min(m, n) + (0 if m == n else 1)):
        if a.excess_count + b.excess_count <= d:
            want = ref_terms_collapsed(a, b, d)
        else:
            want = ref_terms_general(a, b, d)
        assert list(sylm_terms(a, b, d)) == list(want)


def test_sylm_terms_past_table_bound():
    # d = 1 on this pair gives 1,848 terms over 924 partitions, and asks
    # for 1,386 distinct s2 and s3 values: a long run of R2 blocks per
    # size triple, each with its own factors
    a, b = RM((0, 4), (1, 4)), RM((2, 4), (3, 4))
    assert list(sylm_terms(a, b, 1)) == list(ref_terms_general(a, b, 1))
    assert sylm_term_bound(a, b, 1) == 1848
    assert sylm_term_bound(a, b, 0) == comb(12, 6)


def shape(size, distinct):
    """A multiset of `size` roots with `distinct` distinct values."""
    return RootMultiset([(F(i), 1) for i in range(distinct - 1)]
                        + [(F(distinct - 1), size - distinct + 1)])


def test_size_triples_stay_in_range():
    # every subset size lies in 0..m̄ and 0..n̄, so no triple needs a filter;
    # the triples depend only on the degrees and distinct counts
    shapes = 0
    for m in range(1, 11):
        for n in range(1, 11):
            for mbar in range(1, m + 1):
                for nbar in range(1, n + 1):
                    a, b = shape(m, mbar), shape(n, nbar)
                    for d in range(min(m, n) + (0 if m == n else 1)):
                        shapes += 1
                        for *_, s_a, s_b in _size_triples(a, b, d)[1]:
                            assert 0 <= s_a <= mbar and 0 <= s_b <= nbar
    assert shapes == 19657


def test_every_term_has_the_degree_of_sres():
    # the power of D that each term once carried, -(its ratio's degree +
    # s_a + s_b + |λ1| + |λ2| + |λ3|), is -δ for every block triple, so one
    # denominator V D^(δ-j) serves coefficient j of every term
    triples = 0
    for m in range(1, 7):
        for n in range(1, 7):
            for mbar in range(1, m + 1):
                for nbar in range(1, n + 1):
                    a, b = shape(m, mbar), shape(n, nbar)
                    for d in range(min(m, n) + (0 if m == n else 1)):
                        delta = (m - d) * (n - d) + d
                        window, sizes = _size_triples(a, b, d)
                        for r1, r2, r3, s_a, s_b in sizes:
                            deg = base_degree(a, b, s_a, s_b)
                            if window is None:
                                triples += 1
                                assert deg == delta
                                continue
                            r, k = r1 + r2 + r3, m + n - d
                            for r1_block in combinations(window, r1):
                                lam1 = removal_partition(
                                    d + 1, [i - window.start + 1
                                            for i in r1_block],
                                    s_a + s_b + 1)
                                rest = [i for i in range(1, r + 1)
                                        if i not in r1_block]
                                for r2_block in combinations(rest, r2):
                                    r3_block = [i for i in rest
                                                if i not in r2_block]
                                    lam2 = removal_partition(
                                        k, r2_block, mbar - s_a + n)
                                    lam3 = removal_partition(
                                        k, r3_block, m + nbar - s_b)
                                    triples += 1
                                    assert (deg + sum(lam1) + sum(lam2)
                                            + sum(lam3)) == delta
    assert triples == 10628


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sylm_term_partitions_are_partitions(data):
    # each term's (R1, R2, R3) is sorted, disjoint and covers 1..m'+n'-d
    a = multiset(data.draw, data.draw(st.integers(1, 5)))
    b = multiset(data.draw, data.draw(st.integers(1, 5)), a.distinct_values())
    r0 = a.excess_count + b.excess_count
    for d in range(min(a.size, b.size) + (0 if a.size == b.size else 1)):
        for term in sylm_terms(a, b, d):
            assert is_partition(term.partition, max(r0 - d, 0))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_sylm_sums_its_terms(data):
    # sylm's integers summed over one denominator against the Fractions of
    # sylm_terms, at every d; the bound counts every pair, and a pair drops
    # out only on a shared root
    a = multiset(data.draw, data.draw(st.integers(1, 6)))
    b = multiset(data.draw, data.draw(st.integers(1, 6)), a.distinct_values())
    shared = set(a.distinct_values()) & set(b.distinct_values())
    m, n = a.size, b.size
    for d in range(min(m, n) + (0 if m == n else 1)):
        terms = list(sylm_terms(a, b, d))
        assert sylm(a, b, d) == sum((t.value for t in terms), Poly.zero())
        bound = sylm_term_bound(a, b, d)
        assert len(terms) <= bound if shared else len(terms) == bound


def empty_skeleton_cache(monkeypatch):
    monkeypatch.setattr(sylvester, "_skeletons", {})
    monkeypatch.setattr(sylvester, "_skeleton_partitions", 0)


def test_skeleton_key_is_complete(monkeypatch):
    # one process visits every shape (m, n, m̄, n̄, d) with m, n <= 5, d
    # innermost, from an empty cache: a skeleton cached under a key that
    # left out m̄, n̄ or d would be read for the next shape that differs
    # only there, and its terms would differ from the reference
    empty_skeleton_cache(monkeypatch)
    shapes = 0
    for m in range(1, 6):
        for n in range(1, 6):
            for mbar in range(1, m + 1):
                for nbar in range(1, n + 1):
                    a = shape(m, mbar)
                    b = RootMultiset([(v + F(1, 2), mult)
                                      for v, mult in shape(n, nbar).entries])
                    for d in range(min(m, n) + (0 if m == n else 1)):
                        shapes += 1
                        ref = (ref_terms_collapsed
                               if a.excess_count + b.excess_count <= d
                               else ref_terms_general)
                        assert list(sylm_terms(a, b, d)) == list(ref(a, b, d))
    assert shapes == len(sylvester._skeletons) == 841


def skeleton_size(m, n, mbar, nbar, d):
    """The partitions a skeleton of the shape holds, by counting: one in
    the collapsed regime."""
    window, sizes = sylvester._shape_sizes(m, n, mbar, nbar, d)
    return sum(comb(len(window or ()), r1) * comb(r2 + r3, r2)
               for r1, r2, r3, *_ in sizes)


def test_skeleton_cache_stays_within_budget(monkeypatch):
    # the 64 largest shapes of degree <= 8 hold about 3.5 budgets between
    # them, so the cache is cleared on the way; the partitions it holds are
    # counted right and never pass the budget
    empty_skeleton_cache(monkeypatch)
    shapes = sorted(((m, n, mbar, nbar, d)
                     for m in range(1, 9) for n in range(1, 9)
                     for mbar in range(1, m + 1) for nbar in range(1, n + 1)
                     for d in range(min(m, n) + (0 if m == n else 1))),
                    key=lambda s: -skeleton_size(*s))[:64]
    assert sum(skeleton_size(*s) for s in shapes) == 57060
    clears = 0
    for s in shapes:
        before = len(sylvester._skeletons)
        _, _, blocks = sylvester._skeleton(*s)
        assert sum(len(parts) for r1_blocks in blocks
                   for _, parts in r1_blocks) == skeleton_size(*s)
        clears += len(sylvester._skeletons) <= before
        held = sum(skeleton_size(*key) for key in sylvester._skeletons)
        assert held == sylvester._skeleton_partitions
        assert held <= sylvester._SKELETON_BUDGET
        assert s in sylvester._skeletons
    assert clears >= 3


def test_skeleton_past_budget_is_used_not_kept(monkeypatch):
    empty_skeleton_cache(monkeypatch)
    monkeypatch.setattr(sylvester, "_SKELETON_BUDGET", 20)
    small = RM((0, 2)), RM((1, 2))
    a, b = RM((0, 3), (1, 1)), RM((F(1, 2), 6))
    assert skeleton_size(2, 2, 1, 1, 0) <= 20 < skeleton_size(4, 6, 2, 1, 0)
    assert list(sylm_terms(*small, 0)) == list(ref_terms_general(*small, 0))
    for _ in range(2):
        assert list(sylm_terms(a, b, 0)) == list(ref_terms_general(a, b, 0))
        assert list(sylvester._skeletons) == [(2, 2, 1, 1, 0)]


def test_skeleton_past_budget_is_streamed(monkeypatch):
    # (8, 8, 1, 1, 0) holds 3,432 partitions, about 1.9 MB as tuples; past
    # the budget it is walked one partition at a time
    empty_skeleton_cache(monkeypatch)
    monkeypatch.setattr(sylvester, "_SKELETON_BUDGET", 20)
    tracemalloc.start()
    try:
        _, _, blocks = sylvester._skeleton(8, 8, 1, 1, 0)
        walked = sum(1 for r1_blocks in blocks
                     for _, parts in r1_blocks for _ in parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == skeleton_size(8, 8, 1, 1, 0) == 3432
    assert peak < 100_000
    assert not sylvester._skeletons


def test_skeleton_cache_is_empty_after_cli_import():
    code = ("import sylres.cli; from sylres import sylvester as s; "
            "print(len(s._skeletons), s._skeleton_partitions)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=60)
    assert out.stdout.split() == ["0", "0"]
