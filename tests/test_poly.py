from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylres.errors import DivisionByZeroPoly, NotDivisible
from sylres.poly import Poly, linear_product


def P(*ascending):
    return Poly(ascending)


class TestBasics:
    def test_add(self):
        assert P(-1, 1) + P(-3, 1) == P(-4, 2)

    def test_add_zero_identity(self):
        p = P(2, -3, 1)
        assert p + Poly.zero() == p

    def test_add_inverse(self):
        p = P(2, -3, 1)
        assert p + (-p) == Poly.zero()

    def test_mul(self):
        assert P(-1, 1) * P(-2, 1) == P(2, -3, 1)

    def test_mul_one(self):
        p = P(5, 0, 7)
        assert p * Poly.one() == p

    def test_mul_zero(self):
        assert P(-1, 1) * Poly.zero() == Poly.zero()

    def test_degree(self):
        assert Poly.zero().degree is None
        assert Poly.one().degree == 0
        assert P(0, 1).degree == 1

    def test_trailing_zeros_normalized(self):
        assert Poly([1, 2, 0, 0]) == P(1, 2)


class TestExactDiv:
    def test_factor(self):
        assert P(-1, 0, 1).exact_div(P(-1, 1)) == P(1, 1)

    def test_self(self):
        p = P(2, -3, 1)
        assert p.exact_div(p) == Poly.one()

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            P(1, 0, 1).exact_div(P(-1, 1))

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZeroPoly):
            P(1).exact_div(Poly.zero())


class TestFromRootsAndEval:
    def test_two_roots(self):
        assert Poly.from_roots([1, 2]) == P(2, -3, 1)

    def test_empty(self):
        assert Poly.from_roots([]) == Poly.one()

    def test_repeated_root(self):
        # x (x-1)^2 = x^3 - 2x^2 + x
        assert Poly.from_roots([0, 1, 1]) == P(0, 1, -2, 1)

    def test_rational_roots(self):
        # (x - 1/2)(x + 2/3) = x^2 + x/6 - 1/3
        assert Poly.from_roots([F(1, 2), "-2/3"]) == P(F(-1, 3), F(1, 6), 1)

    def test_linear_product(self):
        # (x - 2)(x + 3) = x^2 + x - 6
        assert linear_product([2, -3]) == [-6, 1, 1]
        assert linear_product([]) == [1]

    def test_eval_root(self):
        assert P(2, -3, 1)(2) == 0

    def test_eval_zero_poly(self):
        assert Poly.zero()(F(5, 3)) == 0

    def test_eval_half(self):
        assert P(2, -3, 1)(F(1, 2)) == F(3, 4)


class TestJson:
    def test_round_trip(self):
        p = P(F(1, 2), 0, -3)
        assert Poly.from_json(p.to_json()) == p

    def test_format(self):
        assert P(F(1, 2), 0, -3).to_json() == {"coeffs": ["1/2", "0", "-3"]}


fractions = st.fractions(min_value=-30, max_value=30, max_denominator=8)
polys = st.lists(fractions, max_size=5).map(Poly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys, polys.filter(lambda q: not q.is_zero()))
def test_mul_div_round_trip(p, q):
    assert (p * q).exact_div(q) == p


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions, max_size=4), st.lists(fractions, max_size=4))
def test_from_roots_multiplicative(a, b):
    assert (Poly.from_roots(a + b)
            == Poly.from_roots(a) * Poly.from_roots(b))


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=4))
def test_roots_evaluate_to_zero(roots):
    p = Poly.from_roots(roots)
    for a in roots:
        assert p(a) == 0


def ref_from_roots(roots):
    """The product of (x - a) one Fraction factor at a time, as
    `Poly.from_roots` ran before it moved onto integer coefficients."""
    p = Poly.one()
    for a in roots:
        p = p * Poly((-F(a), F(1)))
    return p


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(fractions, st.integers(-9, 9)), max_size=7))
def test_from_roots_matches_reference(roots):
    assert Poly.from_roots(roots) == ref_from_roots(roots)
