from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylres.errors import ValidationError
from sylres.poly import Poly
from sylres.rootsets import RootMultiset, rprod


def RM(*pairs):
    return RootMultiset(pairs)


class TestRprod:
    def test_direct(self):
        assert rprod(RM((1, 1)), RM((2, 1), (3, 1))) == 2

    def test_empty_convention(self):
        assert rprod(RootMultiset.empty(), RM((2, 1), (7, 3))) == 1
        assert rprod(RM((2, 1)), RootMultiset.empty()) == 1

    def test_multiplicities(self):
        assert rprod(RM((2, 2)), RM((3, 1))) == 1  # (2-3)^2

    def test_shared_value_gives_zero(self):
        assert rprod(RM((2, 1), (5, 1)), RM((5, 2))) == 0


class TestRprodPoly:
    """R(x, X) with a symbolic x is the monic polynomial with roots X."""

    @staticmethod
    def symbolic(x):
        p = Poly.from_roots(x.values())
        for x0 in range(-3, 4):
            assert rprod(RM((x0, 1)), x) == p(x0)
        return p

    def test_two_simple(self):
        assert self.symbolic(RM((1, 1), (2, 1))) == Poly([2, -3, 1])

    def test_empty(self):
        assert self.symbolic(RootMultiset.empty()) == Poly.one()

    def test_double_zero(self):
        assert self.symbolic(RM((0, 2))) == Poly([0, 0, 1])


class TestSplit:
    def test_mixed(self):
        distinct, excess = RM((1, 1), (2, 2)).split()
        assert distinct == RM((1, 1), (2, 1))
        assert excess == RM((2, 1))

    def test_plain_set(self):
        _, excess = RM((1, 1), (5, 1)).split()
        assert excess == RootMultiset.empty()

    def test_single_value(self):
        distinct, excess = RM((5, 3)).split()
        assert distinct == RM((5, 1))
        assert excess == RM((5, 2))

    def test_reunion_identity(self):
        a = RM((1, 1), (F(3, 2), 2), (7, 3))
        distinct, excess = a.split()
        assert RootMultiset(distinct.entries + excess.entries) == a


class TestCounts:
    def test_cardinalities(self):
        a = RM((1, 1), (2, 2))
        assert (a.size, a.distinct_count, a.excess_count) == (3, 2, 1)

    def test_multiplicity_positive(self):
        with pytest.raises(ValidationError):
            RM((1, 0))

    def test_merge_on_construction(self):
        assert RootMultiset([(2, 1), (2, 1)]) == RM((2, 2))


small_multisets = st.lists(
    st.tuples(st.fractions(min_value=-12, max_value=12, max_denominator=4),
              st.integers(min_value=1, max_value=3)),
    max_size=3).map(RootMultiset)


@settings(max_examples=60, deadline=None)
@given(small_multisets, small_multisets)
def test_rprod_antisymmetry(x, y):
    sign = -1 if (x.size * y.size) % 2 else 1
    assert rprod(x, y) == sign * rprod(y, x)


@settings(max_examples=60, deadline=None)
@given(small_multisets, small_multisets)
def test_rprod_matches_poly_evaluation(x, y):
    p = Poly.from_roots(x.values())
    expected = F(1)
    for v in y.values():
        expected *= p(v)
    # R(X, Y) = prod over y of f_X(y) up to nothing: f_X(y) = prod (y - x),
    # while rprod multiplies (x - y); flip the sign per pair
    sign = -1 if (x.size * y.size) % 2 else 1
    assert rprod(x, y) == sign * expected
