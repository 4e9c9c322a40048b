import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylres.errors import EmptyPoints, InconsistentRemovalCount
from sylres.poly import Poly
from sylres.rootsets import RootMultiset
from sylres.schur import (SCHUR_CACHE_SIZE, SchurSpec,
                          schur_classical_ratio, schur_consistency_check,
                          schur_poly_x, schur_value, schur_vandermonde_ratio)


def RM(*pairs):
    return RootMultiset(pairs)


class TestSchurValue:
    def test_no_removal_is_one(self):
        # k = r
        spec = SchurSpec(3, (), RM((1, 1), (4, 2)))
        assert schur_value(spec) == 1 == schur_vandermonde_ratio(spec)

    def test_e1_of_two_points(self):
        # k=3, remove row 2: (a^2 - b^2)/(a - b) = a + b
        x = RM((2, 1), (5, 1))
        assert schur_value(SchurSpec(3, (2,), x)) == 7

    def test_confluent_double_point(self):
        x = RM((7, 2))
        assert schur_value(SchurSpec(3, (1,), x)) == 1

    def test_empty_points_k0(self):
        spec = SchurSpec(0, (), RootMultiset.empty())
        assert schur_value(spec) == 1 == schur_vandermonde_ratio(spec)

    def test_empty_points_rejected(self):
        spec = SchurSpec(2, (1, 2), RootMultiset.empty())
        with pytest.raises(EmptyPoints):
            schur_value(spec)
        with pytest.raises(EmptyPoints):
            schur_vandermonde_ratio(spec)

    def test_removal_count_enforced(self):
        with pytest.raises(InconsistentRemovalCount):
            SchurSpec(3, (1,), RM((1, 1), (2, 1), (3, 1)))

    def test_homogeneity(self):
        # S(lambda X) = lambda^w S(X) with w = sum of kept exponents - C(r,2)
        rng = random.Random(3)
        for _ in range(20):
            r = rng.randint(1, 4)
            k = rng.randint(r, r + 3)
            removed = tuple(sorted(rng.sample(range(1, k + 1), k - r)))
            values = rng.sample(range(1, 12), rng.randint(1, r))
            mults = [1] * len(values)
            for _ in range(r - len(values)):
                mults[rng.randrange(len(values))] += 1
            x = RootMultiset(zip(values, mults))
            lam = F(3, 2)
            scaled = RootMultiset((v * lam, m) for v, m in x.entries)
            w = (sum(k - i for i in range(1, k + 1) if i not in removed)
                 - r * (r - 1) // 2)
            assert (schur_value(SchurSpec(k, removed, scaled))
                    == lam ** w * schur_value(SchurSpec(k, removed, x)))


class TestSchurPolyX:
    def test_no_removal_is_one(self):
        assert schur_poly_x(
            SchurSpec(3, (), RM((1, 1), (5, 1)), with_x=True)) == Poly.one()

    def test_x_plus_a(self):
        got = schur_poly_x(SchurSpec(3, (2,), RM((4, 1)), with_x=True))
        assert got == Poly([4, 1])

    def test_e1_with_x(self):
        got = schur_poly_x(SchurSpec(4, (2,), RM((1, 1), (2, 1)),
                                     with_x=True))
        assert got == Poly([3, 1])

    def test_degree_bound(self):
        spec = SchurSpec(5, (2, 4), RM((2, 2)), with_x=True)
        p = schur_poly_x(spec)
        assert p.degree is not None and p.degree <= 4

    def test_matches_value_at_fresh_point(self):
        # substituting a fresh simple point for x agrees with schur_value
        x = RM((1, 1), (3, 2))
        spec = SchurSpec(6, (2, 4), x, with_x=True)
        p = schur_poly_x(spec)
        fresh = F(9)
        plain = schur_value(SchurSpec(6, (2, 4), RM(*x.entries, (fresh, 1))))
        assert p(fresh) == plain


class TestConsistency:
    def test_no_removal(self):
        assert schur_consistency_check(2, (), RM((3, 1), (8, 1)))

    def test_e1(self):
        assert schur_consistency_check(3, (2,), RM((2, 1), (5, 1)))

    def test_larger(self):
        assert schur_consistency_check(4, (1, 2), RM((1, 1), (3, 1)))

    def test_classical_ratio_direct(self):
        assert schur_classical_ratio(3, (2,), (F(2), F(5))) == 7

    def test_multiset(self):
        assert schur_consistency_check(6, (2, 5), RM((1, 2), (-3, 1), (4, 1)))

    def test_multiset_with_x(self):
        assert schur_consistency_check(7, (1, 4), RM((2, 3), (1, 1)),
                                       with_x=True)


class TestEdgeCases:
    def test_empty_partition_after_removal(self):
        # removing the top rows leaves exponents r-1..0: lambda is empty
        spec = SchurSpec(5, (1, 2), RM((3, 2), (-1, 1)))
        assert schur_value(spec) == 1 == schur_vandermonde_ratio(spec)

    def test_with_x_no_points(self):
        # one symbolic point and row 2 of 4 kept: x^2
        spec = SchurSpec(4, (1, 3, 4), RootMultiset.empty(), with_x=True)
        assert schur_poly_x(spec) == Poly.monomial(2)
        assert schur_vandermonde_ratio(spec) == Poly.monomial(2)

    def test_with_x_empty_partition(self):
        spec = SchurSpec(4, (1,), RM((5, 2)), with_x=True)
        assert schur_poly_x(spec) == Poly.one()


@st.composite
def schur_specs(draw):
    """|X| <= 6 with multiplicity <= 3, |R| <= 4, half with a symbolic x."""
    with_x = draw(st.booleans())
    values = draw(st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        min_size=0 if with_x else 1, max_size=6, unique=True))
    pairs, size = [], 0
    for v in values:
        if size == 6:
            break
        mult = draw(st.integers(min_value=1, max_value=min(3, 6 - size)))
        pairs.append((v, mult))
        size += mult
    rows = size + with_x
    k = rows + draw(st.integers(min_value=0, max_value=4))
    removed = draw(st.lists(st.integers(min_value=1, max_value=k),
                            min_size=k - rows, max_size=k - rows,
                            unique=True))
    return SchurSpec(k, tuple(removed), RootMultiset(pairs), with_x)


@settings(max_examples=150, deadline=None)
@given(schur_specs())
def test_dual_jacobi_trudi_matches_vandermonde_ratio(spec):
    got = schur_poly_x(spec) if spec.with_x else schur_value(spec)
    assert got == schur_vandermonde_ratio(spec)


def test_caches_stay_within_bound():
    for v in range(SCHUR_CACHE_SIZE + 10):
        point = RM((F(v, 7919), 1))
        schur_value(SchurSpec(1, (), point))
        schur_poly_x(SchurSpec(2, (), point, with_x=True))
    for cached in (schur_value, schur_poly_x):
        assert cached.cache_info().maxsize == SCHUR_CACHE_SIZE
        assert cached.cache_info().currsize <= SCHUR_CACHE_SIZE


def test_equal_specs_share_a_cache_entry():
    # removed is stored sorted, so the order it is given in changes neither
    # equality, nor the hash, nor the cache entry
    x = RM((F(5, 3), 1))
    first, second = SchurSpec(3, (2, 1), x), SchurSpec(3, (1, 2), x)
    assert first == second and hash(first) == hash(second)
    assert second.removed == (1, 2)
    assert first != SchurSpec(3, (1, 3), x)
    schur_value(first)
    before = schur_value.cache_info()
    schur_value(second)
    after = schur_value.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_invariance_under_point_reordering():
    # the canonical sorted order is a choice; the ratio must not depend on it
    values = [F(5), F(-2), F(1, 2)]
    x = RootMultiset.from_values(values)
    base = schur_value(SchurSpec(5, (1, 3), x))
    assert base == schur_classical_ratio(5, (1, 3), values)
    assert base == schur_classical_ratio(5, (1, 3), list(reversed(values)))
