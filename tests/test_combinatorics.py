import math
from itertools import combinations

import pytest

from sylres.combinatorics import (check_sign_lemma, enum_partitions3,
                                  enum_splits, sg_blocks, sg_set, sigma_sign)
from sylres.errors import IndexOutOfRange, ShiftOutOfRange


def ref_sg_set(r, subset):
    """sg_set by counting the inversions of the subset listed first and
    the rest of 1..r after it, each in order."""
    seq = sorted(subset) + [i for i in range(1, r + 1) if i not in subset]
    inversions = sum(1 for i, j in combinations(seq, 2) if i > j)
    return -1 if inversions % 2 else 1


class TestEnumSubsets:
    """Subsets with their complements, as `enum_splits` yields them."""

    def test_exhaustive(self):
        assert list(enum_splits((1, 2, 3), 2)) == [
            ((1, 2), (3,)), ((1, 3), (2,)), ((2, 3), (1,))]

    def test_empty_subset(self):
        assert list(enum_splits(range(4), 0)) == [((), (0, 1, 2, 3))]

    def test_oversize(self):
        assert list(enum_splits((1, 2), 3)) == []

    def test_counts(self):
        for n in range(0, 7):
            universe = tuple(range(1, n + 1))
            total = 0
            for k in range(0, n + 1):
                splits = list(enum_splits(universe, k))
                subs = [s for s, _ in splits]
                assert len(subs) == len(set(subs)) == math.comb(n, k)
                assert subs == list(combinations(universe, k))
                for s, rest in splits:
                    assert rest == tuple(i for i in universe if i not in s)
                total += len(subs)
            assert total == 2 ** n


class TestSgSet:
    def test_empty(self):
        assert sg_set(5, ()) == 1

    def test_one_adjacent_swap(self):
        assert sg_set(3, (2,)) == -1

    def test_already_front(self):
        assert sg_set(4, (1, 2)) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            sg_set(3, (4,))

    def test_closed_form_matches_transposition_count(self):
        for r in range(0, 6):
            for k in range(0, r + 1):
                for sub in combinations(range(1, r + 1), k):
                    assert sg_set(r, sub) == ref_sg_set(r, sub)

    def test_complementary_identity(self):
        for r in range(1, 7):
            for k in range(0, r + 1):
                for sub in combinations(range(1, r + 1), k):
                    comp = tuple(i for i in range(1, r + 1) if i not in sub)
                    sign = -1 if (len(sub) * len(comp)) % 2 else 1
                    assert sg_set(r, sub) * sg_set(r, comp) == sign


class TestSgPartition:
    def test_identity_order(self):
        assert sg_blocks(((1, 2), (3,), ())) == 1

    def test_one_inversion(self):
        assert sg_blocks(((2,), (1, 3))) == -1

    def test_all_in_last_block(self):
        assert sg_blocks(((), (), (1, 2, 3, 4))) == 1

    def test_two_block_matches_sg_set(self):
        for r in range(1, 7):
            for k in range(0, r + 1):
                for sub in combinations(range(1, r + 1), k):
                    comp = tuple(i for i in range(1, r + 1) if i not in sub)
                    assert sg_blocks((sub, comp)) == sg_set(r, sub)


class TestSigmaSign:
    def test_all_empty_even_exponent(self):
        # m' + n' <= d: empty partition, sign (-1)^(m'(m-d))
        assert sigma_sign(4, 4, 2, 4, 2, ((), (), ())) == 1  # m'=2 even

    def test_hand_computed(self):
        assert sigma_sign(3, 3, 2, 2, 1, ((), (1,), ())) == -1


class TestSignLemma:
    def test_single_element(self):
        assert check_sign_lemma(1, 0, ((1,), (), ()))

    def test_specific_shift(self):
        assert check_sign_lemma(4, 1, ((2,), (1, 3), (4,)))

    def test_shift_out_of_range(self):
        with pytest.raises(ShiftOutOfRange):
            check_sign_lemma(3, 2, ((1,), (2,), (3,)))

    def test_exhaustive_small(self):
        for r in range(1, 5):
            for part in enum_partitions3(r):
                b1 = part[0]
                for s in range(0, r + 1):
                    if b1 and b1[0] - s < 1:
                        continue
                    assert check_sign_lemma(r, s, part)


def test_enum_partitions3_counts():
    for r in range(0, 6):
        parts = list(enum_partitions3(r))
        assert len(parts) == 3 ** r
        assert len(set(parts)) == 3 ** r


def is_partition(p, r):
    """p is three sorted, disjoint index tuples that cover 1..r."""
    return (len(p) == 3 and all(list(b) == sorted(set(b)) for b in p)
            and sorted(i for b in p for i in b) == list(range(1, r + 1)))


def test_enum_partitions3_are_partitions():
    for r in range(0, 6):
        assert all(is_partition(p, r) for p in enum_partitions3(r))
