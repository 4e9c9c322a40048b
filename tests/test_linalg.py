from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylres.errors import (IndexOutOfRange, MultiplePolyColumns, NotSquare,
                           NotSquareAfterRemoval, TooManyColumns)
from sylres.linalg import (det_p, det_q, det_z, det_z_bordered,
                           remove_rows, vandermonde_confluent,
                           vandermonde_confluent_with_x)
from sylres.poly import Poly
from sylres.rootsets import RootMultiset


def RM(*pairs):
    return RootMultiset(pairs)


class TestDetQ:
    def test_identity(self):
        assert det_q([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_2x2(self):
        assert det_q([[1, 2], [3, 4]]) == -2

    def test_empty(self):
        assert det_q([]) == 1

    def test_vandermonde_pairwise_products(self):
        pts = [F(1), F(2), F(3)]
        v = vandermonde_confluent(3, RootMultiset.from_values(pts))
        assert det_q(v) == (1 - 2) * (1 - 3) * (2 - 3)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            det_q([[1, 2]])
        with pytest.raises(NotSquare):
            det_q([[1, 2], [3]])

    def test_row_swap_flips_sign(self):
        m = [[1, 2, 0], [0, 1, 5], [3, 0, 1]]
        swapped = [m[1], m[0], m[2]]
        assert det_q(m) == -det_q(swapped)

    def test_repeated_row_is_zero(self):
        assert det_q([[1, 2], [1, 2]]) == 0

    def test_needs_pivoting(self):
        assert det_q([[0, 1], [1, 0]]) == -1


class TestDetZ:
    def test_2x2(self):
        assert det_z([[1, 2], [3, 4]]) == -2

    def test_empty(self):
        assert det_z([]) == 1

    def test_needs_pivoting(self):
        assert det_z([[0, 1], [1, 0]]) == -1

    def test_rows_untouched(self):
        rows = [[2, 1], [4, 3]]
        assert det_z(rows) == 2
        assert rows == [[2, 1], [4, 3]]

    def test_not_square(self):
        with pytest.raises(NotSquare):
            det_z([[1, 2]])

    # A row still zero in every column eliminated so far stays as read
    # until it becomes the pivot or the result; each case reaches one rule
    # of that with the leading minor `prev` not 1.
    @pytest.mark.parametrize("rows", [
        # step 1: the zero pivot row was updated at step 0, the last row
        # was not, and the swap must carry the rows' states along
        [[3, -3, 1, -1], [-1, 1, 0, -1], [1, -1, 1, 0], [0, -1, -1, -2]],
        # step 1: a zero pivot swapped with a row updated at step 0
        [[2, 1, 0, 1], [4, 2, 1, 3], [1, 3, 1, 2], [0, 1, 1, 1]],
        # step 1: a pivot row still as read, reached without a swap
        [[2, 1, 1], [0, 3, 1], [1, 1, 1]],
        # the last row is zero in both eliminated columns
        [[2, 1, 1], [1, 3, 1], [0, 0, 5]],
    ], ids=["swap-with-untouched", "swap-with-touched", "untouched-pivot",
            "untouched-last-row"])
    def test_rows_left_as_read(self, rows):
        assert det_z(rows) == ref_det_q(rows) != 0


class TestDetZBordered:
    def test_square_is_det_z(self):
        assert det_z_bordered([[1, 2], [3, 4]]) == [-2]

    def test_needs_pivoting(self):
        # columns {0, 1} and {0, 2} of rows whose first pivot is 0
        assert det_z_bordered([[0, 1, 5], [1, 0, 7]]) == [-1, -5]

    def test_no_pivot(self):
        assert det_z_bordered([[0, 1, 2], [0, 3, 4]]) == [0, 0]

    def test_rows_untouched(self):
        rows = [[0, 1, 5], [1, 0, 7]]
        det_z_bordered(rows)
        assert rows == [[0, 1, 5], [1, 0, 7]]

    @pytest.mark.parametrize("rows", [[], [[1, 2], [3]], [[1], [2]]])
    def test_bad_shape(self, rows):
        with pytest.raises(NotSquare):
            det_z_bordered(rows)


class TestDetP:
    def test_one_poly_column(self):
        f = Poly([2, -3, 1])
        g = Poly([6, -5, 1])
        assert det_p([[Poly.one(), f], [Poly.one(), g]]) == g - f

    def test_diagonal_constants(self):
        m = [[Poly.constant(2), Poly.zero()],
             [Poly.zero(), Poly.constant(F(3, 2))]]
        assert det_p(m) == Poly.constant(3)

    def test_1x1(self):
        f = Poly([1, 1, 1])
        assert det_p([[f]]) == f

    def test_agrees_with_det_q_on_constants(self):
        rows = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
        m_p = [[Poly.constant(c) for c in row] for row in rows]
        assert det_p(m_p) == Poly.constant(det_q(rows))

    def test_two_poly_columns_rejected(self):
        x = Poly.monomial(1)
        with pytest.raises(MultiplePolyColumns):
            det_p([[x, x], [x, x]])

    def test_not_square(self):
        with pytest.raises(NotSquare):
            det_p([[Poly.one(), Poly.monomial(1)]])

    def test_zero_column(self):
        # a zero column beside the polynomial one, and a zero last column
        # that leaves no coefficient column at all
        x, zero = Poly.monomial(1), Poly.zero()
        assert det_p([[x, zero], [x, zero]]) == zero
        assert det_p([[Poly.one(), zero], [Poly.constant(2), zero]]) == zero


class TestConfluentVandermonde:
    def test_regular(self):
        a, b = F(2), F(5)
        v = vandermonde_confluent(2, RM((a, 1), (b, 1)))
        assert v == [[a, b], [1, 1]]

    def test_double_point_block(self):
        a = F(3)
        v = vandermonde_confluent(3, RM((a, 2)))
        assert v == [[a * a, 2 * a], [a, 1], [1, 0]]

    def test_powers_of_zero(self):
        v = vandermonde_confluent(3, RM((0, 1)))
        assert [row[0] for row in v] == [0, 0, 1]

    def test_too_many_columns(self):
        with pytest.raises(TooManyColumns):
            vandermonde_confluent(1, RM((1, 1), (2, 1)))

    def test_invertible_for_distinct_values(self):
        x = RM((F(-1), 2), (F(1, 2), 1), (3, 3))
        assert det_q(vandermonde_confluent(x.size, x)) != 0


class TestConfluentVandermondeWithX:
    def test_empty_points(self):
        v = vandermonde_confluent_with_x(2, RootMultiset.empty())
        assert v == [[Poly.monomial(1)], [Poly.one()]]

    def test_two_simple_points(self):
        a = F(4)
        v = vandermonde_confluent_with_x(3, RM((a, 1)))
        expect = [
            [Poly.constant(16), Poly.monomial(2)],
            [Poly.constant(4), Poly.monomial(1)],
            [Poly.one(), Poly.one()],
        ]
        assert v == expect

    def test_block_plus_monomial_column(self):
        a = F(2)
        v = vandermonde_confluent_with_x(3, RM((a, 2)))
        assert [row[:2] for row in v] == [
            [Poly.constant(4), Poly.constant(4)],
            [Poly.constant(2), Poly.one()],
            [Poly.one(), Poly.zero()]]
        assert [row[2] for row in v] == [
            Poly.monomial(2), Poly.monomial(1), Poly.one()]

    def test_too_many_columns(self):
        with pytest.raises(TooManyColumns):
            vandermonde_confluent_with_x(2, RM((1, 1), (2, 1)))


class TestRemoveRows:
    def test_noop(self):
        m = [[1, 2], [3, 4]]
        assert remove_rows(m, ()) == m

    def test_drop_top_of_vandermonde(self):
        a, b = F(2), F(5)
        v = vandermonde_confluent(3, RM((a, 1), (b, 1)))
        assert remove_rows(v, (1,)) == [[a, b], [1, 1]]

    def test_order_preserved(self):
        m = [[1, 0], [2, 0], [3, 0], [4, 0]]
        assert remove_rows(m, (1, 3)) == [[2, 0], [4, 0]]

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            remove_rows([[1]], (2,))

    def test_not_square_after(self):
        with pytest.raises(NotSquareAfterRemoval):
            remove_rows([[1, 2], [3, 4]], (1,))


def test_alternating_on_all_row_pairs():
    rows = [[1, 2, 3, 4], [0, 1, 0, 2], [5, 0, 1, 0], [2, 2, 0, 1]]
    d = det_q(rows)
    for i, j in combinations(range(4), 2):
        swapped = rows.copy()
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_q(swapped) == -d


# -- reference determinants ---------------------------------------------------
# The Fraction elimination and the cofactor expansion that det_q and det_p
# ran before both moved onto one integer Bareiss kernel. They check no
# arguments.


def ref_det_q(rows):
    n = len(rows)
    if n == 0:
        return F(1)
    a = [[F(c) for c in row] for row in rows]
    sign = 1
    prev = F(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return F(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) / prev
            row_i[k] = F(0)
        prev = pivot
    return a[-1][-1] * sign


def ref_det_p(rows):
    n = len(rows)
    if n == 0:
        return Poly.one()
    poly_cols = [j for j in range(n)
                 if any(not row[j].is_constant() for row in rows)]
    if not poly_cols:
        return Poly.constant(ref_det_q(
            [[c.constant_value() for c in row] for row in rows]))
    (col,) = poly_cols
    total = Poly.zero()
    for i in range(n):
        entry = rows[i][col]
        if entry.is_zero():
            continue
        minor = [[c.constant_value() for j, c in enumerate(row) if j != col]
                 for r, row in enumerate(rows) if r != i]
        cofactor = ref_det_q(minor)
        if (i + col) % 2:
            cofactor = -cofactor
        total = total + entry.scale(cofactor)
    return total


# Rationals with small denominators, zero one time in three, so that pivots
# vanish and rows must be swapped.
entries = st.one_of(st.just(F(0)),
                    st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
                    st.integers(-5, 5).map(F))


@st.composite
def square_rows(draw, max_n=7):
    """A square rational matrix as rows. About half are singular by
    construction, and half have a zero leading entry, so that the first
    pivot needs a row swap."""
    n = draw(st.integers(0, max_n))
    rows = [draw(st.lists(entries, min_size=n, max_size=n))
            for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c, e = draw(entries), draw(entries)
        rows[-1] = [c * x + e * y for x, y in zip(rows[0], rows[-2])]
    rows = draw(st.permutations(rows))
    if n >= 1 and draw(st.booleans()):
        rows[0][0] = F(0)
    return rows


@settings(max_examples=300, deadline=None)
@given(square_rows())
def test_det_q_matches_reference(rows):
    assert det_q(rows) == ref_det_q(rows)


polys = st.lists(entries, max_size=4).map(Poly)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_det_p_matches_reference(data):
    rows = data.draw(square_rows(max_n=6).filter(lambda r: len(r) >= 1))
    n = len(rows)
    col = data.draw(st.sampled_from([None] + list(range(n))))
    poly_rows = [[Poly.constant(c) for c in row] for row in rows]
    if col is not None:
        for row in poly_rows:
            row[col] = data.draw(polys)
    assert det_p(poly_rows) == ref_det_p(poly_rows)


@settings(max_examples=300, deadline=None)
@given(square_rows())
def test_det_z_matches_det_q(rows):
    # each row scaled to integers, which keeps the singular ones singular
    ints = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        ints.append([int(v * den) for v in row])
    assert det_z(ints) == det_q(ints) == ref_det_q(ints)


@st.composite
def bordered_rows(draw, max_n=6, max_border=4):
    """n integer rows of width n-1 plus up to max_border. Half need a row
    swap at the first pivot, and half have one of the first n-1 columns
    zero, so that it has no pivot."""
    n = draw(st.integers(1, max_n))
    width = n - 1 + draw(st.integers(1, max_border))
    ints = st.one_of(st.just(0), st.integers(-30, 30))
    rows = [draw(st.lists(ints, min_size=width, max_size=width))
            for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[0][0] = 0
    if n >= 2 and draw(st.booleans()):
        j = draw(st.integers(0, n - 2))
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(bordered_rows())
def test_det_z_bordered_matches_reference(rows):
    n = len(rows)
    want = [ref_det_q([row[:n - 1] + [row[j]] for row in rows])
            for j in range(n - 1, len(rows[0]))]
    assert det_z_bordered(rows) == want


@st.composite
def staircase_rows(draw, max_n=7, max_border=3):
    """n integer rows of width n-1 plus 1..max_border, row i with up to i
    leading zeros, in a drawn order, so that rows stay zero in the
    eliminated columns for several steps. Half the time the last row
    repeats a multiple of the first in its first j columns, so that a later
    pivot vanishes and a row is swapped in, or (j = width) the rank
    drops."""
    n = draw(st.integers(1, max_n))
    width = n - 1 + draw(st.integers(1, max_border))
    rows = []
    for i in range(n):
        zeros = draw(st.integers(0, i))
        rows.append([0] * zeros + draw(st.lists(
            st.integers(-9, 9), min_size=width - zeros,
            max_size=width - zeros)))
    if n >= 2 and draw(st.booleans()):
        c, j = draw(st.integers(-3, 3)), draw(st.integers(1, width))
        rows[-1][:j] = [c * x for x in rows[0][:j]]
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(staircase_rows())
def test_staircases_match_reference(rows):
    n = len(rows)
    square = [row[:n] for row in rows]
    assert det_z(square) == ref_det_q(square)
    want = [ref_det_q([row[:n - 1] + [row[j]] for row in rows])
            for j in range(n - 1, len(rows[0]))]
    assert det_z_bordered(rows) == want
