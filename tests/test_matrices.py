from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanform import (
    Mat,
    NoSolution,
    RankDeficient,
    block_diag,
    extend_independent,
    jordan_block,
    solve_right,
)
from jordanform.testkit import fraction_product, fraction_rref

from helpers import NILPOTENT_4X4, SHIFTED_3X3, unit

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
wide_rationals = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**40))


@st.composite
def matrices(draw, max_rows=4, max_cols=4, square=False):
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.lists(small_rationals, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Mat(rows)


@st.composite
def vector_lists(draw, max_dim=4):
    """Two lists of vectors, ``existing`` and ``candidates``, of one dimension."""
    dim = draw(st.integers(1, max_dim))
    vector = st.tuples(*[small_rationals] * dim)
    return dim, draw(st.lists(vector, max_size=3)), draw(st.lists(vector, max_size=5))


@st.composite
def wide_matrices(draw, nrows=None, ncols=None, max_dim=4):
    """Wide-rational matrices, 0..max_dim on a side; a row may instead be
    zero, a copy of an earlier row or a multiple of one."""
    nrows = draw(st.integers(0, max_dim)) if nrows is None else nrows
    ncols = draw(st.integers(0, max_dim)) if ncols is None else ncols
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(["new", "zero", "copy", "multiple"] if i else ["new", "zero"]))
        if kind == "new":
            rows.append(draw(st.lists(wide_rationals, min_size=ncols, max_size=ncols)))
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            earlier = rows[draw(st.integers(0, i - 1))]
            factor = draw(wide_rationals) if kind == "multiple" else 1
            rows.append([factor * x for x in earlier])
    return Mat(rows, ncols=ncols)


def all_fractions(m: Mat) -> bool:
    return all(type(m[i, j]) is Fraction for i in range(m.nrows) for j in range(m.ncols))


def leibniz(m: Mat) -> Fraction:
    """det m as the signed sum over permutations."""
    n = m.nrows
    return sum(
        (
            (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
            * prod((m[i, p[i]] for i in range(n)), start=Fraction(1))
            for p in permutations(range(n))
        ),
        Fraction(0),
    )


class TestIntegerKernel:
    """Integer products and elimination against the Fraction oracles in
    ``jordanform.testkit``, on wide entries and degenerate shapes."""

    @given(data=st.data())
    def test_product(self, data):
        a = data.draw(wide_matrices())
        b = data.draw(wide_matrices(nrows=a.ncols))
        product = a * b
        assert product == fraction_product(a, b)
        assert all_fractions(product)

    @given(data=st.data())
    def test_apply(self, data):
        m = data.draw(wide_matrices())
        v = data.draw(st.lists(wide_rationals, min_size=m.ncols, max_size=m.ncols))
        image = m.apply(v)
        assert image == fraction_product(m, Mat.from_columns([v], nrows=m.ncols)).col(0)
        assert all(type(x) is Fraction for x in image)
        with pytest.raises(ValueError):
            m.apply(v + [0])

    @given(wide_matrices())
    def test_rref(self, m):
        result = m.rref()
        assert result == fraction_rref(m)[:2]
        assert all_fractions(result[0])

    @given(wide_matrices())
    def test_nullspace_basis(self, m):
        reduced, pivots, _ = fraction_rref(m)
        expected = []
        for free in sorted(set(range(m.ncols)) - set(pivots)):
            v = [Fraction(0)] * m.ncols
            v[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -reduced[r, free]
            expected.append(tuple(v))
        assert m.nullspace_basis() == expected


class TestRref:
    def test_identity_is_fixed(self):
        m = Mat.identity(3)
        reduced, pivots = m.rref()
        assert reduced == m and pivots == (0, 1, 2)

    def test_single_pivot_column(self):
        reduced, pivots = SHIFTED_3X3.rref()
        assert reduced == Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert pivots == (2,)

    def test_zero_matrix(self):
        reduced, pivots = Mat.zeros(2, 2).rref()
        assert reduced == Mat.zeros(2, 2) and pivots == ()

    @given(m=matrices())
    def test_idempotent(self, m):
        reduced, _ = m.rref()
        assert reduced.rref()[0] == reduced


class TestRank:
    def test_chain_matrix(self):
        assert NILPOTENT_4X4.rank() == 3

    def test_extremes(self):
        assert Mat.zeros(3, 3).rank() == 0
        assert Mat.identity(5).rank() == 5

    @given(m=matrices())
    def test_rank_nullity(self, m):
        assert m.rank() + len(m.nullspace_basis()) == m.ncols


class TestNullspace:
    def test_canonical_basis(self):
        assert SHIFTED_3X3.nullspace_basis() == [unit(3, 0), unit(3, 1)]

    def test_cube_of_chain_matrix(self):
        assert (NILPOTENT_4X4 ** 3).nullspace_basis() == [
            unit(4, 0),
            unit(4, 1),
            unit(4, 2),
        ]

    def test_identity_has_trivial_kernel(self):
        assert Mat.identity(4).nullspace_basis() == []

    @given(m=matrices())
    def test_members_are_annihilated(self, m):
        zero = tuple(Fraction(0) for _ in range(m.nrows))
        for v in m.nullspace_basis():
            assert m.apply(v) == zero


class TestSolveRight:
    def test_identity_left_factor(self):
        c = Mat([[1, 2], [3, 4]])
        assert solve_right(Mat.identity(2), c) == c

    def test_scaled_identity(self):
        assert solve_right(2 * Mat.identity(3), Mat.identity(3)) == Fraction(1, 2) * Mat.identity(3)

    def test_restriction_of_operator(self):
        a = Mat([[2, 0, 2, 1], [0, 2, 1, 1], [0, 0, 2, 2], [0, 0, 0, 4]])
        b = Mat.from_columns([unit(4, 0), unit(4, 1), unit(4, 2)])
        assert solve_right(b, a * b) == Mat([[2, 0, 2], [0, 2, 1], [0, 0, 2]])

    def test_no_solution(self):
        b = Mat.from_columns([unit(3, 0)])
        c = Mat.from_columns([unit(3, 1)])
        with pytest.raises(NoSolution):
            solve_right(b, c)

    def test_row_counts_must_match(self):
        with pytest.raises(ValueError):
            solve_right(Mat.identity(2), Mat.identity(3))

    def test_rank_deficient(self):
        b = Mat.from_columns([unit(3, 0), unit(3, 0)])
        with pytest.raises(RankDeficient):
            solve_right(b, Mat.zeros(3, 1))

    @given(b=matrices(square=True), m=matrices(square=True))
    def test_round_trip(self, b, m):
        if b.nrows != m.nrows or b.rank() != b.ncols:
            return
        c = b * m
        assert b * solve_right(b, c) == c


class TestPowers:
    def test_cube_has_single_entry(self):
        expected = Mat.zeros(4, 4)
        assert NILPOTENT_4X4 ** 3 == Mat(
            [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        assert NILPOTENT_4X4 ** 4 == expected

    def test_zeroth_power(self):
        m = Mat([[5, 1], [2, 3]])
        assert m ** 0 == Mat.identity(2)

    def test_first_power(self):
        m = Mat([[5, 1], [2, 3]])
        assert m ** 1 == m

    def test_shift_power_vanishes(self):
        assert jordan_block(0, 5) ** 5 == Mat.zeros(5, 5)


class TestExtendIndependent:
    def test_skips_dependent_candidates(self):
        e1, e2 = unit(3, 0), unit(3, 1)
        e12 = tuple(a + b for a, b in zip(e1, e2))
        assert extend_independent([e1], [e1, e2, e12]) == [e2]

    def test_completes_from_scratch(self):
        basis = [unit(3, i) for i in range(3)]
        assert extend_independent([], basis) == basis

    def test_completes_kernel_to_full_space(self):
        existing = (NILPOTENT_4X4 ** 3).nullspace_basis()
        candidates = [unit(4, i) for i in range(4)]
        assert extend_independent(existing, candidates) == [unit(4, 3)]

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            extend_independent([unit(2, 0)], [unit(3, 0)])

    @given(data=vector_lists())
    def test_keeps_exactly_the_rank_raising_candidates(self, data):
        dim, existing, candidates = data

        def rank(vectors):
            return Mat.from_columns(vectors, nrows=dim).rank()

        expected = [
            c for i, c in enumerate(candidates)
            if rank(existing + candidates[:i + 1]) > rank(existing + candidates[:i])
        ]
        assert extend_independent(existing, candidates) == expected


@given(m=matrices(square=True))
def test_preimages_of_column_basis_plus_kernel_form_basis(m):
    # Pivot columns are images of the matching standard vectors, so those
    # vectors are preimages of a column-space basis.
    _, pivots = m.rref()
    preimages = [unit(m.ncols, c) for c in pivots]
    vectors = preimages + m.nullspace_basis()
    assert len(vectors) == m.ncols
    assert Mat.from_columns(vectors, nrows=m.ncols).rank() == m.ncols


class TestDetInverse:
    def test_known_determinants(self):
        assert fraction_rref(Mat.identity(3))[2] == 1
        assert fraction_rref(Mat([[1, 2], [2, 4]]))[2] == 0
        assert fraction_rref(Mat([[1, 2], [3, 4]]))[2] == -2

    def test_det_with_row_swaps_and_fractional_pivots(self):
        m = Mat([[0, "1/3"], ["5/7", 2]])
        assert fraction_rref(m)[2] == leibniz(m) == Fraction(-5, 21)
        # Zero leading 2x2 block: det = det(upper right) * det(lower left).
        m = Mat([[0, 0, 2, "1/2"], [0, 0, "1/3", 5], [3, "1/5", 0, 7], ["1/2", 4, 1, 0]])
        assert fraction_rref(m)[2] == leibniz(m) == Fraction(59, 6) * Fraction(119, 10)

    @given(matrices(square=True))
    def test_det_is_the_leibniz_expansion(self, m):
        det = fraction_rref(m)[2]
        assert det == leibniz(m)
        assert (det != 0) == (m.rank() == m.nrows)

    def test_inverse_round_trip(self):
        m = Mat([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        assert m * m.inverse() == Mat.identity(3)

    def test_singular_inverse_raises(self):
        with pytest.raises(RankDeficient):
            Mat([[1, 1], [1, 1]]).inverse()


def test_block_diag_and_jordan_block():
    b = block_diag([jordan_block(2, 2), jordan_block(Fraction(1, 2), 1)])
    assert b == Mat([[2, 1, 0], [0, 2, 0], [0, 0, "1/2"]])


def test_matrices_are_value_like():
    m = Mat([[1, 2], [3, 4]])
    assert m == Mat([["1", "2"], ["3", "4"]])
    assert hash(m) == hash(Mat([[1, 2], [3, 4]]))
    assert m[0, 1] == 2
    assert m.col(1) == (Fraction(2), Fraction(4))
