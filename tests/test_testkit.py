from fractions import Fraction

import pytest

from jordanform import Mat, char_poly, jordan_form
from jordanform.testkit import (
    BlockSpec,
    build_jordan_matrix,
    fraction_rref,
    random_block_spec,
    random_similar,
    random_unimodular,
    weyr_oracle,
)

from helpers import MIXED_4X4, TWO_BLOCK_7X7


class TestWeyrOracle:
    def test_mixed_4x4_at_eigenvalues(self):
        assert weyr_oracle(MIXED_4X4, 2) == (2, 1)
        assert weyr_oracle(MIXED_4X4, 4) == (1,)

    def test_non_eigenvalue_is_empty(self):
        assert weyr_oracle(MIXED_4X4, 3) == ()

    def test_two_block_7x7(self):
        assert weyr_oracle(TWO_BLOCK_7X7, 0) == (6, 1)

    def test_sizes_sum_to_dimension(self):
        for seed in range(20):
            spec = random_block_spec(seed, max_dim=6)
            a, _ = random_similar(spec, seed)
            total = sum(sum(weyr_oracle(a, lam)) for lam, _ in spec.pairs)
            assert total == a.nrows

    def test_self_check_on_ground_truth(self):
        for seed in range(20):
            spec = random_block_spec(seed, max_dim=6)
            j = build_jordan_matrix(spec)
            for lam, sizes in spec.pairs:
                assert weyr_oracle(j, lam) == sizes


class TestBuildJordanMatrix:
    def test_single_nilpotent_block(self):
        expected = Mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        assert build_jordan_matrix(BlockSpec(pairs=((Fraction(0), (4,)),))) == expected

    def test_mixed_structure(self):
        spec = BlockSpec(pairs=((Fraction(2), (2, 1)), (Fraction(4), (1,))))
        expected = Mat([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]])
        assert build_jordan_matrix(spec) == expected

    def test_scalar(self):
        assert build_jordan_matrix(BlockSpec(pairs=((Fraction(5), (1,)),))) == Mat([[5]])

    def test_spec_normalization_and_validation(self):
        spec = BlockSpec(pairs=((Fraction(4), (1,)), (Fraction(2), (1, 2))))
        assert spec.pairs == ((Fraction(2), (2, 1)), (Fraction(4), (1,)))
        assert spec.dimension == 4
        with pytest.raises(ValueError):
            BlockSpec(pairs=((Fraction(1), (1,)), (Fraction(1), (2,))))


class TestRandomUnimodular:
    def test_zero_steps_is_identity(self):
        assert random_unimodular(4, seed=9, steps=0) == Mat.identity(4)

    def test_determinant_is_unit(self):
        for seed in range(10):
            s = random_unimodular(5, seed=seed)
            assert abs(fraction_rref(s)[2]) == 1

    def test_seed_determinism(self):
        a = random_unimodular(6, seed=42, steps=24, bound=3)
        b = random_unimodular(6, seed=42, steps=24, bound=3)
        assert a == b
        assert a != random_unimodular(6, seed=43, steps=24, bound=3)


class TestRandomSimilar:
    def test_nilpotent_rank_preserved(self):
        spec = BlockSpec(pairs=((Fraction(0), (2,)),))
        a, _ = random_similar(spec, seed=3)
        assert a.rank() == 1
        assert (a * a).is_zero

    def test_characteristic_polynomial_invariant(self):
        spec = BlockSpec(pairs=((Fraction(1), (2,)), (Fraction(-2), (1,))))
        a, _ = random_similar(spec, seed=8)
        assert char_poly(a) == char_poly(build_jordan_matrix(spec))

    def test_rank_powers_invariant(self):
        spec = BlockSpec(pairs=((Fraction(2), (2, 1)), (Fraction(4), (1,))))
        a, s = random_similar(spec, seed=11)
        j = build_jordan_matrix(spec)
        assert a == s * j * s.inverse()
        for lam, _ in spec.pairs:
            sa = a - lam * Mat.identity(4)
            sj = j - lam * Mat.identity(4)
            for k in range(1, 5):
                assert (sa ** k).rank() == (sj ** k).rank()

    def test_loop_closes_through_jordan_form(self):
        spec = BlockSpec(pairs=((Fraction(2), (2, 1)), (Fraction(4), (1,))))
        for seed in range(5):
            a, _ = random_similar(spec, seed)
            assert jordan_form(a).spectrum_blocks == spec.pairs


def test_random_block_spec_is_deterministic_and_bounded():
    for seed in range(30):
        spec = random_block_spec(seed, max_dim=8)
        assert spec == random_block_spec(seed, max_dim=8)
        assert 1 <= spec.dimension <= 8
