import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordanform.nilpotent

from jordanform import (
    CyclicDecomposition,
    InvalidDecomposition,
    Mat,
    NotABasis,
    NotNilpotent,
    ZeroVector,
    block_generators,
    block_sizes,
    chains_to_basis,
    block_diag,
    d_sequence,
    extend_independent,
    height,
    jordan_block,
    nilpotency_index,
    validate_generators,
)
from jordanform.testkit import d_sequence_restricted, weyr_oracle

from helpers import (
    NILPOTENT_4X4,
    SEVEN_LOW_GENERATOR,
    SHIFTED_3X3,
    TWO_BLOCK_7X7,
    random_nilpotent,
    unit,
)


class TestNilpotencyIndex:
    def test_two_block_7x7(self):
        assert nilpotency_index(TWO_BLOCK_7X7) == 6

    def test_zero_matrix(self):
        assert nilpotency_index(Mat.zeros(3, 3)) == 1

    def test_single_chain(self):
        assert nilpotency_index(NILPOTENT_4X4) == 4

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotency_index(Mat.identity(2))


class TestHeight:
    def test_chain_generator(self):
        assert height(NILPOTENT_4X4, unit(4, 3)) == 4

    def test_kernel_vectors_have_height_one(self):
        for v in NILPOTENT_4X4.nullspace_basis():
            assert height(NILPOTENT_4X4, v) == 1

    def test_tall_generator_7x7(self):
        assert height(TWO_BLOCK_7X7, unit(7, 6)) == 6

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            height(NILPOTENT_4X4, (0, 0, 0, 0))


class TestDSequence:
    def test_shifted_3x3(self):
        seq = d_sequence(SHIFTED_3X3)
        assert seq.values == (2, 1, 0)
        assert seq.index_of_nilpotency == 2

    def test_single_shift_block(self):
        assert d_sequence(jordan_block(0, 5)).values == (1, 1, 1, 1, 1, 0)

    def test_zero_matrix(self):
        assert d_sequence(Mat.zeros(3, 3)).values == (3, 0)

    def test_weakly_decreasing_and_sums_to_dim(self):
        for seed in range(30):
            a, _ = random_nilpotent(seed)
            d = d_sequence(a).values
            assert all(x >= y for x, y in zip(d, d[1:]))
            assert d[-1] == 0
            assert sum(i * (d[i - 1] - d[i]) for i in range(1, len(d))) == a.nrows

    def test_both_paths_agree(self):
        for seed in range(30):
            a, _ = random_nilpotent(seed)
            assert d_sequence(a).values == d_sequence_restricted(a)


class TestBlockSizes:
    def test_single_chain(self):
        assert block_sizes(NILPOTENT_4X4) == (4,)

    def test_shifted_3x3(self):
        assert block_sizes(SHIFTED_3X3) == (2, 1)

    def test_two_block_7x7(self):
        assert block_sizes(TWO_BLOCK_7X7) == (6, 1)

    def test_matches_oracle_and_counts(self):
        for seed in range(40):
            a, truth = random_nilpotent(seed)
            sizes = block_sizes(a)
            assert sizes == truth
            assert sizes == weyr_oracle(a, 0)
            assert sum(sizes) == a.nrows
            assert len(sizes) == len(a.nullspace_basis())


class TestBlockGenerators:
    def test_single_chain_generator_is_e4(self):
        dec = block_generators(NILPOTENT_4X4)
        assert dec.chains == ((unit(4, 3), 4),)

    def test_zero_matrix_gives_unit_chains(self):
        dec = block_generators(Mat.zeros(2, 2))
        assert dec.chains == ((unit(2, 0), 1), (unit(2, 1), 1))

    def test_7x7_output_validates(self):
        dec = block_generators(TWO_BLOCK_7X7)
        gens = [g for g, _ in dec.chains]
        assert validate_generators(TWO_BLOCK_7X7, gens) == (6, 1)

    def test_known_generators_also_validate(self):
        heights = validate_generators(
            TWO_BLOCK_7X7, [SEVEN_LOW_GENERATOR, unit(7, 6)]
        )
        assert heights == (6, 1)

    def test_output_always_validates(self):
        for seed in range(40):
            a, truth = random_nilpotent(seed)
            dec = block_generators(a)
            assert dec.heights == truth
            gens = [g for g, _ in dec.chains]
            assert validate_generators(a, gens) == block_sizes(a)


def whole_tail_generators(a: Mat) -> tuple:
    """Chain generators by the sweep that extends a basis of N(A^(s-1)) plus
    the whole tail, the last s vectors, of every chain taller than s."""
    kernels = [(a ** k).nullspace_basis() for k in range(nilpotency_index(a) + 1)]
    chains, walks = [], []
    for size in range(len(kernels) - 1, 0, -1):
        existing = list(kernels[size - 1])
        for walk in walks:
            existing.extend(walk[len(walk) - size:])
        for g in extend_independent(existing, kernels[size]):
            walk = [g]
            while len(walk) < size:
                walk.append(a.apply(walk[-1]))
            chains.append((g, size))
            walks.append(walk)
    return tuple(chains)


class TestBoundaryVectorSweep:
    """``block_generators`` extends N(A^(s-1)) by the height-s vector of
    each taller chain only; the span, and so every generator, is the one
    the whole tails give."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), max_dim=st.integers(1, 8))
    def test_matches_the_whole_tail_sweep(self, seed, max_dim):
        a, _ = random_nilpotent(seed, max_dim)
        assert block_generators(a).chains == whole_tail_generators(a)

    def test_existing_holds_one_vector_per_taller_chain(self, monkeypatch):
        sizes, applies = [], []
        extend, apply = jordanform.nilpotent.extend_independent, Mat.apply

        def recording_extend(existing, candidates):
            sizes.append(len(existing))
            return extend(existing, candidates)

        def counting_apply(self, vector):
            applies.append(vector)
            return apply(self, vector)

        monkeypatch.setattr(jordanform.nilpotent, "extend_independent", recording_extend)
        monkeypatch.setattr(Mat, "apply", counting_apply)
        a = block_diag([jordan_block(0, 3), jordan_block(0, 2)])
        assert block_generators(a).heights == (3, 2)
        # N(A^2) has dimension 4 at size 3; N(A) plus one top at size 2.
        assert sizes == [4, 3]
        # h - 1 products per chain of height h.
        assert len(applies) == 2 + 1


class TestChainsToBasis:
    def test_single_chain_shift_form(self):
        dec = block_generators(NILPOTENT_4X4)
        p, j = chains_to_basis(NILPOTENT_4X4, dec)
        assert j == jordan_block(0, 4)
        assert NILPOTENT_4X4 * p == p * j

    def test_zero_matrix(self):
        dec = CyclicDecomposition(chains=((unit(2, 0), 1), (unit(2, 1), 1)))
        p, j = chains_to_basis(Mat.zeros(2, 2), dec)
        assert p == Mat.identity(2)
        assert j == Mat.zeros(2, 2)

    def test_shifted_3x3_descending_blocks(self):
        dec = block_generators(SHIFTED_3X3)
        p, j = chains_to_basis(SHIFTED_3X3, dec)
        assert j == Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert SHIFTED_3X3 * p == p * j

    def test_wrong_height_rejected(self):
        dec = CyclicDecomposition(chains=((unit(4, 3), 3), (unit(4, 0), 1)))
        with pytest.raises(InvalidDecomposition):
            chains_to_basis(NILPOTENT_4X4, dec)

    def test_dependent_chains_rejected(self):
        dec = CyclicDecomposition(chains=((unit(2, 0), 1), (unit(2, 0), 1)))
        with pytest.raises(InvalidDecomposition):
            chains_to_basis(Mat.zeros(2, 2), dec)

    def test_wrong_span_rejected(self):
        dec = CyclicDecomposition(chains=((unit(4, 3), 4), (unit(4, 0), 1)))
        with pytest.raises(InvalidDecomposition):
            chains_to_basis(NILPOTENT_4X4, dec)

    def test_height_below_one_rejected(self):
        for h in (0, -1):
            dec = CyclicDecomposition(chains=(((1,), h),))
            with pytest.raises(InvalidDecomposition):
                chains_to_basis(Mat.zeros(1, 1), dec)
            with pytest.raises(InvalidDecomposition):
                chains_to_basis(Mat.identity(1), dec)


class TestValidateGenerators:
    def test_accepts_true_generator(self):
        assert validate_generators(NILPOTENT_4X4, [unit(4, 3)]) == (4,)

    def test_walks_each_chain_once(self, monkeypatch):
        calls = []
        apply = Mat.apply

        def counting(self, vector):
            calls.append(vector)
            return apply(self, vector)

        monkeypatch.setattr(Mat, "apply", counting)
        assert validate_generators(NILPOTENT_4X4, [unit(4, 3)]) == (4,)
        assert len(calls) == 4

    def test_rejects_short_chain(self):
        with pytest.raises(NotABasis):
            validate_generators(NILPOTENT_4X4, [unit(4, 0)])

    def test_rejects_zero_generator(self):
        with pytest.raises(ZeroVector):
            validate_generators(NILPOTENT_4X4, [(0, 0, 0, 0)])


def test_one_dimensional_and_degenerate_inputs():
    z = Mat([[0]])
    assert nilpotency_index(z) == 1
    assert block_sizes(z) == (1,)
    assert block_generators(z).chains == ((unit(1, 0), 1),)
    with pytest.raises(NotNilpotent):
        d_sequence(Mat([[1]]))
    with pytest.raises(NotNilpotent):
        block_generators(Mat.identity(2))
    with pytest.raises(ValueError):
        nilpotency_index(Mat([], ncols=0))
    with pytest.raises(InvalidDecomposition):
        chains_to_basis(z, CyclicDecomposition(chains=()))


def test_chain_vectors_are_independent():
    # Nonzero v of height h spans an h-dimensional cyclic subspace.
    rng = random.Random(5)
    for seed in range(40):
        a, _ = random_nilpotent(seed)
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(a.nrows))
        if all(x == 0 for x in v):
            v = unit(a.nrows, 0)
        h = height(a, v)
        chain = [v]
        for _ in range(h - 1):
            chain.append(a.apply(chain[-1]))
        assert Mat.from_columns(chain).rank() == h


def test_equal_height_generators_independent_modulo_lower_kernel():
    for seed in range(40):
        a, _ = random_nilpotent(seed)
        dec = block_generators(a)
        by_height: dict[int, list] = {}
        for g, h in dec.chains:
            by_height.setdefault(h, []).append(g)
        for h, gens in by_height.items():
            lower = (a ** (h - 1)).nullspace_basis()
            stacked = Mat.from_columns(lower + gens, nrows=a.nrows)
            assert stacked.rank() == len(lower) + len(gens)
