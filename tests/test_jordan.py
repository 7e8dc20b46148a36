import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordanform.jordan
from jordanform import (
    DimensionMismatch,
    IrrationalSpectrum,
    JordanDecomposition,
    Mat,
    NotInvariant,
    Poly,
    Spectrum,
    X,
    block_diag,
    char_poly,
    eigenvalues,
    generalized_eigenspace,
    jordan_block,
    jordan_blocks,
    jordan_form,
    jordan_structure,
    matrix_exp,
    nilpotency_index,
    restrict,
    similar,
    validate_decomposition,
)
from jordanform.testkit import (
    build_jordan_matrix,
    BlockSpec,
    matrix_exp_via_jordan,
    random_block_spec,
    random_similar,
)

from helpers import (
    CONJUGATE_5X5_A,
    CONJUGATE_5X5_B,
    MIXED_4X4,
    NILPOTENT_4X4,
    ROTATION_2X2,
    assert_exp_identities,
    unit,
)


@pytest.fixture
def products(monkeypatch):
    """Right factors of the Mat x Mat products made while the test runs."""
    seen = []
    multiply = Mat.__mul__

    def counting(left, right):
        if isinstance(right, Mat):
            seen.append(right)
        return multiply(left, right)

    monkeypatch.setattr(Mat, "__mul__", counting)
    return seen


def linear(root) -> Poly:
    return Poly([-root, 1])


class TestCharPoly:
    def test_mixed_4x4(self):
        assert char_poly(MIXED_4X4) == linear(2) ** 3 * linear(4)

    def test_nilpotent(self):
        assert char_poly(NILPOTENT_4X4) == X ** 4

    def test_identity(self):
        assert char_poly(Mat.identity(2)) == linear(1) ** 2

    def test_fractional_entries(self):
        m = Mat([["1/2", 0], [0, "1/3"]])
        assert char_poly(m) == linear(Fraction(1, 2)) * linear(Fraction(1, 3))

    def test_empty_operator_is_refused(self):
        empty = Mat([], ncols=0)
        for f in (char_poly, jordan_form, matrix_exp):
            with pytest.raises(ValueError):
                f(empty)

    def test_recursion_starts_from_a(self, products):
        for n in range(1, 6):
            products.clear()
            assert char_poly(jordan_block(2, n)) == linear(2) ** n
            assert len(products) == n - 1


class TestEigenvalues:
    def test_mixed_4x4(self):
        assert eigenvalues(MIXED_4X4).pairs == ((Fraction(2), 3), (Fraction(4), 1))

    def test_rotation_is_out_of_scope(self):
        with pytest.raises(IrrationalSpectrum) as info:
            eigenvalues(ROTATION_2X2)
        assert info.value.residual == Poly([1, 0, 1])

    def test_repeated_fraction(self):
        m = Fraction(1, 2) * Mat.identity(2)
        assert eigenvalues(m).pairs == ((Fraction(1, 2), 2),)

    def test_spectrum_is_ascending_and_complete(self):
        s = eigenvalues(Mat([[3, 0], [0, -1]]))
        assert s.pairs == ((Fraction(-1), 1), (Fraction(3), 1))
        assert s.dimension == 2

    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(pairs=((Fraction(1), 1), (Fraction(1), 1)))


class TestGeneralizedEigenspace:
    def test_three_dimensional_space(self):
        basis = generalized_eigenspace(MIXED_4X4, 2, 3)
        assert basis == [unit(4, 0), unit(4, 1), unit(4, 2)]

    def test_simple_eigenvalue(self):
        basis = generalized_eigenspace(MIXED_4X4, 4, 1)
        assert len(basis) == 1
        lam_image = MIXED_4X4.apply(basis[0])
        assert lam_image == tuple(4 * x for x in basis[0])

    def test_diagonal_matrix(self):
        m = Mat([[5, 0, 0], [0, 7, 0], [0, 0, 5]])
        assert generalized_eigenspace(m, 5, 2) == [unit(3, 0), unit(3, 2)]

    def test_wrong_multiplicity_detected(self):
        with pytest.raises(DimensionMismatch):
            generalized_eigenspace(MIXED_4X4, 2, 2)

    def test_smaller_multiplicity_can_pass(self):
        assert generalized_eigenspace(jordan_block(5, 3), 5, 2) == [unit(3, 0), unit(3, 1)]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_the_kernel_of_the_power(self, seed):
        a, _ = random_similar(random_block_spec(seed, max_dim=5), seed)
        n = a.nrows
        values = [lam for lam, _ in eigenvalues(a).pairs]
        for lam in values + [max(values) + 1]:
            shifted = a - lam * Mat.identity(n)
            for m in range(n + 2):
                expected = (shifted ** m).nullspace_basis()
                if len(expected) == m:
                    assert generalized_eigenspace(a, lam, m) == expected
                else:
                    with pytest.raises(DimensionMismatch):
                        generalized_eigenspace(a, lam, m)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_eigenbasis_coordinates_carry_every_canonical_kernel(self, seed):
        # Ground for one kernel walk on the full space feeding the chain
        # generators: B's rows at F, each basis vector's last nonzero index,
        # are the identity, so the coordinates of x in B are x's entries at F,
        # and the canonical kernel bases of the restricted operator's powers
        # lift through B to exactly those of (A - lambda I)^k.
        a, _ = random_similar(random_block_spec(seed, max_dim=7), seed + 10_000)
        for lam, mult in eigenvalues(a).pairs:
            basis = generalized_eigenspace(a, lam, mult)
            b = Mat.from_columns(basis, nrows=a.nrows)
            free = [max(i for i, x in enumerate(v) if x) for v in basis]
            assert Mat([b.row(f) for f in free]) == Mat.identity(mult)
            restricted = restrict(a, basis)
            image = a * b
            assert restricted == Mat([image.row(f) for f in free])
            nil = restricted - lam * Mat.identity(mult)
            shifted = a - lam * Mat.identity(a.nrows)
            for k in range(1, nilpotency_index(nil) + 1):
                lifted = [b.apply(v) for v in (nil ** k).nullspace_basis()]
                assert lifted == (shifted ** k).nullspace_basis()

    def test_matrix_products_stop_with_the_kernels(self, products):
        diagonalizable = block_diag([jordan_block(2, 1)] * 4 + [jordan_block(7, 1)])
        assert len(generalized_eigenspace(diagonalizable, 2, 4)) == 4
        assert len(products) == 1
        for m in range(1, 6):
            products.clear()
            assert len(generalized_eigenspace(jordan_block(3, m), 3, m)) == m
            assert len(products) == m - 1

    def test_one_elimination_per_kernel(self, monkeypatch):
        calls = []
        rref = Mat.rref

        def counting(m):
            calls.append(m)
            return rref(m)

        monkeypatch.setattr(Mat, "rref", counting)
        for m in range(1, 6):
            calls.clear()
            assert len(generalized_eigenspace(jordan_block(3, m), 3, m)) == m
            assert len(calls) == m


class TestRestrict:
    def test_invariant_subspace(self):
        basis = [unit(4, 0), unit(4, 1), unit(4, 2)]
        assert restrict(MIXED_4X4, basis) == Mat([[2, 0, 2], [0, 2, 1], [0, 0, 2]])

    def test_full_basis_reproduces_operator(self):
        basis = [unit(4, i) for i in range(4)]
        assert restrict(MIXED_4X4, basis) == MIXED_4X4

    def test_eigenvector_line(self):
        v = generalized_eigenspace(MIXED_4X4, 4, 1)[0]
        assert restrict(MIXED_4X4, [v]) == Mat([[4]])

    def test_non_invariant_rejected(self):
        with pytest.raises(NotInvariant):
            restrict(NILPOTENT_4X4, [unit(4, 1)])

    def test_image_is_one_product(self, products, monkeypatch):
        def forbidden(self, vector):
            raise AssertionError("restrict applied A to one vector at a time")

        monkeypatch.setattr(Mat, "apply", forbidden)
        basis = [unit(4, 0), unit(4, 1), unit(4, 2)]
        assert restrict(MIXED_4X4, basis) == Mat([[2, 0, 2], [0, 2, 1], [0, 0, 2]])
        assert len(products) == 1


class TestJordanForm:
    def test_mixed_4x4(self):
        dec = jordan_form(MIXED_4X4)
        assert dec.spectrum_blocks == (
            (Fraction(2), (2, 1)),
            (Fraction(4), (1,)),
        )
        assert dec.j == Mat(
            [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]]
        )
        assert MIXED_4X4 * dec.p == dec.p * dec.j
        assert dec.p.rank() == 4

    def test_full_chain_5x5_pair(self):
        for m in (CONJUGATE_5X5_A, CONJUGATE_5X5_B):
            dec = jordan_form(m)
            assert dec.spectrum_blocks == ((Fraction(0), (5,)),)

    def test_scalar_matrix(self):
        dec = jordan_form(Mat([["5/2"]]))
        assert dec.spectrum_blocks == ((Fraction(5, 2), (1,)),)
        assert dec.j == Mat([["5/2"]])
        assert dec.p == Mat.identity(1)

    def test_diagonal_matrix_sorted(self):
        m = Mat([[3, 0, 0], [0, 1, 0], [0, 0, 2]])
        dec = jordan_form(m)
        assert dec.j == Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert dec.spectrum_blocks == (
            (Fraction(1), (1,)),
            (Fraction(2), (1,)),
            (Fraction(3), (1,)),
        )

    def test_per_eigenvalue_counts(self):
        for seed in range(20):
            spec = random_block_spec(seed, max_dim=6)
            a, _ = random_similar(spec, seed + 50)
            dec = jordan_form(a)
            n = a.nrows
            for lam, sizes in dec.spectrum_blocks:
                shifted = a - lam * Mat.identity(n)
                assert len(sizes) == len(shifted.nullspace_basis())
                assert sum(sizes) == sum(dict(spec.pairs)[lam])
                k = 1
                power = shifted
                while power.rank() != (power * shifted).rank():
                    power = power * shifted
                    k += 1
                assert max(sizes) == k


class TestSimilar:
    def test_conjugate_pair_has_verified_witness(self):
        s = similar(CONJUGATE_5X5_A, CONJUGATE_5X5_B)
        assert s is not None
        assert CONJUGATE_5X5_A * s == s * CONJUGATE_5X5_B
        assert s.rank() == 5

    def test_self_similarity(self):
        assert similar(MIXED_4X4, MIXED_4X4) == Mat.identity(4)

    def test_different_block_structure(self):
        assert similar(Mat([[0, 1], [0, 0]]), Mat.zeros(2, 2)) is None

    def test_different_spectra_rejected_before_decomposing(self, monkeypatch):
        def forbidden(a):
            raise AssertionError("block_generators called on a spectrum mismatch")

        monkeypatch.setattr(jordanform.jordan, "block_generators", forbidden)
        assert similar(MIXED_4X4, Mat.identity(4)) is None

    def test_transitive_with_witnesses(self):
        spec = BlockSpec(pairs=((Fraction(2), (2, 1)), (Fraction(4), (1,))))
        a, _ = random_similar(spec, 1)
        b, _ = random_similar(spec, 2)
        c, _ = random_similar(spec, 3)
        sab, sbc, sac = similar(a, b), similar(b, c), similar(a, c)
        for left, right, witness in ((a, b, sab), (b, c, sbc), (a, c, sac)):
            assert witness is not None
            assert left * witness == witness * right


class TestMatrixExp:
    def test_single_shift_block(self):
        exp = matrix_exp(Mat([[0, 1], [0, 0]]))
        assert exp.terms == (
            (Fraction(0), ((Poly([1]), Poly([0, 1])), (Poly([0]), Poly([1])))),
        )

    def test_diagonal(self):
        exp = matrix_exp(Mat([[2, 0], [0, 4]]))
        one, zero = Poly([1]), Poly()
        assert exp.terms == (
            (Fraction(2), ((one, zero), (zero, zero))),
            (Fraction(4), ((zero, zero), (zero, one))),
        )

    def test_mixed_4x4_routes_agree(self):
        via_basis = matrix_exp(MIXED_4X4)
        via_jordan = matrix_exp_via_jordan(MIXED_4X4)
        assert via_basis == via_jordan
        assert_exp_identities(MIXED_4X4, via_basis)

    def test_degree_bounded_by_largest_block(self):
        exp = matrix_exp(MIXED_4X4)
        degrees = {lam: max(p.degree for row in coeff for p in row) for lam, coeff in exp.terms}
        assert degrees == {Fraction(2): 1, Fraction(4): 0}

    def test_irrational_spectrum_propagates(self):
        with pytest.raises(IrrationalSpectrum):
            matrix_exp(ROTATION_2X2)

    def test_series_forms_no_zero_power(self, products):
        matrix_exp(block_diag([jordan_block(2, 1), jordan_block(3, 1), jordan_block(5, 1)]))
        assert len(products) == 5
        products.clear()
        matrix_exp(jordan_block(3, 4))
        assert len(products) == 10

    def test_never_restricts(self, monkeypatch):
        expected = matrix_exp_via_jordan(MIXED_4X4)

        def forbidden(a, basis):
            raise AssertionError("matrix_exp restricted A to an eigenspace")

        monkeypatch.setattr(jordanform.jordan, "restrict", forbidden)
        assert matrix_exp(MIXED_4X4) == expected


class TestValidateDecomposition:
    def test_own_output_is_valid(self):
        dec = jordan_form(MIXED_4X4)
        assert validate_decomposition(MIXED_4X4, dec)

    def test_perturbed_transition_matrix_fails(self):
        dec = jordan_form(MIXED_4X4)
        rows = [list(dec.p.row(i)) for i in range(4)]
        rows[0][0] += 1
        bad = JordanDecomposition(spectrum_blocks=dec.spectrum_blocks, j=dec.j, p=Mat(rows))
        assert not validate_decomposition(MIXED_4X4, bad)

    def test_non_canonical_block_order_fails(self):
        dec = jordan_form(MIXED_4X4)
        reordered = Mat([[2, 0, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 4]])
        bad = JordanDecomposition(
            spectrum_blocks=dec.spectrum_blocks, j=reordered, p=dec.p
        )
        assert not validate_decomposition(MIXED_4X4, bad)

    def test_dimension_mismatch_is_an_error(self):
        dec = jordan_form(MIXED_4X4)
        with pytest.raises(ValueError):
            validate_decomposition(Mat.identity(3), dec)


class TestJordanStructure:
    def test_canonical_matrix_parses(self):
        j = jordan_form(MIXED_4X4).j
        assert jordan_structure(j) == ((Fraction(2), (2, 1)), (Fraction(4), (1,)))

    def test_non_canonical_order_parses_loosely_only(self):
        j = Mat([[2, 0, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 4]])
        assert jordan_blocks(j) == [(Fraction(2), 1), (Fraction(2), 2), (Fraction(4), 1)]
        assert jordan_structure(j) is None

    def test_non_jordan_matrix_rejected(self):
        assert jordan_blocks(MIXED_4X4) is None
        assert jordan_structure(Mat([[0, 2], [0, 0]])) is None

    def test_round_trip_with_builder(self):
        spec = BlockSpec(pairs=((Fraction(-1), (3, 1)), (Fraction(1, 2), (2,))))
        j = build_jordan_matrix(spec)
        assert jordan_structure(j) == spec.pairs

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.dictionaries(
            st.integers(-2, 2), st.lists(st.integers(1, 3), min_size=1, max_size=3),
            min_size=1, max_size=3,
        ),
        data=st.data(),
    )
    def test_shuffled_blocks_parse_only_in_canonical_order(self, sizes, data):
        spec = tuple(
            (Fraction(lam), tuple(sorted(hs, reverse=True))) for lam, hs in sorted(sizes.items())
        )
        canonical = [(lam, h) for lam, hs in spec for h in hs]
        shuffled = data.draw(st.permutations(canonical))
        structure = jordan_structure(block_diag([jordan_block(lam, h) for lam, h in shuffled]))
        assert structure == (spec if shuffled == canonical else None)


class TestChecksSurviveOptimize:
    def test_no_assert_statement_in_production_modules(self):
        package = Path(jordanform.jordan.__file__).parent
        for path in sorted(package.glob("*.py")):
            if path.name == "testkit.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert lines == [], (path.name, lines)

    def test_wrong_j_is_caught_under_python_o(self):
        script = (
            "import jordanform.jordan as jj\n"
            "block = jj.jordan_block\n"
            "jj.jordan_block = lambda lam, h: block(lam + 1, h)\n"
            "try:\n"
            "    jj.jordan_form(jj.Mat([[1, 1], [0, 1]]))\n"
            "except AssertionError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        src = str(Path(jordanform.jordan.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "False A P != P J\n", "")


def test_conjugation_invariance_small():
    for seed in range(25):
        spec = random_block_spec(seed, max_dim=6)
        a, _ = random_similar(spec, seed + 99)
        dec = jordan_form(a)
        assert dec.spectrum_blocks == spec.pairs
        assert a * dec.p == dec.p * dec.j
