"""Jordan canonical form for square matrices with rational spectrum.

The pipeline per eigenvalue: characteristic polynomial, generalized
eigenspace, restriction to that subspace, shift to a nilpotent operator,
chain generators, and assembly of the transition matrix. The canonical
form orders eigenvalues ascending and blocks within an eigenvalue by
descending size, with 1 on the superdiagonal.

``matrix_exp`` needs no restriction and no chains: per eigenvalue it sums
powers of A - lambda I times the spectral projector onto the generalized
eigenspace.

Matrices whose characteristic polynomial does not split into rational
linear factors are out of scope and reported via IrrationalSpectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .matrices import (
    Mat,
    NoSolution,
    Vector,
    _kernel_tower,
    _shift,
    block_diag,
    jordan_block,
    solve_right,
)
from .nilpotent import block_generators, chains_to_basis
from .polynomials import Poly, rational_roots
from .rationals import _coerce, _count


class IrrationalSpectrum(Exception):
    """The characteristic polynomial has a nonconstant rational-root-free factor."""

    def __init__(self, residual: Poly):
        super().__init__(f"irreducible residual factor {residual}")
        self.residual = residual


class DimensionMismatch(Exception):
    """A computed subspace dimension disagrees with the expected one."""


class NotInvariant(Exception):
    """The given subspace is not invariant under the operator."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with algebraic multiplicities, ascending by eigenvalue."""

    pairs: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        normalized = tuple(sorted((_coerce(v), _count(m)) for v, m in self.pairs))
        if len({v for v, _ in normalized}) != len(normalized):
            raise ValueError("eigenvalues must be distinct")
        object.__setattr__(self, "pairs", normalized)

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.pairs)


@dataclass(frozen=True)
class JordanDecomposition:
    """Canonical block data plus J and an invertible P with A P = P J."""

    spectrum_blocks: tuple[tuple[Fraction, tuple[int, ...]], ...]
    j: Mat
    p: Mat


@dataclass(frozen=True)
class ExpMatrix:
    """exp(tA) as a sum of e^(lambda t) times polynomial matrices in t.

    ``terms`` holds one ``(eigenvalue, coefficient matrix)`` pair per
    eigenvalue, ascending; each coefficient matrix entry is a Poly in t of
    degree below the largest block size at that eigenvalue.
    """

    terms: tuple[tuple[Fraction, tuple[tuple[Poly, ...], ...]], ...]

    def at_zero(self) -> Mat:
        """Evaluate at t = 0; the sum over terms equals the identity."""
        n = len(self.terms[0][1])
        total = Mat.zeros(n, n)
        for _, coeff in self.terms:
            total = total + Mat([[entry(0) for entry in row] for row in coeff])
        return total


def char_poly(a: Mat) -> Poly:
    """Monic characteristic polynomial det(xI - A) by the trace recursion.

    Each step divides by an integer only, so the computation is exact
    over the rationals.
    """
    a._require_operator()
    n = a.nrows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    am = a  # A M_0, with M_0 = I
    for k in range(1, n + 1):
        coeffs[n - k] = -am.trace() / k
        m = _shift(am, -coeffs[n - k])
        if k < n:
            am = a * m
    if not m.is_zero:
        raise AssertionError("the trace recursion does not close (Cayley-Hamilton)")
    return Poly(coeffs)


def eigenvalues(a: Mat) -> Spectrum:
    """Rational eigenvalues with algebraic multiplicities.

    Raises IrrationalSpectrum carrying the unfactorable monic residual when
    the spectrum is not fully rational.
    """
    roots, residual = rational_roots(char_poly(a))
    if residual.degree > 0:
        raise IrrationalSpectrum(residual)
    return Spectrum(pairs=tuple(roots.items()))


def generalized_eigenspace(a: Mat, eigenvalue, multiplicity: int) -> list[Vector]:
    """Canonical kernel basis of (A - lambda I)^multiplicity; DimensionMismatch
    unless it has dimension ``multiplicity``. With the algebraic multiplicity
    this is the generalized eigenspace, but a smaller value can pass too: one
    3x3 block at lambda with multiplicity 2 gives the 2-dimensional kernel.
    """
    lam, multiplicity = _coerce(eigenvalue), _count(multiplicity)
    basis = _kernel_tower(_shift(a, lam), multiplicity)[-1]
    if len(basis) != multiplicity:
        raise DimensionMismatch(
            f"eigenspace for {lam} has dimension {len(basis)}, expected {multiplicity}"
        )
    return basis


def restrict(a: Mat, basis: list[Vector] | list) -> Mat:
    """Matrix of A on an invariant subspace, in the given basis.

    Returns M with A B = B M where B stacks the basis as columns.
    """
    stacked = Mat.from_columns(basis, nrows=a.nrows)
    try:
        return solve_right(stacked, a * stacked)
    except NoSolution:
        raise NotInvariant("subspace is not invariant under the operator") from None


def _decompose(a: Mat, spectrum: Spectrum) -> JordanDecomposition:
    """``jordan_form`` of A, given its already computed spectrum."""
    columns: list[Vector] = []
    j_blocks: list[Mat] = []
    spectrum_blocks = []
    for lam, mult in spectrum.pairs:
        basis = generalized_eigenspace(a, lam, mult)
        nil = _shift(restrict(a, basis), lam)
        decomposition = block_generators(nil)
        p_local, _ = chains_to_basis(nil, decomposition)
        columns.extend((Mat.from_columns(basis) * p_local).columns())
        j_blocks.extend(jordan_block(lam, h) for h in decomposition.heights)
        spectrum_blocks.append((lam, decomposition.heights))
    p = Mat.from_columns(columns, nrows=a.nrows)
    j = block_diag(j_blocks)
    if a * p != p * j:
        raise AssertionError("A P != P J")
    return JordanDecomposition(spectrum_blocks=tuple(spectrum_blocks), j=j, p=p)


def jordan_form(a: Mat) -> JordanDecomposition:
    """Canonical Jordan decomposition of a matrix with rational spectrum."""
    return _decompose(a, eigenvalues(a))


def jordan_blocks(j: Mat) -> list[tuple[Fraction, int]] | None:
    """Parse a matrix as a direct sum of Jordan blocks, in written order.

    Returns the ordered ``(eigenvalue, size)`` list, or None when the
    matrix is not block diagonal with Jordan blocks.
    """
    if not j.is_square or j.nrows == 0:
        return None
    blocks = []
    i = 0
    n = j.nrows
    while i < n:
        lam = j[i, i]
        size = 1
        while i + size < n and j[i + size - 1, i + size] == 1 and j[i + size, i + size] == lam:
            size += 1
        blocks.append((lam, size))
        i += size
    rebuilt = block_diag([jordan_block(lam, size) for lam, size in blocks])
    return blocks if rebuilt == j else None


def jordan_structure(j: Mat) -> tuple[tuple[Fraction, tuple[int, ...]], ...] | None:
    """Parse a canonical Jordan matrix into per-eigenvalue size multisets.

    Canonical means eigenvalues strictly ascending, each in one contiguous
    run, with sizes non-increasing inside a run. Returns None otherwise.
    """
    blocks = jordan_blocks(j)
    if blocks is None or blocks != sorted(blocks, key=lambda b: (b[0], -b[1])):
        return None
    grouped: dict[Fraction, list[int]] = {}
    for lam, size in blocks:
        grouped.setdefault(lam, []).append(size)
    return tuple((lam, tuple(sizes)) for lam, sizes in grouped.items())


def validate_decomposition(a: Mat, dec: JordanDecomposition) -> bool:
    """True iff P is invertible, A P = P J exactly, and J is the canonical
    Jordan matrix described by ``dec.spectrum_blocks``."""
    a._require_square()
    n = a.nrows
    if dec.j.nrows != n or dec.j.ncols != n or dec.p.nrows != n or dec.p.ncols != n:
        raise ValueError("decomposition dimensions do not match the operator")
    structure = jordan_structure(dec.j)
    if structure is None or structure != tuple(dec.spectrum_blocks):
        return False
    if dec.p.rank() != n:
        return False
    return a * dec.p == dec.p * dec.j


def similar(a: Mat, b: Mat) -> Mat | None:
    """Similarity witness S with S^-1 A S = B, or None when not similar.

    Two matrices with rational spectra are similar exactly when their
    canonical decompositions carry identical block data; the witness is
    then P_A P_B^-1. Different spectra are rejected before any eigenspace
    is computed.
    """
    spectrum_a = eigenvalues(a)
    spectrum_b = eigenvalues(b)
    if spectrum_a != spectrum_b:
        return None
    da = _decompose(a, spectrum_a)
    db = _decompose(b, spectrum_b)
    if da.spectrum_blocks != db.spectrum_blocks:
        return None
    return da.p * db.p.inverse()


def matrix_exp(a: Mat) -> ExpMatrix:
    """Closed-form exp(tA) from the spectral projectors of A.

    With B the generalized eigenbasis at lambda and R its block of rows in
    the inverse of all bases side by side, E = B R projects onto that
    eigenspace along the others. A - lambda I is nilpotent there, so the
    coefficient matrix of e^(lambda t) is the terminating sum over k of
    t^k (A - lambda I)^k E / k!.
    """
    bases = [(lam, generalized_eigenspace(a, lam, mult)) for lam, mult in eigenvalues(a).pairs]
    inverse = Mat.from_columns([v for _, basis in bases for v in basis], nrows=a.nrows).inverse()
    inverse_rows = (inverse.row(i) for i in range(a.nrows))
    terms = []
    for lam, basis in bases:
        # term = (A - lambda I)^k E / k!; the zero power k = mult is never formed.
        term = Mat.from_columns(basis) * Mat(islice(inverse_rows, len(basis)))
        series = [term]
        shifted = _shift(a, lam)
        for k in range(1, len(basis)):
            term = shifted * term * Fraction(1, k)
            if term.is_zero:
                break
            series.append(term)
        terms.append((lam, _series_to_poly_matrix(series)))
    return ExpMatrix(terms=tuple(terms))


def _series_to_poly_matrix(series: list[Mat]) -> tuple[tuple[Poly, ...], ...]:
    nrows, ncols = series[0].nrows, series[0].ncols
    return tuple(
        tuple(Poly([m[i, j] for m in series]) for j in range(ncols))
        for i in range(nrows)
    )
