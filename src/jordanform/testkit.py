"""Independent oracles and deterministic random instance generators.

The oracles here rederive results by routes the library itself does not
take: block sizes purely from ranks of powers, the d-sequence from
restrictions to the ranges of powers, and exp(tA) through P exp(tJ) P^-1.
They share nothing with the chain and quotient logic they are used to
check. All randomness flows from explicit seeds through local generators; no
global state is touched.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .jordan import ExpMatrix, _series_to_poly_matrix, jordan_form
from .matrices import Mat, block_diag, jordan_block, solve_right
from .nilpotent import NotNilpotent
from .rationals import _coerce, _count


@dataclass(frozen=True)
class BlockSpec:
    """Ground-truth block structure: per-eigenvalue size multisets.

    Normalized to eigenvalues ascending and sizes descending, matching the
    canonical form produced by the decomposition code, so recovered block
    data can be compared with ``==``.
    """

    pairs: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __post_init__(self):
        items = self.pairs.items() if isinstance(self.pairs, dict) else self.pairs
        normalized = tuple(
            sorted(
                (_coerce(v), tuple(sorted(map(_count, sizes), reverse=True)))
                for v, sizes in items
            )
        )
        if len({v for v, _ in normalized}) != len(normalized):
            raise ValueError("eigenvalues must be distinct")
        if any(not sizes or min(sizes) < 1 for _, sizes in normalized):
            raise ValueError("every eigenvalue needs at least one positive block size")
        object.__setattr__(self, "pairs", normalized)

    @property
    def dimension(self) -> int:
        return sum(size for _, sizes in self.pairs for size in sizes)


def weyr_oracle(a: Mat, eigenvalue) -> tuple[int, ...]:
    """Block sizes at an eigenvalue from ranks of powers alone, descending.

    With ``r_k = rank((A - lambda I)^k)``, the number of blocks of size
    exactly i is ``r_(i-1) - 2 r_i + r_(i+1)``. Returns an empty tuple when
    the value is not an eigenvalue.
    """
    a._require_square()
    shifted = a - _coerce(eigenvalue) * Mat.identity(a.nrows)
    ranks = [a.nrows]
    power = shifted
    while True:
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2]:
            break
        power = power * shifted
    sizes = []
    stable = ranks[-1]
    padded = ranks + [stable]
    for i in range(len(ranks) - 1, 0, -1):
        count = padded[i - 1] - 2 * padded[i] + padded[i + 1]
        sizes.extend([i] * count)
    return tuple(sizes)


def d_sequence_restricted(a: Mat) -> tuple[int, ...]:
    """Direct path: nullity of A restricted to a column basis of each A^i.

    Independent of the rank-difference computation in ``d_sequence``; the
    two must agree on every nilpotent input.
    """
    a._require_square()
    powers = [Mat.identity(a.nrows)]
    while not powers[-1].is_zero:
        if len(powers) > a.nrows:
            raise NotNilpotent(f"A^{a.nrows} is nonzero")
        powers.append(powers[-1] * a)
    out = []
    for power in powers:
        _, pivots = power.rref()
        if not pivots:
            out.append(0)
            continue
        basis = [power.col(c) for c in pivots]
        stacked = Mat.from_columns(basis)
        image = Mat.from_columns([a.apply(v) for v in basis], nrows=a.nrows)
        restriction = solve_right(stacked, image)
        out.append(len(restriction.nullspace_basis()))
    return tuple(out)


def matrix_exp_via_jordan(a: Mat) -> ExpMatrix:
    """exp(tA) through P exp(tJ) P^-1; cross-check for ``matrix_exp``.

    Produces the same ExpMatrix value as the eigenbasis route, which the
    test suite asserts.
    """
    dec = jordan_form(a)
    p_inv = dec.p.inverse()
    n = a.nrows
    offsets = []
    position = 0
    for lam, sizes in dec.spectrum_blocks:
        starts = []
        for size in sizes:
            starts.append((position, size))
            position += size
        offsets.append((lam, starts))
    terms = []
    for lam, starts in offsets:
        largest = max(size for _, size in starts)
        series = []
        for k in range(largest):
            selector = [[Fraction(0)] * n for _ in range(n)]
            weight = Fraction(1, math.factorial(k))
            for start, size in starts:
                for r in range(size - k):
                    selector[start + r][start + r + k] = weight
            series.append(dec.p * Mat(selector, ncols=n) * p_inv)
        terms.append((lam, _series_to_poly_matrix(series)))
    return ExpMatrix(terms=tuple(terms))


def fraction_product(a: Mat, b: Mat) -> Mat:
    """A B with one Fraction multiply and add per term; cross-check for the
    integer products behind ``Mat.__mul__`` and ``Mat.apply``."""
    cols = b.columns()
    return Mat(
        [
            [sum((x * y for x, y in zip(a.row(i), c)), Fraction(0)) for c in cols]
            for i in range(a.nrows)
        ],
        ncols=b.ncols,
    )


def fraction_rref(m: Mat) -> tuple[Mat, tuple[int, ...], Fraction]:
    """RREF, pivot columns and signed pivot product by Gauss-Jordan
    elimination over Fractions, pivoting on the first nonzero entry scanning
    down; cross-check for the integer elimination behind ``Mat.rref``. The
    product carries a sign flip per row swap and is 0 unless m is square
    with full rank.
    """
    rows = [list(m.row(i)) for i in range(m.nrows)]
    nr = len(rows)
    pivots = []
    product = Fraction(1)
    r = 0
    for c in range(m.ncols):
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            product = -product
        pv = rows[r][c]
        product *= pv
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    det = product if m.is_square and r == nr else Fraction(0)
    return Mat(rows, ncols=m.ncols), tuple(pivots), det


def build_jordan_matrix(spec: BlockSpec) -> Mat:
    """The canonical Jordan matrix realizing the given block structure."""
    blocks = [
        jordan_block(lam, size) for lam, sizes in spec.pairs for size in sizes
    ]
    return block_diag(blocks)


def random_unimodular(n: int, seed: int, steps: int | None = None, bound: int = 3) -> Mat:
    """Product of random elementary row operations applied to the identity.

    Each step either swaps two rows or adds an integer multiple in
    [-bound, bound] of one row to another, so the determinant stays +-1.
    Deterministic for a given (n, seed, steps, bound). ``steps`` defaults
    to 4n.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if steps is None:
        steps = 4 * n
    rows = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    if n >= 2:
        rng = random.Random(seed)
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            if rng.randrange(4) == 0:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                c = rng.randint(-bound, bound)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Mat(rows, ncols=n)


def random_similar(spec: BlockSpec, seed: int) -> tuple[Mat, Mat]:
    """A matrix with the prescribed block structure and its conjugator.

    Returns ``(a, s)`` with ``a = s J s^-1`` for the canonical Jordan
    matrix J of the spec and a random unimodular s.
    """
    j = build_jordan_matrix(spec)
    s = random_unimodular(spec.dimension, seed)
    return s * j * s.inverse(), s


_EIGENVALUE_POOL = tuple(
    Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)
) + tuple(Fraction(n, 2) for n in (-3, -1, 1, 3))


def random_block_spec(seed: int, max_dim: int = 8, pool=_EIGENVALUE_POOL) -> BlockSpec:
    """Deterministic random block structure with dimension <= max_dim."""
    rng = random.Random(seed)
    dim = rng.randint(1, max_dim)
    n_eigs = rng.randint(1, min(dim, 3))
    values = rng.sample(pool, n_eigs)
    # Random composition of dim into n_eigs positive multiplicities.
    cuts = sorted(rng.sample(range(1, dim), n_eigs - 1)) if n_eigs > 1 else []
    bounds = [0] + cuts + [dim]
    pairs = []
    for lam, lo, hi in zip(values, bounds, bounds[1:]):
        remaining = hi - lo
        sizes = []
        while remaining:
            size = rng.randint(1, remaining)
            sizes.append(size)
            remaining -= size
        pairs.append((lam, tuple(sizes)))
    return BlockSpec(pairs=tuple(pairs))
