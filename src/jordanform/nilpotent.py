"""Block structure and chain generators of nilpotent operators.

For a nilpotent matrix the sizes of its canonical blocks are determined by
the rank sequence of its powers, and explicit block generators fall out of
a descending sweep over kernel quotients. Every choice made here (kernel
bases, candidate order, chain order) is canonical, so repeated runs produce
identical decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import (
    Mat, Vector, _kernel_tower, as_vector, block_diag, extend_independent, jordan_block
)
from .rationals import _count


class NotNilpotent(Exception):
    """The operator has a nonzero power of maximal order."""


class ZeroVector(Exception):
    """A zero vector where a nonzero one is required."""


class NotABasis(Exception):
    """Chain vectors fail to form a basis of the whole space."""


class InvalidDecomposition(Exception):
    """A cyclic decomposition is inconsistent with the operator."""


@dataclass(frozen=True)
class DSequence:
    """Kernel dimensions of an operator restricted to ranges of its powers.

    ``values[i]`` is the nullity of the restriction of the operator to the
    column space of its i-th power, equal to ``rank(A^i) - rank(A^(i+1))``.
    The differences ``values[i-1] - values[i]`` count blocks of size i.
    """

    values: tuple[int, ...]

    @property
    def index_of_nilpotency(self) -> int:
        """Smallest N >= 1 with A^N = 0: the last index of ``values``."""
        return len(self.values) - 1


@dataclass(frozen=True)
class CyclicDecomposition:
    """Chains ``(generator, height)`` sorted by descending height.

    The chain vectors ``A^j g`` for ``0 <= j < height`` over all chains are
    expected to form a basis of the whole space; ``chains_to_basis`` checks
    this and materializes the basis.
    """

    chains: tuple[tuple[Vector, int], ...]

    def __post_init__(self):
        normalized = tuple(
            sorted(
                ((as_vector(g), _count(h)) for g, h in self.chains),
                key=lambda c: -c[1],
            )
        )
        object.__setattr__(self, "chains", normalized)

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(h for _, h in self.chains)


def _d_values(a: Mat) -> tuple[list[list[Vector]], tuple[int, ...]]:
    """Kernel tower of nilpotent A and d_i = rank(A^i) - rank(A^(i+1)), i = 0..N."""
    a._require_operator()
    kernels = _kernel_tower(a, a.nrows)
    if len(kernels[-1]) != a.nrows:
        raise NotNilpotent(f"A^{a.nrows} is nonzero")
    ranks = [a.nrows - len(k) for k in kernels] + [0]
    return kernels, tuple(r - s for r, s in zip(ranks, ranks[1:]))


def _chain(a: Mat, g, limit: int) -> list[Vector]:
    """``g, A g, A^2 g, ...`` up to the first zero vector (left out) or
    ``limit >= 1`` vectors, with no product after the last vector kept."""
    chain = []
    v = as_vector(g)
    while any(v):
        chain.append(v)
        if len(chain) >= limit:
            break
        v = a.apply(v)
    return chain


def _orbit(a: Mat, v) -> list[Vector]:
    """The chain of nonzero v under nilpotent A, down to its last nonzero vector."""
    chain = _chain(a, v, a.nrows + 1)
    if not chain:
        raise ZeroVector("height of the zero vector is undefined")
    if len(chain) > a.nrows:
        raise NotNilpotent(f"A^{a.nrows} v is nonzero")
    return chain


def _basis(vectors: list[Vector], n: int, error: type[Exception]) -> Mat:
    """The vectors as columns of P; raises ``error`` unless they form a basis
    of the n-dimensional space."""
    if len(vectors) != n:
        raise error(f"chain vectors span {len(vectors)} dimensions, expected {n}")
    p = Mat.from_columns(vectors, nrows=n)
    if p.rank() != n:
        raise error("chain vectors are linearly dependent")
    return p


def nilpotency_index(a: Mat) -> int:
    """Smallest N >= 1 with A^N = 0 (N = 1 for the zero operator)."""
    return d_sequence(a).index_of_nilpotency


def height(a: Mat, v) -> int:
    """Smallest h >= 1 with A^h v = 0, for nilpotent A and v != 0."""
    a._require_operator()
    return len(_orbit(a, v))


def d_sequence(a: Mat) -> DSequence:
    """Rank-difference path: d_i = rank(A^i) - rank(A^(i+1)), i = 0..N."""
    return DSequence(values=_d_values(a)[1])


def block_sizes(a: Mat) -> tuple[int, ...]:
    """Multiset of block sizes, descending; size i occurs d_(i-1) - d_i times."""
    d = d_sequence(a).values
    sizes = []
    for i in range(len(d) - 1, 0, -1):
        sizes.extend([i] * (d[i - 1] - d[i]))
    return tuple(sizes)


def block_generators(a: Mat) -> CyclicDecomposition:
    """Canonical chain generators, one per block.

    Sweeps the sizes s in descending order and carries ``tops``, the
    height-s vector of each chain taller than s. The generators of height
    s are the canonical kernel vectors of N(A^s) that ``extend_independent``
    keeps beyond N(A^(s-1)) plus ``tops``. That span holds every taller
    chain's whole tail, whose vectors below height s lie in N(A^(s-1)), and
    the kept candidates depend only on the span, so the output is canonical.
    Then A moves ``tops`` and the new generators down one height: a chain
    of height h costs h - 1 products with a vector.
    """
    kernels, d = _d_values(a)
    chains: list[tuple[Vector, int]] = []
    tops: list[Vector] = []
    for size in range(len(kernels) - 1, 0, -1):
        count = d[size - 1] - d[size]
        if count:
            new_generators = extend_independent(kernels[size - 1] + tops, kernels[size])
            if len(new_generators) != count:
                raise AssertionError(f"expected {count} generators of height {size}")
            chains.extend((g, size) for g in new_generators)
            tops += new_generators
        if size > 1:
            tops = [a.apply(v) for v in tops]
    return CyclicDecomposition(chains=tuple(chains))


def chains_to_basis(a: Mat, dec: CyclicDecomposition) -> tuple[Mat, Mat]:
    """Materialize a chain basis P and the block matrix J with A P = P J.

    Per chain of height h the columns are ``A^(h-1) g, ..., A g, g``, so
    each block of J carries 1 on the superdiagonal and 0 on the diagonal.
    """
    a._require_operator()
    columns: list[Vector] = []
    for g, h in dec.chains:
        if h < 1:
            raise InvalidDecomposition(f"recorded height {h} is below 1")
        chain = _chain(a, g, h + 1)
        if len(chain) != h:
            raise InvalidDecomposition(
                f"recorded height {h} is too {'large' if len(chain) < h else 'small'}"
            )
        columns.extend(reversed(chain))
    p = _basis(columns, a.nrows, InvalidDecomposition)
    return p, block_diag([jordan_block(0, h) for h in dec.heights])


def validate_generators(a: Mat, generators) -> tuple[int, ...]:
    """Check proposed generators and return their height multiset, descending.

    Walks each generator's chain once: its length is the height, and all
    chain vectors together must form a basis of the whole space.
    """
    a._require_operator()
    chains = [_orbit(a, g) for g in generators]
    _basis([v for chain in chains for v in chain], a.nrows, NotABasis)
    return tuple(sorted(map(len, chains), reverse=True))
