"""Exact dense linear algebra over rational numbers.

Everything here is deterministic: row reduction pivots on the first nonzero
entry scanning top to bottom (exact arithmetic removes the usual numerical
reason to pivot by magnitude), and nullspace bases are read off the reduced
echelon form in a fixed normalization. Downstream canonical choices depend
on this determinism.

Matrices store and return reduced Fractions, but the two inner loops run on
Python ints, which pay no gcd per scalar operation. A product scales each
left row and each right column to integer numerators over one denominator
(``rationals._scaled``) and forms each entry as one Fraction of an integer dot
product. Row reduction (``_eliminate``) keeps each row as a primitive
integer vector, a nonzero multiple of the row that elimination over
Fractions would hold, and divides by the pivots only at the end. Exact
values are unique and the pivot rule sees the same zero pattern, so every
result, and every output byte downstream, is the one Fraction arithmetic
gives (``jordanform.testkit`` keeps that arithmetic as the oracle).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .rationals import _coerce, _scaled

Vector = tuple[Fraction, ...]


class NoSolution(Exception):
    """A right-hand side column lies outside the column span."""


class RankDeficient(Exception):
    """Columns are linearly dependent where independence is required."""


def as_vector(entries: Iterable) -> Vector:
    return tuple(_coerce(x) for x in entries)


class Mat:
    """Immutable dense matrix of Fractions.

    Rows are given as any iterable of iterables; entries may be ints,
    Fractions or strings such as ``"1/2"`` in the ``parse_rational``
    grammar. Operations allocate fresh matrices, so instances are safe to
    share.

    >>> m = Mat([[1, 2], ["1/2", 0]])
    >>> m[1, 0]
    Fraction(1, 2)
    >>> (m * m).row(0)
    (Fraction(2, 1), Fraction(2, 1))
    >>> m ** 0 == Mat.identity(2)
    True
    """

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        data = tuple(tuple(_coerce(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data[1:]):
                raise ValueError("rows must all have the same length")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row length")
            self._ncols = width
        else:
            self._ncols = 0 if ncols is None else ncols
        self._rows = data

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        zero = Fraction(0)
        return cls([[zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Iterable], nrows: int | None = None) -> "Mat":
        cols = [tuple(c) for c in columns]  # Mat() coerces the entries
        if not cols:
            if nrows is None:
                raise ValueError("nrows is required for an empty column list")
            return cls([() for _ in range(nrows)], ncols=0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("columns must all have the same length")
        if nrows is not None and nrows != n:
            raise ValueError("nrows does not match column length")
        return cls([[c[i] for c in cols] for i in range(n)], ncols=len(cols))

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    def row(self, i: int) -> Vector:
        return self._rows[i]

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self._rows)

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self._ncols)]

    def __getitem__(self, index) -> Fraction:
        i, j = index
        return self._rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    def __hash__(self):
        return hash((self._ncols, self._rows))

    def __repr__(self):
        rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._rows)
        return f"Mat([{rows}])"

    def __str__(self):
        if self.nrows == 0 or self._ncols == 0:
            return "[]"
        cells = [[str(x) for x in row] for row in self._rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self._ncols)]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
        )

    def __neg__(self):
        return Mat([[-x for x in row] for row in self._rows], ncols=self._ncols)

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._require_same_shape(other)
        return Mat(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            ncols=self._ncols,
        )

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self._ncols != other.nrows:
                raise ValueError(
                    f"cannot multiply {self.nrows}x{self._ncols} by {other.nrows}x{other.ncols}"
                )
            cols = [_scaled(c) for c in other.columns()]
            return Mat(
                [
                    [Fraction(sum(map(mul, nums, c_nums)), den * c_den) for c_nums, c_den in cols]
                    for nums, den in map(_scaled, self._rows)
                ],
                ncols=other.ncols,
            )
        scalar = _coerce(other)
        return Mat([[x * scalar for x in row] for row in self._rows], ncols=self._ncols)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Mat":
        self._require_square()
        if k < 0:
            raise ValueError("negative matrix power")
        out = Mat.identity(self.nrows) if k == 0 else self
        for _ in range(k - 1):
            out = out * self
        return out

    def apply(self, vector: Iterable) -> Vector:
        """Matrix times column vector."""
        return (self * Mat.from_columns([vector], nrows=self._ncols)).col(0)

    def augment(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row counts differ")
        return Mat(
            [r1 + r2 for r1, r2 in zip(self._rows, other._rows)],
            ncols=self._ncols + other._ncols,
        )

    def trace(self) -> Fraction:
        self._require_square()
        return sum((self._rows[i][i] for i in range(self.nrows)), Fraction(0))

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and the strictly increasing pivot columns.

        The result is the unique RREF, so ``m.rref()[0].rref()[0]`` equals
        ``m.rref()[0]``.
        """
        rows = list(self._rows)
        pivots = _eliminate(rows, self._ncols)
        return Mat(rows, ncols=self._ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace_basis(self) -> list[Vector]:
        """Canonical kernel basis read off the RREF.

        One basis vector per free column, ordered by ascending free-column
        index, with entry 1 at its own free column and 0 at every other
        free column.
        """
        return _kernel(*self.rref())

    def inverse(self) -> "Mat":
        self._require_square()
        return solve_right(self, Mat.identity(self.nrows))

    def _require_square(self):
        if not self.is_square:
            raise ValueError(f"matrix is {self.nrows}x{self._ncols}, expected square")

    def _require_operator(self):
        self._require_square()
        if self.nrows == 0:
            raise ValueError("operator must act on a space of dimension >= 1")

    def _require_same_shape(self, other: "Mat"):
        if self.nrows != other.nrows or self._ncols != other._ncols:
            raise ValueError("matrix shapes differ")


def _eliminate(rows: list[Sequence[Fraction]], ncols: int) -> tuple[int, ...]:
    """Replace ``rows`` in place by their RREF, pivoting on the first nonzero
    entry scanning down, and return the pivot columns.

    The work runs on primitive integer rows: each row is scaled to integers
    and divided by its content, and the update of row i by pivot row r with
    pivot p is ``p * row_i - row_i[c] * row_r``, made primitive again. Every
    integer row is a nonzero multiple of the row the same elimination over
    Fractions would hold, so zero patterns and pivots are the same, and
    dividing each pivot row by its pivot gives the same unique RREF.
    """
    nr = len(rows)
    ints = []
    for row in rows:
        nums, _ = _scaled(row)
        g = gcd(*nums) or 1
        ints.append([x // g for x in nums])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if ints[i][c]), None)
        if pivot_row is None:
            continue
        ints[r], ints[pivot_row] = ints[pivot_row], ints[r]
        top = ints[r]
        p = top[c]
        for i in range(nr):
            f = ints[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(ints[i], top)]
                g = gcd(*row) or 1
                ints[i] = [x // g for x in row]
        pivots.append(c)
        r += 1
    for i, c in enumerate(pivots):
        p = ints[i][c]
        rows[i] = [Fraction(x, p) for x in ints[i]]
    zero = Fraction(0)
    for i in range(r, nr):
        rows[i] = [zero] * ncols
    return tuple(pivots)


def _kernel(reduced: Mat, pivots: tuple[int, ...]) -> list[Vector]:
    """The canonical kernel basis (see ``Mat.nullspace_basis``) of an RREF."""
    n = reduced.ncols
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r, free]
        basis.append(tuple(v))
    return basis


def _kernel_tower(a: Mat, limit: int) -> list[list[Vector]]:
    """Canonical bases of N(A^0), ..., N(A^k), stopping at the first k where
    N(A^k) is the whole space, equals N(A^(k-1)) (then so does every later
    kernel), or k = limit.

    Each step calls ``Mat.rref`` once, reads the kernel off its result and
    multiplies only the nonzero RREF rows by A. They span the row space of
    A^k, so their product has the row space, hence the RREF and the
    canonical kernel basis, of A^(k+1).
    """
    kernels: list[list[Vector]] = [[]]
    rows = a
    for k in range(1, limit + 1):
        reduced, pivots = rows.rref()
        kernels.append(_kernel(reduced, pivots))
        if k == limit or len(kernels[-1]) in (a.nrows, len(kernels[-2])):
            break
        rows = Mat(reduced._rows[: len(pivots)], ncols=a.ncols) * a
    return kernels


def _shift(a: Mat, c: Fraction) -> Mat:
    """A - cI for square A, editing only the diagonal."""
    a._require_square()
    rows = [list(row) for row in a._rows]
    for i, row in enumerate(rows):
        row[i] -= c
    return Mat(rows, ncols=a.ncols)


def jordan_block(eigenvalue, size: int) -> Mat:
    """size x size block with ``eigenvalue`` on the diagonal, 1 above it."""
    lam = _coerce(eigenvalue)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = lam
        if i + 1 < size:
            rows[i][i + 1] = Fraction(1)
    return Mat(rows, ncols=size)


def block_diag(blocks: Sequence[Mat]) -> Mat:
    """Square block-diagonal matrix assembled from square blocks."""
    n = sum(b.nrows for b in blocks)
    zero = Fraction(0)
    rows = [[zero] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        b._require_square()
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[offset + i][offset + j] = b[i, j]
        offset += b.nrows
    return Mat(rows, ncols=n)


def solve_right(b: Mat, c: Mat) -> Mat:
    """Solve ``b * M = c`` exactly for M, given independent columns of b.

    Raises RankDeficient when b's columns are dependent, NoSolution when a
    column of c lies outside the column span of b.
    """
    k = b.ncols
    reduced, pivots = b.augment(c).rref()
    if sum(1 for p in pivots if p < k) < k:
        raise RankDeficient("left factor has dependent columns")
    if any(p >= k for p in pivots):
        raise NoSolution("right-hand side outside column span")
    return Mat([[reduced[r, k + j] for j in range(c.ncols)] for r in range(k)], ncols=c.ncols)


def extend_independent(
    existing: Sequence[Iterable], candidates: Sequence[Iterable]
) -> list[Vector]:
    """Greedy completion of ``existing`` from an ordered candidate list.

    Keeps each candidate that strictly increases the rank of existing plus
    the candidates before it, and returns the kept vectors. These are the
    candidates at pivot columns of the RREF of all vectors stacked as
    columns, so the result is deterministic.
    """
    if not existing and not candidates:
        return []
    stacked = Mat.from_columns([*existing, *candidates])
    _, pivots = stacked.rref()
    return [stacked.col(p) for p in pivots if p >= len(existing)]
