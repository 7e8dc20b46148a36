"""Correctness gate for benchmark ops, independent of the code it checks.

Every check here reads results only through public accessors (``Mat.row``,
``Mat.nrows``, ``Poly.coeffs``, the decomposition fields) and redoes the
arithmetic on plain lists of ``Fraction`` with its own matmul, rank and
Jordan-matrix construction, so a defect in ``jordanform.matrices`` cannot hide
itself. The canonical byte forms defined here are what the reference
digests in ``digests/`` were recorded from.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


class Mismatch(Exception):
    """An op returned an answer that the gate rejects."""


def rows(m) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.nrows)]


def matmul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in x]


def rank(x) -> int:
    work = [list(r) for r in x]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        for i in range(r + 1, len(work)):
            f = work[i][c] / pv
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def jordan_matrix(pairs):
    """Canonical Jordan matrix of ``((eigenvalue, sizes), ...)``."""
    n = sum(sum(sizes) for _, sizes in pairs)
    out = [[Fraction(0)] * n for _ in range(n)]
    i = 0
    for lam, sizes in pairs:
        for size in sizes:
            for k in range(size):
                out[i + k][i + k] = Fraction(lam)
                if k + 1 < size:
                    out[i + k][i + k + 1] = Fraction(1)
            i += size
    return out


def d_values(sizes) -> list[int]:
    """d_i = number of blocks larger than i, for i = 0 .. largest size."""
    return [sum(1 for s in sizes if s > i) for i in range(max(sizes) + 1)]


def charpoly_of_spectrum(pairs) -> list[Fraction]:
    """Coefficients, low degree first, of prod (x - lambda)^multiplicity."""
    coeffs = [Fraction(1)]
    for lam, sizes in pairs:
        for _ in range(sum(sizes)):
            shifted = [Fraction(0)] + coeffs
            for k, c in enumerate(coeffs):
                shifted[k] -= lam * c
            coeffs = shifted
    return coeffs


def cleared_const_term(coeffs) -> int:
    """Constant term of the integer multiple that rational root search sees.

    Leading zero coefficients (roots at 0) are stripped first, then the
    polynomial is scaled by the lcm of its denominators.
    """
    k = 0
    while coeffs[k] == 0:
        k += 1
    rest = coeffs[k:]
    den = math.lcm(*(c.denominator for c in rest))
    return abs(rest[0] * den).numerator


def entry_bits(x) -> int:
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for r in x for v in r),
        default=0,
    )


def height_bits(value: Fraction) -> int:
    return max(abs(value.numerator), value.denominator).bit_length()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def is_decomposition(a, p, j) -> bool:
    """A P == P J with P of full rank, recomputed here."""
    return rank(p) == len(a) and matmul(a, p) == matmul(p, j)


def check_jordan_form(a, pairs, dec) -> bytes:
    _require(tuple(dec.spectrum_blocks) == tuple(pairs), "block data differs from the planted spec")
    j = rows(dec.j)
    _require(j == jordan_matrix(pairs), "J is not the canonical Jordan matrix of the spec")
    _require(is_decomposition(a, rows(dec.p), j), "A P != P J or P is singular")
    return canonical_decomposition(dec)


def check_matrix_exp(a, pairs, exp) -> bytes:
    n = len(a)
    lams = [lam for lam, _ in exp.terms]
    _require(lams == [lam for lam, _ in pairs], "exp terms do not match the spectrum")
    at_zero = [[Fraction(0)] * n for _ in range(n)]
    for (lam, coeff), (_, sizes) in zip(exp.terms, pairs):
        _require(len(coeff) == n and all(len(r) == n for r in coeff), "coefficient shape")
        width = max(len(e.coeffs) for r in coeff for e in r)
        _require(1 <= width <= max(sizes), "polynomial degree exceeds the largest block")
        layers = [
            [[e.coeffs[k] if k < len(e.coeffs) else Fraction(0) for e in r] for r in coeff]
            for k in range(width)
        ]
        for i in range(n):
            for jj in range(n):
                at_zero[i][jj] += layers[0][i][jj]
        # d/dt (e^(lam t) C(t)) = A e^(lam t) C(t), coefficient by coefficient:
        # lam C_k + (k + 1) C_(k+1) == A C_k.
        for k in range(width):
            lhs_next = layers[k + 1] if k + 1 < width else [[0] * n for _ in range(n)]
            lhs = [
                [lam * x + (k + 1) * y for x, y in zip(r, rn)]
                for r, rn in zip(layers[k], lhs_next)
            ]
            _require(lhs == matmul(a, layers[k]), f"derivative identity fails at t^{k}")
    _require(at_zero == identity(n), "exp(0 A) is not the identity")
    return canonical_exp(exp)


def check_validate(truth: bool, verdict) -> bytes:
    _require(verdict is truth, f"validate said {verdict}, truth is {truth}")
    return b"true" if verdict else b"false"


def check_similar(a, b, truth: bool, witness) -> bytes:
    if not truth:
        _require(witness is None, "witness returned for a non-similar pair")
        return b"null"
    _require(witness is not None, "similar pair reported as not similar")
    s = rows(witness)
    _require(rank(s) == len(a) and matmul(a, s) == matmul(s, b), "S^-1 A S != B")
    return canonical_matrix(witness)


def check_cli_jordan(a, pairs, result) -> bytes:
    code, out = result
    _require(code == 0, f"exit code {code}")
    try:
        payload = json.loads(out)
        blocks = tuple(
            (Fraction(e["value"]), tuple(e["blocks"])) for e in payload["eigenvalues"]
        )
        j = [[Fraction(x) for x in r] for r in payload["J"]]
        p = [[Fraction(x) for x in r] for r in payload["P"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise Mismatch(f"unparseable JSON output: {exc}") from None
    _require(blocks == tuple(pairs), "CLI block data differs from the planted spec")
    _require(j == jordan_matrix(pairs), "CLI J is not canonical")
    _require(is_decomposition(a, p, j), "CLI P does not satisfy A P == P J")
    return canonical_cli(result)


def check_cli_blocks(sizes, result) -> bytes:
    code, out = result
    _require(code == 0, f"exit code {code}")
    lines = out.splitlines()
    _require(len(lines) == 2, "expected two output lines")
    expected = (
        "d-sequence: " + " ".join(str(v) for v in d_values(sizes)),
        "block sizes: " + " ".join(str(s) for s in sizes),
    )
    _require(tuple(lines) == expected, f"blocks output {lines} != {list(expected)}")
    return canonical_cli(result)


def _text_rows(m):
    return [[str(x) for x in m.row(i)] for i in range(m.nrows)]


def _dumps(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode()


def canonical_matrix(m) -> bytes:
    return _dumps(_text_rows(m))


def canonical_decomposition(dec) -> bytes:
    return _dumps({
        "blocks": [[str(lam), list(sizes)] for lam, sizes in dec.spectrum_blocks],
        "J": _text_rows(dec.j),
        "P": _text_rows(dec.p),
    })


def canonical_exp(exp) -> bytes:
    return _dumps([
        [str(lam), [[[str(c) for c in e.coeffs] for e in r] for r in coeff]]
        for lam, coeff in exp.terms
    ])


def canonical_cli(result) -> bytes:
    code, out = result
    return f"{code}\n".encode() + out.encode()


def digest(data: bytes) -> str:
    """First 16 hex digits of the SHA-256 of an op's canonical output."""
    return hashlib.sha256(data).hexdigest()[:16]
