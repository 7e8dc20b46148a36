"""Univariate polynomials over exact rationals, with rational root extraction."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .rationals import _coerce, _scaled


class Poly:
    """Polynomial with Fraction coefficients, stored low degree first.

    ``coeffs[k]`` is the coefficient of ``x^k``. The zero polynomial has an
    empty coefficient tuple; otherwise the last coefficient is nonzero.
    Instances are immutable values.

    >>> p = Poly([1, 3, 1])          # x^2 + 3x + 1
    >>> p.derivative()
    Poly([3, 2])
    >>> str(p)
    'x^2 + 3*x + 1'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x) -> Fraction:
        x = _coerce(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self):
        return self.format()

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly(c * _coerce(other) for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
        out = Poly([1])
        for _ in range(exponent):
            out = out * self
        return out

    def derivative(self) -> "Poly":
        """Exact formal derivative.

        >>> Poly([0, 0, 0, 0, 1]).derivative()   # x^4
        Poly([0, 0, 0, 4])
        """
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def format(self, var: str = "x") -> str:
        """Human-readable form, highest power first."""
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                term = f"{head}{var}" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


#: The monomial x, convenient for building polynomials in tests and callers.
X = Poly((0, 1))


def divide_out(p: Poly, r) -> tuple[Poly, int]:
    """``(p / (x - r)^m, m)`` with m the multiplicity of r as a root of p.

    Each factor ``x - r`` comes off by synthetic division: the running
    Horner sums at r, highest degree first, are the quotient's coefficients
    and the last sum is the remainder.

    >>> divide_out(Poly([1, 3, 1]) * Poly([-2, 1]) ** 2, 2)
    (Poly([1, 3, 1]), 2)
    """
    r = _coerce(r)
    m = 0
    while p.degree >= 1 and p(r) == 0:
        *sums, rem = accumulate(reversed(p.coeffs), lambda acc, c: acc * r + c)
        if rem:
            raise AssertionError(f"x - {r} leaves remainder {rem}")
        p = Poly(reversed(sums))
        m += 1
    return p, m


def _divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def rational_roots(p: Poly) -> tuple[dict[Fraction, int], Poly]:
    """All rational roots of a monic polynomial, with exact multiplicities.

    Returns ``(roots, residual)`` where ``roots`` maps each rational root to
    its multiplicity (keys ascending) and ``residual`` is the monic factor
    with no rational roots, so that ``prod((x - r)^m) * residual == p``.

    Candidates come from clearing denominators to an integer polynomial and
    testing ``a/b`` with ``a`` dividing the constant term and ``b`` dividing
    the leading coefficient; multiplicities come from ``divide_out``, which
    removes each factor ``x - r`` by synthetic division.
    """
    if p.degree < 1 or not p.is_monic:
        raise ValueError("rational_roots requires a monic polynomial of degree >= 1")

    roots: dict[Fraction, int] = {}

    # Powers of x first: the divisor rule needs a nonzero constant term.
    work, roots[Fraction(0)] = divide_out(p, 0)

    if work.degree >= 1:
        ints, _ = _scaled(work.coeffs)
        candidates = sorted(
            {
                sign * Fraction(a, b)
                for a in _divisors(abs(ints[0]))
                for b in _divisors(ints[-1])
                for sign in (1, -1)
            }
        )
        for r in candidates:
            work, roots[r] = divide_out(work, r)
            if work.degree < 1:
                break

    return {r: m for r, m in sorted(roots.items()) if m}, work
