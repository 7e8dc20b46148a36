"""Exact rational scalars and their canonical text form.

The scalar type everywhere in this package is :class:`fractions.Fraction`,
re-exported as ``Rational``. Fractions are always stored fully reduced with
a positive denominator, so equality, hashing and the total order behave as
expected for exact arithmetic.

The canonical text form is ``a`` or ``a/b`` with an optional leading minus
sign. ``str()`` on a Fraction emits exactly this grammar, so no separate
formatter is needed.

``_scaled`` writes a sequence of rationals as integers over one common
denominator, for matrix products, row reduction and rational roots alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import index
from typing import Sequence

Rational = Fraction

_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _coerce(value) -> Fraction:
    """``value`` as a Fraction: the one conversion of an outside scalar.

    Fractions pass through, strings go to ``parse_rational``, floats and
    bools raise TypeError, and anything else goes to ``Fraction()``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (float, bool)):
        raise TypeError(f"{value!r} is a {type(value).__name__}, not an exact rational")
    return Fraction(value)


def _count(value) -> int:
    """``value`` as an int count (a multiplicity, height or block size).

    Bools raise TypeError, as they do in ``_coerce``; anything else goes to
    ``operator.index``, so floats and strings raise TypeError too.
    """
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not a count")
    return index(value)


def _scaled(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``v`` over the lcm of its denominators."""
    ratios = [x.as_integer_ratio() for x in v]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def parse_rational(text: str) -> Fraction:
    """Parse ``a`` or ``a/b`` (optional leading ``-``) into a Fraction.

    Rejects anything outside the grammar, including whitespace, non-ASCII
    digits, floats and a zero denominator.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    >>> parse_rational("7")
    Fraction(7, 1)
    """
    if not _LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
