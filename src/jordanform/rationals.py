"""Exact rational scalars and their canonical text form.

The scalar type everywhere in this package is :class:`fractions.Fraction`,
re-exported as ``Rational``. Fractions are always stored fully reduced with
a positive denominator, so equality, hashing and the total order behave as
expected for exact arithmetic.

The canonical text form is ``a`` or ``a/b`` with an optional leading minus
sign. ``str()`` on a Fraction emits exactly this grammar, so no separate
formatter is needed.
"""

from __future__ import annotations

import re
from fractions import Fraction

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
