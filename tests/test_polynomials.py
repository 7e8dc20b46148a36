from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from jordanform import Poly, X, rational_roots
from jordanform.polynomials import divide_out

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def linear(root) -> Poly:
    return Poly([-root, 1])


class TestDerivative:
    def test_quadratic(self):
        assert Poly([1, 3, 1]).derivative() == Poly([3, 2])

    def test_constant(self):
        assert Poly([5]).derivative() == Poly()

    def test_pure_power(self):
        assert Poly([0, 0, 0, 0, 1]).derivative() == Poly([0, 0, 0, 4])


class TestRationalRoots:
    def test_split_polynomial(self):
        p = linear(2) ** 3 * linear(4)
        roots, residual = rational_roots(p)
        assert roots == {Fraction(2): 3, Fraction(4): 1}
        assert residual == Poly([1])

    def test_pure_power_of_x(self):
        roots, residual = rational_roots(X ** 4)
        assert roots == {Fraction(0): 4}
        assert residual == Poly([1])

    def test_no_rational_roots(self):
        p = Poly([1, 0, 1])
        roots, residual = rational_roots(p)
        assert roots == {}
        assert residual == p

    def test_fractional_roots(self):
        p = linear(Fraction(1, 2)) * linear(Fraction(-2, 3))
        roots, _ = rational_roots(p)
        assert roots == {Fraction(-2, 3): 1, Fraction(1, 2): 1}

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            rational_roots(Poly([1, 2]))

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            rational_roots(Poly([1]))


class TestDivideOut:
    def test_triple_root(self):
        assert divide_out(linear(2) ** 3 * linear(4), 2) == (linear(4), 3)

    def test_absent_root(self):
        p = linear(2) * Poly([1, 0, 1])
        assert divide_out(p, 3) == (p, 0)

    def test_root_zero(self):
        assert divide_out(X ** 2 * linear(5), 0) == (linear(5), 2)

    @given(
        q=st.lists(small_rationals, min_size=1, max_size=5).map(Poly),
        r=small_rationals,
        m=st.integers(min_value=0, max_value=3),
    )
    def test_recovers_cofactor_and_multiplicity(self, q, r, m):
        assume(q(r) != 0)
        assert divide_out(q * linear(r) ** m, r) == (q, m)


def test_root_search_evaluation_count(monkeypatch):
    # One p(r) per candidate, plus one per factor removed while the quotient
    # still has degree >= 1. The benchmark's poly_evals reads this count.
    calls = []
    call = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda p, x: calls.append(x) or call(p, x))
    assert rational_roots(linear(2) ** 2 * linear(-3)) == (
        {Fraction(-3): 1, Fraction(2): 2}, Poly([1])
    )
    assert calls == [0, -12, -6, -4, -3, -3, -2, -1, 1, 2, 2]


@given(roots=st.lists(small_rationals, min_size=1, max_size=5))
def test_recovers_planted_roots(roots):
    p = Poly([1])
    for r in roots:
        p = p * linear(r)
    found, residual = rational_roots(p)
    assert found == dict(sorted(Counter(roots).items()))
    assert residual == Poly([1])


@given(
    coeffs=st.lists(small_rationals, min_size=1, max_size=5),
    irreducible_part=st.booleans(),
)
def test_reconstruction_identity(coeffs, irreducible_part):
    p = Poly(coeffs + [1])
    if irreducible_part:
        p = p * Poly([1, 0, 1])
    roots, residual = rational_roots(p)
    product = residual
    for r, mult in roots.items():
        product = product * linear(r) ** mult
    assert product == p


def test_evaluation_and_ops():
    p = (X - Poly([2])) * (X + Poly([3]))
    assert p(2) == 0 and p(-3) == 0 and p(0) == -6
    assert (p - p).is_zero
    assert (2 * p)(1) == 2 * p(1)


def test_format():
    assert str(Poly([1, 3, 1])) == "x^2 + 3*x + 1"
    assert str(Poly()) == "0"
    assert str(Poly([Fraction(-1, 2), 0, 1])) == "x^2 - 1/2"
    assert Poly([0, 1]).format("t") == "t"
    assert Poly([0, -1]).format("t") == "-t"
