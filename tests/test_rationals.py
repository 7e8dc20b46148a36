from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanform import Mat, Poly, parse_rational

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", Fraction(0)),
        ("7", Fraction(7)),
        ("-3", Fraction(-3)),
        ("1/2", Fraction(1, 2)),
        ("-3/6", Fraction(-1, 2)),
        ("10/4", Fraction(5, 2)),
    ],
)
def test_parse_accepts_grammar(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "", "1.5", "+3", "1 /2", "1/ 2", "3/0", "a", "1/-2", "1/2/3", " 1",
        "\uff13", "\u0663/\u0664",  # non-ASCII digits, which Fraction() accepts
    ],
)
def test_parse_rejects_non_grammar(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_stored_reduced_with_positive_denominator():
    q = Fraction(-4, -6)
    assert (q.numerator, q.denominator) == (2, 3)
    assert Fraction(2, -4).denominator == 2


@given(a=rationals, b=rationals)
def test_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


@given(q=rationals)
def test_text_form_round_trips(q):
    assert parse_rational(str(q)) == q


def test_total_order_by_cross_multiplication():
    values = [Fraction(1, 3), Fraction(-2), Fraction(1, 2), Fraction(0), Fraction(2, 6)]
    assert sorted(values) == [
        Fraction(-2),
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(1, 2),
    ]


def test_floats_and_bools_are_refused():
    # Mat([[0.1]]) would otherwise hold 3602879701896397/36028797018963968.
    for entry in (0.1, 2.0, True):
        with pytest.raises(TypeError):
            Mat([[entry]])
        with pytest.raises(TypeError):
            Poly([1, entry])
    with pytest.raises(TypeError):
        Mat([[1]]) * 0.5
    assert Mat([[1]]) * Fraction(1, 2) == Mat([["1/2"]])
