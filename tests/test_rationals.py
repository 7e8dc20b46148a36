import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanform import Mat, Poly, Spectrum, generalized_eigenspace, parse_rational
from jordanform.cli import ParseError, parse_matrix_json
from jordanform.nilpotent import CyclicDecomposition
from jordanform.testkit import BlockSpec

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
        "1e3", "1_000",
        "\uff13", "\u0663/\u0664",  # non-ASCII digits, which Fraction() accepts
    ],
)
def test_parse_rejects_non_grammar(text):
    # Every string entry, in the library or the CLI, goes through parse_rational.
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ValueError):
        Mat([[text]])
    with pytest.raises(ValueError):
        Poly([text])
    with pytest.raises(ParseError):
        parse_matrix_json(json.dumps({"matrix": [[text]]}))


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
    with pytest.raises(TypeError):
        generalized_eigenspace(Mat([[1]]), 1.0, 1)
    for pairs in (((0.5, 1),), ((True, 1),)):
        with pytest.raises(TypeError):
            Spectrum(pairs)


def test_counts_must_be_integers():
    # int() would truncate a multiplicity of 2.7 to 2 and read a height "1" as 1;
    # operator.index() alone would read True as 1.
    for count in (2.7, 1.5, "1", True):
        with pytest.raises(TypeError):
            Spectrum(((1, count),))
        with pytest.raises(TypeError):
            CyclicDecomposition(chains=(((1,), count),))
        with pytest.raises(TypeError):
            BlockSpec(pairs=((1, (count,)),))
        with pytest.raises(TypeError):
            generalized_eigenspace(Mat([[2, 1], [0, 2]]), 2, count)
