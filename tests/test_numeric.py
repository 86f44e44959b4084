import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from addtree.numeric import (
    ErrorModel,
    ParseError,
    as_value,
    check_exponent,
    format_value,
    parse_value,
)

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


def test_parse_decimal():
    assert parse_value("1.25") == Fraction(5, 4)
    assert parse_value("0.1") == Fraction(1, 10)
    assert parse_value("1.1") == Fraction(11, 10)


def test_parse_scientific():
    assert parse_value("-3e2") == -300
    assert parse_value("2.5e-1") == Fraction(1, 4)


def test_parse_integer_stays_int():
    v = parse_value("42")
    assert v == 42 and isinstance(v, int)


def test_parse_rational_literal():
    assert parse_value("3/7") == Fraction(3, 7)


@pytest.mark.parametrize("bad", ["", "abc", "1..2", "1/0", "--3"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_value(bad)


def reference_parse(text):
    """Every token through Fraction(): the parse that parse_value, with its
    int path for plain digit runs, must agree with."""
    token = text.strip()
    if not token:
        raise ParseError("empty value literal")
    try:
        return as_value(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed value literal: {token!r}") from exc


# Signs, ASCII digits, a non-ASCII decimal digit (Arabic-Indic 3), a
# fullwidth 7, a superscript 2 (a digit but not a decimal), underscores and
# the rational, decimal and exponent marks.
literal_text = st.one_of(
    st.text(alphabet="+-0123456789_./eE \u0663\uff17\u00b2", max_size=12),
    st.from_regex(
        r"\A[+-]?[0-9\u0663]{0,6}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,3})?\Z"
    ),
    st.from_regex(r"\A[+-]?[0-9]{1,5}(_[0-9]{1,3})?(/[+-]?[0-9]{1,4})?\Z"),
)


@given(literal_text)
@example("\u00b2")
@example("-1\u00b2")
@example("+\u0663\uff17")
@example("-0")
@example(" 007 ")
@example("1_000")
@example("1__0")
@example("+")
@example("")
def test_parse_value_matches_fraction_reference(text):
    # Keep exponents below the size cap, which the reference does not have.
    assume(not re.search(r"[eE][+-]?[0-9_]{4,}", text))
    try:
        expected = reference_parse(text)
    except ParseError:
        with pytest.raises(ParseError):
            parse_value(text)
        return
    got = parse_value(text)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "token", ["1e500000", "1e5000000", "-2.5E-4301", "1e+9_999", "7e00004301"]
)
def test_exponent_cap_rejects_before_parsing(token):
    # Only the cap's check runs: parsing these would compute 10**exponent.
    with pytest.raises(ParseError, match="exponent exceeds 4300"):
        check_exponent(token, 4300)


@pytest.mark.parametrize("token", ["1e4300", "-2.5E-4300", "3/4", "17", "1e5x", "e"])
def test_exponent_cap_passes_small_or_absent_exponents(token):
    check_exponent(token, 4300)


def test_length_cap_applies_before_int():
    longest = "-" + "9" * 4299
    assert parse_value(longest) == -(10**4299 - 1)
    for token in ["9" * 4301, "+" + "1" * 4300, "0." + "5" * 4299]:
        with pytest.raises(ParseError, match="longer than 4300 characters"):
            parse_value(token)


@given(rationals, rationals)
def test_addition_roundtrip_exact(a, b):
    assert (a + b) - b == a


@given(rationals, rationals, rationals)
def test_order_consistent_with_arithmetic(a, b, c):
    if a < b:
        assert a + c < b + c


def test_format_value_decimal_denominators():
    assert format_value(Fraction(9, 8)) == "1.125"
    assert format_value(Fraction(3, 10)) == "0.3"
    assert format_value(Fraction(-7, 4)) == "-1.75"
    assert format_value(5) == "5"


def test_format_value_falls_back_to_ratio():
    assert format_value(Fraction(1, 3)) == "1/3"


@given(rationals)
def test_format_parse_roundtrip(v):
    assert parse_value(format_value(v)) == v


def test_error_model_bounds():
    ErrorModel(0)
    ErrorModel(Fraction(1, 2))
    with pytest.raises(ValueError):
        ErrorModel(1)
    with pytest.raises(ValueError):
        ErrorModel(Fraction(-1, 2))
