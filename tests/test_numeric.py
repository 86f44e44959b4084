import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from addtree.numeric import (
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


def reference_format_value(v):
    """format_value as it was before it counted twos by the lowest set bit
    and checked the digit limit by bit lengths: one division per factor of
    two, and every digit string built before the limit is known."""
    v = as_value(v)
    try:
        if isinstance(v, int):
            return str(v)
        num, den = v.numerator, v.denominator
        d = den
        two = five = 0
        while d % 2 == 0:
            d //= 2
            two += 1
        while d % 5 == 0:
            d //= 5
            five += 1
        if d != 1:
            return f"{num}/{den}"
        digits = max(two, five)
        scaled = abs(num) * (10**digits // den)
        sign = "-" if num < 0 else ""
        whole, frac = divmod(scaled, 10**digits)
        return f"{sign}{whole}.{str(frac).zfill(digits)}"
    except ValueError:
        raise ValueError(
            "a computed result exceeds the int/str conversion limit of "
            f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"
        ) from None


def format_outcome(fmt, v):
    try:
        return "text", fmt(v)
    except ValueError as exc:
        return "error", str(exc)


# Exponents of 2 and 5 on both sides of where the 4300-digit limit starts
# to bite, numerators up to 60 digits, and a factor of 3 for the "p/q"
# form. The test builds the Fraction itself: a Fraction this wide has no
# repr under the limit, and Hypothesis prints its arguments.
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(10**60), max_value=10**60),
    st.one_of(st.integers(0, 40), st.integers(5000, 9000)),
    st.one_of(st.integers(0, 40), st.integers(4000, 7000)),
    st.sampled_from([1, 1, 1, 3]),
)
@example(1, 7166, 0, 1)
@example(1, 7167, 0, 1)
@example(3, 6152, 0, 1)
@example(7, 6000, 6000, 1)
@example(-(10**60) + 1, 7100, 0, 1)
def test_format_value_matches_reference(num, twos, fives, odd):
    v = Fraction(num, 2**twos * 5**fives * odd)
    assert format_outcome(format_value, v) == format_outcome(reference_format_value, v)


def test_format_value_fails_fast_on_a_huge_power_of_two():
    # One division per factor of two took hours here; str() was never reached.
    with pytest.raises(ValueError, match="conversion limit of 4300 digits"):
        format_value(Fraction(3, 2**10**8))
