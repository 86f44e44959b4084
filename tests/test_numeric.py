import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from addtree import numeric
from addtree.huffman import build_huffman
from addtree.numeric import (
    ParseError,
    as_value,
    check_exponent,
    exact_sorted,
    format_value,
    parse_value,
    parse_values,
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
    # Ratios with either side empty, signed or non-ASCII.
    st.from_regex(r"\A[+-]?[0-9\u0663]{0,4}/[+-]?[0-9\u0663]{0,4}\Z"),
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
@example("-.5")
@example("+0.000")
@example("\u0663.\u0663")
@example("5.")
@example(".")
@example("1.2.3")
@example("-0.0")
@example("3/4")
@example("+3/4")
@example("-0/5")
@example("1/0")
@example("3/-4")
@example("\u0663/\u0664")
@example("1_0/3")
@example("/4")
@example("3/")
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


def parse_outcome(parse, tokens):
    try:
        values = parse(tokens)
    except ParseError as exc:
        return "error", str(exc)
    return "values", values, [type(v) for v in values]


int_tokens = st.integers(-(10**20), 10**20).map(str)


@given(
    st.one_of(
        st.lists(int_tokens, max_size=8),
        st.lists(st.one_of(int_tokens, literal_text), max_size=8),
    )
)
@example(["1", "+" + "1" * 4300])
@example(["1", "1_000"])
@example(["1", "2.5", "3"])
@example(["1", "", "3"])
def test_parse_values_matches_parse_value(tokens):
    assume(not any(re.search(r"[eE][+-]?[0-9_]{4,}", t) for t in tokens))
    expected = parse_outcome(lambda ts: [parse_value(t) for t in ts], tokens)
    assert parse_outcome(parse_values, tokens) == expected


@pytest.mark.parametrize(
    "tokens, per_token",
    [
        (["1", "-22", "+333", "\u0664"], []),
        (["1", "-22", "2.5", "7"], ["2.5", "7"]),
        (["2.5", "7"], ["2.5", "7"]),
        (["1", "-22", "1_000"], []),
        (["1", "+" + "2" * 4300], ["1", "+" + "2" * 4300]),
        (["1", "-" + "2" * 4299], []),
    ],
)
def test_parse_values_route(monkeypatch, tokens, per_token):
    # int() converts all-int input, "_" separators included, and the ints
    # before the first token it rejects; a token over the length cap, which
    # int() may still take, sends every token through parse_value.
    calls = []

    def counted(token):
        calls.append(token)
        return parse_value(token)

    expected = parse_outcome(lambda ts: [parse_value(t) for t in ts], tokens)
    monkeypatch.setattr(numeric, "parse_value", counted)
    assert parse_outcome(parse_values, tokens) == expected
    assert calls == per_token


def test_int_and_parse_value_agree_wherever_int_accepts():
    # Every token of up to 5 characters over digits, "_", signs, spaces, an
    # exponent letter, a superscript and non-ASCII digits: parse_values'
    # int() pass is exact only if no token int() takes parses otherwise.
    alphabet = ["0", "7", "_", "+", "-", "\u0661", " ", "e", "\u00b2", "\uff11"]
    tokens = [""]
    checked = 0
    for _ in range(5):
        tokens = [t + c for t in tokens for c in alphabet]
        for token in tokens:
            try:
                expected = int(token)
            except ValueError:
                continue
            value = parse_value(token)
            assert (value, type(value)) == (expected, int), token
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "tokens, index",
    [
        (["abc"], 0),
        (["1", "-2", "abc", "3"], 2),
        (["1", "2.5", "3", "1/0", "x"], 3),
        (["1_0", "7", "1__0"], 2),
        (["1", "+" + "1" * 4300], 1),
    ],
)
def test_parse_values_sets_the_bad_index(tokens, index):
    # The int() pass, the parse_value pass after it, and input that skips
    # the int() pass all report the position of the token they reject.
    with pytest.raises(ParseError) as info:
        parse_values(tokens)
    assert info.value.index == index


def test_as_value_keeps_ints_and_fractions():
    f = Fraction(3, 7)
    assert as_value(f) is f
    big = 10**30
    assert as_value(big) is big
    whole = as_value(Fraction(6, 3))
    assert whole == 2 and type(whole) is int
    assert as_value(0.5) == Fraction(1, 2) and type(as_value(0.5)) is Fraction


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


# exact_sorted must return what sorted() returns, object for object. Equal
# values of different types (2, Fraction(2), Fraction(4, 2)) make its
# stability visible to an identity check.
sortable = st.one_of(
    st.integers(),
    st.builds(
        lambda m, e: Fraction(m) * Fraction(2) ** e,
        st.integers(-(2**8), 2**8),
        st.integers(-60, 60),
    ),
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([3, 7, 10])),
    st.builds(
        Fraction, st.integers(-(2**200), 2**200), st.sampled_from([1, 2, 3, 2**30])
    ),
    st.sampled_from([2, -2]).flatmap(
        lambda v: st.sampled_from([v, Fraction(v), Fraction(2 * v, 2)])
    ),
)


@given(st.lists(sortable, max_size=40), st.booleans())
@example([2, Fraction(4, 2), Fraction(1, 3), 2, Fraction(2)], False)
@example([-2, Fraction(-4, 2), Fraction(-1, 3), -2, Fraction(-2)], True)
def test_exact_sorted_matches_sorted(values, reverse):
    expected = sorted(values, reverse=reverse)
    result = exact_sorted(values, reverse=reverse)
    assert len(result) == len(expected)
    assert all(a is b for a, b in zip(result, expected))


def first_primes(k):
    primes = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


# Scaled to one common denominator, these would take 46.6 MB (the lcm of
# the first 5,000 primes has 69,675 bits) and about 175 MB (10^5 keys of
# 13,000 bits); the budget stops the scaling first.
OVER_BUDGET = {
    "unit_fractions_over_primes": lambda: [Fraction(1, p) for p in first_primes(5000)],
    "ones_and_one_tiny_fraction": lambda: [1] * 10**5 + [Fraction(1, 2**13000)],
}


@pytest.mark.parametrize("make", OVER_BUDGET.values(), ids=OVER_BUDGET.keys())
def test_exact_sorted_takes_the_plain_sort_past_its_budget(make):
    values = make()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = exact_sorted(values)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == len(values)
    assert all(a is b for a, b in zip(result, sorted(values)))
    assert elapsed < 1
    assert peak < 5 * 10**6


def test_huffman_over_a_tiny_fraction_among_ones():
    values = OVER_BUDGET["ones_and_one_tiny_fraction"]()
    tree = build_huffman(values).tree
    assert tree.value == 10**5 + Fraction(1, 2**13000)
