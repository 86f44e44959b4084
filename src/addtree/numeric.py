"""Exact rational substrate for costs, bounds, and oracle computations.

All planning and verification arithmetic runs on exact rationals so every
bound check is an equality or a strict comparison, never a tolerance.
Values are plain Python ``int`` where possible and ``fractions.Fraction``
otherwise; both are exact and interoperate freely. ``exact_sorted`` orders
them as ``sorted()`` does, comparing rationals on exact integer keys when
their common denominator is small.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from operator import attrgetter
from sys import get_int_max_str_digits
from typing import List, Sequence, Union

Value = Union[int, Fraction]


class ParseError(ValueError):
    """A value or tree literal could not be parsed. parse_values sets index
    to the position of the token it rejected, hardness.parse_3par sets
    lineno to the line of its bad token."""


def as_value(v) -> Value:
    """Normalize a rational to int (when integral) or Fraction. An int, or a
    Fraction that is not integral, is returned as it is, not copied."""
    if isinstance(v, int):
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def parse_value(text: str) -> Value:
    """Parse a decimal/scientific/rational literal into an exact rational.

    "1.1" parses to exactly 11/10 -- there is no intermediate binary float.
    "p/q" forms are accepted as well. A plain run of decimal digits, with an
    optional sign, becomes an int without building a Fraction. A plain
    decimal, an optional sign and decimal digits on both sides of one dot
    (the whole part may be empty: "-.5"), becomes int(digits) / 10**k for k
    fractional digits, an int when that divides, without Fraction()'s
    string parse. Every other form goes through Fraction(); all routes
    give the value and type Fraction() followed by as_value() gives.

    Literal size is capped by Python's int/str conversion limit
    (sys.get_int_max_str_digits(), 4300 by default; 0 turns it off): a
    literal longer than the limit, or with an exponent beyond it in
    magnitude, is rejected before int() or Fraction() spends time on it.
    """
    token = text.strip()
    if not token:
        raise ParseError("empty value literal")
    limit = get_int_max_str_digits()
    if limit and len(token) > limit:
        raise ParseError(f"value literal is longer than {limit} characters")
    head, dot, frac = token.partition(".")
    whole = head[1:] if head[0:1] in ("+", "-") else head
    if not dot:
        if whole.isdecimal():
            return int(token)
    elif frac.isdecimal() and (not whole or whole.isdecimal()):
        return as_value(Fraction(int(head + frac), 10 ** len(frac)))
    if limit:
        check_exponent(token, limit)
    try:
        return as_value(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed value literal: {token!r}") from exc


def uncommented_lines(text: str) -> List[str]:
    """The lines of text (split at \\n only) with each '#' comment cut: the
    one comment rule of value files and 3-PARTITION files."""
    lines = text.split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return lines


def parse_values(tokens: List[str]) -> List[Value]:
    """[parse_value(t) for t in tokens], with all-int input converted in one
    C-level int() pass.

    int() may differ from parse_value only on a literal with "_", whose
    grammar each defines on its own, or on one longer than the size cap
    (int() counts digits, not characters: it takes "+" followed by 4300
    ones). Without either, int() accepts exactly the tokens that
    parse_value turns into an int, with the same value. So the int() pass
    runs only then; from the first token it rejects on, the tokens go
    through parse_value, and a bad one raises its ParseError with index
    set to that token's position in tokens.
    """
    values: List[Value] = []
    limit = get_int_max_str_digits()
    if "_" not in "".join(tokens) and (
        not limit or max(map(len, tokens), default=0) <= limit
    ):
        try:
            values.extend(map(int, tokens))
            return values
        except ValueError:
            pass
    # extend() keeps the values it converted before an exception: the ints
    # before the token int() rejected, then those before the bad token.
    try:
        values.extend(map(parse_value, islice(tokens, len(values), None)))
    except ParseError as exc:
        exc.index = len(values)
        raise
    return values


def check_exponent(token: str, limit: int) -> None:
    """Reject a literal whose exponent exceeds limit in magnitude; Fraction()
    would otherwise compute 10**exponent. A literal without a well-formed
    exponent passes, and Fraction() reports it if it is malformed."""
    _, e, exponent = token.replace("E", "e").rpartition("e")
    if not e:
        return
    try:
        magnitude = abs(int(exponent))
    except ValueError:
        return
    if magnitude > limit:
        raise ParseError(f"value literal exponent exceeds {limit} in magnitude")


def format_value(v: Value) -> str:
    """Render a rational as a finite decimal when its denominator is of the
    form 2^a * 5^b, otherwise as "p/q".

    A digit string longer than sys.get_int_max_str_digits() raises
    ValueError with a message naming that limit.
    """
    if type(v) is not int:  # an int, the common leaf, skips the call
        v = as_value(v)
    try:
        if isinstance(v, int):
            return str(v)
        num, den = v.numerator, v.denominator
        two = (den & -den).bit_length() - 1
        d = den >> two
        five = 0
        while d % 5 == 0:
            d //= 5
            five += 1
        if d != 1:
            return f"{num}/{den}"
        digits = max(two, five)
        whole, rest = divmod(abs(num), den)
        # The fractional digits are frac = rest * 2^(digits - two) *
        # 5^(digits - five) >= 2^bits, as rest >= 1 and 5 >= 2^2. Over the
        # limit for certain once 2^bits > 10^limit, which 3 * bits >=
        # 10 * limit ensures; checked before 10**digits is built.
        bits = rest.bit_length() - 1 + 3 * digits - two - 2 * five
        limit = get_int_max_str_digits()
        if limit and 3 * bits >= 10 * limit:
            raise ValueError
        frac = rest * (10**digits // den)
        sign = "-" if num < 0 else ""
        return f"{sign}{whole}.{str(frac).zfill(digits)}"
    except ValueError:  # from int-to-str conversion or the check above
        raise digit_limit_error() from None


def digit_limit_error() -> ValueError:
    """The error format_value raises for a result too long to print."""
    return ValueError(
        "a computed result exceeds the int/str conversion limit of "
        f"{get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"
    )


def check_ascending(x: Sequence[Value]) -> None:
    """Reject x unless it is nondecreasing; the position of the first
    descent is searched for only when the one-pass check fails.

    x is nondecreasing exactly when a stable sort leaves it equal to
    itself. On such input the sort makes one pass of n - 1 comparisons,
    and on a list of ints it compares with a type-specialised routine,
    cheaper than one generic rich comparison per pair.
    """
    if sorted(x) != (x if isinstance(x, list) else list(x)):
        i = next(i for i in range(len(x) - 1) if x[i] > x[i + 1])
        raise ValueError(
            f"input is not sorted: value {x[i + 1]} at position {i + 2} "
            "breaks ascending order"
        )


def exact_sorted(values: Sequence[Value], reverse: bool = False) -> List[Value]:
    """sorted(values, reverse=reverse): the same objects in the same order,
    ties included, with rationals compared on exact integer keys.

    Comparing two Fractions is a Python-level call, while ints compare in C.
    When values mixes ints and Fractions whose denominators have a least
    common multiple L with n * bits(L) at most twice the summed bits of
    every numerator and denominator, each value v sorts on the int v * L,
    which orders exactly as v does, and the sort's stability keeps equal
    values in input order, as sorted() does. A larger L would make the keys
    outgrow the input (the unit fractions 1/p over the first 5,000 primes
    need a 69,675-bit L), so such input takes the plain sort, as does input
    with no Fraction or with values of other types. Telling them apart is
    one type scan over values, which on ints alone is the only extra work.
    """
    types = {*map(type, values)}
    if Fraction not in types or not types <= {int, Fraction}:
        return sorted(values, reverse=reverse)
    numerator, denominator = attrgetter("numerator"), attrgetter("denominator")
    budget = 2 * (
        sum(map(int.bit_length, map(numerator, values)))
        + sum(map(int.bit_length, map(denominator, values)))
    )
    n, common = len(values), 1
    distinct = {*map(denominator, values)}
    for d in distinct:
        common = lcm(common, d)
        if n * common.bit_length() > budget:
            return sorted(values, reverse=reverse)
    # v * common = numerator * (common // denominator), with one division
    # per distinct denominator.
    scale = {d: common // d for d in distinct}
    return sorted(values, key=lambda v: v.numerator * scale[v.denominator], reverse=reverse)
