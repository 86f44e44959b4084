"""Exact rational substrate for costs, bounds, and oracle computations.

All planning and verification arithmetic runs on exact rationals so every
bound check is an equality or a strict comparison, never a tolerance.
Values are plain Python ``int`` where possible and ``fractions.Fraction``
otherwise; both are exact and interoperate freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import le
from typing import Iterable, Sequence, Union

Value = Union[int, Fraction]


class ParseError(ValueError):
    """A value or tree literal could not be parsed."""


def as_value(v) -> Value:
    """Normalize a rational to int (when integral) or Fraction."""
    if isinstance(v, int):
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


def parse_value(text: str) -> Value:
    """Parse a decimal/scientific/rational literal into an exact rational.

    "1.1" parses to exactly 11/10 -- there is no intermediate binary float.
    "p/q" forms are accepted as well.
    """
    token = text.strip()
    if not token:
        raise ParseError("empty value literal")
    try:
        return as_value(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed value literal: {token!r}") from exc


def format_value(v: Value) -> str:
    """Render a rational as a finite decimal when its denominator is of the
    form 2^a * 5^b, otherwise as "p/q"."""
    v = as_value(v)
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


def exact_sum(values: Iterable[Value]) -> Value:
    """Exact sum; the empty sum is 0."""
    return as_value(sum(values))


def check_ascending(x: Sequence[Value]) -> None:
    """Reject x unless it is nondecreasing; the position of the first
    descent is searched for only when the one-pass check fails."""
    if not all(map(le, x, islice(x, 1, None))):
        i = next(i for i in range(len(x) - 1) if x[i] > x[i + 1])
        raise ValueError(
            f"input is not sorted: value {x[i + 1]} at position {i + 2} "
            "breaks ascending order"
        )


@dataclass(frozen=True)
class ErrorModel:
    """Standard floating-point model with unit roundoff alpha, 0 <= alpha < 1."""

    alpha: Value

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_value(self.alpha))
        if not (0 <= self.alpha < 1):
            raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {self.alpha}")
