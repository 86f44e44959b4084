"""Reduced-precision floating-point simulator.

Models a float with a p-bit significand, round-to-nearest-even, and an
unbounded exponent, so the only error source is the per-addition relative
rounding of at most alpha = 2^-p. Running an addition tree through the
simulator measures the realized summation error against the predicted
worst-case bound alpha * cost(tree).

Arithmetic is exact on integer (significand, exponent) pairs m * 2^e. An
addition aligns its two operands' exponents with one shift, and one
integer ties-to-even step (_round) does every rounding; each shift belongs
to one addition, so no input is scaled to a common denominator. Fraction
appears only at the result boundary, when the values a caller sees are
assembled.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from sys import get_int_max_str_digits, maxsize

from .numeric import Value, as_value, digit_limit_error, format_value
from .tree import Internal, Plan, tree_view


class Precision(namedtuple("_PrecisionBase", ("significand_bits",))):
    """p-bit significand (including the leading bit), unbounded exponent."""

    __slots__ = ()

    def __new__(cls, significand_bits: int):
        if significand_bits < 2:
            raise ValueError("significand must have at least 2 bits")
        return tuple.__new__(cls, (significand_bits,))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    @property
    def alpha(self) -> Fraction:
        return Fraction(1, 1 << self.significand_bits)


def _round(m: int, e: int, p: int) -> tuple:
    """Round m * 2^e to a p-bit significand, ties to even; returns (m', e')
    with |m'| <= 2^p. Exact when |m| already fits in p bits."""
    a = -m if m < 0 else m
    shift = a.bit_length() - p
    if shift <= 0:
        return m, e
    q = a >> shift
    half = 1 << (shift - 1)
    r = a & (half + half - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return (-q if m < 0 else q), e + shift


def _value(m: int, e: int) -> Value:
    return m << e if e >= 0 else as_value(Fraction(m, 1 << -e))


def round_to_precision(v: Value, prec: Precision) -> Value:
    """Nearest representable value +-s * 2^e with 2^(p-1) <= s < 2^p,
    ties to even significand. Exact on dyadics that already fit."""
    f = Fraction(v)
    num, den = f.numerator, f.denominator
    p = prec.significand_bits
    if den & (den - 1) == 0:
        m, e = num, 1 - den.bit_length()
    else:
        # Not dyadic, so the remainder of any floor is nonzero: take the
        # floor of |v| * 2^s with at least p + 1 bits, and append a set
        # sticky bit below the rounding position, so a floor that lies on
        # a midpoint rounds up and no tie arises.
        a = abs(num)
        s = p + 1 - a.bit_length() + den.bit_length()
        q = (a << s) // den if s >= 0 else a // (den << -s)
        m, e = q << 1 | 1, -s - 1
        if num < 0:
            m = -m
    return _value(*_round(m, e, p))


class SimulationResult(
    namedtuple("_SimulationResultBase", ("computed", "true_sum", "abs_error", "cost", "precision"))
):
    """A simulated tree's rounded sum, exact sum, their gap, cost C(T) and
    precision. A namedtuple like the other records: its fields are
    read-only, and it compares equal to a plain tuple of them."""

    __slots__ = ()

    @property
    def bound(self) -> Value:
        """alpha * C(T); 2^p is built only for a nonzero cost."""
        return as_value(self.precision.alpha * self.cost) if self.cost else 0

    @property
    def ratio(self) -> Value:
        return 0 if self.bound == 0 else as_value(Fraction(self.abs_error) / self.bound)

    def to_json_dict(self) -> dict:
        """Every value through format_value. A nonzero bound has t >= p -
        bits(numerator of C(T)) fractional bits, worth over 2^(2t): too long
        to print once 6t >= 10 * limit, format_value's test, made here before
        2^p is built. Past sys.maxsize, 1 << p fails at once: with
        OverflowError from about p = 2^66 on, with MemoryError below that;
        every such p raises the OverflowError here."""
        p, limit = self.precision.significand_bits, get_int_max_str_digits()
        t = p - self.cost.numerator.bit_length()
        if self.cost and p > maxsize:
            raise OverflowError("too many digits in integer")
        if self.cost and limit and 3 * t >= 5 * limit:
            raise digit_limit_error()
        return {
            "computed": format_value(self.computed),
            "true_sum": format_value(self.true_sum),
            "abs_error": format_value(self.abs_error),
            "bound": format_value(self.bound),
            "ratio": format_value(self.ratio),
        }


def simulate(tree: Plan, prec: Precision) -> SimulationResult:
    """Evaluate the tree bottom-up with a rounded add at every internal
    node; a schedule is evaluated through its Leaf/Internal view."""
    # One iterative post-order pass; trees from the planners can be deep.
    # The right child is visited first, so bad leaves are listed right to
    # left. None marks an addition whose operands are the top two entries.
    # An entry is (rounded m, e, exact m, e); the exact sums also give the
    # cost C(T) as cost_m * 2^cost_e.
    p = prec.significand_bits
    rnd = _round
    sums: list = []
    pop, push = sums.pop, sums.append
    bad = []
    cost_m = cost_e = 0
    stack: list = [tree_view(tree)]
    while stack:
        node = stack.pop()
        if node is None:
            bm, be, bx, bxe = pop()
            am, ae, ax, axe = pop()
            if ae > be:
                am <<= ae - be
                ae = be
            elif be > ae:
                bm <<= be - ae
            m, e = rnd(am + bm, ae, p)
            if axe > bxe:
                ax <<= axe - bxe
                axe = bxe
            elif bxe > axe:
                bx <<= bxe - axe
            x = ax + bx
            if axe < cost_e:
                cost_m <<= cost_e - axe
                cost_e = axe
            cost_m += (x if x >= 0 else -x) << (axe - cost_e)
            push((m, e, x, axe))
        elif isinstance(node, Internal):
            stack += (None, node.left, node.right)
        else:
            v = node.value
            den = v.denominator
            if den & (den - 1):
                bad.append(v)  # not dyadic
                push((0, 0, 0, 0))
                continue
            m, e = v.numerator, 1 - den.bit_length()
            rm, re = rnd(m, e, p)
            if rm << (re - e) != m:
                bad.append(v)
            push((m, e, m, e))
    if bad:
        more = f" (first 20 of {len(bad)})" if len(bad) > 20 else ""
        raise ValueError(f"leaves not representable at {p} bits: {bad[:20]}{more}")
    m, e, x, xe = sums[0]
    computed, true_sum = _value(m, e), _value(x, xe)
    return SimulationResult(
        computed=computed,
        true_sum=true_sum,
        abs_error=as_value(abs(computed - true_sum)),
        cost=_value(cost_m, cost_e),
        precision=prec,
    )
