"""Reduced-precision floating-point simulator.

Models a float with a p-bit significand, round-to-nearest-even, and an
unbounded exponent, so the only error source is the per-addition relative
rounding of at most alpha = 2^-p. Running an addition tree through the
simulator measures the realized summation error against the predicted
worst-case bound alpha * cost(tree).

All arithmetic is exact rational; rounded values are dyadic rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numeric import Value, as_value
from .tree import AdditionTree, Internal, cost


@dataclass(frozen=True)
class Precision:
    """p-bit significand (including the leading bit), unbounded exponent."""

    significand_bits: int

    def __post_init__(self):
        if self.significand_bits < 2:
            raise ValueError("significand must have at least 2 bits")

    @property
    def alpha(self) -> Fraction:
        return Fraction(1, 2**self.significand_bits)


def round_to_precision(v: Value, prec: Precision) -> Value:
    """Nearest representable value +-s * 2^e with 2^(p-1) <= s < 2^p,
    ties to even significand. Exact on dyadics that already fit."""
    if v == 0:
        return 0
    f = Fraction(v)
    num, den = abs(f.numerator), f.denominator
    p = prec.significand_bits
    # floor(log2(num / den)) by bit lengths, with an exact one-off fix-up.
    k = num.bit_length() - den.bit_length()
    if (num >= den << k) if k >= 0 else (num << -k >= den):
        floor_log2 = k
    else:
        floor_log2 = k - 1
    # Exponent e places s = |v| / 2^e in [2^(p-1), 2^p).
    e = floor_log2 - (p - 1)
    # Round s to the nearest integer, ties to even.
    if e >= 0:
        q, r = divmod(num, den << e)
        d = den << e
    else:
        q, r = divmod(num << -e, den)
        d = den
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    if q == 1 << p:
        q = 1 << (p - 1)
        e += 1
    sign = -1 if f < 0 else 1
    scaled = q << e if e >= 0 else Fraction(q, 1 << -e)
    return as_value(sign * scaled)


def is_representable(v: Value, prec: Precision) -> bool:
    return round_to_precision(v, prec) == v


def fl_add(x: Value, y: Value, prec: Precision) -> Value:
    """One rounded addition; |fl(x+y) - (x+y)| <= alpha |x+y|."""
    for operand in (x, y):
        if not is_representable(operand, prec):
            raise ValueError(
                f"operand {operand} is not representable at "
                f"{prec.significand_bits} significand bits"
            )
    return round_to_precision(x + y, prec)


@dataclass(frozen=True)
class SimulationResult:
    computed: Value
    true_sum: Value
    abs_error: Value
    bound: Value

    @property
    def ratio(self) -> Value:
        return 0 if self.bound == 0 else as_value(Fraction(self.abs_error) / self.bound)

    def to_json_dict(self) -> dict:
        from .numeric import format_value

        return {
            "computed": format_value(self.computed),
            "true_sum": format_value(self.true_sum),
            "abs_error": format_value(self.abs_error),
            "bound": format_value(self.bound),
            "ratio": format_value(self.ratio),
        }


def simulate(tree: AdditionTree, prec: Precision) -> SimulationResult:
    """Evaluate the tree bottom-up with a rounded add at every internal node."""
    # One iterative post-order pass; trees from the planners can be deep.
    # The right child is visited first, so bad leaves are listed right to
    # left. None marks an addition whose operands are the top two sums.
    sums: list = []
    bad = []
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if node is None:
            b = sums.pop()
            sums.append(round_to_precision(sums.pop() + b, prec))
        elif isinstance(node, Internal):
            stack += (None, node.left, node.right)
        else:
            if not is_representable(node.value, prec):
                bad.append(node.value)
            sums.append(node.value)
    if bad:
        raise ValueError(
            f"leaves not representable at {prec.significand_bits} bits: {bad}"
        )
    computed, true_sum = sums[0], tree.value
    return SimulationResult(
        computed=computed,
        true_sum=true_sum,
        abs_error=abs(computed - true_sum),
        bound=as_value(prec.alpha * cost(tree)),
    )


def first_order_worst_case(tree: AdditionTree, prec: Precision) -> Value:
    """Adversarial first-order error: every addition's relative error set to
    +-alpha, sign-aligned with its partial sum. Equals alpha * cost(tree);
    reported for tightness comparison, not claimed realizable."""
    return as_value(prec.alpha * cost(tree))
