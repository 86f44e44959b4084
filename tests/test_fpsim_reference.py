"""Differential tests: the integer simulator against the Fraction simulator
it replaced.

The reference rounds every node sum as a Fraction, by exact division, and
takes the bound from a second cost(tree) walk. simulate, round_to_precision,
is_representable and fl_add must agree with it exactly: the same values of
the same types, or the same ValueError message.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from addtree.fpsim import (
    Precision,
    fl_add,
    is_representable,
    round_to_precision,
    simulate,
)
from addtree.numeric import as_value, format_value
from addtree.planner import STRATEGIES, plan
from addtree.tree import Internal, cost


def reference_round(v, prec):
    if v == 0:
        return 0
    f = Fraction(v)
    num, den = abs(f.numerator), f.denominator
    p = prec.significand_bits
    k = num.bit_length() - den.bit_length()
    if (num >= den << k) if k >= 0 else (num << -k >= den):
        floor_log2 = k
    else:
        floor_log2 = k - 1
    e = floor_log2 - (p - 1)
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


def reference_is_representable(v, prec):
    return reference_round(v, prec) == v


def reference_fl_add(x, y, prec):
    for operand in (x, y):
        if not reference_is_representable(operand, prec):
            raise ValueError(
                f"operand {operand} is not representable at "
                f"{prec.significand_bits} significand bits"
            )
    return reference_round(x + y, prec)


def reference_simulate(tree, prec):
    sums = []
    bad = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is None:
            b = sums.pop()
            sums.append(reference_round(sums.pop() + b, prec))
        elif isinstance(node, Internal):
            stack += (None, node.left, node.right)
        else:
            if not reference_is_representable(node.value, prec):
                bad.append(node.value)
            sums.append(node.value)
    if bad:
        raise ValueError(
            f"leaves not representable at {prec.significand_bits} bits: {bad}"
        )
    computed, true_sum = sums[0], tree.value
    abs_error = abs(computed - true_sum)
    bound = as_value(prec.alpha * cost(tree))
    ratio = 0 if bound == 0 else as_value(Fraction(abs_error) / bound)
    return computed, true_sum, abs_error, bound, ratio


def outcome(fn, *args):
    """The value with its type, or the ValueError message."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", result, type(result)


def sim_outcome(fn, tree, prec):
    try:
        result = fn(tree, prec)
    except ValueError as exc:
        return "error", str(exc)
    if not isinstance(result, tuple):
        result = (
            result.computed, result.true_sum, result.abs_error, result.bound, result.ratio
        )
    return ("ok",) + result


precisions = st.integers(min_value=2, max_value=64)
exponents = st.one_of(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-4000, max_value=4000)
)
odd_parts = st.one_of(
    st.integers(min_value=1, max_value=15), st.integers(min_value=1, max_value=2**70)
)


@st.composite
def values(draw):
    """Ints and dyadic Fractions of both signs, sometimes divided by an odd
    number so they are not dyadic; exponents spread up to +-4000."""
    v = draw(st.sampled_from([1, -1])) * draw(odd_parts) * Fraction(2) ** draw(exponents)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        v /= draw(st.sampled_from([3, 5, 10, 3**40]))
    return as_value(v)


@st.composite
def midpoints(draw, p):
    """Values halfway between two adjacent p-bit floats, and non-dyadic
    values just beside such a midpoint."""
    k = draw(st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1))
    j = draw(exponents)
    v = draw(st.sampled_from([1, -1])) * (2 * k + 1) * Fraction(2) ** (j - 1)
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=200))
        v += draw(st.sampled_from([1, -1])) * Fraction(2) ** (j - d) / 3
    return as_value(v)


@settings(max_examples=300, deadline=None)
@given(st.data(), precisions)
def test_rounding_matches_reference(data, p):
    prec = Precision(p)
    v = data.draw(st.one_of(st.fractions(), values(), midpoints(p)))
    assert outcome(round_to_precision, v, prec) == outcome(reference_round, v, prec)
    assert is_representable(v, prec) == reference_is_representable(v, prec)


@settings(max_examples=300, deadline=None)
@given(st.data(), precisions)
def test_fl_add_matches_reference(data, p):
    prec = Precision(p)
    x, y = (data.draw(st.one_of(values(), midpoints(p))) for _ in range(2))
    if data.draw(st.booleans()):
        x, y = reference_round(x, prec), reference_round(y, prec)
    assert outcome(fl_add, x, y, prec) == outcome(reference_fl_add, x, y, prec)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(values(), min_size=1, max_size=12),
    st.sampled_from(STRATEGIES),
    st.booleans(),
    precisions,
)
def test_simulate_matches_reference(x, strategy, negative, p):
    if strategy in ("huffman", "grouped"):
        x = [-abs(v) if negative else abs(v) for v in x]
    elif strategy == "critical":
        if len(x) < 2:
            x = x + [-x[0]]
        if all(v > 0 for v in x) or all(v < 0 for v in x):
            x[0] = -x[0]
    elif strategy == "optimal":
        x = x[:6]
    tree = plan(x, strategy).tree
    prec = Precision(p)
    expected = sim_outcome(reference_simulate, tree, prec)
    assert sim_outcome(simulate, tree, prec) == expected
    if expected[0] == "ok":
        keys = ("computed", "true_sum", "abs_error", "bound", "ratio")
        rendered = dict(zip(keys, map(format_value, expected[1:])))
        assert simulate(tree, prec).to_json_dict() == rendered
