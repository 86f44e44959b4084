import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addtree.fpsim import (
    Precision,
    fl_add,
    is_representable,
    round_to_precision,
    simulate,
)
from addtree.planner import plan
from addtree.tree import Internal, Leaf, build_balanced, depth

P2, P3 = Precision(2), Precision(3)


def test_precision_validation():
    with pytest.raises(ValueError):
        Precision(1)
    assert Precision(24).alpha == Fraction(1, 2**24)


def test_round_examples():
    assert round_to_precision(9, P3) == 8  # tie, even significand wins
    assert round_to_precision(7, P3) == 7
    assert round_to_precision(0, P3) == 0


def test_round_ties_to_even_both_directions():
    # 11 is halfway between 10 (s=5) and 12 (s=6); even s=6 wins.
    assert round_to_precision(11, P3) == 12
    assert round_to_precision(-9, P3) == -8


def test_round_fractions_and_carry():
    assert round_to_precision(Fraction(7, 8), P3) == Fraction(7, 8)
    # 15/16 is halfway between 7/8 and 1; the even significand (1 = 4*2^-2) wins
    assert round_to_precision(Fraction(15, 16), P3) == 1
    # 15.5 rounds up to 16, carrying into a new exponent
    assert round_to_precision(Fraction(31, 2), P3) == 16


def test_fl_add_examples():
    assert fl_add(5, 4, P3) == 8
    assert fl_add(5, 2, P3) == 7
    assert fl_add(6, 0, P3) == 6


def test_fl_add_rejects_unrepresentable_operand():
    with pytest.raises(ValueError, match="not representable"):
        fl_add(9, 1, P3)


def test_simulate_examples():
    sim = simulate(build_balanced([5, 4]), P3)
    assert (sim.computed, sim.true_sum, sim.abs_error) == (8, 9, 1)
    assert sim.bound == Fraction(9, 8)
    assert sim.ratio == Fraction(8, 9)

    exact = simulate(build_balanced([1, 2, 4]), P3)
    assert exact.abs_error == 0

    leaf = simulate(Leaf(6), P3)
    assert leaf.abs_error == 0 and leaf.bound == 0 and leaf.ratio == 0


def test_simulate_rejects_bad_leaves():
    with pytest.raises(ValueError, match="9"):
        simulate(build_balanced([9, 1]), P3)


def test_bad_leaves_listed_right_to_left():
    # Non-dyadic leaves and leaves too wide for 3 bits, mixed.
    tree = build_balanced([Fraction(1, 10), 9, 3, Fraction(1, 3), 17])
    with pytest.raises(ValueError) as info:
        simulate(tree, P3)
    assert str(info.value) == (
        "leaves not representable at 3 bits: [17, Fraction(1, 3), 9, Fraction(1, 10)]"
    )


@pytest.mark.parametrize("n, suffix", [(20, ""), (25, " (first 20 of 25)")])
def test_bad_leaves_message_lists_at_most_20(n, suffix):
    # Odd values from 17 up need at least 5 bits.
    values = [17 + 2 * i for i in range(n)]
    with pytest.raises(ValueError) as info:
        simulate(build_balanced(values), P3)
    assert str(info.value) == (
        f"leaves not representable at 3 bits: {values[::-1][:20]}{suffix}"
    )


def test_simulate_left_deep_chain():
    # The running sum passes 2^24 halfway, so the later additions round.
    values = [257 + i % 3 for i in range(10**5)]
    node = Leaf(values[0])
    for v in values[1:]:
        node = Internal(node, Leaf(v))
    assert depth(node) == 10**5 - 1
    prec = Precision(24)
    computed = exact = values[0]
    total = 0
    for v in values[1:]:
        computed = round_to_precision(computed + v, prec)
        exact += v
        total += exact
    sim = simulate(node, prec)
    assert (sim.computed, sim.true_sum) == (computed, exact)
    assert sim.abs_error == abs(computed - exact) > 0
    assert sim.bound == prec.alpha * total


@pytest.mark.parametrize("p", [2, 53])
def test_simulate_wide_exponent_spread(p):
    tiny, huge = Fraction(1, 2**4000), 2**4000
    sim = simulate(build_balanced([tiny, 3, huge, 6]), Precision(p))
    # Both tiny + 3 and huge + 6 round away the smaller operand.
    assert sim.computed == huge
    assert sim.true_sum == huge + 9 + tiny
    assert sim.abs_error == 9 + tiny
    assert sim.bound == (3 + tiny + huge + 6 + sim.true_sum) / 2**p


def test_long_trailing_zeros_are_representable():
    assert is_representable(3 * 2**100, P2)
    assert not is_representable(5 * 2**100, P2)
    sim = simulate(build_balanced([3 * 2**100, 2**101]), P2)
    # 5 * 2^100 is a tie between 4 and 6 times 2^100; 4 has the even significand.
    assert (sim.computed, sim.abs_error) == (2**102, 2**100)


def test_leaf_only_and_all_negative_trees():
    leaf = simulate(Leaf(Fraction(-3, 4)), P3)
    assert (leaf.computed, leaf.true_sum, leaf.abs_error, leaf.bound, leaf.ratio) == (
        Fraction(-3, 4), Fraction(-3, 4), 0, 0, 0,
    )
    neg = simulate(build_balanced([-5, -4]), P3)
    assert (neg.computed, neg.true_sum, neg.abs_error) == (-8, -9, 1)
    x = [5, 4, 7, 6, 3, 12, 14]
    for strategy in ("balanced", "huffman", "grouped"):
        pos = simulate(plan(x, strategy).tree, P3)
        neg = simulate(plan([-v for v in x], strategy).tree, P3)
        assert (neg.computed, neg.true_sum) == (-pos.computed, -pos.true_sum)
        assert (neg.abs_error, neg.bound) == (pos.abs_error, pos.bound)


representable_24 = st.integers(min_value=-(2**24) + 1, max_value=2**24 - 1)


@given(representable_24, representable_24)
def test_per_operation_contract(x, y):
    prec = Precision(24)
    s = x + y
    assert abs(fl_add(x, y, prec) - s) <= prec.alpha * abs(s)


@given(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**5),
    st.integers(min_value=2, max_value=30),
)
def test_rounding_relative_error(v, p):
    prec = Precision(p)
    r = round_to_precision(v, prec)
    assert abs(r - v) <= prec.alpha * abs(v)
    assert is_representable(r, prec)


def test_first_order_bound_with_slack():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 60)
        p = rng.randint(12, 28)
        if n * Fraction(1, 2**p) > Fraction(1, 100):
            continue
        x = [rng.choice([1, -1]) * rng.randint(1, 2**p - 1) for _ in range(n)]
        sim = simulate(build_balanced(x), Precision(p))
        slack = 1 + n * Fraction(1, 2 ** (p - 1))
        assert sim.abs_error <= slack * sim.bound


def test_simulate_deterministic():
    x = [3, 14, 15, 92, 65, -35]
    a = simulate(build_balanced(x), Precision(8))
    b = simulate(build_balanced(x), Precision(8))
    assert a == b
