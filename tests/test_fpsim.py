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
from addtree.tree import Leaf, build_balanced

P3 = Precision(3)


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
