import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addtree.huffman import build_huffman
from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.oracle import CapExceededError, optimal_cost_dp
from addtree.tree import cost, serialize
from checkers import double_factorial_tree_count, enumerate_trees, leaf_values


def test_dp_examples():
    assert optimal_cost_dp([1, 2, 3, 4]).optimal_cost == 19
    result = optimal_cost_dp([5, -5, 3])
    assert result.optimal_cost == 3
    assert cost(result.witness) == 3
    assert optimal_cost_dp([7]).optimal_cost == 0
    with pytest.raises(ValueError, match="empty multiset"):
        optimal_cost_dp([])


def test_witness_invariants():
    x = [3, -7, 11, -2, 5]
    result = optimal_cost_dp(x)
    assert cost(result.witness) == result.optimal_cost
    assert result.witness.value == sum(x)
    assert sorted(leaf_values(result.witness)) == sorted(x)


def test_dp_cap():
    with pytest.raises(CapExceededError):
        optimal_cost_dp(list(range(1, 23)))
    with pytest.raises(CapExceededError):
        optimal_cost_dp([1, 2, 3], cap=2)


def test_dp_handles_rationals():
    x = [Fraction(1, 10), Fraction(2, 10), Fraction(-1, 5)]
    result = optimal_cost_dp(x)
    assert result.witness.value == Fraction(1, 10)
    assert result.optimal_cost == cost(result.witness)


def test_witness_deterministic():
    x = [2, 2, 2, 2]
    assert serialize(optimal_cost_dp(x).witness) == serialize(optimal_cost_dp(x).witness)


def test_tree_counts():
    assert double_factorial_tree_count(2) == 1
    assert double_factorial_tree_count(3) == 3
    assert double_factorial_tree_count(4) == 15
    with pytest.raises(ValueError, match="n must be >= 1"):
        double_factorial_tree_count(0)
    for n in range(2, 7):
        x = list(range(1, n + 1))
        assert sum(1 for _ in enumerate_trees(x)) == double_factorial_tree_count(n)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        next(enumerate_trees(list(range(1, 10))))
    with pytest.raises(ValueError, match="empty multiset"):
        next(enumerate_trees([]))


def test_dp_agrees_with_enumeration():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        x = [rng.choice([1, -1]) * rng.randint(1, 40) for _ in range(n)]
        best = min((cost(t) for t in enumerate_trees(x)), default=0)
        assert optimal_cost_dp(x).optimal_cost == best


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=9))
def test_dp_agrees_with_huffman_on_positive(values):
    assert optimal_cost_dp(values).optimal_cost == cost(build_huffman(values))


def test_dp_respects_matching_lower_bound():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 9)
        while True:
            x = [rng.choice([1, -1]) * rng.randint(1, 99) for _ in range(n)]
            if any(v > 0 for v in x) and any(v < 0 for v in x):
                break
        lower = minimum_critical_matching(*split_by_sign(x)).total
        assert 2 * optimal_cost_dp(x).optimal_cost >= lower
