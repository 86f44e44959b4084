"""The half-mask subset DP against the choice-table reference.

optimal_cost_dp splits each mask into a high and a low half at
b = (n + 1) // 2 bits and keeps f in rows indexed by the high half.
Every n from 1 to 13 gives each split width, odd and even n, and the
rows where one half is empty. Reduction-shaped input adds repeated
values on both sides of the split.
"""

import random
import tracemalloc

import pytest

from addtree.hardness import ThreePartitionInstance, reduce_to_addition_tree
from addtree.oracle import optimal_cost_dp
from test_oracle_reference import assert_same


@pytest.mark.parametrize("n", range(1, 14))
def test_dp_matches_reference_at_every_n(n):
    rng = random.Random(n)
    assert_same([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)])  # many ties
    assert_same([rng.choice([1, -1]) * rng.randint(1, 10**6) for _ in range(n)])


@pytest.mark.parametrize(
    "b, k",
    [
        ((4, 5, 6), 15),
        ((5, 5, 5), 15),
        ((5,) * 6, 15),
        ((7, 8, 9, 7, 8, 9), 24),
        ((7, 7, 7, 9, 9, 9), 24),
    ],
)
def test_dp_matches_reference_on_reductions(b, k):
    x = list(reduce_to_addition_tree(ThreePartitionInstance(b=b, k=k)).x)
    assert_same(x)
    assert_same(x[::-1])  # the repeated values in the other half


def test_dp_peak_memory_at_13():
    # A DP that kept all 2^13 subset sums in one table, at about 40 bytes
    # an entry for sums this wide, peaked at 658,904 bytes on this input;
    # the two half tables measured 441,376. (n = 13, not 14: under
    # tracemalloc the DP runs some forty times slower, 14 s at n = 14.)
    rng = random.Random(13)
    x = [rng.choice([1, -1]) * rng.randint(1, 10**6) for _ in range(13)]
    tracemalloc.start()
    try:
        optimal_cost_dp(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 658_904, f"peak {peak} bytes"
