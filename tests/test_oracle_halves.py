"""The submultiset DP over half rows against the choice-table reference.

optimal_cost_dp indexes submultisets in mixed radix, one digit per
distinct value, splits the digits into a low and a high group and keeps f
in rows indexed by the high group. On distinct input the index is a
bitmask split at b = (n + 1) // 2 bits: every n from 1 to 13 gives each
split width, odd and even n, and the rows where one half is empty.
Repeated values give digits above 1, on either side of the split, and
reduction-shaped input repeats two values m times each.
"""

import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import pytest

from addtree import oracle
from addtree.hardness import ThreePartitionInstance, reduce_to_addition_tree
from addtree.oracle import optimal_cost_dp
from addtree.tree import Leaf, nodes
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
        ((6, 6, 9, 6, 6, 9), 21),
    ],
)
def test_dp_matches_reference_on_reductions(b, k):
    x = list(reduce_to_addition_tree(ThreePartitionInstance(b=b, k=k)).x)
    assert_same(x)
    assert_same(x[::-1])  # the repeated values in the other half


@pytest.mark.parametrize(
    "x",
    [
        # Five values twice each: three types in the low group, two in the high.
        [5, 5, -3, -3, 7, 7, -2, -2, 4, 4],
        [5, -3, 7, -2, 4, 4, -2, 7, -3, 5],
        # Counts 4 and 3 beside single values, and counts 6 and 5.
        [2, -3, 2, 5, -3, 2, -1, -3, 2],
        [-1] * 6 + [1] * 5,
        [3] * 7,  # one type: the high group is empty
        # Repeated rationals over the common scale 4; 1 and 4/4 are one type.
        [
            Fraction(1, 2),
            Fraction(-3, 4),
            Fraction(1, 2),
            Fraction(2, 4),
            Fraction(-3, 4),
            1,
            Fraction(4, 4),
            Fraction(-5, 4),
        ],
    ],
)
def test_dp_matches_reference_on_multisets(x):
    assert_same(x)
    assert_same(x[::-1])


def test_witness_leaves_are_the_inputs_own_objects():
    # Equal values here are distinct objects; the witness holds each once.
    x = [Fraction(3, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2)]
    x += [int("7" + "0" * 20), int("7" + "0" * 20), -1]
    witness = optimal_cost_dp(x).witness
    leaves = [node.value for node in nodes(witness) if isinstance(node, Leaf)]
    assert sorted(map(id, leaves)) == sorted(map(id, x))


def test_inconsistent_table_fails_the_rebuild(monkeypatch):
    # A _halves that drops the middle run for even digits misses splits,
    # so some f values are too high and no split of the whole input sums
    # to its f. The rebuild's submask walk is bounded, so it raises
    # instead of cycling through the submasks forever.
    def dropped_middle_run(index, subs, places):
        d = index // places[bisect_right(places, index) - 1]
        cut = len(subs) // (d + 1) * (d // 2 + 1)
        return subs[cut:], subs[len(subs) - cut - 1 :: -1]

    monkeypatch.setattr(oracle, "_halves", dropped_middle_run)
    with pytest.raises(RuntimeError, match="no split of submultiset"):
        optimal_cost_dp([1, 1, 2, 2])


def test_dp_peak_memory_on_small_values_at_14():
    # Six distinct values, so the DP runs over 864 submultisets, not 2^14
    # subsets. A subset DP that kept all 2^14 subset sums in one
    # table, which for sums this small holds CPython's cached ints and costs
    # only its pointers, peaked at 271,008 bytes on this input; the subset
    # DP over half-mask rows at 424,112.
    rng = random.Random(14)
    x = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(14)]
    tracemalloc.start()
    try:
        optimal_cost_dp(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 271_008, f"peak {peak} bytes"


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
