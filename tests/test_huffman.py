import gc
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addtree.huffman import build_huffman, build_huffman_sorted
from addtree.oracle import optimal_cost_dp
from addtree.tree import Leaf, cost, serialize
from checkers import leaf_values

positive_lists = st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=9)


def test_huffman_examples():
    assert cost(build_huffman([1, 2, 3, 4])) == 19
    assert cost(build_huffman([1, 1, 2])) == 6
    t = build_huffman([5])
    assert isinstance(t.tree, Leaf) and cost(t) == 0


def test_sorted_examples():
    assert cost(build_huffman_sorted([1, 2, 3, 4])) == 19
    assert cost(build_huffman_sorted([1, 1, 1, 1])) == 8
    assert isinstance(build_huffman_sorted([5]).tree, Leaf)


@pytest.mark.parametrize("builder", [build_huffman, build_huffman_sorted])
def test_rejects_empty_and_nonpositive(builder):
    for values in ([], [1, -2], [0, 1], [1, 0, -5]):
        with pytest.raises(ValueError):
            builder(values)


def test_rejects_zero_or_mixed_signs_by_the_head_value():
    # The sorted head is the value nearest zero on the side of values[0].
    for values, head in (([3, 0, 1], 0), ([3, -2, 1], -2), ([-1, 5, -3], 5)):
        with pytest.raises(ValueError, match=f"of one sign, got {head}$"):
            build_huffman(values)
    assert serialize(build_huffman([-3, -1, -2])) == "(-3 (-1 -2))"


def test_sorted_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        build_huffman_sorted([2, 1])


@given(positive_lists)
def test_huffman_is_optimal(values):
    assert cost(build_huffman(values)) == optimal_cost_dp(values).optimal_cost


@given(positive_lists)
def test_two_queue_matches_heap(values):
    assert cost(build_huffman_sorted(sorted(values))) == cost(build_huffman(values))


# Equal values of different types tell apart which of two equal leaves a
# builder placed where.
tied_magnitudes = st.lists(
    st.sampled_from([1, Fraction(1), 2, Fraction(4, 2), Fraction(5, 2)]),
    min_size=1,
    max_size=12,
)


@given(tied_magnitudes, st.booleans())
def test_sorted_builder_builds_the_same_tree(magnitudes, negative):
    values = sorted(-v for v in magnitudes) if negative else sorted(magnitudes)
    expected, result = build_huffman(values), build_huffman_sorted(values)
    assert serialize(result) == serialize(expected)
    assert all(a is b for a, b in zip(leaf_values(result), leaf_values(expected)))


@given(positive_lists)
def test_huffman_conserves_sum(values):
    assert build_huffman(values).tree.value == sum(values)


def test_two_queue_linear_comparison_count():
    # Comparison-counting wrapper: the sorted-input builder should perform
    # O(n) comparisons, here asserted as <= 8n. The count covers the order
    # check, the builder's sort pass over sorted input and the two-queue
    # merge, about 4n in all.
    class Counted(int):
        comparisons = 0

        def __le__(self, other):
            Counted.comparisons += 1
            return int(self) <= other

        def __lt__(self, other):
            Counted.comparisons += 1
            return int(self) < other

        def __add__(self, other):
            return Counted(int(self) + int(other))

        __radd__ = __add__

    rng = random.Random(7)
    n = 2000
    values = sorted(Counted(rng.randint(1, 10**6)) for _ in range(n))
    # A maximum beyond 64 bits checks that big integers go through the same
    # check, sort and two-queue loop.
    values.append(Counted(2**64))
    Counted.comparisons = 0
    build_huffman_sorted(values)
    assert Counted.comparisons <= 8 * n


def traced_build(values):
    """build_huffman(values), the bytes it retains and its peak, both over
    the memory in use before the build."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        schedule = build_huffman(values)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return schedule, retained - base, peak - base


def test_rational_merge_holds_at_most_one_int_key_per_leaf():
    # Workload-shaped dyadics k / 2^j, k < 2^16, j <= 24, merged on the int
    # keys v * 2^24. The keys are computed as the merge reads each leaf, so
    # the peak is the retained schedule (2 KB over it, measured) and stays
    # within it plus one key, sized as the root's, per leaf (3.2 MB).
    rng = random.Random(1)
    n = 10**5
    values = [
        Fraction(rng.randrange(1, 1 << 16), 1 << rng.randrange(25)) for _ in range(n)
    ]
    values = [v.numerator if v.denominator == 1 else v for v in values]
    schedule, retained, peak = traced_build(values)
    root_key = int(schedule.values[-1] * 2**24)
    assert peak - retained <= n * sys.getsizeof(root_key)


@pytest.mark.parametrize("sign", [1, -1])
def test_int_merge_allocates_no_key_list(sign):
    # Positive ints are their own keys: the peak is the retained schedule
    # (564 bytes, 0.03 per leaf, over it, measured). Negative ints are keyed
    # on their magnitudes one at a time (1.3 bytes per leaf over). A key
    # list would add at least a list slot of 8 bytes per leaf; the negated
    # key list of the earlier merge added 82.
    rng = random.Random(2)
    n = 2 * 10**4
    values = [sign * rng.randrange(1, 10**9) for _ in range(n)]
    schedule, retained, peak = traced_build(values)
    assert schedule.values[-1] == sum(values)
    assert peak - retained < (1 if sign > 0 else 4) * n
