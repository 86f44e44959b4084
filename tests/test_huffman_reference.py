"""Differential tests: the two-queue Huffman builders against heap references.

The references are the classic heap algorithms, keyed on (value, insertion
order), for Huffman and for the grouped planner's merge of group maxima;
all-negative input is planned on the positive mirror and negated back. The
builders under test must give the same tree, not only the same cost.
"""

import heapq
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from addtree.huffman import build_huffman, build_huffman_sorted
from addtree.planner import plan, plan_single_sign
from addtree.tree import Internal, Leaf, build_balanced, cost, serialize

# Few distinct values, so merges tie often and tie-breaking decides the shape.
# Dyadic denominators up to 2^30, and non-dyadic ones beside 2^30: a list
# whose common denominator is small next to its size sorts on integer keys
# in numeric.exact_sorted, and a list with a few large denominators among
# small ones exceeds its budget and takes the plain sort. Each of the two
# strategies gives lists of both kinds.
magnitudes = st.one_of(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=60),
    st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4),
        min_size=1,
        max_size=60,
    ),
    st.lists(
        st.builds(Fraction, st.integers(1, 3), st.sampled_from([1, 2, 2**29, 2**30])),
        min_size=1,
        max_size=60,
    ),
    st.lists(
        st.builds(Fraction, st.integers(1, 3), st.sampled_from([1, 3, 7, 10, 2**30])),
        min_size=1,
        max_size=60,
    ),
)


def heap_merge(entries):
    """Huffman over (key, insertion order, tree) entries; merged trees are
    keyed by the sum of their keys and inserted after every earlier entry."""
    heapq.heapify(entries)
    counter = len(entries)
    while len(entries) > 1:
        ka, _, ta = heapq.heappop(entries)
        kb, _, tb = heapq.heappop(entries)
        heapq.heappush(entries, (ka + kb, counter, Internal(ta, tb)))
        counter += 1
    return entries[0][2]


def heap_huffman(values):
    return heap_merge([(v, i, Leaf(v)) for i, v in enumerate(values)])


def heap_grouped(values, t):
    width = 1 << t
    groups = [values[i : i + width] for i in range(0, len(values), width)]
    return heap_merge([(max(g), i, build_balanced(g).tree) for i, g in enumerate(groups)])


def mirror(tree):
    if isinstance(tree, Leaf):
        return Leaf(-tree.value)
    return Internal(mirror(tree.left), mirror(tree.right))


def signed(mags, negative, presorted=False):
    x = [-v for v in mags] if negative else list(mags)
    return sorted(x) if presorted else x


def heap_signed(x):
    """Heap Huffman over single-sign x; negative x is planned on its mirror.
    Equal values are interchangeable, so the tree does not depend on the
    order of x."""
    return mirror(heap_huffman([-v for v in x])) if x[0] < 0 else heap_huffman(x)


@settings(max_examples=200)
@given(magnitudes, st.booleans())
def test_builders_match_heap(mags, negative):
    x = signed(mags, negative)
    expected = serialize(heap_signed(x))
    assert serialize(build_huffman(x)) == expected
    assert serialize(build_huffman_sorted(sorted(x))) == expected
    assert serialize(plan(x, "huffman").tree) == expected


@settings(max_examples=200)
@given(magnitudes, st.booleans(), st.booleans())
def test_plan_huffman_matches_heap(mags, negative, presorted):
    x = signed(mags, negative, presorted)
    expected = heap_signed(x)
    report = plan(x, "huffman", presorted=presorted)
    assert serialize(report.tree) == serialize(expected)
    assert report.cost == cost(expected)


@settings(max_examples=200)
@given(magnitudes, st.booleans(), st.integers(min_value=1, max_value=3))
def test_plan_grouped_matches_heap(mags, negative, t):
    x = signed(mags, negative)
    expected = heap_grouped(list(mags), t)
    if negative:
        expected = mirror(expected)
    report = plan(x, "grouped", t=t)
    assert serialize(report.tree) == serialize(expected)
    assert report.cost == cost(expected)
    assert serialize(plan_single_sign(x, t)) == serialize(expected)
