"""Differential tests: cost and depth against the preorder walks they
replaced.

The references visit every node, leaves included, through one stack: of
nodes for the cost, of (node, depth) pairs for the depth. cost and depth
walk the internal nodes one level at a time instead. Both must agree with
their reference on trees from every strategy, with int and Fraction
leaves, and on chains deeper than the call stack allows; cost must also
give the same type.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from addtree.planner import plan
from addtree.tree import Internal, Leaf, build_balanced, cost, depth


def reference_preorder(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Internal):
            stack.append(node.right)
            stack.append(node.left)


def reference_cost(tree):
    return sum(
        abs(node.value) for node in reference_preorder(tree) if isinstance(node, Internal)
    )


def reference_depth(tree):
    best = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, Internal):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
        else:
            best = max(best, d)
    return best


def assert_matches_references(tree):
    got, expected = cost(tree), reference_cost(tree)
    assert got == expected and type(got) is type(expected)
    assert depth(tree) == reference_depth(tree)


nonzero_ints = st.integers(min_value=-50, max_value=50).filter(bool)
nonzero_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
).filter(bool)
value_lists = st.one_of(
    st.lists(nonzero_ints, min_size=1, max_size=30),
    st.lists(nonzero_fractions, min_size=1, max_size=30),
    st.lists(st.one_of(nonzero_ints, nonzero_fractions), min_size=1, max_size=30),
)


@settings(max_examples=60)
@given(value_lists)
def test_cost_matches_reference_for_every_strategy(x):
    single_sign = all(v > 0 for v in x) or all(v < 0 for v in x)
    strategies = ["balanced", "huffman", "grouped"] if single_sign else [
        "balanced",
        "critical",
    ]
    if len(x) <= 8:
        strategies.append("optimal")
    for strategy in strategies:
        assert_matches_references(plan(x, strategy).tree)


def test_cost_on_a_lone_leaf_and_integral_fraction_sums():
    assert_matches_references(Leaf(5))
    assert_matches_references(Leaf(Fraction(1, 3)))
    # Two halves sum to the Fraction 1, which cost must keep a Fraction.
    assert_matches_references(build_balanced([Fraction(1, 2)] * 4).tree)


def test_cost_matches_reference_on_deep_chains():
    left = right = zigzag = Leaf(1)
    for i in range(1, 10**5):
        left = Internal(left, Leaf(i))
        right = Internal(Leaf(-i), right)
        zigzag = Internal(zigzag, Leaf(i)) if i % 2 else Internal(Leaf(i), zigzag)
    for chain in (left, right, zigzag):
        assert_matches_references(chain)
