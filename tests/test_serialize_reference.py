"""Differential tests: serialize against the stack serializer it replaced.

The reference pushes every node's five parts on one stack; serialize
follows each left spine instead. Both must give the same text on trees from
every strategy, with int and Fraction leaves, and on chains deeper than the
call stack allows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from addtree.numeric import format_value
from addtree.planner import plan
from addtree.tree import Internal, Leaf, cost, leaf_values, parse_tree, serialize


def reference_serialize(tree):
    out = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(format_value(item.value))
        else:
            stack.append(")")
            stack.append(item.right)
            stack.append(" ")
            stack.append(item.left)
            stack.append("(")
    return "".join(out)


def assert_same_text(tree):
    text = serialize(tree)
    assert text == reference_serialize(tree)
    back = parse_tree(text)
    assert serialize(back) == text
    assert cost(back) == cost(tree) and leaf_values(back) == leaf_values(tree)


nonzero_ints = st.integers(min_value=-50, max_value=50).filter(bool)
nonzero_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
).filter(bool)
value_lists = st.one_of(
    st.lists(nonzero_ints, min_size=1, max_size=30),
    st.lists(nonzero_fractions, min_size=1, max_size=30),
)


@settings(max_examples=60)
@given(value_lists)
def test_serialize_matches_reference_for_every_strategy(x):
    single_sign = all(v > 0 for v in x) or all(v < 0 for v in x)
    strategies = ["balanced", "huffman", "grouped"] if single_sign else [
        "balanced",
        "critical",
    ]
    if len(x) <= 8:
        strategies.append("optimal")
    for strategy in strategies:
        assert_same_text(plan(x, strategy).tree)


def test_serialize_matches_reference_on_deep_chains():
    left = right = Leaf(0)
    for i in range(1, 10**5):
        left = Internal(left, Leaf(i))
        right = Internal(Leaf(-i), right)
    for chain in (left, right):
        assert_same_text(chain)
