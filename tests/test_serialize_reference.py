"""Differential tests: serialize against the stack serializer it replaced.

The reference pushes every node's five parts on one stack; serialize
follows each left spine instead and joins its pieces into a chunk every
SERIALIZE_CHUNK pieces. Both must give the same text on trees from every
strategy, with int and Fraction leaves, on chains deeper than the call
stack allows, and on renderings that span several chunks.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from addtree.numeric import format_value
from addtree.planner import plan
from addtree.tree import SERIALIZE_CHUNK, Leaf, cost, parse_tree, serialize
from checkers import leaf_values


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


def assert_same_text_across_chunks(tree, n):
    # Every node writes at least one piece, so the 2n - 1 nodes of n
    # leaves fill more than three chunks.
    assert 2 * n - 1 > 3 * SERIALIZE_CHUNK
    text = serialize(tree)
    assert text == reference_serialize(tree)
    return text


def test_serialize_matches_reference_on_deep_chains():
    # 10^5-deep left- and right-nested chains, built from their text.
    n = 10**5
    left = "(" * (n - 1) + "0" + "".join(f" {i})" for i in range(1, n))
    right = "".join(f"({-i} " for i in range(1, n)) + "0" + ")" * (n - 1)
    for text in (left, right):
        chain = parse_tree(text)
        assert assert_same_text_across_chunks(chain, n) == text
        assert_same_text(chain)


def test_serialize_matches_reference_across_chunks():
    rng = random.Random(7)
    n = 2 * 10**5
    mixed = [rng.choice((-1, 1)) * rng.randrange(1, 10**9) for _ in range(n)]
    assert_same_text_across_chunks(plan(mixed, "balanced").tree, n)
    fractions = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 13)) for _ in range(n)]
    assert_same_text_across_chunks(plan(fractions, "huffman").tree, n)
