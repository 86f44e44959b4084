import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addtree.fpsim import Precision, simulate
from addtree.numeric import ParseError
from addtree.planner import plan
from addtree.tree import (
    Internal,
    Leaf,
    build_balanced,
    cost,
    depth,
    nodes,
    parse_tree,
    serialize,
)
from checkers import leaf_values

values_lists = st.lists(
    st.integers(min_value=-100, max_value=100).filter(bool), min_size=1, max_size=40
)


def tree_123():
    return Internal(Internal(Leaf(1), Leaf(2)), Leaf(3))


def test_cost_examples():
    assert cost(tree_123()) == 9
    assert cost(Internal(Internal(Leaf(5), Leaf(-5)), Leaf(3))) == 3
    assert cost(Leaf(7)) == 0


def test_nodes_in_left_to_right_preorder():
    tree = Internal(tree_123(), Internal(Leaf(4), Leaf(5)))
    assert [node.value for node in nodes(tree)] == [15, 6, 3, 1, 2, 3, 9, 4, 5]
    assert leaf_values(tree) == [1, 2, 3, 4, 5]


def test_build_balanced_examples():
    t = build_balanced([1, 2, 3, 4])
    assert serialize(t) == "((1 2) (3 4))"
    assert cost(t) == 20
    t3 = build_balanced([1, 2, 3])
    assert serialize(t3) == "((1 2) 3)"
    assert depth(t3) == 2
    assert isinstance(build_balanced([7]).tree, Leaf)


def test_build_balanced_empty():
    with pytest.raises(ValueError):
        build_balanced([])


def test_serialize_examples():
    assert serialize(tree_123()) == "((1 2) 3)"
    t = parse_tree("(-5 5)")
    assert isinstance(t, Internal) and t.value == 0


def test_parse_errors_report_position():
    with pytest.raises(ParseError, match="position"):
        parse_tree("((1 2)")
    with pytest.raises(ParseError, match="position"):
        parse_tree("(1 2))")
    with pytest.raises(ParseError):
        parse_tree("(1 x)")


@given(values_lists)
def test_conservation(values):
    assert build_balanced(values).tree.value == sum(values)


@given(values_lists)
def test_cost_bounds_root_for_n_ge_2(values):
    tree = build_balanced(values)
    if len(values) >= 2:
        assert cost(tree) >= abs(sum(values))


@given(values_lists)
def test_balanced_depth(values):
    n = len(values)
    assert depth(build_balanced(values)) == (n - 1).bit_length()


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=40))
def test_single_sign_balanced_cost_bound(values):
    n = len(values)
    bound = (n - 1).bit_length() * sum(values)
    assert cost(build_balanced(values)) <= bound


@given(values_lists)
def test_serialize_roundtrip(values):
    rng = random.Random(0)
    tree = build_balanced(sorted(values, key=lambda _: rng.random())).tree
    back = parse_tree(serialize(tree))
    assert cost(back) == cost(tree)
    assert back.value == tree.value
    assert leaf_values(back) == leaf_values(tree)


def test_deep_tree_operations_are_iterative():
    # Degenerate caterpillar tree; recursion would overflow.
    node = Leaf(1)
    for _ in range(5000):
        node = Internal(node, Leaf(1))
    assert cost(node) >= 0
    assert depth(node) == 5000
    text = serialize(node)
    assert text.count("(") == 5000


def test_serialize_working_memory_is_bounded():
    # One list of small strings per node takes about 8 times the text; a
    # chunk of pieces at a time, the chunks and their join about 3 times.
    rng = random.Random(5)
    x = [rng.choice((-1, 1)) * rng.randrange(1, 10**9) for _ in range(10**5)]
    schedule = build_balanced(x)
    tracemalloc.start()
    try:
        text = serialize(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


def test_serialize_grows_its_text_in_place():
    # Past a few chunks the text itself sets the peak: chunks joined at the
    # end took 2.1 times the text, one text grown in place about 1.4 times.
    rng = random.Random(6)
    x = [rng.choice((-1, 1)) * rng.randrange(1, 10**9) for _ in range(4 * 10**5)]
    schedule = build_balanced(x)
    tracemalloc.start()
    try:
        text = serialize(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * len(text)


def test_repr_of_deep_trees():
    # A namedtuple's own repr recurses into the children and raises
    # RecursionError on a chain this deep; the nodes name only their value.
    node = Leaf(1)
    for _ in range(10**5):
        node = Internal(node, Leaf(1))
    assert repr(node) == "Internal(value=100001)"
    assert repr(Leaf(2)) == "Leaf(2)"


def test_deep_tree_json_and_parse_roundtrip():
    # Huffman on geometric input builds a chain of depth n - 1.
    tree = plan([2**i for i in range(3000)], "huffman").tree
    assert depth(tree) == 2999
    text = serialize(tree)
    back = parse_tree(text)
    assert serialize(back) == text and cost(back) == cost(tree)


def test_parse_deep_sexpr_and_errors():
    deep = "(" * 2000 + "1" + " 1)" * 2000
    tree = parse_tree(deep)
    assert depth(tree) == 2000 and tree.value == 2001
    # Left- and right-nested chains of 10^5 ones: every walker is iterative.
    n = 10**5
    chain_cost = (n + 1) * (n + 2) // 2 - 1  # internal values 2, 3, ..., n + 1
    for text in ("(" * n + "1" + " 1)" * n, "(1 " * n + "1" + ")" * n):
        tree = parse_tree(text)
        assert depth(tree) == n and tree.value == n + 1
        assert sum(1 for _ in nodes(tree)) == 2 * n + 1
        assert serialize(tree) == text and cost(tree) == chain_cost
        sim = simulate(tree, Precision(24))
        assert (sim.computed, sim.abs_error, sim.cost) == (n + 1, 0, chain_cost)
    for text, pos in [
        ("(" * 2000 + "1", 2001),
        ("(1 2", 4),
        ("(1 2 3)", 5),
        (")", 0),
        ("(1 ) 2)", 3),
        ("1 2", 2),
        ("  ", 2),
    ]:
        with pytest.raises(ParseError, match=f"position {pos}$"):
            parse_tree(text)
    with pytest.raises(ParseError, match="malformed value literal: 'x' at position 3"):
        parse_tree("(1 x)")
