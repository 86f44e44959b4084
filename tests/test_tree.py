import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addtree.numeric import ErrorModel, ParseError, exact_sum, format_value
from addtree.planner import plan
from addtree.tree import (
    Internal,
    Leaf,
    build_balanced,
    cost,
    depth,
    evaluate_exact,
    leaf_values,
    parse_tree,
    serialize,
    to_json_dict,
    worst_case_error,
)

values_lists = st.lists(
    st.integers(min_value=-100, max_value=100).filter(bool), min_size=1, max_size=40
)


def tree_123():
    return Internal(Internal(Leaf(1), Leaf(2)), Leaf(3))


def test_cost_examples():
    assert cost(tree_123()) == 9
    assert cost(Internal(Internal(Leaf(5), Leaf(-5)), Leaf(3))) == 3
    assert cost(Leaf(7)) == 0


def test_worst_case_error():
    assert worst_case_error(tree_123(), ErrorModel(Fraction(1, 8))) == Fraction(9, 8)
    assert worst_case_error(tree_123(), ErrorModel(0)) == 0
    t = Internal(Internal(Leaf(5), Leaf(-5)), Leaf(3))
    assert worst_case_error(t, ErrorModel(Fraction(1, 1000))) == Fraction(3, 1000)


def test_build_balanced_examples():
    t = build_balanced([1, 2, 3, 4])
    assert serialize(t) == "((1 2) (3 4))"
    assert cost(t) == 20
    t3 = build_balanced([1, 2, 3])
    assert serialize(t3) == "((1 2) 3)"
    assert depth(t3) == 2
    assert isinstance(build_balanced([7]), Leaf)


def test_build_balanced_empty():
    with pytest.raises(ValueError):
        build_balanced([])


def test_evaluate_exact():
    assert evaluate_exact(tree_123()) == 6
    assert evaluate_exact(Internal(Internal(Leaf(5), Leaf(-5)), Leaf(3))) == 3
    assert evaluate_exact(Leaf(-4)) == -4


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
    assert evaluate_exact(build_balanced(values)) == exact_sum(values)


@given(values_lists)
def test_cost_bounds_root_for_n_ge_2(values):
    tree = build_balanced(values)
    if len(values) >= 2:
        assert cost(tree) >= abs(exact_sum(values))


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
    tree = build_balanced(sorted(values, key=lambda _: rng.random()))
    back = parse_tree(serialize(tree))
    assert cost(back) == cost(tree)
    assert back.value == tree.value
    assert leaf_values(back) == leaf_values(tree)


def test_json_rendering():
    d = to_json_dict(tree_123())
    assert d["value"] == "6" and d["cost"] == "9"
    assert [c["value"] for c in d["children"]] == ["3", "3"]
    assert d["children"][0]["cost"] == "3"
    leaf = d["children"][1]
    assert leaf["children"] == [] and leaf["cost"] == "0"


def test_deep_tree_operations_are_iterative():
    # Degenerate caterpillar tree; recursion would overflow.
    node = Leaf(1)
    for _ in range(5000):
        node = Internal(node, Leaf(1))
    assert cost(node) >= 0
    assert depth(node) == 5000
    text = serialize(node)
    assert text.count("(") == 5000


def test_deep_tree_json_and_parse_roundtrip():
    # Huffman on geometric input builds a chain of depth n - 1.
    tree = plan([2**i for i in range(3000)], "huffman").tree
    assert depth(tree) == 2999
    text = serialize(tree)
    back = parse_tree(text)
    assert serialize(back) == text and cost(back) == cost(tree)
    assert to_json_dict(tree)["cost"] == format_value(cost(tree))


def test_parse_deep_sexpr_and_errors():
    deep = "(" * 2000 + "1" + " 1)" * 2000
    tree = parse_tree(deep)
    assert depth(tree) == 2000 and tree.value == 2001
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
