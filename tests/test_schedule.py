"""The flat merge schedule against the Leaf/Internal view built from it.

Every planner emits a Schedule; cost, depth and serialize read it, and the
view is built only when .tree is read. The differential test runs every
strategy on the inputs hashed by test_plan_digest and compares the
schedule's cost, depth and s-expression with the test-only reference
walkers applied to its view. Deep chains go from text to a view, to a
schedule and back to a view without recursion.
"""

import gc

import pytest

from addtree.planner import STRATEGIES, plan
from addtree.tree import (
    Internal,
    Leaf,
    Schedule,
    build_balanced,
    cost,
    depth,
    flatten,
    parse_tree,
    serialize,
)
from test_cost_reference import reference_cost, reference_depth
from test_plan_digest import ORACLE_MAX_N, inputs
from test_serialize_reference import reference_serialize


def assert_schedule_matches_view(schedule):
    view = schedule.tree
    got, expected = cost(schedule), reference_cost(view)
    assert got == expected and type(got) is type(expected)
    assert depth(schedule) == reference_depth(view)
    assert serialize(schedule) == reference_serialize(view)


def test_schedule_matches_reference_walkers_for_every_strategy():
    for kind, sign, x in inputs():
        for strategy in STRATEGIES:
            if strategy == "optimal" and len(x) > ORACLE_MAX_N:
                continue
            try:
                report = plan(x, strategy)
            except ValueError:
                continue
            assert report.tree is report.schedule.tree
            assert report.cost == cost(report.tree)
            assert_schedule_matches_view(report.schedule)
            # A schedule rebuilt without its kept view gives the same view.
            s = report.schedule
            again = Schedule(s.values, s.left, s.right)
            assert serialize(again.tree) == serialize(s.tree), (kind, sign, strategy)


def test_schedule_layout():
    s = build_balanced([1, 2, 3])
    assert s.values == [1, 2, 3, 3, 6]
    assert (list(s.left), list(s.right)) == ([0, 3], [1, 2])
    assert s.left.typecode == s.right.typecode == "i"
    lone = build_balanced([7])
    assert (lone.values, len(lone.left), lone.tree) == ([7], 0, Leaf(7))
    assert repr(s) == "Schedule(leaves=3, value=6)"


def test_flatten_keeps_the_view_and_passes_a_schedule_through():
    view = Internal(Internal(Leaf(1), Leaf(2)), Leaf(3))
    s = flatten(view)
    assert s.tree is view and flatten(s) is s
    assert (s.values, list(s.left), list(s.right)) == ([1, 2, 3, 3, 6], [0, 3], [1, 2])


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_deep_sexpr_through_a_schedule_and_back(nesting):
    n = 10**5
    text = "(" * n + "1" + " 1)" * n if nesting == "left" else "(1 " * n + "1" + ")" * n
    s = flatten(parse_tree(text))
    assert len(s.values) == 2 * n + 1 and s.values[-1] == n + 1
    assert cost(s) == (n + 1) * (n + 2) // 2 - 1  # merge values 2, 3, ..., n + 1
    assert depth(s) == n
    assert serialize(s) == text
    view = Schedule(s.values, s.left, s.right).tree
    assert view.value == n + 1 and serialize(view) == text


def test_view_build_pauses_the_gc():
    s = build_balanced(list(range(1, 10**5 + 1)))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        view = s.tree
    finally:
        gc.callbacks.remove(hook)
        gc.enable() if was_enabled else gc.disable()
    assert starts == [] and view.value == 10**5 * (10**5 + 1) // 2
