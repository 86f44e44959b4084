"""Every planner's schedule checked one merge at a time by
checkers.check_schedule: children before their merge, each node but the
root a child exactly once, and each merge value exactly its children's sum.

Comparing rendered trees and costs reads merge values only through their
text or their total; these tests read each one. They run every strategy
on the inputs test_plan_digest hashes, and on the tie-heavy magnitudes of
test_huffman_reference in both signs, whose lists take the Huffman
builder's int path, its scaled integer keys and its plain-sort fallback.
"""

from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addtree.huffman import build_huffman
from addtree.planner import STRATEGIES, plan
from addtree.tree import Schedule
from checkers import check_schedule
from test_huffman_reference import magnitudes, signed
from test_plan_digest import ORACLE_MAX_N, inputs


def planned(x):
    """The schedule of every strategy that accepts x."""
    for strategy in STRATEGIES:
        if strategy == "optimal" and len(x) > ORACLE_MAX_N:
            continue
        try:
            yield strategy, plan(x, strategy).schedule
        except ValueError:
            continue


def test_every_strategy_on_the_digest_inputs():
    for kind, sign, x in inputs():
        for strategy, schedule in planned(x):
            try:
                check_schedule(schedule)
            except AssertionError as exc:
                raise AssertionError(f"{strategy} on {kind} {sign} n={len(x)}: {exc}")


@settings(max_examples=200)
@given(magnitudes, st.booleans())
def test_every_strategy_on_huffman_magnitudes(mags, negative):
    x = signed(mags, negative)
    strategies = []
    for strategy, schedule in planned(x):
        check_schedule(schedule)
        strategies.append(strategy)
    assert "huffman" in strategies and "grouped" in strategies


def test_huffman_merges_exact_sums_on_every_route():
    # Ints (their own keys), dyadics (keys scaled by 2^30), and a list whose
    # one huge denominator exceeds the scaling budget (the plain sort).
    routes = [
        [3, 1, 4, 1, 5, 9, 2, 6],
        [Fraction(k, 2**j) for k, j in zip(range(1, 40), range(31))],
        [1] * 50 + [Fraction(1, 3**200)],
    ]
    for mags in routes:
        for negative in (False, True):
            check_schedule(build_huffman(signed(mags, negative)))


def broken(s, left=None, right=None):
    """A copy of s with new child lists, its merge values their sums."""
    left = array("i", s.left if left is None else left)
    right = array("i", s.right if right is None else right)
    values = list(s.values)
    n = len(values) - len(left)
    for k, a, b in zip(range(len(left)), left, right):
        values[n + k] = values[a] + values[b] if max(a, b) < n + k else 0
    return Schedule(values, left, right)


def test_check_schedule_rejects_each_fault():
    s = build_huffman([1, 2, 3, 4])  # merges 4: 0 + 1, 5: 2 + 4, 6: 3 + 5
    assert (s.values, list(s.left), list(s.right)) == ([1, 2, 3, 4, 3, 6, 10], [0, 2, 3], [1, 4, 5])
    check_schedule(s)
    wrong_value = broken(s)
    wrong_value.values[5] = 7
    faults = {
        "not its children's sum": wrong_value,
        "has children": broken(s, left=[5, 2, 3]),  # merge 4 reads merge 5
        "not a child exactly once": broken(s, right=[0, 4, 5]),  # leaf 0 twice, leaf 1 never
    }
    for message, bad in faults.items():
        with pytest.raises(AssertionError, match=message):
            check_schedule(bad)
