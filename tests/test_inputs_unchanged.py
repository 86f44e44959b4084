"""No builder or planner changes the list it is given.

Every builder copies its input into a schedule and sorts or splits its
own copies; this checks the public entry points that reach the Huffman
merge, and the others, on int and Fraction input of each sign they accept,
sorted and unsorted.
"""

import random
from fractions import Fraction

import pytest

from addtree.huffman import build_huffman, build_huffman_sorted
from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.planner import STRATEGIES, plan, plan_general, plan_single_sign
from addtree.tree import build_balanced

SINGLE_SIGN = ("balanced", "huffman", "grouped", "optimal")
MIXED = ("balanced", "critical", "optimal")


def sample(rng, kind, sign, n):
    """n nonzero values of the given kind; sign "mixed" holds both signs."""
    values = []
    while len(values) < n:
        v = rng.randint(1, 40)
        if kind == "fraction":
            v = Fraction(v, rng.choice((1, 2, 3, 8)))
        negative = sign == "negative" or (sign == "mixed" and len(values) % 2)
        values.append(-v if negative else v)
    rng.shuffle(values)
    return values


def calls(sign, n):
    """(name, function of one list) for every call that accepts this input;
    minimum_critical_matching takes two lists and has its own test."""
    strategies = SINGLE_SIGN if sign != "mixed" else MIXED
    for strategy in strategies:
        if strategy == "optimal" and n > 6:
            continue
        yield f"plan-{strategy}", lambda x, s=strategy: plan(x, s)
        yield f"plan-{strategy}-presorted", lambda x, s=strategy: plan(
            x, s, presorted=True
        )
    yield "build_balanced", build_balanced
    yield "split_by_sign", split_by_sign
    if sign == "mixed":
        yield "plan_general", plan_general
    else:
        yield "build_huffman", build_huffman
        yield "build_huffman_sorted", build_huffman_sorted
        yield "plan_single_sign", lambda x: plan_single_sign(x, 1)


@pytest.mark.parametrize("sign", ["positive", "negative", "mixed"])
@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_no_call_changes_its_input_list(kind, sign):
    rng = random.Random(f"{kind}-{sign}")
    for _ in range(50):
        n = rng.randint(2 if sign == "mixed" else 1, 12)
        unsorted = sample(rng, kind, sign, n)
        for name, call in calls(sign, n):
            # A sorted-input promise gets sorted input, every other call
            # the shuffled list.
            if "presorted" in name or name == "build_huffman_sorted":
                x = sorted(unsorted)
            else:
                x = list(unsorted)
            before = list(x)
            call(x)
            assert x == before, (name, before)


def test_minimum_critical_matching_leaves_both_sides_unchanged():
    rng = random.Random(5)
    for kind in ("int", "fraction"):
        for _ in range(50):
            positives = sample(rng, kind, "positive", rng.randint(1, 8))
            negatives = sample(rng, kind, "negative", rng.randint(1, 8))
            before = (list(positives), list(negatives))
            minimum_critical_matching(positives, negatives)
            assert (positives, negatives) == before


def test_every_strategy_is_covered():
    assert set(SINGLE_SIGN) | set(MIXED) == set(STRATEGIES)
