import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.numeric import as_value
from addtree.oracle import CapExceededError
from addtree.tree import cost
from checkers import brute_force_matching, enumerate_trees


def test_equal_sides():
    m = minimum_critical_matching([1, 3], [-2, -5])
    assert set(m.pairs) == {(1, -2), (3, -5)}
    assert m.pi == 3 and m.delta == 0


def test_more_negatives():
    m = minimum_critical_matching([4], [-1, -3])
    assert m.pairs == ((4, -3),)
    assert m.unmatched == (-1,)
    assert m.pi == 1 and m.delta == 1


def test_more_positives():
    m = minimum_critical_matching([1, 3], [-2])
    assert m.pairs == ((3, -2),)
    assert m.unmatched == (1,)
    assert m.total == 2


def test_rejects_empty_side():
    with pytest.raises(ValueError):
        minimum_critical_matching([1, 2], [])
    with pytest.raises(ValueError):
        minimum_critical_matching([], [-1])


def test_rejects_unsorted_or_missigned():
    for positives, negatives in [
        ([1, -1], [-2]),
        ([0, 1], [-1]),
        ([1], [0, -1]),
        ([1], [2, -1]),
    ]:
        with pytest.raises(ValueError):
            minimum_critical_matching(positives, negatives)
    # Unsorted sides are sorted, not rejected.
    for positives, negatives, sides in [
        ([3, 1], [-2], ([1, 3], [-2])),
        ([1], [-5, -2], ([1], [-2, -5])),
    ]:
        assert minimum_critical_matching(positives, negatives) == minimum_critical_matching(*sides)
    m = minimum_critical_matching([1, 1], [-2, -2])
    assert m.pairs == ((1, -2), (1, -2)) and m.total == 2


def test_unmatched_share_one_sign():
    m = minimum_critical_matching([1, 2, 3, 9], [-4, -8])
    signs = {v > 0 for v in m.unmatched}
    assert len(signs) <= 1


def test_brute_force_examples():
    assert brute_force_matching([1, 3, -2, -5]) == 3
    assert brute_force_matching([4, -1, -3]) == 2
    assert brute_force_matching([1, -1]) == 0


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_matching(list(range(1, 8)) + [-v for v in range(1, 8)])
    with pytest.raises(ValueError, match="nonzero"):
        brute_force_matching([1, 0, -1])


@given(
    st.lists(st.integers(min_value=-50, max_value=50).filter(bool), min_size=2, max_size=8)
)
def test_algorithm_matches_brute_force(x):
    if not any(v > 0 for v in x) or not any(v < 0 for v in x):
        return
    assert minimum_critical_matching(*split_by_sign(x)).total == brute_force_matching(x)


# Few distinct magnitudes, as ints or as Fractions, so both sides hold ties.
magnitudes = st.one_of(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12),
    st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4),
        min_size=1,
        max_size=12,
    ),
)


@given(magnitudes, magnitudes, st.data())
def test_any_order_matches_sorted_sides(pos, neg, data):
    positives = sorted(pos)
    negatives = sorted((-v for v in neg), reverse=True)
    expected = minimum_critical_matching(positives, negatives)
    m = minimum_critical_matching(
        data.draw(st.permutations(positives)), data.draw(st.permutations(negatives))
    )
    assert m.pairs == expected.pairs and m.unmatched == expected.unmatched


def reference_matching(positives, negatives):
    """The matching as (pairs, unmatched) tuples, built pair by pair from
    the two sides sorted by ascending magnitude: the layout the planner
    used before the matching kept only the sorted sides."""
    positives = sorted(positives)
    negatives = sorted(negatives, reverse=True)
    k = min(len(positives), len(negatives))
    skip_pos, skip_neg = len(positives) - k, len(negatives) - k
    pairs = tuple(zip(positives[skip_pos:], negatives[skip_neg:]))
    return pairs, (*positives[:skip_pos], *negatives[:skip_neg])


# Sides of unequal lengths, as ints, Fractions, or both mixed.
mixed = st.lists(
    st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4).map(as_value),
    min_size=1,
    max_size=12,
)
sides = st.tuples(st.one_of(magnitudes, mixed), st.one_of(magnitudes, mixed)).map(
    lambda s: (s[0], [-v for v in s[1]])
)


@given(sides, st.data())
def test_matching_matches_tuple_reference(a, data):
    # A second input: either a permutation of the first, whose matching is
    # equal, or one drawn on its own.
    if data.draw(st.booleans()):
        b = tuple(data.draw(st.permutations(side)) for side in a)
    else:
        b = data.draw(sides)
    ma, mb = minimum_critical_matching(*a), minimum_critical_matching(*b)
    ra, rb = reference_matching(*a), reference_matching(*b)
    # repr tells an int from an equal Fraction.
    assert repr((ma.pairs, ma.unmatched)) == repr(ra)
    pairs, unmatched = ra
    assert ma.total == sum(abs(p + q) for p, q in pairs) + sum(map(abs, unmatched))
    assert (ma == mb) == (ra == rb)


@given(
    st.integers(0, 100),
    st.integers(0, 100),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_exchange_property(ai, dj, bi, dj2):
    # For a_i <= a_j and b_i <= b_j: aligned pairing never loses.
    aj = ai + dj
    bj = bi + dj2
    assert abs(ai - bi) + abs(aj - bj) <= abs(ai - bj) + abs(aj - bi)


def test_matching_lower_bounds_every_tree():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 6)
        while True:
            x = [rng.choice([1, -1]) * rng.randint(1, 30) for _ in range(n)]
            if any(v > 0 for v in x) and any(v < 0 for v in x):
                break
        lower = minimum_critical_matching(*split_by_sign(x)).total
        for tree in enumerate_trees(x):
            assert 2 * cost(tree) >= lower
