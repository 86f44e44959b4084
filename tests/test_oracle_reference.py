"""Differential tests: the subset DP against a reference that stores each
subset's optimal split.

The reference is the DP as it stood with a choice table: for every subset
it records the smallest optimal part A (the part holding the subset's
lowest index) and rebuilds the witness from those records. optimal_cost_dp
keeps only the cost table and finds each witness split again. Both must
give the same cost and the same witness tree, not only the same cost.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from addtree.numeric import as_value
from addtree.oracle import optimal_cost_dp
from addtree.tree import Internal, Leaf, serialize
from checkers import check_schedule


def reference_dp(x):
    """(optimal cost, witness) by the subset DP with a choice table; ties
    between optimal splits go to the smallest part A."""
    n = len(x)
    if n == 1:
        return 0, Leaf(x[0])
    fracs = [Fraction(v) for v in x]
    scale = math.lcm(*(f.denominator for f in fracs))
    vals = [int(f * scale) for f in fracs]
    size = 1 << n
    sums = [0] * size
    for mask in range(1, size):
        lsb = mask & -mask
        sums[mask] = sums[mask ^ lsb] + vals[lsb.bit_length() - 1]

    f = [0] * size
    choice = [0] * size
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        lsb = mask & -mask
        rest = mask ^ lsb
        best = f[lsb] + f[rest]
        best_a = lsb
        sub = (rest - 1) & rest
        while sub:
            a = sub | lsb
            v = f[a] + f[mask ^ a]
            if v < best or (v == best and a < best_a):
                best = v
                best_a = a
            sub = (sub - 1) & rest
        f[mask] = abs(sums[mask]) + best
        choice[mask] = best_a

    def rebuild(mask):
        if mask & (mask - 1) == 0:
            return Leaf(x[mask.bit_length() - 1])
        a = choice[mask]
        return Internal(rebuild(a), rebuild(mask ^ a))

    full = size - 1
    return as_value(Fraction(f[full], scale)), rebuild(full)


def assert_same(x):
    expected_cost, expected_witness = reference_dp(x)
    result = optimal_cost_dp(x)
    assert result.optimal_cost == expected_cost
    assert serialize(result.witness) == serialize(expected_witness)
    check_schedule(result.witness)


# Magnitudes 1-3 of either sign, so many subsets tie in sum and many
# splits tie in cost; the Fractions have denominator 1, 2 or 4.
signed = st.sampled_from([-3, -2, -1, 1, 2, 3])
signed_ints = st.lists(signed, min_size=1, max_size=10)
signed_fractions = st.lists(
    st.builds(Fraction, signed, st.sampled_from([1, 2, 4])), min_size=1, max_size=10
)


@settings(max_examples=300, deadline=None)
@given(signed_ints | signed_fractions)
def test_dp_matches_reference(x):
    assert_same(x)


def test_dp_matches_reference_at_14():
    rng = random.Random(14)
    for _ in range(2):
        assert_same([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(14)])
        assert_same(
            [Fraction(rng.choice([-3, -1, 1, 3]), rng.choice([1, 2, 4])) for _ in range(14)]
        )
