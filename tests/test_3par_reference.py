"""Differential tests: the 3-PARTITION search against a reference that
skips repeated pairs.

The reference is the search as it stood with a pair memo: in each call it
tries the first remaining item with every pair of the others, and skips a
pair of values it has already tried. find_triple_partition tries every
pair; a repeated pair leaves the same multiset, so it fails as its first
try did. Both must return the same witness, not only a valid one.
"""

import random

import pytest

from addtree.hardness import (
    ThreePartitionInstance,
    check_partition_witness,
    find_triple_partition,
    random_3par_instance,
)


def reference_search(remaining, k):
    """The first partition of sorted remaining into triples summing to k,
    or None; a pair of values already tried for the first item is skipped."""
    if not remaining:
        return []
    first = remaining[0]
    rest = remaining[1:]
    seen = set()
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            pair = (rest[i], rest[j])
            if pair in seen:
                continue
            seen.add(pair)
            if first + rest[i] + rest[j] == k:
                leftover = rest[:i] + rest[i + 1 : j] + rest[j + 1 :]
                sub = reference_search(leftover, k)
                if sub is not None:
                    return [(first, rest[i], rest[j])] + sub
    return None


def assert_same_witness(instance):
    witness = find_triple_partition(instance)
    assert witness == reference_search(sorted(instance.b), instance.k)
    if witness is not None:
        assert check_partition_witness(instance, witness)
    return witness


def few_valued_instance(m, rng):
    """A valid instance with m triples over at most three distinct values
    (K/4, K/2) apart, or None if the draw misses; often a no-instance."""
    k = rng.randrange(20, 60)
    values = list(range(k // 4 + 1, (k - 1) // 2 + 1))
    pool = rng.sample(values, min(len(values), rng.randint(2, 3)))
    b = [rng.choice(pool) for _ in range(3 * m - 1)]
    last = m * k - sum(b)
    if not (4 * last > k and 2 * last < k):
        return None
    return ThreePartitionInstance(b=tuple(b + [last]), k=k)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_yes_instances_give_the_reference_witness(m):
    rng = random.Random(1000 + m)
    for _ in range(200):
        instance = random_3par_instance(m, rng)
        b = list(instance.b)
        rng.shuffle(b)
        shuffled = ThreePartitionInstance(b=tuple(b), k=instance.k)
        assert assert_same_witness(shuffled) is not None


@pytest.mark.parametrize("m", [2, 3, 4])
def test_few_valued_instances_give_the_reference_witness(m):
    rng = random.Random(2000 + m)
    outcomes = set()
    checked = 0
    while checked < 300:
        instance = few_valued_instance(m, rng)
        if instance is None:
            continue
        outcomes.add(assert_same_witness(instance) is None)
        checked += 1
    assert outcomes == {True, False}  # both yes- and no-instances were met


def test_known_instances_give_the_reference_witness():
    no = [
        ThreePartitionInstance(b=(7, 7, 7, 9, 9, 9), k=24),
        ThreePartitionInstance(b=(7,) * 8 + (8, 10, 11, 11), k=24),
    ]
    yes = [
        ThreePartitionInstance(b=(4, 5, 6), k=15),
        ThreePartitionInstance(b=(9, 8, 7, 9, 8, 7), k=24),
        ThreePartitionInstance(b=(7,) * 3 + (8,) * 3 + (9,) * 3 + (7, 8, 9), k=24),
    ]
    for instance in no:
        assert assert_same_witness(instance) is None
    for instance in yes:
        assert assert_same_witness(instance) is not None
