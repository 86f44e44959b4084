"""Huffman construction of cost-optimal addition trees for single-sign inputs.

Repeatedly merging the two smallest current magnitudes yields the
minimum-cost addition tree when every input shares one sign. One builder
does the merging: the two-queue method (van Leeuwen, "On the construction
of Huffman trees", ICALP 1976), O(n) over keys that are already sorted.
Unsorted input is sorted first, stably, so equal values merge in input
order; numeric.exact_sorted does that sort, on exact integer keys when the
input holds rationals with a small common denominator. All-negative input
is merged on magnitudes while its leaves keep their negative values.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional, Sequence

from .numeric import Value, check_ascending, exact_sorted
from .tree import AdditionTree, Internal, Leaf, without_gc


@without_gc
def build_huffman(values: Sequence[Value]) -> AdditionTree:
    """Minimum-cost addition tree over nonzero values of one sign.

    Ties are broken by input order (the earliest equal value merges first),
    which fixes the tree shape; the cost is tie-independent.
    """
    if not values:
        raise ValueError("cannot build a Huffman tree over an empty sequence")
    negative = values[0] < 0
    # Ascending magnitudes; reverse=True keeps equal values in input order.
    order = exact_sorted(values, reverse=negative)
    # The head is the value nearest zero, so it settles the sign of all.
    if not (order[0] < 0 if negative else order[0] > 0):
        raise ValueError(
            f"Huffman construction requires nonzero values of one sign, got {order[0]}"
        )
    if negative:
        return two_queue_merge([-v for v in order], [Leaf(v) for v in order])
    return two_queue_merge(order)


@without_gc
def build_huffman_sorted(values: Sequence[Value]) -> AdditionTree:
    """build_huffman on a nondecreasing sequence. The order is checked and
    selects no other code path: build_huffman's sort of sorted input is one
    linear pass."""
    check_ascending(values)
    return build_huffman(values)


def two_queue_merge(
    keys: List[Value], trees: Optional[Sequence[AdditionTree]] = None
) -> AdditionTree:
    """Huffman merge over nondecreasing positive keys, in O(n).

    trees[i] is the subtree keyed by keys[i]; merging two subtrees keys the
    result by the sum of their keys. Without trees, the leaves hold the keys
    themselves. Input items wait in one FIFO queue and merged subtrees in
    another; both stay nondecreasing, so the two smallest items are always
    at the queue fronts. On ties the input queue wins, and the first item
    popped becomes the left child.

    keys is a list that the caller built for this call and gives up: the
    merge appends its end-of-queue sentinel to it in place, where a copy
    would hold a second list of n pointers at the peak of the build.
    """
    n = len(keys)
    tnew = tuple.__new__
    own_keys = trees is None
    if own_keys:
        trees = list(map(tnew, repeat(Leaf, n), zip(keys)))
    if n == 1:
        return trees[0]

    # Queue fronts and keys are carried in locals to keep this O(n) pass
    # cheap in constant factors. An infinite key past the last item stands
    # for an empty queue: the input keys get one appended, and merged key k
    # is written when tree k is built, so unwritten slots read as infinite.
    inf = float("inf")
    keys.append(inf)
    merged_keys = [inf] * n
    merged_trees: list = []
    mt_append = merged_trees.append
    i = j = 0
    lk = keys[0]
    mk = inf
    for k in range(n - 1):
        if lk <= mk:
            a = trees[i]
            ka = lk
            i += 1
            lk = keys[i]
        else:
            a = merged_trees[j]
            ka = mk
            j += 1
            mk = merged_keys[j]
        if lk <= mk:
            b = trees[i]
            kb = lk
            i += 1
            lk = keys[i]
        else:
            b = merged_trees[j]
            kb = mk
            j += 1
            mk = merged_keys[j]
        s = ka + kb
        # With the keys as leaf values, the key sum is the node value.
        mt_append(tnew(Internal, (a, b, s if own_keys else a.value + b.value)))
        merged_keys[k] = s
        if mk is inf:
            mk = s
    return merged_trees[-1]
