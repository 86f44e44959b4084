"""Huffman construction of cost-optimal addition trees for single-sign inputs.

Repeatedly merging the two smallest current magnitudes yields the
minimum-cost addition tree when every input shares one sign. One builder
does the merging: the two-queue method (van Leeuwen, "On the construction
of Huffman trees", ICALP 1976), O(n) over keys that are already sorted.
Unsorted input is sorted first, stably, so equal values merge in input
order. All-negative input is merged on magnitudes while its leaves keep
their negative values.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .numeric import Value, check_ascending
from .tree import AdditionTree, Internal, Leaf, without_gc


@without_gc
def build_huffman(values: Sequence[Value]) -> AdditionTree:
    """Minimum-cost addition tree over strictly positive values.

    Ties are broken by insertion order (earliest inserted merges first),
    which fixes the tree shape; the cost is tie-independent.
    """
    if not values:
        raise ValueError("cannot build a Huffman tree over an empty sequence")
    for v in values:
        if v <= 0:
            raise ValueError(
                f"Huffman construction requires strictly positive values, got {v}"
            )
    return two_queue_merge(sorted(values))


@without_gc
def build_huffman_sorted(values: Sequence[Value]) -> AdditionTree:
    """Linear-time Huffman tree for a nondecreasing positive sequence."""
    if not values:
        raise ValueError("cannot build a Huffman tree over an empty sequence")
    check_ascending(values)
    if values[0] <= 0:  # nondecreasing, so checking the head suffices
        raise ValueError(
            f"Huffman construction requires strictly positive values, got {values[0]}"
        )
    return two_queue_merge(values)


@without_gc
def build_huffman_single_sign(x: Sequence[Value]) -> AdditionTree:
    """Minimum-cost addition tree over nonzero values of one sign.

    The caller guarantees that x is nonempty, zero-free and single-sign.
    """
    if x[0] > 0:
        keys, trees = sorted(x), None
    else:
        # Ascending magnitudes; reverse=True keeps equal values in input order.
        order = sorted(x, reverse=True)
        keys, trees = [-v for v in order], [Leaf(v) for v in order]
    return two_queue_merge(keys, trees)


def two_queue_merge(
    keys: Sequence[Value], trees: Optional[Sequence[AdditionTree]] = None
) -> AdditionTree:
    """Huffman merge over nondecreasing positive keys, in O(n).

    trees[i] is the subtree keyed by keys[i]; merging two subtrees keys the
    result by the sum of their keys. Without trees, the leaves hold the keys
    themselves. Input items wait in one FIFO queue and merged subtrees in
    another; both stay nondecreasing, so the two smallest items are always
    at the queue fronts. On ties the input queue wins, and the first item
    popped becomes the left child.
    """
    n = len(keys)
    tnew = tuple.__new__
    own_keys = trees is None
    if own_keys:
        trees = [tnew(Leaf, (v,)) for v in keys]
    if n == 1:
        return trees[0]

    # Queue fronts and keys are carried in locals to keep this O(n) pass
    # cheap in constant factors.
    merged_trees: list = []
    merged_keys: list = []
    mt_append = merged_trees.append
    mk_append = merged_keys.append
    inf = float("inf")
    i = j = mcount = 0
    lk = keys[0]
    mk = inf
    for _ in range(n - 1):
        if lk <= mk:
            a = trees[i]
            ka = lk
            i += 1
            lk = keys[i] if i < n else inf
        else:
            a = merged_trees[j]
            ka = mk
            j += 1
            mk = merged_keys[j] if j < mcount else inf
        if lk <= mk:
            b = trees[i]
            kb = lk
            i += 1
            lk = keys[i] if i < n else inf
        else:
            b = merged_trees[j]
            kb = mk
            j += 1
            mk = merged_keys[j] if j < mcount else inf
        s = ka + kb
        # With the keys as leaf values, the key sum is the node value.
        mt_append(tnew(Internal, (a, b, s if own_keys else a.value + b.value)))
        mk_append(s)
        if mk is inf:
            mk = s
        mcount += 1
    return merged_trees[-1]
