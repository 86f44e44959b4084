"""Huffman construction of cost-optimal addition trees for single-sign inputs.

Repeatedly merging the two smallest current magnitudes yields the
minimum-cost addition tree when every input shares one sign. One builder
does the merging: the two-queue method (van Leeuwen, "On the construction
of Huffman trees", ICALP 1976), O(n) over keys that are already sorted.
Unsorted input is sorted first, stably, so equal values merge in input
order; numeric.exact_sorted does that sort, on exact integer keys when the
input holds rationals with a small common denominator. All-negative input
is merged on magnitudes while its leaves keep their negative values. The
merge writes into a tree.Schedule: the sorted values are its leaves, and
each merge takes the next slot of its values list and index arrays.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence

from .numeric import Value, check_ascending, exact_sorted
from .tree import Schedule, without_gc


@without_gc
def build_huffman(values: Sequence[Value]) -> Schedule:
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
    s = Schedule.over(order)
    del order  # the schedule holds the leaves; free the sorted copy before the merge
    if negative:
        two_queue_merge(s, [-v for v in islice(s.values, len(values))])
    else:
        two_queue_merge(s)
    return s


@without_gc
def build_huffman_sorted(values: Sequence[Value]) -> Schedule:
    """build_huffman on a nondecreasing sequence. The order is checked and
    selects no other code path: build_huffman's sort of sorted input is one
    linear pass."""
    check_ascending(values)
    return build_huffman(values)


def two_queue_merge(
    s: Schedule, keys: Optional[List[Value]] = None, ids: Optional[Sequence[int]] = None
) -> None:
    """Huffman merge of n items over nondecreasing positive keys, in O(n),
    written to the last n - 1 merge slots of the schedule s.

    ids[i] is the schedule id of the item keyed by keys[i], the leaves of
    s in order when ids is None; merging two items keys the result by the
    sum of their keys and gives it the sum of their values. Without keys,
    the items are the leaves of s and their values are their keys. Input
    items wait in one FIFO queue and merged items in another; both stay
    nondecreasing, so the two smallest items are always at the queue
    fronts. On ties the input queue wins, and the first item popped becomes
    the left child. Without keys, the merged keys are written straight into
    the merge slots of s, so the merge holds no list beside the schedule.
    """
    values, left, right = s.values, s.left, s.right
    own_keys = keys is None
    n = len(values) - len(left) if own_keys else len(keys)
    if n == 1:
        return
    slot = len(left) - (n - 1)  # the first merge slot written here
    first = len(values) - (n - 1)  # the id of the merge in that slot
    if ids is None:
        ids = range(n)

    # Queue fronts and keys are carried in locals to keep this O(n) pass
    # cheap in constant factors; an infinite key stands for an empty queue.
    # Merged keys go to the merge slots of values when they are the merge
    # values, and to a list of their own otherwise.
    inf = float("inf")
    if own_keys:
        keys = mkeys = values
        mbase = first
    else:
        mkeys = [None] * (n - 1)
        mbase = 0
    i = j = 0
    lk = keys[0]
    mk = inf
    for k in range(n - 1):
        if lk <= mk:
            a = ids[i]
            ka = lk
            i += 1
            lk = keys[i] if i < n else inf
        else:
            a = first + j
            ka = mk
            j += 1
            mk = mkeys[mbase + j] if j < k else inf
        if lk <= mk:
            b = ids[i]
            kb = lk
            i += 1
            lk = keys[i] if i < n else inf
        else:
            b = first + j
            kb = mk
            j += 1
            mk = mkeys[mbase + j] if j < k else inf
        left[slot + k] = a
        right[slot + k] = b
        mkeys[mbase + k] = key = ka + kb
        if mk is inf:
            mk = key
    if own_keys:
        return
    # Each merge value is the sum of its children's, which come before it.
    leaves = first - slot
    for k in range(slot, len(left)):
        values[leaves + k] = values[left[k]] + values[right[k]]
