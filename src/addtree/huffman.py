"""Huffman construction of cost-optimal addition trees for single-sign inputs.

Repeatedly merging the two smallest current magnitudes yields the
minimum-cost addition tree when every input shares one sign. One builder
does the merging: the two-queue method (van Leeuwen, "On the construction
of Huffman trees", ICALP 1976), O(n) over keys that are already sorted.
Unsorted input is sorted first, stably, so equal values merge in input
order; numeric.exact_sorted does that sort. The merge runs on exact int
keys wherever they exist: ints are their own keys, and rationals with a
small common denominator L (numeric.integer_scale) are keyed v * L, the
scale the sort used. All-negative input is merged on magnitudes while its
leaves keep their negative values. The merge writes into a tree.Schedule:
the sorted values are its leaves, and each merge takes the next slot of
its values list and index arrays. A merge slot holds its key during the
merge and becomes its value, key / L with the sign restored, once at the
end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .numeric import Value, check_ascending, exact_sorted, integer_scale
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
    scaled = integer_scale(values)
    # Ascending magnitudes; reverse=True keeps equal values in input order.
    order = exact_sorted(values, negative, scaled)
    # The head is the value nearest zero, so it settles the sign of all.
    if not (order[0] < 0 if negative else order[0] > 0):
        raise ValueError(
            f"Huffman construction requires nonzero values of one sign, got {order[0]}"
        )
    s = Schedule.over(order)
    del order  # the schedule holds the leaves; free the sorted copy before the merge
    n = len(values)
    common, scale = scaled
    # Keys are magnitudes, computed as the merge reads each leaf, so no key
    # list lives beside the schedule; a negated scale keys negative rationals.
    slots = s.values  # the leaves, then one slot per merge
    if scale is not None:
        if negative:
            scale = {d: -k for d, k in scale.items()}
        key = lambda i: (v := slots[i]).numerator * scale[v.denominator]
    elif negative:
        key = lambda i: -slots[i]
    else:
        key = slots.__getitem__  # positive leaves without a scale are their own keys
    two_queue_merge(s, key, range(n))
    # Each merge slot holds its key and becomes key / L, negated for
    # negative input; an integral value comes out as an int.
    if common != 1:
        unit = -common if negative else common
        for k in range(n, len(slots)):
            m = slots[k]
            slots[k] = Fraction(m, unit) if m % unit else m // unit
    elif negative:
        for k in range(n, len(slots)):
            slots[k] = -slots[k]
    return s


def build_huffman_sorted(values: Sequence[Value]) -> Schedule:
    """build_huffman on a nondecreasing sequence. The order is checked and
    selects no other code path: build_huffman's sort of sorted input is one
    linear pass."""
    check_ascending(values)
    return build_huffman(values)


def two_queue_merge(s: Schedule, key: Callable[[int], Value], ids: Sequence[int]) -> None:
    """Huffman merge of n items over nondecreasing positive keys, in O(n),
    written to the last n - 1 merge slots of the schedule s.

    Item i has the key key(i) and the schedule id ids[i]. Merging two items
    keys the result by the sum of their keys, and that key is written
    straight into the merge's value slot, so the merge holds no list beside
    the schedule. Input items wait in one FIFO queue and merged items in
    another; both stay nondecreasing, so the two smallest items are always
    at the queue fronts. On ties the input queue wins, and the first item
    popped becomes the left child. Every merge slot is left holding its
    key, and the caller turns each key into its value.
    """
    values, left, right = s.values, s.left, s.right
    n = len(ids)
    slot = len(left) - (n - 1)  # the first merge slot written here
    first = len(values) - (n - 1)  # the id of the merge in that slot

    # Queue fronts and keys are carried in locals to keep this O(n) pass
    # cheap in constant factors; an infinite key stands for an empty queue.
    inf = float("inf")
    i = j = 0
    lk = key(0)
    mk = inf
    for k in range(n - 1):
        if lk <= mk:
            a = ids[i]
            ka = lk
            i += 1
            lk = key(i) if i < n else inf
        else:
            a = first + j
            ka = mk
            j += 1
            mk = values[first + j] if j < k else inf
        if lk <= mk:
            b = ids[i]
            kb = lk
            i += 1
            lk = key(i) if i < n else inf
        else:
            b = first + j
            kb = mk
            j += 1
            mk = values[first + j] if j < k else inf
        left[slot + k] = a
        right[slot + k] = b
        values[first + k] = ab = ka + kb
        if mk is inf:
            mk = ab
