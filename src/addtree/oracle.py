"""Exact minimum-cost addition trees for small instances.

Computing the optimal cost is NP-hard for mixed-sign input, so the exact
solver is an exponential dynamic program over the submultisets of the
input: for each submultiset S, f(S) = |sum(S)| + min over proper splits
{A, S - A} of f(A) + f(S - A), with singletons costing 0. It is the ground
truth that every approximation bound in this package is tested against.

f(S) depends only on the values in S, not on which copies of a repeated
value they are, so the DP runs over submultisets and repeated values
collapse; the paper's hardness family repeats two values m times each.
The distinct values (types) are taken in first-occurrence order, type t
with count c_t, and a submultiset with d_t copies of type t (d_t <= c_t)
has the mixed-radix index sum_t d_t * w_t, where w_t is the product of
(c_s + 1) over the types s before t. A is a submultiset of S when each of
its digits is at most S's; then S - A has the digitwise difference, which
borrows nowhere, so its index is the difference of the indices. All-distinct
input is the radix-2 case: the indices are bitmasks and this is the subset
DP.

The types are split into a low group, the shortest prefix whose radix
product (the width) reaches the square root of the product of all the
radices, and a high group, so an index is H * width + L and f is kept as
rows[H][L]. The indices are visited with L in the outer loop and H in the
inner loop, both ascending. For each L the f values of its sub-indices are
gathered out of every row at once, and each index's split minimum is one
C-level map over those gathers (itertools.chain and operator.add), not a
bytecode loop per split. Sums are high[H] + low[L], from the two groups'
tables. No choice table is kept: the witness is rebuilt from the top into
a merge schedule, leaves left to right and merges in post-order, over
bitmasks of x's positions, by finding for each of its n - 1 merges a split
whose parts' f values sum to f(S) - |sum(S)|; of those, the one whose part
A (the part holding S's lowest position) has the smallest bitmask is taken.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, mul
from typing import List, Sequence, Tuple

from .numeric import Value, as_value
from .tree import Schedule


# The size cap of the oracle unless a caller sets another: at n = 20 the
# DP makes about 1.7e9 split visits on distinct input.
DEFAULT_CAP = 20


class CapExceededError(ValueError):
    """An instance exceeds an oracle's size cap."""


@dataclass(frozen=True)
class OptimalResult:
    """The exact minimum cost over x, and the schedule of a tree attaining it."""

    optimal_cost: Value
    witness: Schedule


def check_oracle_cap(n: int, cap: int) -> None:
    """Raise CapExceededError if n values are more than an oracle capped at cap takes."""
    if n > cap:
        raise CapExceededError(f"oracle capped at {cap} elements, got {n}")


def optimal_cost_dp(x: Sequence[Value], cap: int = DEFAULT_CAP) -> OptimalResult:
    """Exact minimum cost and a witness schedule, via the submultiset DP.

    Time is exponential in |x|: of the prod_t (c_t + 1)(c_t + 2)/2 pairs
    of a submultiset S and a part A of it, about half are visited as
    splits, 3^n / 2 on distinct input; cap guards against accidental
    blowups and counts n, not the types. Memory is one f value per
    submultiset in rows of width entries, the two groups' tables of sums
    and of sub-indices, and the current L's gathers: a list and a tuple per
    row, which hold at most one reference per submultiset in all and no
    ints of their own.

    Order: a proper sub-index H' * width + L' of H * width + L has L' a
    sub-index of L and H' one of H. If L' != L, then L' < L, since the
    digits of L' are at most those of L and one is smaller; so the outer
    loop filled it in an earlier pass. If L' == L, then H' < H, so the
    inner loop filled it earlier in this pass. Either way f of the part is
    final before the index is visited: the order is topological.

    Splits: index order on the sub-indices of S is the order of their
    digits read from the top, and S - A reverses it (at the top digit where
    A and A' differ, S - A has the larger one), so the complement of the
    i-th sub-index, ascending, is the i-th from the end, and two sequences,
    one ascending and one descending, pair each part A with S - A. Every
    split has a part whose digit at S's top nonzero position (digit d) is
    at least d / 2, so only those parts are taken as A. That digit cuts the
    sub-indices into d + 1 runs of equal length, so the parts are a slice
    and their complements another: for d = 1 the half that holds that
    copy, for even d the middle run twice, which is harmless for a minimum.
    If L != 0, that position is L's: ga[h] is row h gathered at those parts
    of L (ascending) and gb[h] at their complements (descending), and
    chaining ga over the sub-indices of H ascending and gb over them
    descending gives the two sequences. If L == 0, the position is H's:
    each row's L == 0 entry is chained over the parts of H and their
    complements. An entry not yet filled holds inf, so the last pair, S
    itself with the empty multiset, never attains the minimum; ga[H][-1] is
    set to f(S) once it is known, for the indices above S.
    """
    n = len(x)
    if n == 0:
        raise ValueError("cannot optimize over an empty multiset")
    check_oracle_cap(n, cap)
    fracs = [Fraction(v) for v in x]
    scale = math.lcm(*(q.denominator for q in fracs))
    vals = [q.numerator * (scale // q.denominator) for q in fracs]  # scaled to integers
    counts = Counter(vals)  # the types in first-occurrence order
    types = list(counts.items())
    radices = [c + 1 for c in counts.values()]
    place = list(accumulate(radices, mul, initial=1))  # place[t]: type t's weight
    # The low group is types[:k], the shortest prefix whose radix product
    # (width) reaches the square root of the product of all the radices.
    k = next(t for t, w in enumerate(place) if w * w >= place[-1])
    width = place[k]
    low = _digit_sums(types[:k])
    high = _digit_sums(types[k:])
    inf = n * sum(map(abs, vals)) + 1  # above any f(A) + f(S - A)
    rows = [[inf] * width for _ in high]
    lplaces = place[:k]  # the weights of the low types within L
    hplaces = [w // width for w in place[k:-1]]  # and of the high types within H
    for w in lplaces:
        rows[0][w] = 0  # a singleton costs 0
    for w in hplaces:
        rows[w][0] = 0
    lsubs = _sub_indices(radices[:k])
    hsubs = _sub_indices(radices[k:])
    asc = list(map(_getter, hsubs))
    desc = [_getter(s[::-1]) for s in hsubs]
    every = range(len(high))
    for L, lo in enumerate(low):
        if L:
            sl = lsubs[L]
            parts, rests = _halves(L, sl, lplaces)
            ga = list(map(list, map(_getter(parts), rows)))
            gb = list(map(_getter(rests), rows))
            a_get, b_get = asc, desc
            hs = every[1:] if len(sl) == 2 else every  # H = 0 would be a singleton
        else:
            ga = gb = [row[:1] for row in rows]
            hs = [h for h in every if len(hsubs[h]) > 2]  # two or more values
            a_get, b_get = {}, {}
            for h in hs:
                parts, rests = _halves(h, hsubs[h], hplaces)
                a_get[h], b_get[h] = _getter(parts), _getter(rests)
        for H in hs:
            f = abs(high[H] + lo) + min(
                map(add, chain.from_iterable(a_get[H](ga)), chain.from_iterable(b_get[H](gb)))
            )
            rows[H][L] = f
            ga[H][-1] = f
        del ga, gb  # before the next pass gathers its own

    # A bitmask of x's positions picks the submultiset whose index is the
    # sum of its positions' type weights, read from two half tables.
    weight = dict(zip(counts, place))
    b = (n + 1) // 2
    lo = _digit_sums([(weight[v], 1) for v in vals[:b]])
    hi = _digit_sums([(weight[v], 1) for v in vals[b:]])
    table = list(chain.from_iterable(rows))  # f of index H * width + L
    del rows
    witness = Schedule.over(repeat(None, n))
    _rebuild((1 << n) - 1, 0, 0, witness, (x, table, high, low, b, lo, hi, width))
    return OptimalResult(as_value(Fraction(table[-1], scale)), witness)


def _digit_sums(terms: List[Tuple[int, int]]) -> List[int]:
    """sum(d_t * v_t) for every digit vector with d_t <= c_t, where terms
    lists the (v_t, c_t), in mixed-radix order: the first digit varies
    fastest. With every c_t = 1 these are the subset sums, by bitmask."""
    sums = [0]
    for v, c in terms:
        block = sums
        for _ in range(c):
            block = [s + v for s in block]
            sums = sums + block
    return sums


def _sub_indices(radices: List[int]) -> List[List[int]]:
    """The sub-indices of every index below prod(radices), each list ascending."""
    subs = [[0]]
    w = 1
    for r in radices:
        # The sub-indices of i + d * w are those of i + (d - 1) * w, then
        # those of i shifted by d * w.
        base = block = subs
        for d in range(1, r):
            block = [prev + [s + d * w for s in cur] for prev, cur in zip(block, base)]
            subs = subs + block
        w *= r
    return subs


def _halves(index: int, subs: List[int], places: List[int]) -> Tuple[List[int], List[int]]:
    """The parts taken as A for an index with sub-indices subs: those whose
    digit at the index's top nonzero position is at least half of that
    digit d, ascending, and their complements in the same order. That digit
    cuts subs into d + 1 runs of equal length, and the complement of
    subs[i] is subs[-1 - i], so both are slices."""
    d = index // places[bisect_right(places, index) - 1]
    cut = len(subs) // (d + 1) * ((d + 1) // 2)
    return subs[cut:], subs[len(subs) - cut - 1 :: -1]


def _getter(keys: List[int]) -> itemgetter:
    """An itemgetter for keys that returns a sequence, even for one key."""
    if len(keys) == 1:
        return itemgetter(slice(keys[0], keys[0] + 1))
    return itemgetter(*keys)


def _rebuild(mask: int, p: int, q: int, s: Schedule, dp: tuple) -> int:
    """Write the witness subtree over mask, a bitmask of x's positions, into
    s, its leaves from slot p on and its merges in post-order from merge
    slot q on, and return its root's id. dp = (x, table, high, low, b, lo,
    hi, width): mask picks the index lo[its low b bits] + hi[the rest],
    whose f is table[index] and sum high[index // width] + low[index % width].

    A module function, not a closure: a recursive closure is a reference
    cycle, which would keep the table alive until the cyclic GC ran.
    """
    x, table, high, low, b, lo, hi, width = dp
    values = s.values
    if mask & (mask - 1) == 0:
        values[p] = x[mask.bit_length() - 1]
        return p
    low_bits = (1 << b) - 1
    index = lo[mask & low_bits] + hi[mask >> b]
    target = table[index] - abs(high[index // width] + low[index % width])
    lsb = mask & -mask
    rest = mask ^ lsb
    sub = 0  # submasks of rest in increasing order: the smallest optimal A
    while sub != rest:  # A = mask would leave S - A empty
        a = sub | lsb
        part = lo[a & low_bits] + hi[a >> b]
        if table[part] + table[index - part] == target:  # S - A has index - part
            break
        sub = (sub - rest) & rest
    else:
        raise RuntimeError(f"no split of submultiset {index} attains its f value")
    size = a.bit_count()
    left = _rebuild(a, p, q, s, dp)
    right = _rebuild(rest ^ sub, p + size, q + size - 1, s, dp)
    k = q + mask.bit_count() - 2  # this subtree's own merge slot
    s.left[k], s.right[k] = left, right
    k += len(x)  # and its node id
    values[k] = values[left] + values[right]
    return k
