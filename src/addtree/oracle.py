"""Exact minimum-cost addition trees for small instances.

Computing the optimal cost is NP-hard for mixed-sign input, so the exact
solver is an exponential subset dynamic program: for each subset S of the
(indexed) input, f(S) = |sum(S)| + min over proper splits {A, S \\ A} of
f(A) + f(S \\ A), with singletons costing 0. It is the ground truth that
every approximation bound in this package is tested against.

Each mask is split into halves, H << b | L with b = (n + 1) // 2, and f
is kept as rows[H][L]. The masks are visited with L in the outer loop and
H in the inner loop, both ascending. For each L the f values of its
submasks are gathered out of every row at once, and each mask's split
minimum is one C-level map over those gathers (itertools.chain and
operator.add), not a bytecode loop per split. Subset sums are
high[H] + low[L], from two tables of 2^(n-b) and 2^b sums; there is no
2^n sum table. No choice table is kept: the witness tree is rebuilt from
the top by finding, for each of its n - 1 internal nodes, a split whose
parts' f values sum to f(S) - |sum(S)|; of those, the one whose part A
(the part holding S's lowest index) has the smallest bitmask is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter
from typing import List, Sequence

from .numeric import Value, as_value
from .tree import AdditionTree, Internal, Leaf


class CapExceededError(ValueError):
    """An instance exceeds an oracle's size cap."""


@dataclass(frozen=True)
class OptimalResult:
    """The exact minimum cost of an addition tree over x, and one tree attaining it."""

    optimal_cost: Value
    witness: AdditionTree


def check_oracle_cap(n: int, cap: int) -> None:
    """Raise CapExceededError if n values are more than an oracle capped at cap takes."""
    if n > cap:
        raise CapExceededError(f"oracle capped at {cap} elements, got {n}")


def optimal_cost_dp(x: Sequence[Value], cap: int = 20) -> OptimalResult:
    """Exact minimum cost and a witness tree, via the subset DP.

    Time is exponential in |x| (about 3^n / 2 split visits); cap guards
    against accidental blowups. Memory is the 2^n f values in 2^(n-b)
    rows, the two half tables of sums, and the current L's gathers: a
    list and a tuple per row, which hold at most 2^n references to f
    values in all and no ints of their own.

    Order: a proper submask H' << b | L' of H << b | L has L' a submask
    of L and H' a submask of H. If L' != L, then L' < L, so the outer loop
    filled it in an earlier pass. If L' == L, then H' < H, so the inner
    loop filled it earlier in this pass. Either way f(H' << b | L') is
    final before the mask is visited: the order is topological.

    Splits: the part A holding the mask's lowest bit runs over the
    submasks that hold that bit in ascending order, and its complement
    S \\ A then runs over the submasks that lack it in descending order,
    so two sequences in those orders pair each A with S \\ A. If L != 0,
    that bit is L's lowest: ga[h] is row h gathered at the submasks of L
    that hold it (ascending) and gb[h] at those that lack it (descending),
    and chaining ga over the submasks of H ascending and gb over them
    descending gives the two sequences. If L == 0, the bit is H's lowest:
    each row's L == 0 entry is chained over the submasks of H that hold
    it and those that lack it. An entry not yet filled holds inf, so the
    last pair, S itself with the empty set, never attains the minimum;
    ga[H][-1] is set to f(S) once it is known, for the masks above S.
    """
    n = len(x)
    if n == 0:
        raise ValueError("cannot optimize over an empty multiset")
    check_oracle_cap(n, cap)
    fracs = [Fraction(v) for v in x]
    scale = math.lcm(*(q.denominator for q in fracs))
    vals = [q.numerator * (scale // q.denominator) for q in fracs]  # scaled to integers
    b = (n + 1) // 2
    low = _subset_sums(vals[:b])
    high = _subset_sums(vals[b:])
    inf = n * sum(map(abs, vals)) + 1  # above any f(A) + f(S \ A)
    rows = [[inf] * len(low) for _ in high]
    for i in range(b):
        rows[0][1 << i] = 0  # a singleton costs 0
    for i in range(n - b):
        rows[1 << i][0] = 0
    hsubs = [_submasks(h) for h in range(len(high))]
    asc = [_getter(s) for s in hsubs]
    desc = [_getter(s[::-1]) for s in hsubs]
    every = range(len(high))
    for L, lo in enumerate(low):
        if L:
            sl = _submasks(L)
            ga = list(map(list, map(_getter(sl[1::2]), rows)))
            gb = list(map(_getter(sl[-2::-2]), rows))
            a_get, b_get = asc, desc
            hs = every[1:] if len(sl) == 2 else every  # H = 0 would be a singleton
        else:
            ga = gb = [row[:1] for row in rows]
            hs = [h for h in every if h & (h - 1)]  # two or more bits
            a_get = {h: _getter(hsubs[h][1::2]) for h in hs}
            b_get = {h: _getter(hsubs[h][-2::-2]) for h in hs}
        for H in hs:
            f = abs(high[H] + lo) + min(
                map(add, chain.from_iterable(a_get[H](ga)), chain.from_iterable(b_get[H](gb)))
            )
            rows[H][L] = f
            ga[H][-1] = f
        del ga, gb  # before the next pass gathers its own

    return OptimalResult(
        optimal_cost=as_value(Fraction(rows[-1][-1], scale)),
        witness=_rebuild((1 << n) - 1, x, rows, high, low, b),
    )


def _subset_sums(vals: List[int]) -> List[int]:
    """sum(vals[i] for the bits i of m), for every mask m below 2^len(vals)."""
    sums = [0]
    for v in vals:
        sums += [s + v for s in sums]
    return sums


def _submasks(m: int) -> List[int]:
    """The submasks of m, ascending."""
    out = [0]
    sub = 0
    while sub != m:
        sub = (sub - m) & m
        out.append(sub)
    return out


def _getter(keys: List[int]) -> itemgetter:
    """An itemgetter for keys that returns a sequence, even for one key."""
    if len(keys) == 1:
        return itemgetter(slice(keys[0], keys[0] + 1))
    return itemgetter(*keys)


def _rebuild(
    mask: int, x: Sequence[Value], rows: list, high: list, low: list, b: int
) -> AdditionTree:
    """The witness subtree over mask, from the DP's rows and half sums.

    A module function, not a closure: a recursive closure is a reference
    cycle, which would keep the 2^n table alive until the cyclic GC ran.
    """
    if mask & (mask - 1) == 0:
        return Leaf(x[mask.bit_length() - 1])
    lmask = len(low) - 1  # the low half of a mask
    lsb = mask & -mask
    rest = mask ^ lsb
    target = rows[mask >> b][mask & lmask] - abs(high[mask >> b] + low[mask & lmask])
    sub = 0  # submasks of rest in increasing order: the smallest optimal A
    while True:
        a = sub | lsb
        c = rest ^ sub
        if rows[a >> b][a & lmask] + rows[c >> b][c & lmask] == target:
            return Internal(_rebuild(a, x, rows, high, low, b), _rebuild(c, x, rows, high, low, b))
        sub = (sub - rest) & rest
