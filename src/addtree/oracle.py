"""Exact minimum-cost addition trees for small instances.

Computing the optimal cost is NP-hard for mixed-sign input, so the exact
solver is an exponential subset dynamic program: for each subset S of the
(indexed) input, f(S) = |sum(S)| + min over proper splits {A, S \\ A} of
f(A) + f(S \\ A), with singletons costing 0. It is the ground truth that
every approximation bound in this package is tested against. Only f is
stored: the witness tree is rebuilt from the top by finding, for each of
its n - 1 internal nodes, a split whose parts' f values sum to
f(S) - |sum(S)|; of those, the one whose part A (the part holding S's
lowest index) has the smallest bitmask is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numeric import Value, as_value
from .tree import AdditionTree, Internal, Leaf


class CapExceededError(ValueError):
    """An instance exceeds an oracle's size cap."""


@dataclass(frozen=True)
class OptimalResult:
    """The exact minimum cost of an addition tree over x, and one tree attaining it."""

    optimal_cost: Value
    witness: AdditionTree


def _scaled_ints(values: Sequence[Value]) -> tuple:
    """Scale rationals to integers by the LCM of denominators."""
    fracs = [Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * scale) for f in fracs], scale


def optimal_cost_dp(x: Sequence[Value], cap: int = 20) -> OptimalResult:
    """Exact minimum cost and a witness tree, via the subset DP.

    Time and memory are exponential in |x| (about 3^n split visits and 2^n
    table entries); cap guards against accidental blowups.
    """
    n = len(x)
    if n == 0:
        raise ValueError("cannot optimize over an empty multiset")
    if n > cap:
        raise CapExceededError(f"oracle capped at {cap} elements, got {n}")
    if n == 1:
        return OptimalResult(optimal_cost=0, witness=Leaf(x[0]))

    vals, scale = _scaled_ints(x)
    size = 1 << n
    sums = [0] * size
    for mask in range(1, size):
        lsb = mask & -mask
        sums[mask] = sums[mask ^ lsb] + vals[lsb.bit_length() - 1]

    f = [0] * size
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        lsb = mask & -mask
        rest = mask ^ lsb
        # Canonical splits: the part containing the lowest set bit.
        best = f[lsb] + f[rest]
        sub = (rest - 1) & rest
        while sub:
            v = f[sub | lsb] + f[rest ^ sub]
            if v < best:
                best = v
            sub = (sub - 1) & rest
        f[mask] = abs(sums[mask]) + best

    full = size - 1
    return OptimalResult(
        optimal_cost=as_value(Fraction(f[full], scale)),
        witness=_rebuild(full, x, f, sums),
    )


def _rebuild(mask: int, x: Sequence[Value], f: list, sums: list) -> AdditionTree:
    """The witness subtree over mask, from the DP tables f and sums.

    A module function, not a closure: a recursive closure is a reference
    cycle, which would keep both 2^n tables alive until the cyclic GC ran.
    """
    if mask & (mask - 1) == 0:
        return Leaf(x[mask.bit_length() - 1])
    lsb = mask & -mask
    rest = mask ^ lsb
    target = f[mask] - abs(sums[mask])
    sub = 0  # submasks of rest in increasing order: the smallest optimal A
    while f[sub | lsb] + f[rest ^ sub] != target:
        sub = (sub - rest) & rest
    return Internal(_rebuild(sub | lsb, x, f, sums), _rebuild(rest ^ sub, x, f, sums))
