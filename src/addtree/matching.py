"""Minimum critical matchings of mixed-sign multisets.

A critical matching pairs elements of opposite sign; its quality is
Pi + Delta, where Pi sums the magnitudes of the pair sums and Delta sums
the magnitudes of the unmatched elements. Rank-aligned pairing of the two
sorted sides minimizes Pi + Delta, and every addition tree T satisfies
2 C(T) >= Pi* + Delta*, which is the lower bound the general planner is
measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Sequence

from .numeric import Value
from .oracle import CapExceededError


@dataclass(frozen=True)
class CriticalMatching:
    pairs: tuple  # (positive, negative) pairs
    unmatched: tuple
    pi: Value = field(init=False)
    delta: Value = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "pi", sum(abs(a + b) for a, b in self.pairs))
        object.__setattr__(self, "delta", sum(abs(z) for z in self.unmatched))

    @property
    def total(self) -> Value:
        return self.pi + self.delta


def minimum_critical_matching(
    positives: Sequence[Value], negatives: Sequence[Value]
) -> CriticalMatching:
    """Rank-aligned matching of sorted sides, minimizing Pi + Delta.

    positives must be sorted nondecreasing (a1 <= ... <= al, all > 0) and
    negatives nonincreasing (-b1 >= ... >= -bm, all < 0). When the sides
    differ in length, the largest-magnitude elements of the longer side are
    paired and the smallest-magnitude ones are left unmatched.
    """
    if not positives or not negatives:
        raise ValueError(
            "matching requires at least one positive and one negative value; "
            "single-sign input belongs to the Huffman path"
        )
    prev = None
    for a in positives:
        if a <= 0:
            raise ValueError(f"expected strictly positive value, got {a}")
        if prev is not None and a < prev:
            raise ValueError("positives are not sorted nondecreasing")
        prev = a
    prev = None
    for b in negatives:
        if b >= 0:
            raise ValueError(f"expected strictly negative value, got {b}")
        if prev is not None and b > prev:
            raise ValueError("negatives are not sorted nonincreasing")
        prev = b

    l, m = len(positives), len(negatives)
    # negatives nonincreasing means |negatives| is nondecreasing.
    if l == m:
        pairs = tuple(zip(positives, negatives))
        unmatched = ()
    elif l < m:
        pairs = tuple((positives[i], negatives[i + m - l]) for i in range(l))
        unmatched = tuple(negatives[: m - l])
    else:
        pairs = tuple((positives[i + l - m], negatives[i]) for i in range(m))
        unmatched = tuple(positives[: l - m])
    return CriticalMatching(pairs=pairs, unmatched=unmatched)


def split_by_sign(x: Sequence[Value]) -> tuple:
    """Sort and partition a mixed multiset into the two sides expected by
    minimum_critical_matching. Rejects zeros."""
    if 0 in x:
        raise ValueError("input values must be nonzero")
    positives = sorted(v for v in x if v > 0)
    negatives = sorted((v for v in x if v < 0), reverse=True)
    return positives, negatives


def match_multiset(x: Sequence[Value]) -> CriticalMatching:
    """Convenience wrapper: sort, partition by sign, match."""
    positives, negatives = split_by_sign(x)
    return minimum_critical_matching(positives, negatives)


def brute_force_matching(x: Sequence[Value]) -> Value:
    """Minimum Pi + Delta over every critical matching, by enumeration.

    Test oracle only; factorial-scale, capped at |x| <= 12.
    """
    if len(x) > 12:
        raise CapExceededError(f"brute-force matching capped at 12 elements, got {len(x)}")
    positives = [v for v in x if v > 0]
    negatives = [v for v in x if v < 0]
    if any(v == 0 for v in x):
        raise ValueError("input values must be nonzero")
    total_abs = sum(abs(v) for v in x)
    best = total_abs  # empty matching: Pi = 0, Delta = total
    for k in range(1, min(len(positives), len(negatives)) + 1):
        for ps in combinations(positives, k):
            for ns in combinations(negatives, k):
                matched_abs = sum(ps) - sum(ns)
                for perm in permutations(ns):
                    pi = sum(abs(a + b) for a, b in zip(ps, perm))
                    delta = total_abs - matched_abs
                    if pi + delta < best:
                        best = pi + delta
    return best
