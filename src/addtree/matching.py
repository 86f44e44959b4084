"""Minimum critical matchings of mixed-sign multisets.

A critical matching pairs elements of opposite sign; its quality is
Pi + Delta, where Pi sums the magnitudes of the pair sums and Delta sums
the magnitudes of the unmatched elements. Rank-aligned pairing of the two
sorted sides minimizes Pi + Delta, and every addition tree T satisfies
2 C(T) >= Pi* + Delta*, which is the lower bound the general planner is
measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, permutations
from typing import Sequence

from .numeric import Value, exact_sorted
from .oracle import CapExceededError
from .tree import without_gc


@dataclass(frozen=True)
class CriticalMatching:
    """Pairs and unmatched elements; Pi, Delta and their total are computed
    on access, since the planner reads only the pairs."""

    pairs: tuple  # (positive, negative) pairs
    unmatched: tuple

    @property
    def pi(self) -> Value:
        return sum(abs(a + b) for a, b in self.pairs)

    @property
    def delta(self) -> Value:
        return sum(abs(z) for z in self.unmatched)

    @property
    def total(self) -> Value:
        return self.pi + self.delta


@without_gc
def minimum_critical_matching(
    positives: Sequence[Value], negatives: Sequence[Value]
) -> CriticalMatching:
    """Rank-aligned matching of the two sides, minimizing Pi + Delta.

    positives (all > 0) and negatives (all < 0) may come in any order and
    are sorted here, each by numeric.exact_sorted, which orders rationals on
    exact integer keys when their common denominator is small; a side
    already in order costs one linear pass. When the sides differ in
    length, the largest-magnitude elements of the longer side are paired
    and the smallest-magnitude ones are left unmatched.
    """
    if not positives or not negatives:
        raise ValueError(
            "matching requires at least one positive and one negative value; "
            "single-sign input belongs to the Huffman path"
        )
    positives = exact_sorted(positives)
    negatives = exact_sorted(negatives, reverse=True)
    # Each side is now ordered, so its head is the value nearest zero.
    if positives[0] <= 0:
        raise ValueError(f"expected strictly positive value, got {positives[0]}")
    if negatives[0] >= 0:
        raise ValueError(f"expected strictly negative value, got {negatives[0]}")

    # Both sides now ascend in magnitude: the last k values of each side
    # pair up, and the longer side's head is left over.
    k = min(len(positives), len(negatives))
    skip_pos, skip_neg = len(positives) - k, len(negatives) - k
    pairs = zip(islice(positives, skip_pos, None), islice(negatives, skip_neg, None))
    unmatched = (*islice(positives, skip_pos), *islice(negatives, skip_neg))
    return CriticalMatching(pairs=tuple(pairs), unmatched=unmatched)


def split_by_sign(x: Sequence[Value]) -> tuple:
    """Partition a mixed multiset, in input order, into the two sides that
    minimum_critical_matching takes. Rejects zeros: a value in neither side
    is one, so no separate scan looks for them."""
    positives = [v for v in x if v > 0]
    negatives = [v for v in x if v < 0]
    if len(positives) + len(negatives) != len(x):
        raise ValueError("input values must be nonzero")
    return positives, negatives


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
