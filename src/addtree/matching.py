"""Minimum critical matchings of mixed-sign multisets.

A critical matching pairs elements of opposite sign; its quality is
Pi + Delta, where Pi sums the magnitudes of the pair sums and Delta sums
the magnitudes of the unmatched elements. Rank-aligned pairing of the two
sorted sides minimizes Pi + Delta, and every addition tree T satisfies
2 C(T) >= Pi* + Delta*, which is the lower bound the general planner is
measured against; CriticalMatching.lower_bound sharpens it by |sum x|.
A CriticalMatching keeps only the two sorted sides, since rank alignment
makes the pairs a function of them; the general planner lays its leaves
out from the sides without building a pair.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .numeric import Value, as_value, exact_sorted


class CriticalMatching(namedtuple("_CriticalMatchingBase", ("positives", "negatives"))):
    """A minimum critical matching, held as its two sides sorted by
    ascending magnitude: the last k values of each side pair up, k the
    shorter side's length, and the longer side's head is left unmatched.
    The pairs, the unmatched values, Pi, Delta and their total are computed
    on access, so the planner lays out the leaves from the sides without a
    tuple per pair. positives is ascending; negatives is descending, so
    ascending in magnitude."""

    __slots__ = ()

    @property
    def n_pairs(self) -> int:
        """The shorter side's length."""
        return min(len(self.positives), len(self.negatives))

    @property
    def pairs(self) -> tuple:
        """The (positive, negative) pairs, smallest magnitudes first."""
        k = self.n_pairs
        return tuple(zip(self.positives[-k:], self.negatives[-k:]))

    @property
    def unmatched(self) -> tuple:
        """The longer side's head, its smallest magnitudes first."""
        p, q, k = self.positives, self.negatives, self.n_pairs
        return (*p[: len(p) - k], *q[: len(q) - k])

    @property
    def pi(self) -> Value:
        return sum(abs(a + b) for a, b in self.pairs)

    @property
    def delta(self) -> Value:
        return sum(abs(z) for z in self.unmatched)

    @property
    def total(self) -> Value:
        return self.pi + self.delta

    @property
    def lower_bound(self) -> Value:
        """(total + |sum x|) / 2, exact: no addition tree T over x, the
        n >= 2 values of both sides, costs less. It beats the paper's
        total / 2 by |sum x| / 2 and is at least |sum x|, the root's cost.

        Proof. For a node v of T with children a and b, write s_v for its
        sum and g(v) for the minimum critical-matching total of its leaves.
        By induction, 2 C(T_v) >= g(v) + |s_v| for every internal v:
        - Two leaves x and y: 2 C(T_v) = 2|x + y|. If their signs differ,
          the pair is a matching, so g(v) <= |x + y|; if they agree,
          g(v) = |x| + |y| = |x + y|.
        - A leaf x and an internal b: 2 C(T_v) = 2|s_v| + 2 C(T_b) >=
          2|s_v| + g(b) + |s_b|. Leaving x unmatched gives g(v) <= g(b) + |x|,
          and |x| = |s_v - s_b| <= |s_v| + |s_b|.
        - Two internal children: 2 C(T_v) >= 2|s_v| + g(a) + |s_a| + g(b) +
          |s_b| >= g(v) + |s_v|, because the union of two critical matchings
          is one, so g(v) <= g(a) + g(b).
        At the root, g is this matching's total, the minimum over x.
        """
        signed_sum = sum(self.positives) + sum(self.negatives)
        return as_value(Fraction(self.total + abs(signed_sum), 2))


def minimum_critical_matching(
    positives: Sequence[Value], negatives: Sequence[Value]
) -> CriticalMatching:
    """Rank-aligned matching of the two sides, minimizing Pi + Delta.

    positives (all > 0) and negatives (all < 0) may come in any order and
    are sorted here, each by numeric.exact_sorted, which orders rationals on
    exact integer keys when their common denominator is small; a side
    already in order costs one linear pass. The matching holds the two
    sorted sides and nothing per pair. When the sides differ in length, the
    largest-magnitude elements of the longer side are paired and the
    smallest-magnitude ones are left unmatched.
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
    return CriticalMatching(positives, negatives)


def split_by_sign(x: Sequence[Value]) -> tuple:
    """Partition a mixed multiset, in input order, into the two sides that
    minimum_critical_matching takes. Rejects zeros: a value in neither side
    is one, so no separate scan looks for them."""
    positives = [v for v in x if v > 0]
    negatives = [v for v in x if v < 0]
    if len(positives) + len(negatives) != len(x):
        raise ValueError("input values must be nonzero")
    return positives, negatives
