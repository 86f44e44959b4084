"""End-to-end summation planners with proven worst-case guarantees.

Strategies:

* ``balanced``  -- pairwise balanced tree, any input.
* ``huffman``   -- optimal for single-sign input, O(n log n) (O(n) sorted).
* ``critical``  -- mixed-sign planner: minimum critical matching, add each
  pair, then a balanced tree over the pair sums and unmatched leaves.
  Cost is within 2(ceil(log2(n-1)) + 1) of optimal.
* ``grouped``   -- single-sign planner: balanced trees over groups of 2^t,
  Huffman over the group maxima, groups spliced in. Cost is within
  optimal + t * |sum|; with the default t this gives a
  ceil(log2 log2 n)-factor guarantee in O(n) time even unsorted.
* ``optimal``   -- exact oracle, exponential time, small n only.

Every planner, the exact oracle included, returns its tree as a flat merge
schedule (tree.Schedule): the balanced rounds and the two-queue Huffman
merge write their merges into one values list and two index arrays, the
critical planner's leaves are slices of the matching's sorted sides, and
the report's cost and rendering read that schedule. The Leaf/Internal
view (PlanReport.tree) is built only when a caller reads it.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence

from .huffman import build_huffman, two_queue_merge
from .matching import minimum_critical_matching, split_by_sign
from .numeric import Value, as_value, check_ascending, format_value
from .oracle import DEFAULT_CAP, check_oracle_cap, optimal_cost_dp
from .tree import (
    AdditionTree,
    Schedule,
    build_balanced,
    cost,
    pair_round,
    pair_rounds,
    serialize,
    without_gc,
)

STRATEGIES = ("balanced", "huffman", "critical", "grouped", "optimal")


class PlanReport(
    namedtuple(
        "_PlanReportBase",
        ("strategy", "schedule", "alpha", "guarantee_factor", "optimal_cost"),
        defaults=(None, None),
    )
):
    """A planned tree with its guarantee; cost and error bound derive from
    the schedule, and the Leaf/Internal view is built on first read. The
    strategy is a name from STRATEGIES; alpha, guarantee_factor and
    optimal_cost are values, the last two None when not known. No
    __slots__, so that the cached cost has a __dict__ to live in."""

    @property
    def tree(self) -> AdditionTree:
        return self.schedule.tree

    @cached_property
    def cost(self) -> Value:
        return cost(self.schedule)

    @property
    def error_bound(self) -> Value:
        return self.alpha * self.cost

    @property
    def observed_ratio(self) -> Optional[Value]:
        o = self.optimal_cost
        return as_value(Fraction(self.cost) / Fraction(o)) if o else None

    def to_json_dict(self) -> dict:
        s = self.schedule

        def fmt(v):
            return None if v is None else format_value(v)

        return {
            "strategy": self.strategy,
            "n": len(s.values) - len(s.left),
            "cost": format_value(self.cost),
            "error_bound": format_value(self.error_bound),
            "guarantee_factor": fmt(self.guarantee_factor),
            "optimal_cost": fmt(self.optimal_cost),
            "observed_ratio": fmt(self.observed_ratio),
            "tree": serialize(s),
        }


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length()


def _reject_empty_or_zero(x: Sequence[Value]) -> None:
    if not x:
        raise ValueError("input multiset is empty")
    if 0 in x:
        raise ValueError("input values must be nonzero")


def _one_sign(x: Sequence[Value]) -> bool:
    """Whether a zero-free x holds values of one sign only; a mixed x is
    usually settled within its first few values."""
    return all(v > 0 for v in x) or all(v < 0 for v in x)


@without_gc
def plan_general(x: Sequence[Value]) -> Schedule:
    """Mixed-sign planner: match, add pairs, balance the rest.

    The leaves are the matched pairs, each positive value before its
    negative partner, then the unmatched values. They are laid out straight
    from the matching's sorted sides by three slice assignments: the
    positive tail at the even slots, the negative tail at the odd slots,
    then the longer side's head, with nothing built per pair. One round
    adds each pair; the balanced rounds then combine the pair sums,
    followed by the unmatched leaves. Runs in O(n) after sorting; sorting
    already sorted input is a single linear pass.
    """
    if not x:
        raise ValueError("input multiset is empty")
    positives, negatives = split_by_sign(x)
    if not positives or not negatives:
        raise ValueError("critical strategy requires mixed-sign input")
    matching = minimum_critical_matching(positives, negatives)
    # Each stage drops its input once the next holds what it needs, so the
    # sign lists and the matching's sides never outlive their use.
    del positives, negatives
    n, m = len(x), matching.n_pairs
    paired = 2 * m
    s = Schedule.over(repeat(None, n))  # the leaf slots are filled below
    values, p, q = s.values, matching.positives, matching.negatives
    del matching
    values[0:paired:2] = p[-m:]
    values[1:paired:2] = q[-m:]
    values[paired:n] = p[: len(p) - m] or q[: len(q) - m]
    del p, q
    pieces, level, k = pair_round(s, array("i", range(paired)), values, 0)
    pieces.extend(range(paired, n))
    level += values[paired:n]
    pair_rounds(s, pieces, level, k)
    return s


@without_gc
def plan_single_sign(x: Sequence[Value], t: int) -> Schedule:
    """Single-sign planner: groups of 2^t, Huffman over group maxima.

    Partitions x in input order into ceil(n / 2^t) groups, builds a
    balanced tree per group, then merges groups Huffman-style keyed on the
    groups' largest magnitudes. Guarantees cost <= optimal + t * |sum(x)|.
    """
    if not (x and _one_sign(x)):
        _reject_empty_or_zero(x)
        raise ValueError("grouped strategy requires single-sign input")
    check_group_parameter(t)
    n = len(x)
    negative = x[0] < 0
    # Any width above n gives one group; capping t keeps 1 << t small.
    rounds = min(t, n.bit_length())
    width = 1 << rounds
    s = Schedule.over(x)
    # No pair crosses two groups: a full group holds an even number of pieces
    # before its last round, and the short last group, under width leaves, is
    # one piece after the rounds, so roots holds each group's root in order.
    roots, level, k = array("i", range(n)), s.values, 0
    for _ in range(rounds):
        roots, level, k = pair_round(s, roots, level, k)
    keys = [
        -min(x[i : i + width]) if negative else max(x[i : i + width])
        for i in range(0, n, width)
    ]
    # A stable sort keeps groups with equal keys in input order, which
    # fixes the tree shape; the guarantee does not depend on ties.
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [*map(keys.__getitem__, order)]
    two_queue_merge(s, keys.__getitem__, [*map(roots.__getitem__, order)])
    # Each merge slot holds its key; its value is the sum of its children's.
    values, left, right = s.values, s.left, s.right
    for k in range(n - len(keys), n - 1):
        values[n + k] = values[left[k]] + values[right[k]]
    return s


def check_group_parameter(t: int) -> None:
    """Reject a grouped-planner t below 1."""
    if t < 1:
        raise ValueError(f"group parameter t must be >= 1, got {t}")


def default_group_parameter(n: int) -> int:
    """max(1, floor(log2(log2(n) - 1))), computed exactly.

    t is the largest k with n >= 2^(2^k + 1), clamped to at least 1 so the
    grouped planner's precondition t >= 1 holds even for tiny n.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return max(1, (n.bit_length() - 2).bit_length() - 1)


def check_alpha(alpha: Optional[Value]) -> Value:
    """The unit roundoff a report uses: 2^-53 (IEEE double) for None, and
    otherwise alpha itself, which must satisfy 0 <= alpha < 1."""
    alpha = Fraction(1, 2**53) if alpha is None else as_value(alpha)
    if not (0 <= alpha < 1):
        raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {alpha}")
    return alpha


def plan(
    x: Sequence[Value],
    strategy: str,
    t: Optional[int] = None,
    alpha: Value = None,
    with_oracle: bool = False,
    oracle_cap: int = DEFAULT_CAP,
    presorted: bool = False,
) -> PlanReport:
    """Run the named strategy and assemble a report.

    alpha defaults to 2^-53 (IEEE double roundoff). with_oracle also runs
    the exact solver and records the observed cost ratio; an input over
    oracle_cap then fails before any planning starts. presorted=True
    promises that x is sorted ascending; it is checked for every strategy
    and selects no other code path.
    """
    _reject_empty_or_zero(x)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if presorted:
        check_ascending(x)
    alpha = check_alpha(alpha)
    n = len(x)
    if with_oracle:
        check_oracle_cap(n, oracle_cap)
    guarantee: Optional[Value] = None
    optimal: Optional[Value] = None

    if strategy == "balanced":
        schedule = build_balanced(x)
        if n >= 2 and _one_sign(x):
            guarantee = _ceil_log2(n)
    elif strategy == "huffman":
        schedule = build_huffman(x)  # rejects mixed signs at the head of its sort
        guarantee = 1
    elif strategy == "critical":
        schedule = plan_general(x)
        guarantee = 2 * (_ceil_log2(n - 1) + 1)
    elif strategy == "grouped":
        if t is None:
            t = default_group_parameter(max(n, 2))
        schedule = plan_single_sign(x, t)
        guarantee = 1 + t
    else:  # optimal
        result = optimal_cost_dp(x, cap=oracle_cap)
        schedule, optimal = result.witness, result.optimal_cost
        guarantee = 1

    if with_oracle and optimal is None:
        optimal = optimal_cost_dp(x, cap=oracle_cap).optimal_cost
    return PlanReport(strategy, schedule, alpha, guarantee, optimal)
