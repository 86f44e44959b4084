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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

from .huffman import build_huffman_single_sign, two_queue_merge
from .matching import minimum_critical_matching, split_by_sign
from .numeric import ErrorModel, Value, as_value, check_ascending, format_value
from .oracle import optimal_cost_dp
from .tree import (
    AdditionTree,
    Internal,
    Leaf,
    build_balanced,
    combine_balanced,
    cost,
    serialize,
    without_gc,
)

STRATEGIES = ("balanced", "huffman", "critical", "grouped", "optimal")


@dataclass
class PlanReport:
    strategy: str
    tree: AdditionTree
    cost: Value
    error_bound: Value
    guarantee_factor: Optional[Value] = None
    optimal_cost: Optional[Value] = None
    observed_ratio: Optional[Value] = None

    def to_json_dict(self, n: int) -> dict:
        def fmt(v):
            return None if v is None else format_value(v)

        return {
            "strategy": self.strategy,
            "n": n,
            "cost": format_value(self.cost),
            "error_bound": format_value(self.error_bound),
            "guarantee_factor": fmt(self.guarantee_factor),
            "optimal_cost": fmt(self.optimal_cost),
            "observed_ratio": fmt(self.observed_ratio),
            "tree": serialize(self.tree),
        }


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length() if k >= 1 else 0


def _sign_counts(x: Sequence[Value]) -> tuple:
    """(positives, negatives) in x; rejects an empty or zero-holding x."""
    if not x:
        raise ValueError("input multiset is empty")
    if 0 in x:
        raise ValueError("input values must be nonzero")
    npos = sum(1 for v in x if v > 0)
    return npos, len(x) - npos


def plan_general(x: Sequence[Value], presorted: bool = False) -> AdditionTree:
    """Mixed-sign planner: match, add pairs, balance the rest.

    presorted=True promises that x is sorted ascending; the promise is
    checked, and the plan is built exactly as for unsorted input. The plan
    runs in O(n) after sorting, and sorting already sorted input is a
    single linear pass.
    """
    npos, nneg = _sign_counts(x)
    if npos == 0 or nneg == 0:
        raise ValueError("critical strategy requires mixed-sign input")
    if presorted:
        check_ascending(x)
    matching = minimum_critical_matching(*split_by_sign(x))
    pieces = [Internal(Leaf(a), Leaf(b)) for a, b in matching.pairs]
    pieces.extend(Leaf(z) for z in matching.unmatched)
    return combine_balanced(pieces)


def plan_single_sign(x: Sequence[Value], t: int) -> AdditionTree:
    """Single-sign planner: groups of 2^t, Huffman over group maxima.

    Partitions x in input order into ceil(n / 2^t) groups, builds a
    balanced tree per group, then merges groups Huffman-style keyed on the
    groups' largest magnitudes. Guarantees cost <= optimal + t * |sum(x)|.
    """
    npos, nneg = _sign_counts(x)
    if npos and nneg:
        raise ValueError("grouped strategy requires single-sign input")
    if t < 1:
        raise ValueError(f"group parameter t must be >= 1, got {t}")
    return without_gc(_grouped, x, 1 << t, nneg > 0)


def _grouped(x, width: int, negative: bool) -> AdditionTree:
    keyed = []  # (group max magnitude, group tree)
    for i in range(0, len(x), width):
        group = x[i : i + width]
        keyed.append((-min(group) if negative else max(group), build_balanced(group)))
    # A stable sort keeps groups with equal keys in input order, which
    # fixes the tree shape; the guarantee does not depend on ties.
    keyed.sort(key=itemgetter(0))
    return two_queue_merge([k for k, _ in keyed], [g for _, g in keyed])


def default_group_parameter(n: int) -> int:
    """max(1, floor(log2(log2(n) - 1))), computed exactly.

    t is the largest k with n >= 2^(2^k + 1), clamped to at least 1 so the
    grouped planner's precondition t >= 1 holds even for tiny n.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    k = 0
    while n >= 1 << ((1 << (k + 1)) + 1):
        k += 1
    return max(1, k)


def plan(
    x: Sequence[Value],
    strategy: str,
    t: Optional[int] = None,
    alpha: Value = None,
    with_oracle: bool = False,
    oracle_cap: int = 20,
    presorted: bool = False,
) -> PlanReport:
    """Run the named strategy and assemble a report.

    alpha defaults to 2^-53 (IEEE double roundoff). with_oracle also runs
    the exact solver and records the observed cost ratio. presorted=True
    promises that x is sorted ascending; it is checked for every strategy
    and selects no other code path.
    """
    npos, nneg = _sign_counts(x)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if presorted:
        check_ascending(x)
    model = ErrorModel(Fraction(1, 2**53) if alpha is None else alpha)
    n = len(x)
    single_sign = npos == 0 or nneg == 0
    guarantee: Optional[Value] = None
    optimal: Optional[Value] = None

    if strategy == "balanced":
        tree = build_balanced(x)
        if single_sign and n >= 2:
            guarantee = _ceil_log2(n)
    elif strategy == "huffman":
        if not single_sign:
            raise ValueError("huffman strategy requires single-sign input")
        tree = build_huffman_single_sign(x)
        guarantee = 1
    elif strategy == "critical":
        tree = plan_general(x)
        guarantee = 2 * (_ceil_log2(n - 1) + 1)
    elif strategy == "grouped":
        if t is None:
            t = default_group_parameter(max(n, 2))
        tree = plan_single_sign(x, t)
        guarantee = 1 + t
    else:  # optimal
        result = optimal_cost_dp(x, cap=oracle_cap)
        tree = result.witness
        optimal = result.optimal_cost
        guarantee = 1

    c = cost(tree)
    ratio = None
    if with_oracle and optimal is None:
        optimal = optimal_cost_dp(x, cap=oracle_cap).optimal_cost
    if optimal is not None and optimal > 0:
        ratio = as_value(Fraction(c) / Fraction(optimal))
    return PlanReport(
        strategy=strategy,
        tree=tree,
        cost=c,
        error_bound=model.alpha * c,
        guarantee_factor=guarantee,
        optimal_cost=optimal,
        observed_ratio=ratio,
    )
