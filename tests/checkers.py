"""Test-only checkers: exhaustive references and small helpers that no
planner, CLI command, demo or benchmark runs.

The exponential references certify the planners on tiny inputs:
enumerate_trees lists every one of the (2n-3)!! addition trees over n
leaves, independently of the subset DP in addtree.oracle, and
brute_force_matching tries every critical matching. fl_add is one rounded
addition on addtree.fpsim.round_to_precision, so a per-operation check
through it still tests the library's rounding.
"""

from itertools import combinations, permutations
from typing import Iterator, Sequence

from addtree.fpsim import Precision, round_to_precision
from addtree.hardness import ThreePartitionInstance
from addtree.numeric import Value
from addtree.oracle import CapExceededError
from addtree.tree import AdditionTree, Internal, Leaf, nodes


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


def double_factorial_tree_count(n: int) -> int:
    """(2n-3)!!, the number of distinct addition trees over n labeled leaves."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 1
    for k in range(3, 2 * n - 2, 2):
        count *= k
    return count


def enumerate_trees(x: Sequence[Value]) -> Iterator[AdditionTree]:
    """Yield every distinct addition tree over x exactly once.

    Children are unordered, so each unordered shape-with-assignment appears
    once; duplicate input values are treated as distinguishable by index.
    Capped at 8 elements.
    """
    n = len(x)
    if n == 0:
        raise ValueError("cannot enumerate trees over an empty multiset")
    if n > 8:
        raise CapExceededError(f"tree enumeration capped at 8 elements, got {n}")

    def gen(mask: int) -> Iterator[AdditionTree]:
        if mask & (mask - 1) == 0:
            yield Leaf(x[mask.bit_length() - 1])
            return
        lsb = mask & -mask
        rest = mask ^ lsb
        # Each unordered root split once: the left part holds the lowest bit.
        sub = rest
        while True:
            a = sub | lsb
            if a != mask:
                for left in gen(a):
                    for right in gen(mask ^ a):
                        yield Internal(left, right)
            if sub == 0:
                break
            sub = (sub - 1) & rest

    yield from gen((1 << n) - 1)


def leaf_values(tree: AdditionTree) -> list:
    """Leaf values in left-to-right order."""
    return [node.value for node in nodes(tree) if isinstance(node, Leaf)]


def is_representable(v: Value, prec: Precision) -> bool:
    return round_to_precision(v, prec) == v


def fl_add(x: Value, y: Value, prec: Precision) -> Value:
    """One rounded addition; |fl(x+y) - (x+y)| <= alpha |x+y|."""
    for operand in (x, y):
        if not is_representable(operand, prec):
            raise ValueError(
                f"operand {operand} is not representable at "
                f"{prec.significand_bits} significand bits"
            )
    return round_to_precision(x + y, prec)


def format_3par(instance: ThreePartitionInstance) -> str:
    m = len(instance.b) // 3
    return f"{instance.k} {m}\n" + " ".join(str(v) for v in instance.b) + "\n"
