"""Output checker for the addtree benchmark.

It does not import addtree: every reference value is recomputed here from
the paper's definitions, so a defect in the program cannot hide behind the
same defect in its checker.

* An addition tree's cost is the sum of |value| over its internal nodes.
* The minimum critical matching pairs positives with negatives by rank,
  largest magnitudes first; Pi* sums |a + b| over the pairs and Delta* sums
  the magnitudes left unmatched. Every tree T has 2 C(T) >= Pi* + Delta*.
* The critical planner's guarantee is 2 (ceil(log2(n - 1)) + 1).
* Huffman merging is the exact optimum for single-sign input.
* The 3-PARTITION reduction of a yes-instance has optimum exactly m (H + h).

Each check raises CheckError with a message naming what was wrong.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from fractions import Fraction

DOUBLE_ALPHA = Fraction(1, 2**53)
PLAN_KEYS = {
    "strategy",
    "n",
    "cost",
    "error_bound",
    "guarantee_factor",
    "optimal_cost",
    "observed_ratio",
    "tree",
}
SIM_KEYS = {
    "computed",
    "true_sum",
    "abs_error",
    "bound",
    "ratio",
    "strategy",
    "precision",
    "cost",
}
REDUCE_KEYS = {"x_file", "sidecar", "n", "target_cost"}

_TOKEN = re.compile(r"[()]|[^\s()]+")
_OPEN = object()


class CheckError(Exception):
    """An output of the program is wrong."""


def parse_number(token: str):
    """An exact int or Fraction from a decimal, scientific or p/q literal."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        f = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"not a number: {token[:40]!r}") from None
    return f.numerator if f.denominator == 1 else f


def parse_tree(text: str):
    """Leaves (left to right) and cost of an s-expression such as "((1 2) 3)".

    Every internal node must have exactly two children.
    """
    stack: list = []
    leaves = []
    cost = 0
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append(_OPEN)
        elif tok == ")":
            if (
                len(stack) < 3
                or stack[-3] is not _OPEN
                or stack[-2] is _OPEN
                or stack[-1] is _OPEN
            ):
                raise CheckError("tree: ')' does not close a pair of subtrees")
            b = stack.pop()
            a = stack.pop()
            s = a + b
            stack[-1] = s
            cost += abs(s)
        else:
            v = parse_number(tok)
            leaves.append(v)
            stack.append(v)
    if len(stack) != 1 or stack[0] is _OPEN:
        raise CheckError("tree: not a single complete addition tree")
    return leaves, cost


def matching_total(values) -> Fraction:
    """Pi* + Delta* of the minimum critical matching of a mixed multiset."""
    pos = sorted(v for v in values if v > 0)
    neg = sorted(-v for v in values if v < 0)
    k = min(len(pos), len(neg))
    pi = sum(abs(a - b) for a, b in zip(pos[len(pos) - k :], neg[len(neg) - k :]))
    delta = sum(pos[: len(pos) - k]) + sum(neg[: len(neg) - k])
    return pi + delta


def critical_guarantee(n: int) -> int:
    """2 (ceil(log2(n - 1)) + 1), the critical planner's proven factor."""
    return 2 * ((n - 2).bit_length() + 1)


def huffman_optimum(values):
    """Exact minimum tree cost of positive values, by heap merging on
    integers scaled by the common denominator."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    heap = [int(v * scale) for v in values]
    if min(heap) <= 0:
        raise ValueError("huffman_optimum needs positive values")
    heapq.heapify(heap)
    total = 0
    while len(heap) > 1:
        s = heapq.heappop(heap) + heapq.heappop(heap)
        total += s
        heapq.heappush(heap, s)
    return Fraction(total, scale)


def reduction_reference(k: int, b):
    """The 3-PARTITION reduction's multiset X, H, h and optimum m (H + h)."""
    m = len(b) // 3
    w = 100 * (5 * m) ** 2 * k
    big_l = 3 * w + k
    eps = Fraction(1, 400 * (5 * m) ** 2)
    h = math.floor(4 * eps * big_l)
    big_h = big_l + h
    x = [v + w for v in b] + [-big_h] * m + [h] * m
    return {"x": x, "W": w, "L": big_l, "h": h, "H": big_h, "optimum": m * (big_h + h)}


def is_representable(v, bits: int) -> bool:
    """True iff v = s * 2^e with an integer |s| < 2^bits."""
    f = Fraction(v)
    den = f.denominator
    if den & (den - 1):
        return False
    num = abs(f.numerator)
    if num == 0:
        return True
    num >>= (num & -num).bit_length() - 1  # drop trailing zero bits
    return num < (1 << bits)


def _load(text: str, keys: set) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != keys:
        got = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise CheckError(f"output keys {got} != {sorted(keys)}")
    return doc


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_plan(text: str, expected_sorted, strategy: str, *, optimum=None):
    """Check a `plan --output json` report; return its exact cost.

    expected_sorted is the sorted input multiset. With optimum set, the
    report must carry it as the oracle's optimum.
    """
    doc = _load(text, PLAN_KEYS)
    n = len(expected_sorted)
    _expect(doc["strategy"] == strategy, f"strategy {doc['strategy']!r} != {strategy!r}")
    _expect(doc["n"] == n, f"n {doc['n']} != {n}")
    leaves, cost = parse_tree(doc["tree"])
    _expect(len(leaves) == n, f"tree has {len(leaves)} leaves, input has {n}")
    leaves.sort()
    _expect(leaves == expected_sorted, "tree leaves differ from the input multiset")
    reported = parse_number(doc["cost"])
    _expect(reported == cost, f"reported cost {reported} != tree cost {cost}")
    _expect(
        parse_number(doc["error_bound"]) == cost * DOUBLE_ALPHA,
        "error_bound != cost * 2^-53",
    )
    if strategy == "critical":
        g = critical_guarantee(n)
        _expect(
            parse_number(doc["guarantee_factor"]) == g,
            f"guarantee_factor {doc['guarantee_factor']} != {g}",
        )
        total = matching_total(expected_sorted)
        _expect(2 * cost >= total, "cost is below the matching lower bound")
        _expect(2 * cost <= g * total, "cost exceeds guarantee * (Pi*+Delta*)/2")
    if optimum is None:
        _expect(doc["optimal_cost"] is None, "unexpected optimal_cost")
        _expect(doc["observed_ratio"] is None, "unexpected observed_ratio")
    else:
        _expect(
            doc["optimal_cost"] is not None
            and parse_number(doc["optimal_cost"]) == optimum,
            f"optimal_cost {doc['optimal_cost']} != reference {optimum}",
        )
        _expect(cost >= optimum, "cost is below the optimum")
        _expect(
            doc["observed_ratio"] is not None
            and parse_number(doc["observed_ratio"]) == Fraction(cost, 1) / optimum,
            "observed_ratio != cost / optimum",
        )
    return cost


def check_simulation(text: str, exact_sum, optimum, bits: int, strategy: str):
    """Check a `simulate` report for a Huffman plan; return its exact cost."""
    doc = _load(text, SIM_KEYS)
    _expect(doc["strategy"] == strategy, f"strategy {doc['strategy']!r} != {strategy!r}")
    _expect(doc["precision"] == bits, f"precision {doc['precision']} != {bits}")
    computed, true_sum, abs_error, bound, ratio, cost = (
        parse_number(doc[k])
        for k in ("computed", "true_sum", "abs_error", "bound", "ratio", "cost")
    )
    _expect(true_sum == exact_sum, f"true_sum {doc['true_sum']} != exact sum")
    _expect(cost == optimum, f"cost {doc['cost']} != Huffman optimum {optimum}")
    alpha = Fraction(1, 2**bits)
    _expect(bound == cost * alpha, "bound != cost * 2^-precision")
    _expect(is_representable(computed, bits), "computed is not a p-bit float")
    _expect(abs_error == abs(computed - true_sum), "abs_error != |computed - true_sum|")
    _expect(abs_error <= bound, f"abs_error {doc['abs_error']} exceeds bound")
    _expect(
        bound > 0 and ratio == Fraction(abs_error) / bound,
        "ratio != abs_error / bound",
    )
    return cost


def check_reduction(text: str, x_text: str, sidecar_text: str, ref: dict) -> None:
    """Check `reduce` output: the report, the X file and the sidecar."""
    doc = _load(text, REDUCE_KEYS)
    _expect(doc["n"] == len(ref["x"]), f"n {doc['n']} != {len(ref['x'])}")
    _expect(
        parse_number(doc["target_cost"]) == ref["optimum"],
        f"target_cost {doc['target_cost']} != m(H+h) = {ref['optimum']}",
    )
    x = sorted(parse_number(tok) for tok in x_text.split())
    _expect(x == sorted(ref["x"]), "X file differs from the reduction's multiset")
    try:
        side = json.loads(sidecar_text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"sidecar is not JSON: {exc}") from None
    for key in ("W", "L", "h", "H"):
        _expect(side.get(key) == ref[key], f"sidecar {key} {side.get(key)} != {ref[key]}")
