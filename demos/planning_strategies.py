"""
Comparing summation plans on the same data
==========================================

Every way of summing n numbers corresponds to a binary addition tree, and
the worst-case first-order rounding error is proportional to the tree's
cost: the sum of absolute values of its internal nodes. This walkthrough
plans the same inputs with each strategy and compares costs against the
exact optimum.
"""

import random

from addtree import depth, plan, serialize

rng = random.Random(42)

# --- Single-sign input: Huffman is provably optimal -----------------------

x = sorted(rng.randint(1, 100) for _ in range(12))
print(f"input: {x}")

for strategy in ("balanced", "huffman", "grouped"):
    report = plan(x, strategy, with_oracle=True)
    print(
        f"{strategy:>8}: cost {report.cost:>5}  "
        f"optimal {report.optimal_cost}  ratio {float(report.observed_ratio):.3f}  "
        f"depth {depth(report.schedule)}"
    )

# The Huffman tree puts small values deep and large values shallow:
print("huffman tree:", serialize(plan(x, "huffman").schedule))

# --- Mixed-sign input: pair up near-cancellations first -------------------

y = [rng.choice([1, -1]) * rng.randint(1, 100) for _ in range(12)]
print(f"\nmixed input: {y}")

report = plan(y, "critical", with_oracle=True)
print(
    f"critical: cost {report.cost}, optimal {report.optimal_cost}, "
    f"guaranteed within factor {report.guarantee_factor}"
)

naive = plan(y, "balanced")
print(f"balanced: cost {naive.cost} (no matching, cancellation wasted)")

# --- Scaling: the grouped planner is linear-time ---------------------------

big = [rng.randint(1, 10**6) for _ in range(200_000)]
report = plan(big, "grouped")
print(f"\ngrouped plan over {len(big)} values: cost has {len(str(report.cost))} digits")
