"""Acceptance suite: one test per release criterion, exact comparisons only.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import random
import time
from fractions import Fraction

from addtree.fpsim import Precision, simulate
from addtree.hardness import (
    ThreePartitionInstance,
    find_triple_partition,
    perturbation_bounds,
    random_3par_instance,
    reduce_to_addition_tree,
)
from addtree.huffman import build_huffman, build_huffman_sorted
from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.oracle import optimal_cost_dp
from addtree.planner import default_group_parameter, plan_general, plan_single_sign
from addtree.tree import build_balanced, cost
from checkers import brute_force_matching, enumerate_trees, fl_add


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def mixed_multiset(rng, n_max, n_min=2):
    while True:
        n = rng.randint(n_min, n_max)
        x = [rng.choice([1, -1]) * rng.randint(1, 100) for _ in range(n)]
        if any(v > 0 for v in x) and any(v < 0 for v in x):
            return x


def test_criterion_1_huffman_optimality():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(200):
        n = rng.randint(2, 12)
        x = [rng.randint(1, 100) for _ in range(n)]
        assert cost(build_huffman(x)) == optimal_cost_dp(x).optimal_cost
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10, f"200/200 exact, {elapsed:.2f}s")


def test_criterion_2_two_queue_equivalence():
    rng = random.Random(1001)  # same 200 instances as criterion 1
    for _ in range(200):
        n = rng.randint(2, 12)
        x = [rng.randint(1, 100) for _ in range(n)]
        assert cost(build_huffman_sorted(sorted(x))) == cost(build_huffman(x))
    report(2, True, "200/200 exact")


def test_criterion_3_matching_minimality():
    rng = random.Random(1003)
    for _ in range(200):
        x = mixed_multiset(rng, 10)
        assert minimum_critical_matching(*split_by_sign(x)).total == brute_force_matching(x)
    report(3, True, "200/200 exact")


def test_criterion_4_matching_lower_bound():
    rng = random.Random(1004)
    violations = 0
    for _ in range(50):
        x = mixed_multiset(rng, 6)
        lower = minimum_critical_matching(*split_by_sign(x)).total
        for tree in enumerate_trees(x):
            if 2 * cost(tree) < lower:
                violations += 1
    report(4, violations == 0, f"{violations} violations over 50 multisets")


def test_criterion_5_general_planner_bound():
    rng = random.Random(1005)
    start = time.perf_counter()
    max_ratio = Fraction(0)
    for _ in range(500):
        x = mixed_multiset(rng, 12)
        n = len(x)
        c = cost(plan_general(x))
        opt = optimal_cost_dp(x).optimal_cost
        factor = 2 * ((n - 2).bit_length() + 1)
        assert c <= factor * opt
        if opt > 0:
            max_ratio = max(max_ratio, Fraction(c) / Fraction(opt))
    elapsed = time.perf_counter() - start
    report(
        5,
        elapsed < 60,
        f"500/500 within bound, max observed ratio {float(max_ratio):.3f}, {elapsed:.2f}s",
    )


def test_criterion_6_grouped_planner_bound():
    rng = random.Random(1006)
    for _ in range(200):
        n = rng.randint(1, 14)
        x = [rng.randint(1, 100) for _ in range(n)]
        opt = optimal_cost_dp(x).optimal_cost
        s = sum(x)
        for t in (1, 2, 3):
            assert cost(plan_single_sign(x, t)) <= opt + t * s
    report(6, True, "200 multisets x t in {1,2,3}, exact integer comparisons")


def test_criterion_7_reduction_characterization():
    start = time.perf_counter()
    pos = reduce_to_addition_tree(ThreePartitionInstance(b=(4, 5, 6), k=15))
    assert pos.target_cost == 112605
    assert optimal_cost_dp(list(pos.x)).optimal_cost == pos.target_cost
    assert find_triple_partition(pos.source) is not None

    neg = reduce_to_addition_tree(ThreePartitionInstance(b=(7, 7, 7, 9, 9, 9), k=24))
    assert neg.target_cost == 1440336
    neg_cost = optimal_cost_dp(list(neg.x)).optimal_cost
    assert neg_cost > neg.target_cost
    assert find_triple_partition(neg.source) is None
    elapsed = time.perf_counter() - start
    report(7, elapsed < 60, f"positive = target, negative {neg_cost} > target, {elapsed:.2f}s")


def test_criterion_8_perturbation_inequalities():
    rng = random.Random(1008)
    for i in range(50):
        m = rng.choice([1, 2, 3])
        inst = random_3par_instance(m, rng)
        bounds = perturbation_bounds(reduce_to_addition_tree(inst))
        assert 0 < bounds.beta0 < 4 * bounds.epsilon
        assert all(abs(b) < 4 * bounds.epsilon for b in bounds.betas)
        assert 3 * bounds.a_max < bounds.h_big
    report(8, True, "50/50 instances, all inequalities exact")


def test_criterion_9_simulator_bound():
    rng = random.Random(1009)
    prec = Precision(24)
    for _ in range(100):
        n = rng.randint(2, 100)
        x = [rng.choice([1, -1]) * rng.randint(1, 2**24 - 1) for _ in range(n)]
        sim = simulate(build_balanced(x), prec)
        slack = 1 + n * Fraction(1, 2**23)
        assert sim.abs_error <= slack * sim.bound

    violations = 0
    for _ in range(10**5):
        a = rng.choice([1, -1]) * rng.randint(1, 2**24 - 1)
        b = rng.choice([1, -1]) * rng.randint(1, 2**24 - 1)
        s = a + b
        if abs(fl_add(a, b, prec) - s) > prec.alpha * abs(s):
            violations += 1
    report(9, violations == 0, f"100 simulations in bound, {violations} per-op violations")


def test_criterion_10_linear_time_performance():
    rng = random.Random(1010)
    n = 10**6
    sorted_pos = sorted(rng.randint(1, 10**9) for _ in range(n))

    start = time.perf_counter()
    build_huffman_sorted(sorted_pos)
    t_huffman = time.perf_counter() - start

    positives = sorted_pos[: n // 2]
    negatives = sorted((-v for v in sorted_pos[n // 2 :]), reverse=True)
    start = time.perf_counter()
    minimum_critical_matching(positives, negatives)
    t_matching = time.perf_counter() - start

    t = default_group_parameter(n)
    start = time.perf_counter()
    plan_single_sign(sorted_pos, t)
    t_grouped = time.perf_counter() - start

    ok = t_huffman < 2 and t_matching < 2 and t_grouped < 5
    report(
        10,
        ok,
        f"n=10^6: huffman_sorted {t_huffman:.2f}s, matching {t_matching:.2f}s, "
        f"grouped(t={t}) {t_grouped:.2f}s",
    )
