"""The planners' guarantees at sizes the exact oracle cannot reach.

Three facts give exact checks at any n without the oracle:

* the critical planner's proof bounds each level of its tree above the
  pair sums by Pi* + Delta*, so cost <= (ceil(log2(n-1)) + 1)(Pi* + Delta*)
  needs no optimum at all;
* a yes-instance of the 3-PARTITION reduction has the exact optimum
  target_cost = m(H + h), so the critical guarantee factor applies to it;
* on single-sign input the Huffman cost is the exact optimum, so the
  grouped planner's cost <= opt + t * |sum| can be checked at any n.

A planner that stops halving its pieces per round (a left chain over the
pieces, say) breaks the first two by orders of magnitude, and one that
mis-sizes the groups breaks the last.
"""

import math
import random

import pytest

from addtree.hardness import random_3par_instance, reduce_to_addition_tree
from addtree.huffman import build_huffman
from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.planner import default_group_parameter, plan, plan_single_sign
from addtree.tree import cost
from test_plan_digest import SIZES, inputs


def ceil_log2(k):
    return (k - 1).bit_length()


def uniform_mixed(n, seed):
    rng = random.Random(seed)
    return [rng.choice((1, -1)) * rng.randint(1, 10**9) for _ in range(n)]


@pytest.mark.parametrize("n, seed", [(10**5, 1), (3, 2), (4, 3), (1000, 4)])
def test_critical_proof_inequality(n, seed):
    x = uniform_mixed(n, seed)
    x[:2] = [abs(x[0]), -abs(x[1])]  # mixed at every n
    bound = minimum_critical_matching(*split_by_sign(x)).total
    assert plan(x, "critical").cost <= (ceil_log2(n - 1) + 1) * bound


def test_critical_proof_inequality_on_the_digest_inputs():
    # The mixed inputs that test_plan_digest hashes: ints, rationals, ties
    # and 200-bit values at n = 2..13 and 200.
    checked = 0
    for kind, sign, x in inputs():
        if sign == "mixed" and len(x) >= 2:
            bound = minimum_critical_matching(*split_by_sign(x)).total
            assert plan(x, "critical").cost <= (ceil_log2(len(x) - 1) + 1) * bound, (kind, x)
            checked += 1
    assert checked == 5 * (len(SIZES) - 1)


def test_critical_guarantee_on_a_reduction_yes_instance():
    # m = 1000 triples give n = 5000 values; the optimum is target_cost.
    reduction = reduce_to_addition_tree(random_3par_instance(1000, random.Random(9)))
    x = list(reduction.x)
    random.Random(10).shuffle(x)
    report = plan(x, "critical")
    assert report.guarantee_factor == 2 * (ceil_log2(len(x) - 1) + 1)
    assert report.cost <= report.guarantee_factor * reduction.target_cost


def single_sign_inputs():
    rng = random.Random(12)
    n = 10**4
    uniform = [rng.randint(1, 10**9) for _ in range(n)]
    yield "uniform", uniform
    yield "log_uniform", [int(math.exp(rng.uniform(0, 40))) + 1 for _ in range(n)]
    yield "sorted", sorted(uniform)
    yield "descending", sorted(uniform, reverse=True)
    yield "geometric", [2**i for i in range(3000)]
    yield "one_huge", [1] * (n - 1) + [10**12]
    yield "negative", [-v for v in uniform]
    yield "uniform_1e5", [rng.randint(1, 10**6) for _ in range(10**5)]


SINGLE_SIGN = dict(single_sign_inputs())


@pytest.mark.parametrize("name", SINGLE_SIGN)
def test_grouped_bound_against_the_huffman_optimum(name):
    x = SINGLE_SIGN[name]
    opt = cost(build_huffman(x))
    s = abs(sum(x))
    ts = {1, 2, 3, 6, default_group_parameter(len(x))}
    if len(x) > 10**4:
        ts = {default_group_parameter(len(x))}
    for t in sorted(ts):
        assert cost(plan_single_sign(x, t)) <= opt + t * s, (name, t)


def test_grouped_bound_is_tight_on_one_huge_value():
    # The huge value sits at depth t in its group's balanced tree and once
    # more at the root of the merge over group maxima: t + 1 times in all,
    # against once in the optimum.
    n = 1000
    x = [1] * (n - 1) + [10**12]
    report = plan(x, "grouped")
    t = default_group_parameter(n)
    assert (t, report.guarantee_factor) == (3, 4)
    opt = cost(build_huffman(x))
    assert report.cost <= opt + t * sum(x)
    # (cost - opt) / (t * sum) exceeds 1 - 10^-8, and cost / opt is under
    # the guarantee factor 4 by less than 10^-7.
    assert 10**8 * (report.cost - opt) > (10**8 - 1) * t * sum(x)
    assert 0 < 4 * opt - report.cost < opt // 10**7
