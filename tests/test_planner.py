import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addtree import planner
from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.oracle import CapExceededError, optimal_cost_dp
from addtree.planner import (
    STRATEGIES,
    default_group_parameter,
    plan,
    plan_general,
    plan_single_sign,
)
from addtree.tree import build_balanced, cost, serialize


def ceil_log2(k):
    return (k - 1).bit_length()


def test_plan_general_examples():
    assert cost(plan_general([1, 3, -2, -5])) == 6
    assert cost(plan_general([3, 5, -5])) == 3
    with pytest.raises(ValueError):
        plan_general([1, 2, 3])
    with pytest.raises(ValueError):
        plan_general([1, 0, -2])


def test_plan_general_presorted_matches_unsorted():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 10)
        while True:
            x = [rng.choice([1, -1]) * rng.randint(1, 50) for _ in range(n)]
            if any(v > 0 for v in x) and any(v < 0 for v in x):
                break
        assert cost(plan_general(sorted(x))) == cost(plan_general(x))


def test_plan_single_sign_examples():
    assert cost(plan_single_sign([1, 2, 3, 4], 1)) == 20
    assert cost(plan_single_sign([1, 1, 1, 8], 1)) == 22
    # n <= 2^t degenerates to one balanced group
    t = plan_single_sign([1, 2, 3], 2)
    assert serialize(t) == serialize(build_balanced([1, 2, 3]))


def test_plan_single_sign_validation():
    with pytest.raises(ValueError):
        plan_single_sign([1, -1], 1)
    with pytest.raises(ValueError):
        plan_single_sign([1, 2], 0)


def test_plan_single_sign_negative_symmetry():
    x = [3, 1, 4, 1, 5, 9, 2, 6]
    neg = [-v for v in x]
    assert cost(plan_single_sign(neg, 1)) == cost(plan_single_sign(x, 1))
    assert plan_single_sign(neg, 1).tree.value == -sum(x)


def group_parameter_by_search(n):
    """The largest k with n >= 2^(2^k + 1), at least 1, found by counting up."""
    k = 0
    while n >= 1 << ((1 << (k + 1)) + 1):
        k += 1
    return max(1, k)


def test_default_group_parameter():
    for n in range(2, 1 << 16):
        assert default_group_parameter(n) == group_parameter_by_search(n), n
    for j in range(2, 4097):
        for n in (2**j - 1, 2**j, 2**j + 1):
            assert default_group_parameter(n) == group_parameter_by_search(n), n
    assert default_group_parameter(256) == 2
    assert default_group_parameter(2**17) == 4
    assert default_group_parameter(4) == 1
    assert default_group_parameter(2) == 1
    assert default_group_parameter(32) == 2
    assert default_group_parameter(31) == 1
    with pytest.raises(ValueError):
        default_group_parameter(1)


def test_theorem_general_bound():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 10)
        while True:
            x = [rng.choice([1, -1]) * rng.randint(1, 99) for _ in range(n)]
            if any(v > 0 for v in x) and any(v < 0 for v in x):
                break
        factor = 2 * (ceil_log2(n - 1) + 1)
        assert cost(plan_general(x)) <= factor * optimal_cost_dp(x).optimal_cost


def test_theorem_single_sign_bound():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 10)
        x = [rng.randint(1, 99) for _ in range(n)]
        opt = optimal_cost_dp(x).optimal_cost
        for t in (1, 2, 3):
            assert cost(plan_single_sign(x, t)) <= opt + t * sum(x)


def test_step3_cost_decomposition():
    # cost(plan) = Pi + cost(balanced stage) <= Pi + (h-1)(Pi+Delta)
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 12)
        while True:
            x = [rng.choice([1, -1]) * rng.randint(1, 99) for _ in range(n)]
            if any(v > 0 for v in x) and any(v < 0 for v in x):
                break
        m = minimum_critical_matching(*split_by_sign(x))
        tree = plan_general(x)
        balanced_stage = cost(tree) - m.pi
        pieces = len(m.pairs) + len(m.unmatched)
        h = ceil_log2(pieces) + 1 if pieces > 1 else 1
        assert h <= ceil_log2(n - 1) + 1
        assert balanced_stage <= (h - 1) * (m.pi + m.delta)


def test_planner_conservation():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 12)
        while True:
            x = [rng.choice([1, -1]) * rng.randint(1, 99) for _ in range(n)]
            if any(v > 0 for v in x) and any(v < 0 for v in x):
                break
        assert plan_general(x).tree.value == sum(x)
        pos = [abs(v) for v in x]
        assert plan_single_sign(pos, 2).tree.value == sum(pos)


def test_plan_dispatch():
    report = plan([1, 2, 3, 4], "huffman")
    assert report.cost == 19 and report.guarantee_factor == 1
    report = plan([1, 3, -2, -5], "critical")
    assert report.cost == 6
    assert report.guarantee_factor == 2 * (ceil_log2(3) + 1) == 6
    with pytest.raises(ValueError):
        plan([1, 2, 3, 4], "critical")
    with pytest.raises(ValueError):
        plan([1, -2], "huffman")
    with pytest.raises(ValueError):
        plan([1, 2], "nonsense")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: plan([], "bogus"), "input multiset is empty"),
        (lambda: plan([1, 0, -1], "bogus"), "input values must be nonzero"),
        (lambda: plan([1, -1], "bogus"), "unknown strategy 'bogus'"),
        (lambda: plan([2, -1, 0], "critical", presorted=True), "nonzero"),
        (lambda: plan([2, 1], "critical", presorted=True), "breaks ascending"),
        (lambda: plan([1, 2], "critical", alpha=1), "alpha must satisfy"),
        (lambda: plan([1, 2], "huffman", alpha=Fraction(-1, 2)), "got -1/2"),
        (lambda: plan([1, 2], "critical"), "critical strategy requires mixed-sign"),
        (lambda: plan([1, -2], "huffman"), "nonzero values of one sign, got -2"),
        (lambda: plan([1, -2], "grouped", t=0), "grouped strategy requires single"),
        (lambda: plan([1, 2], "grouped", t=0), "group parameter t must be >= 1"),
        (lambda: plan_general([]), "input multiset is empty"),
        (lambda: plan_general([0, 1, 2]), "input values must be nonzero"),
        (lambda: plan_general([3, 1, 2]), "critical strategy requires mixed-sign"),
        (lambda: plan_single_sign([], 0), "input multiset is empty"),
        (lambda: plan_single_sign([1, 0, -1], 0), "input values must be nonzero"),
        (lambda: plan_single_sign([-1, 0], 0), "input values must be nonzero"),
        (lambda: plan_single_sign([1, -1], 0), "grouped strategy requires single"),
        (lambda: split_by_sign([1, 0, -1]), "input values must be nonzero"),
    ],
)
def test_validation_messages_and_their_order(call, message):
    # Inputs that fail several checks pin which check reports first.
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("alpha", [0, Fraction(1, 2)])
def test_alpha_in_range_is_accepted(alpha):
    assert plan([1, 2, 4], "huffman", alpha=alpha).error_bound == 10 * Fraction(alpha)


@pytest.mark.parametrize("t", [64, 10**10])
def test_grouped_huge_t_is_one_balanced_group(t):
    # Any width above n gives one group; 1 << t is never built.
    x = [5, 1, 4, 2, 3]
    assert serialize(plan_single_sign(x, t)) == serialize(build_balanced(x))
    report = plan(x, "grouped", t=t)
    assert report.guarantee_factor == 1 + t
    assert serialize(report.tree) == serialize(plan(x, "grouped", t=3).tree)


def test_plan_with_oracle_ratio():
    report = plan([1, 3, -2, -5], "critical", with_oracle=True)
    assert report.optimal_cost == 6
    assert report.observed_ratio == 1
    assert report.observed_ratio <= report.guarantee_factor


@pytest.mark.parametrize("strategy", ["critical", "huffman"])
def test_plan_with_oracle_checks_the_cap_before_planning(monkeypatch, strategy):
    def planner_ran(*args):
        raise AssertionError("planned an input over the oracle cap")

    monkeypatch.setattr(planner, "plan_general", planner_ran)
    monkeypatch.setattr(planner, "build_huffman", planner_ran)
    x = [-21] + list(range(1, 21)) if strategy == "critical" else list(range(1, 22))
    with pytest.raises(CapExceededError, match="oracle capped at 20 elements, got 21"):
        plan(x, strategy, with_oracle=True)
    with pytest.raises(CapExceededError, match="oracle capped at 3 elements, got 4"):
        plan([1, 2, 3, 4], strategy, with_oracle=True, oracle_cap=3)


def test_plan_report_json():
    report = plan([1, 2, 3, 4], "grouped", t=1, alpha=Fraction(1, 8))
    payload = report.to_json_dict()
    assert payload["strategy"] == "grouped"
    assert payload["cost"] == "20"
    assert payload["error_bound"] == "2.5"
    assert payload["guarantee_factor"] == "2"
    assert payload["tree"].startswith("(")


def test_plan_balanced_guarantee_only_single_sign():
    assert plan([1, 2, 3, 4], "balanced").guarantee_factor == 2
    assert plan([1, -2, 3], "balanced").guarantee_factor is None


def test_plan_optimal_strategy():
    report = plan([5, -5, 3], "optimal")
    assert report.cost == 3 and report.optimal_cost == 3


def test_deep_all_negative_plans_mirror_positive():
    # Huffman on geometric input builds a 3000-deep chain.
    x = [-(2**i) for i in range(3000)]
    mirror = [-v for v in x]
    for strategy in ("huffman", "grouped"):
        report = plan(x, strategy)
        assert report.cost == plan(mirror, strategy).cost
        assert report.tree.value == sum(x)
    report = plan(sorted(x), "huffman", presorted=True)
    assert report.cost == plan(sorted(mirror), "huffman", presorted=True).cost


# Few distinct magnitudes, so sorting meets many ties.
magnitudes = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
)


@st.composite
def planner_inputs(draw):
    """(strategy, x, a permutation of x), with x of the signs the strategy
    accepts."""
    strategy = draw(st.sampled_from(STRATEGIES))
    n_max = 8 if strategy == "optimal" else 40
    mags = draw(st.lists(magnitudes, min_size=2, max_size=n_max))
    n = len(mags)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    if strategy in ("huffman", "grouped"):
        signs = [signs[0]] * n
    elif strategy == "critical":
        signs[:2] = [1, -1]
    x = [s * m for s, m in zip(signs, mags)]
    return strategy, x, draw(st.permutations(x))


def report_key(report):
    return (
        serialize(report.tree),
        report.cost,
        report.error_bound,
        report.guarantee_factor,
    )


@settings(max_examples=300, deadline=None)
@given(planner_inputs())
def test_presorted_is_a_checked_promise(case):
    strategy, x, shuffled = case
    xs = sorted(x)
    expected = report_key(plan(xs, strategy))
    assert report_key(plan(xs, strategy, presorted=True)) == expected
    if shuffled != xs:
        with pytest.raises(ValueError, match="order"):
            plan(shuffled, strategy, presorted=True)
