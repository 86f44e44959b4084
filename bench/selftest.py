"""Self-tests of bench/check.py: it accepts correct outputs and rejects
corrupted ones. Every benchmark run calls run_all() before it starts;
`python3 bench/selftest.py` runs them on their own.

The correct plan and simulation reports are written out by hand from the
definitions, so these tests do not need addtree to build them.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import check

# Values 3, -1, 4, -2; tree ((3 -2) (4 -1)) has internal sums 1, 3, 4.
PLAN_INPUT = sorted([3, -1, 4, -2])
PLAN_OK = {
    "strategy": "critical",
    "n": 4,
    "cost": "8",
    "error_bound": str(Fraction(8, 2**53)),
    "guarantee_factor": "6",
    "optimal_cost": None,
    "observed_ratio": None,
    "tree": "((3 -2) (4 -1))",
}
# Values 1/2, 1/4, 1/4 at 2 bits: Huffman (1/4 + 1/4) + 1/2, cost 3/2.
SIM_SUM, SIM_OPT = Fraction(1), Fraction(3, 2)
SIM_OK = {
    "computed": "1",
    "true_sum": "1",
    "abs_error": "0",
    "bound": "0.375",
    "ratio": "0",
    "strategy": "huffman",
    "precision": 2,
    "cost": "1.5",
}


def _plan(**changes) -> str:
    return json.dumps(PLAN_OK | changes)


def _sim(**changes) -> str:
    return json.dumps(SIM_OK | changes)


def _rejects(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except check.CheckError:
        return
    raise AssertionError("corrupted output was accepted")


def _reduction_files(ref, x=None):
    x_text = "".join(f"{v}\n" for v in (ref["x"] if x is None else x))
    sidecar = {key: ref[key] for key in ("W", "L", "h", "H")}
    report = {"x_file": "x.txt", "sidecar": "x.json", "n": len(ref["x"]),
              "target_cost": str(ref["optimum"])}
    return report, x_text, json.dumps(sidecar)


TESTS = {}


def test(fn):
    TESTS[fn.__name__] = fn
    return fn


@test
def plan_accepts_correct_report():
    check.check_plan(_plan(), PLAN_INPUT, "critical")


@test
def plan_rejects_corrupted_cost():
    _rejects(check.check_plan, _plan(cost="9"), PLAN_INPUT, "critical")


@test
def plan_rejects_dropped_leaf():
    # -1 dropped; the cost is consistent with the smaller tree (1 + 5).
    _rejects(check.check_plan, _plan(tree="((3 -2) 4)", cost="6"), PLAN_INPUT, "critical")


@test
def plan_rejects_changed_leaf():
    _rejects(check.check_plan, _plan(tree="((3 -2) (4 -3))", cost="7"), PLAN_INPUT, "critical")


@test
def plan_rejects_malformed_tree():
    _rejects(check.check_plan, _plan(tree="((3 -2) (4 -1)"), PLAN_INPUT, "critical")
    _rejects(check.check_plan, _plan(tree="((3 -2 4) -1)"), PLAN_INPUT, "critical")


@test
def plan_rejects_wrong_error_bound():
    _rejects(check.check_plan, _plan(error_bound="0"), PLAN_INPUT, "critical")


@test
def plan_rejects_cost_over_guarantee():
    # Pi* + Delta* = 2 + 2 + 0 = 4 and the factor is 8, so cost must be <= 16.
    values = sorted([3, -1, 4, -2, 100, -100])
    doc = _plan(
        tree="((((100 3) 4) -1) (-2 -100))",
        n=6,
        cost="422",
        error_bound=str(Fraction(422, 2**53)),
        guarantee_factor="8",
    )
    _rejects(check.check_plan, doc, values, "critical")


@test
def plan_checks_oracle_optimum():
    doc = _plan(optimal_cost="8", observed_ratio="1")
    check.check_plan(doc, PLAN_INPUT, "critical", optimum=8)
    _rejects(check.check_plan, doc, PLAN_INPUT, "critical", optimum=7)


@test
def simulation_accepts_correct_report():
    check.check_simulation(_sim(), SIM_SUM, SIM_OPT, 2, "huffman")


@test
def simulation_rejects_wrong_sum_or_error():
    _rejects(check.check_simulation, _sim(true_sum="1.25"), SIM_SUM, SIM_OPT, 2, "huffman")
    _rejects(check.check_simulation, _sim(cost="2", bound="0.5"), SIM_SUM, SIM_OPT, 2, "huffman")
    _rejects(
        check.check_simulation,
        _sim(computed="2", abs_error="1", ratio="8/3"),
        SIM_SUM, SIM_OPT, 2, "huffman",
    )


@test
def huffman_optimum_is_exact():
    assert check.huffman_optimum([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]) == SIM_OPT
    assert check.huffman_optimum([1, 1, 1, 1]) == 8


@test
def reduction_rejects_wrong_multiset_or_target():
    ref = check.reduction_reference(100, [30, 30, 40] * 3)
    assert ref["optimum"] == 3 * (ref["H"] + ref["h"])
    report, x_text, sidecar = _reduction_files(ref)
    check.check_reduction(json.dumps(report), x_text, sidecar, ref)
    bad = dict(report, target_cost=str(ref["optimum"] + 1))
    _rejects(check.check_reduction, json.dumps(bad), x_text, sidecar, ref)
    _, short_x, _ = _reduction_files(ref, x=ref["x"][:-1])
    _rejects(check.check_reduction, json.dumps(report), short_x, sidecar, ref)


def run_all() -> list:
    """(name, problem) for every self-test that fails; empty when all pass."""
    failures = []
    for name, fn in TESTS.items():
        try:
            fn()
        except Exception as exc:  # a self-test failure of any kind is reported
            failures.append((name, f"{type(exc).__name__}: {exc}"))
    return failures


if __name__ == "__main__":
    problems = run_all()
    for name, problem in problems:
        print(f"FAIL {name}: {problem}")
    print(f"{len(TESTS) - len(problems)}/{len(TESTS)} checker self-tests passed")
    sys.exit(1 if problems else 0)
