"""One SHA-256 over the plans, bounds, simulations and matchings of seeded
inputs, compared with a recorded constant.

A refactor that must keep behaviour keeps this digest. The inputs are
ints, dyadic and non-dyadic rationals, tie-heavy values and 200-bit
values, each all positive, all negative and mixed, at n = 1..13 and 200.
Every strategy that accepts an input is hashed with presorted off (the
input as drawn) and on (the input sorted): its s-expression, cost, error
bound, guarantee factor, and, at n <= 8 where the exact oracle runs, its
optimal cost and observed ratio. The dyadic inputs are also simulated at
3, 24 and 53 bits, and the mixed ones matched.

A change that alters the shape of a tree whose merges tie in value, on
purpose, updates DIGEST and says so in CHANGES.md.
"""

import hashlib
import random
from fractions import Fraction

from addtree.fpsim import Precision, simulate
from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.numeric import as_value
from addtree.planner import STRATEGIES, plan
from addtree.tree import serialize

DIGEST = "8fe14f517393a7aea53fe009e808bb7eff71c82b5c4f78bd515312f8efb9362d"

SIZES = [*range(1, 14), 200]
ORACLE_MAX_N = 8


def magnitude(kind, rng):
    if kind == "int":
        return rng.randint(1, 1000)
    if kind == "dyadic":  # a 3-bit significand: exact at every simulated precision
        return as_value(Fraction(rng.randint(1, 7), 1024) * 2 ** rng.randint(0, 16))
    if kind == "rational":
        return as_value(Fraction(rng.randint(1, 1000), rng.choice((3, 6, 7, 10, 12))))
    if kind == "ties":
        return rng.choice((1, 1, 2, 4))
    return rng.getrandbits(200) | 1 << 199  # 200 bits


def signed(values, sign, rng):
    if sign == "positive":
        return values
    if sign == "negative":
        return [-v for v in values]
    signs = [1, -1] + [rng.choice((1, -1)) for _ in values[2:]]
    return [s * v for s, v in zip(signs, values)]


def inputs():
    seed = 0
    for kind in ("int", "dyadic", "rational", "ties", "wide"):
        for sign in ("positive", "negative", "mixed"):
            for n in SIZES:
                seed += 1
                rng = random.Random(seed)
                yield kind, sign, signed([magnitude(kind, rng) for _ in range(n)], sign, rng)


def records():
    """One text line per hashed fact, in a fixed order."""
    for kind, sign, x in inputs():
        yield f"input {kind} {sign} {x}"
        oracle = len(x) <= ORACLE_MAX_N
        for strategy in STRATEGIES:
            if strategy == "optimal" and not oracle:
                continue
            for presorted in (False, True):
                try:
                    report = plan(
                        sorted(x) if presorted else x,
                        strategy,
                        with_oracle=oracle,
                        presorted=presorted,
                    )
                except ValueError:
                    yield f"{strategy} {presorted} rejected"
                    continue
                facts = (
                    serialize(report.tree),
                    report.cost,
                    report.error_bound,
                    report.guarantee_factor,
                    report.optimal_cost,
                    report.observed_ratio,
                )
                yield f"{strategy} {presorted} " + " ".join(map(str, facts))
                if kind == "dyadic" and not presorted:
                    for bits in (3, 24, 53):
                        result = simulate(report.tree, Precision(bits))
                        yield f"simulate {bits} {result.to_json_dict()}"
        if sign == "mixed" and len(x) >= 2:
            matching = minimum_critical_matching(*split_by_sign(x))
            yield f"matching {matching.pairs} {matching.unmatched}"


def test_plan_digest():
    digest = hashlib.sha256("\n".join(records()).encode()).hexdigest()
    assert digest == DIGEST
