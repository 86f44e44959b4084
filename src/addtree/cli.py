"""Command-line surface: plan, oracle, reduce, simulate.

Input files carry one value per line; '#' starts a comment and blank lines
are ignored. Reports are JSON on stdout with deterministic field order.
Exit codes: 0 success, 1 usage error, 2 invalid input, 3 oracle size cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import fpsim, hardness, planner, tree
from .numeric import ParseError, Value, format_value, parse_value
from .oracle import CapExceededError, optimal_cost_dp

EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_ORACLE_CAP = 3

SORTED_HELP = (
    "promise that the input is sorted ascending; the promise is checked, and "
    "the planner's sort then makes one linear pass"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def read_values(path: str) -> List[Value]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    values = []
    for lineno, line in enumerate(text.splitlines(), 1):
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        try:
            values.append(parse_value(token))
        except ParseError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no values found")
    return values


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_plan(args) -> int:
    values = read_values(args.input)
    alpha = parse_value(args.alpha) if args.alpha else None
    report = planner.plan(
        values,
        args.strategy,
        t=args.t,
        alpha=alpha,
        with_oracle=args.with_oracle,
        presorted=args.sorted,
    )
    if args.output == "sexpr":
        print(tree.serialize(report.tree))
    else:
        _print_json(report.to_json_dict(len(values)))
    return 0


def cmd_oracle(args) -> int:
    values = read_values(args.input)
    if any(v == 0 for v in values):
        raise ValueError("input values must be nonzero")
    result = optimal_cost_dp(values, cap=args.cap)
    if args.output == "sexpr":
        print(tree.serialize(result.witness))
    else:
        _print_json(
            {
                "n": len(values),
                "optimal_cost": format_value(result.optimal_cost),
                "witness": tree.serialize(result.witness),
            }
        )
    return 0


def cmd_reduce(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    instance = hardness.parse_3par(text)
    reduction = hardness.reduce_to_addition_tree(instance)
    prefix = args.out_prefix or str(Path(args.input).with_suffix("")) + "_reduced"
    x_path = Path(prefix + ".txt")
    sidecar_path = Path(prefix + ".json")
    x_path.write_text("".join(f"{v}\n" for v in reduction.x))
    sidecar_path.write_text(
        json.dumps(hardness.reduction_sidecar(reduction), indent=2) + "\n"
    )
    _print_json(
        {
            "x_file": str(x_path),
            "sidecar": str(sidecar_path),
            "n": len(reduction.x),
            "target_cost": str(reduction.target_cost),
        }
    )
    return 0


def cmd_simulate(args) -> int:
    values = read_values(args.input)
    prec = fpsim.Precision(args.precision)
    report = planner.plan(values, args.strategy, t=args.t, presorted=args.sorted)
    result = fpsim.simulate(report.tree, prec)
    payload = result.to_json_dict()
    payload["strategy"] = args.strategy
    payload["precision"] = args.precision
    payload["cost"] = format_value(report.cost)
    _print_json(payload)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="addtree",
        description="Plan, verify, and simulate low-error floating-point summation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="construct an addition tree and report bounds")
    p_plan.add_argument("input")
    p_plan.add_argument(
        "--strategy", choices=planner.STRATEGIES, default="critical"
    )
    p_plan.add_argument("--t", type=int, default=None, help="grouped-strategy width log")
    p_plan.add_argument("--sorted", action="store_true", help=SORTED_HELP)
    p_plan.add_argument("--alpha", default=None, help="unit roundoff as a rational literal")
    p_plan.add_argument("--with-oracle", action="store_true")
    p_plan.add_argument("--output", choices=("json", "sexpr"), default="json")
    p_plan.set_defaults(func=cmd_plan)

    p_oracle = sub.add_parser("oracle", help="exact optimal cost (exponential time)")
    p_oracle.add_argument("input")
    p_oracle.add_argument("--cap", type=int, default=20)
    p_oracle.add_argument("--output", choices=("json", "sexpr"), default="json")
    p_oracle.set_defaults(func=cmd_oracle)

    p_reduce = sub.add_parser(
        "reduce", help="turn a 3-PARTITION instance into an adversarial multiset"
    )
    p_reduce.add_argument("input", help='file with "K m" then 3m integers')
    p_reduce.add_argument("--out-prefix", default=None)
    p_reduce.set_defaults(func=cmd_reduce)

    p_sim = sub.add_parser("simulate", help="run a tree through the precision simulator")
    p_sim.add_argument("input")
    p_sim.add_argument("--precision", type=int, required=True, help="significand bits")
    p_sim.add_argument(
        "--strategy", choices=planner.STRATEGIES, default="balanced"
    )
    p_sim.add_argument("--t", type=int, default=None)
    p_sim.add_argument("--sorted", action="store_true", help=SORTED_HELP)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"oracle cap: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except (ValueError, ParseError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
