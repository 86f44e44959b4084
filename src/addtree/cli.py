r"""Command-line surface: plan, oracle, reduce, simulate.

Input files are UTF-8 (a leading byte-order mark is dropped) and carry one
value per line; '#' starts a comment and blank lines are ignored. Lines end
at \n, \r\n or \r. Reports are JSON on stdout with deterministic field
order. Exit codes: 0 success, 1 usage error, 2 invalid input (an unreadable
or undecodable file, an output file `reduce` cannot write, a stdout
closed before the report is written, input too large
to process: MemoryError or RecursionError, a number too large for an int
operation: OverflowError, such as a `simulate --precision` too large to
shift by, whose message names the option, or a result too long to print
under sys.get_int_max_str_digits()), 3 oracle size cap, which `plan
--with-oracle` and `oracle` check on the count of value lines before they
parse any. A failure prints one line on stderr and no traceback.

A report is rendered in full before its first byte is written, so a
failure while rendering leaves stdout empty. _write_stdout then writes the
text in slices of at most 64 KiB. Input files are converted in batches of
about 64 KiB of text (read_values), so ingest holds the text, the values
and one batch of line strings. `plan` drops each stage's input once the
next stage holds what it needs: the values once planned, the report once
rendered, the JSON payload once it is text. Rendering holds the merge
schedule and about one copy of the output; the run's peak is the
planner's, the values beside the schedule it fills.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import compress, count, islice
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from . import fpsim, hardness, planner, tree
from .numeric import ParseError, Value, format_value, parse_value, parse_values, uncommented_lines
from .oracle import DEFAULT_CAP, CapExceededError, check_oracle_cap

EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_ORACLE_CAP = 3

# read_values converts a file in batches of about this many characters,
# cut at line ends.
READ_BATCH = 1 << 16
# _write_stdout writes a report in slices of at most this many characters.
STDOUT_SLICE = 1 << 16

SORTED_HELP = (
    "promise that the input is sorted ascending; the promise is checked, and "
    "the planner's sort then makes one linear pass"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_text(path: str) -> str:
    r"""The file as UTF-8 text, a leading byte-order mark dropped; text
    mode turns each line end (\r\n, \r or \n) into \n. Not "utf-8-sig":
    in text mode it reads a file of one or two bytes of a mark as empty."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        # exc.object is the whole input, before line ends are translated.
        head = exc.object[: exc.start]
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        byte = exc.object[exc.start]
        raise ValueError(
            f"{path}:{lineno}: not valid UTF-8 (byte 0x{byte:02x})"
        ) from None


def _batches(text: str) -> Iterator[Tuple[int, int]]:
    """The (start, end) of each piece of text when it is cut at line ends
    into pieces of about READ_BATCH characters. Each caller slices its own
    piece, so the piece's text is freed as soon as it is split."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + READ_BATCH)
        if end < 0:
            end = len(text)
        yield start, end
        start = end + 1


def read_values(path: str, cap: Optional[int] = None) -> List[Value]:
    """The values of the file, one per non-blank line after '#' comments
    are cut, each exactly what parse_value gives for its line.

    With a cap, the value lines are counted first, and a file with more
    than cap of them raises CapExceededError before any is parsed.

    The text is cut at line ends into batches of about READ_BATCH
    characters, and each batch's tokens convert at once
    (numeric.parse_values), so an all-int batch takes one int() pass and
    only one batch of line strings is alive beside the values. A bad
    token is named as path:line by counting non-blank lines over the whole
    text up to its index, without parsing any again. The list returned is
    exactly as long as the values, with no growth slack.
    """
    text = _read_text(path)
    if cap is not None:
        lines = 0
        for start, end in _batches(text):
            lines += sum(map(bool, map(str.strip, uncommented_lines(text[start:end]))))
        check_oracle_cap(lines, cap)
    values: List[Value] = []
    for start, end in _batches(text):
        tokens = list(filter(None, map(str.strip, uncommented_lines(text[start:end]))))
        try:
            values += parse_values(tokens)
        except ParseError as exc:
            index = len(values) + exc.index
            # The line numbers of the non-blank lines, one per token.
            linenos = compress(count(1), map(str.strip, uncommented_lines(text)))
            lineno = next(islice(linenos, index, None))
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        # Dropped before the next batch is split, not when it is rebound.
        del tokens
    if not values:
        raise ValueError(f"{path}: no values found")
    del text
    # The list grew batch by batch and keeps its growth slack; one copy of
    # exactly its length is what the values carry into planning.
    return values[:]


def _write_stdout(text: str) -> None:
    """Write a finished report and a newline to stdout, in slices of at
    most STDOUT_SLICE characters, so that no encoded copy of the whole text
    is made. Reports are ASCII: a character is a byte."""
    write = sys.stdout.write
    for start in range(0, len(text), STDOUT_SLICE):
        write(text[start : start + STDOUT_SLICE])
    write("\n")


def _option(name: str, check, value):
    """check(value), its ValueError (a ParseError too) led by the option's name."""
    try:
        return check(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _check_t(args) -> None:
    # Only the grouped strategy reads t; the others ignore it.
    if args.strategy == "grouped" and args.t is not None:
        _option("--t", planner.check_group_parameter, args.t)


def cmd_plan(args) -> int:
    values = read_values(args.input, cap=DEFAULT_CAP if args.with_oracle else None)
    alpha = args.alpha
    if alpha is not None:
        alpha = _option("--alpha", lambda a: planner.check_alpha(parse_value(a)), alpha)
    _check_t(args)
    report = planner.plan(
        values,
        args.strategy,
        t=args.t,
        alpha=alpha,
        with_oracle=args.with_oracle,
        presorted=args.sorted,
    )
    # Drop each stage's input as soon as the next stage holds what it needs.
    del values
    if args.output == "sexpr":
        text = tree.serialize(report.schedule)
        del report
    else:
        payload = report.to_json_dict()
        del report
        text = json.dumps(payload, indent=2)
        del payload
    _write_stdout(text)
    return 0


def cmd_oracle(args) -> int:
    values = read_values(args.input, cap=args.cap)
    report = planner.plan(values, "optimal", oracle_cap=args.cap)
    if args.output == "sexpr":
        _write_stdout(tree.serialize(report.schedule))
    else:
        payload = {
            "n": len(values),
            "optimal_cost": format_value(report.optimal_cost),
            "witness": tree.serialize(report.schedule),
        }
        _write_stdout(json.dumps(payload, indent=2))
    return 0


def cmd_reduce(args) -> int:
    if args.out_prefix == "":
        raise ValueError("--out-prefix: empty prefix")
    text = _read_text(args.input)
    try:
        reduction = hardness.reduce_to_addition_tree(hardness.parse_3par(text))
    except ParseError as exc:
        raise ValueError(f"{args.input}:{exc.lineno}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    prefix = args.out_prefix
    if prefix is None:
        prefix = str(Path(args.input).with_suffix("")) + "_reduced"
    x_path = Path(prefix + ".txt")
    sidecar_path = Path(prefix + ".json")
    x_text = "".join(f"{v}\n" for v in reduction.x)
    sidecar = json.dumps(hardness.reduction_sidecar(reduction), indent=2) + "\n"
    for path, text in ((x_path, x_text), (sidecar_path, sidecar)):
        try:
            path.write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from None
    payload = {
        "x_file": str(x_path),
        "sidecar": str(sidecar_path),
        "n": len(reduction.x),
        "target_cost": str(reduction.target_cost),
    }
    _write_stdout(json.dumps(payload, indent=2))
    return 0


def cmd_simulate(args) -> int:
    values = read_values(args.input)
    prec = _option("--precision", fpsim.Precision, args.precision)
    _check_t(args)
    report = planner.plan(values, args.strategy, t=args.t, presorted=args.sorted)
    result = fpsim.simulate(report.tree, prec)
    try:
        payload = result.to_json_dict()
    except OverflowError as exc:
        # With input literals capped by sys.get_int_max_str_digits(), only
        # a shift by the precision can overflow.
        raise ValueError(f"--precision {args.precision} is too large: {exc}") from None
    payload["strategy"] = args.strategy
    payload["precision"] = args.precision
    payload["cost"] = format_value(result.cost)
    _write_stdout(json.dumps(payload, indent=2))
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
    p_oracle.add_argument("--cap", type=int, default=DEFAULT_CAP)
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
    """Run one command and return its exit code. The command itself runs
    with the cyclic GC paused: nothing a command builds holds a reference
    cycle, so everything is freed by reference counting, and a collection
    would only scan the Fractions, view nodes and oracle gathers it
    allocates. Parsing the arguments runs with the GC as it was (argparse
    leaves reference cycles behind), and the GC state is restored on return."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = tree.without_gc(args.func)(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # Nobody reads stdout any more. Point it at devnull so that the
        # flush at interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"invalid input: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"oracle cap: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except (ValueError, OverflowError, MemoryError, RecursionError) as exc:
        # MemoryError() carries no message; name the error instead.
        print(f"invalid input: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
