"""One SHA-256 over the argv, exit code, stdout and stderr of in-process
CLI runs on small input files, compared with a recorded constant.

A refactor that must keep the CLI's behaviour byte for byte keeps this
digest. The runs cover `plan` with every strategy, both outputs, with and
without --sorted, --with-oracle where n <= 8, --alpha and --t; `oracle`
with both outputs and a small --cap; `simulate` with every strategy at 3
and 24 bits; and `reduce` on a yes and a no 3-PARTITION instance, with the
files it writes. The inputs are ints of either sign and mixed, dyadic
decimals, p/q rationals, exponent literals, a zero, a bad token, an empty
file, a comment-only file, a byte-order mark with \\r line ends, and 21
values, one over the oracle's default cap.

The temporary directory is replaced by a placeholder. Where the text of
a run differs between Python versions (argparse usage and help text, the
operating system's error text), only its exit code is hashed.

A change that alters the CLI's output on purpose updates DIGEST and says
so in CHANGES.md.
"""

import hashlib

from addtree.cli import main
from addtree.planner import STRATEGIES

DIGEST = "5c2a9bd7ec8e11d63ec36c48ba3edb38e77a0d01d1f8cf870794825dc340b428"

ORACLE_MAX_N = 8

# name -> (file bytes, number of values)
INPUTS = {
    "mixed": (b"3\n-5\n7\n-2\n11\n-13\n", 6),
    "positive": (b"1\n2\n3\n5\n8\n13\n", 6),
    "negative": (b"-5\n-1\n-4\n-2\n-3\n", 5),
    "dyadic": (b"0.5\n1.25\n-0.75\n3.125\n-2.5\n", 5),
    "rational": (b"1/3\n-2/7\n5/6\n-1/10\n", 4),
    "exponent": (b"1e3\n-2.5e-2\n3E1\n-4e0\n", 4),
    "zero": (b"0\n3\n-1\n", 3),
    "bad": (b"1\n2\n# a comment\nabc\n3\n", 4),
    "empty": (b"", 0),
    "comments": (b"# nothing here\n   # nor here\n\n", 0),
    "bom": ("\ufeff1\r-2\r\n3\r-4\r".encode(), 4),
    "over_cap": ("".join(f"{v}\n" for v in range(-10, 12) if v).encode(), 21),
}

INSTANCES = {
    "yes": b"15 2\n4 5 6 4 5 6\n",
    "no": b"15 2\n4 4 4 6 6 6\n",
}


def plan_runs(path, n):
    for strategy in STRATEGIES:
        for output in ("json", "sexpr"):
            for presorted in ((), ("--sorted",)):
                for oracle in ((), ("--with-oracle",)) if n <= ORACLE_MAX_N else ((),):
                    yield ["plan", path, "--strategy", strategy, "--output", output,
                           *presorted, *oracle]
        yield ["plan", path, "--strategy", strategy, "--alpha", "1/1024"]
        yield ["plan", path, "--strategy", strategy, "--t", "2"]


def runs(tmp_path):
    """(argv, whether only the exit code is hashed), in a fixed order."""
    for name, (data, n) in INPUTS.items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        path = str(path)
        for argv in plan_runs(path, n):
            yield argv, False
        yield ["oracle", path], False
        yield ["oracle", path, "--output", "sexpr"], False
        yield ["oracle", path, "--cap", "3"], False
        for strategy in STRATEGIES:
            for bits in ("3", "24"):
                yield ["simulate", path, "--strategy", strategy, "--precision", bits], False
    for name, data in INSTANCES.items():
        path = tmp_path / f"{name}.3par"
        path.write_bytes(data)
        yield ["reduce", str(path), "--out-prefix", str(tmp_path / f"{name}_out")], False
        yield ["reduce", str(path)], False
    # Invalid options that the commands themselves reject.
    mixed = str(tmp_path / "mixed.txt")
    yield ["plan", str(tmp_path / "over_cap.txt"), "--with-oracle"], False
    yield ["plan", mixed, "--alpha", "2"], False
    yield ["plan", mixed, "--alpha", "x"], False
    yield ["plan", mixed, "--strategy", "grouped", "--t", "0"], False
    yield ["simulate", str(tmp_path / "dyadic.txt"), "--precision", "1"], False
    yield ["reduce", str(tmp_path / "yes.3par"), "--out-prefix", ""], False
    # Usage errors and help, whose text argparse words differently by
    # version, and unreadable files, whose text the OS words.
    yield [], True
    yield ["--help"], True
    yield ["plan", "--help"], True
    yield ["plan", mixed, "--strategy", "bogus"], True
    yield ["plan", mixed, "--output", "xml"], True
    yield ["plan", mixed, "--t", "two"], True
    yield ["simulate", mixed], True
    yield ["oracle", mixed, "--cap", "three"], True
    yield ["plan", str(tmp_path / "missing.txt")], True
    yield ["plan", str(tmp_path)], True
    yield ["reduce", str(tmp_path / "missing.3par")], True


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help exits from argparse itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(tmp_path, capsys):
    """One text line per hashed fact, in a fixed order."""
    tmp = str(tmp_path)
    for argv, code_only in runs(tmp_path):
        code, out, err = run(capsys, argv)
        facts = [argv, code] if code_only else [argv, code, out, err]
        yield repr(facts).replace(tmp, "<tmp>")
        if argv[:1] == ["reduce"] and code == 0:
            for written in sorted(tmp_path.glob("*_reduced.*")) + sorted(tmp_path.glob("*_out.*")):
                yield f"{written.name} {written.read_text()!r}"
                written.unlink()


def test_cli_digest(tmp_path, capsys):
    digest = hashlib.sha256("\n".join(records(tmp_path, capsys)).encode()).hexdigest()
    assert digest == DIGEST
