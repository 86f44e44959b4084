"""Smoke test of the traced benchmark harness, bench/traced.py.

The harness wraps library calls by name and binds their arguments by name
(simulate's `tree` and `prec`, plan's `x`), so renaming a parameter breaks
every traced run. Each case runs the harness and the plain CLI on the same
4-value file, in fresh interpreters with src on the path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "values, command, spans",
    [
        (
            "0.5\n0.25\n3\n1.75\n",
            ["simulate", "--strategy", "huffman", "--precision", "24"],
            {"planner.plan", "fpsim.simulate"},
        ),
        ("1\n-2\n3\n-4\n", ["plan", "--strategy", "critical"], {"planner.plan"}),
    ],
)
def test_traced_cli_prints_what_the_cli_prints(tmp_path, values, command, spans):
    data = tmp_path / "values.txt"
    data.write_text(values)
    spans_path = tmp_path / "spans.json"
    argv = [command[0], str(data), *command[1:]]
    traced = run(str(ROOT / "bench" / "traced.py"), str(spans_path), *argv)
    plain = run("-m", "addtree.cli", *argv)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    names = {span["name"] for span in json.loads(spans_path.read_text())["spans"]}
    assert spans <= names
