"""What a CLI process imports before it does any work.

Every CLI call is a fresh interpreter, so each stdlib module that
`import addtree.cli` pulls in is paid again on every call. The records are
namedtuple subclasses, so nothing needs dataclasses, which would bring in
inspect and with it ast, dis, tokenize and linecache: about 7 ms of a
40 ms import, plus the exec of every generated method.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
UNNEEDED = {"dataclasses", "inspect"}


def imported_modules(tmp_path, *argv) -> set:
    """The modules a fresh interpreter running argv imports, as -X importtime lists them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    assert lines, "no -X importtime report on stderr"
    return {line.rpartition("|")[2].strip() for line in lines}


@pytest.mark.parametrize(
    "argv",
    [("-c", "import addtree.cli"), ("-m", "addtree.cli", "reduce", "instance.txt")],
    ids=["import", "reduce"],
)
def test_cli_starts_without_dataclasses_or_inspect(tmp_path, argv):
    (tmp_path / "instance.txt").write_text("15 1\n4 5 6\n")
    modules = imported_modules(tmp_path, *argv)
    assert "addtree.hardness" in modules
    assert not modules & UNNEEDED, f"the CLI imports {sorted(modules & UNNEEDED)}"
