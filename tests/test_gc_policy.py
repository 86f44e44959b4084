"""Every public builder of an O(n)-node tree starts no cyclic collection
and leaves the GC state as it found it: each pauses the GC, or allocates
nothing the collector tracks outside a builder that does. Each command the
command line's main dispatches runs with the GC paused."""

import gc

import pytest

from addtree import cli
from addtree.cli import main
from addtree.hardness import ThreePartitionInstance, find_triple_partition
from addtree.huffman import build_huffman, build_huffman_sorted
from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.numeric import ParseError
from addtree.oracle import optimal_cost_dp
from addtree.planner import plan_general, plan_single_sign
from addtree.tree import build_balanced, parse_tree, serialize

N = 10**5
POS = list(range(1, N + 1))
NEG = [-v for v in POS]
MIXED = [v if v % 2 else -v for v in POS]

# id: (builder, args of a build at n = N, args that make it raise, the error)
CASES = {
    "build_balanced": (build_balanced, lambda: (POS,), ([],), ValueError),
    "parse_tree": (parse_tree, lambda: (serialize(build_balanced(POS)),), ("(1 2",), ParseError),
    "build_huffman": (build_huffman, lambda: (POS[::-1],), ([1, 0],), ValueError),
    "build_huffman_negative": (build_huffman, lambda: (NEG,), ([-1, 1],), ValueError),
    "build_huffman_sorted": (build_huffman_sorted, lambda: (POS,), ([2, 1],), ValueError),
    "plan_general": (plan_general, lambda: (MIXED,), ([1, 2],), ValueError),
    "minimum_critical_matching": (
        minimum_critical_matching, lambda: split_by_sign(MIXED), ([1, 2], []), ValueError
    ),
    "plan_single_sign": (plan_single_sign, lambda: (POS, 1), ([1, -1], 1), ValueError),
}


def collections_during(fn, *args) -> int:
    """Cyclic collections that start while fn(*args) runs."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(hook)
    return len(starts)


@pytest.mark.parametrize(
    "build, make_args, bad_args, error", CASES.values(), ids=CASES.keys()
)
def test_builders_pause_gc(build, make_args, bad_args, error):
    args = make_args()
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert collections_during(build, *args) == 0
            assert gc.isenabled() is enabled
            with pytest.raises(error):
                build(*bad_args)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


# id: (argv, exit code); "{mixed}" and "{small}" name input files.
MAIN_CASES = {
    "ok": (["plan", "--strategy", "critical", "{mixed}"], 0),
    "usage": (["plan", "--strategy", "nonesuch", "{mixed}"], 1),
    "invalid_input": (["plan", "--strategy", "huffman", "{mixed}"], 2),
    "oracle_cap": (["oracle", "--cap", "3", "{small}"], 3),
}


@pytest.fixture
def input_files(tmp_path):
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("".join(f"{v}\n" for v in MIXED))
    small = tmp_path / "small.txt"
    small.write_text("1\n-2\n3\n4\n")
    return {"mixed": str(mixed), "small": str(small)}


def test_cli_command_runs_without_a_collection(input_files, capsys, monkeypatch):
    # The critical plan of 10^5 mixed values, its cost walk and its JSON
    # rendering start no cyclic collection, from reading to printing.
    # Argument parsing runs before the pause and may collect.
    running, gc_on_entry, starts = [False], [], []
    command = cli.cmd_plan

    def traced(args):
        gc_on_entry.append(gc.isenabled())
        running[0] = True
        try:
            return command(args)
        finally:
            running[0] = False

    def hook(phase, info):
        if phase == "start" and running[0]:
            starts.append(info["generation"])

    monkeypatch.setattr(cli, "cmd_plan", traced)
    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        argv = [a.format(**input_files) for a in MAIN_CASES["ok"][0]]
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(hook)
        gc.enable() if was_enabled else gc.disable()
    assert gc_on_entry == [False] and starts == []
    assert '"strategy": "critical"' in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", MAIN_CASES.values(), ids=MAIN_CASES.keys())
def test_cli_main_restores_the_gc_state(input_files, capsys, argv, code):
    argv = [a.format(**input_files) for a in argv]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    capsys.readouterr()


def test_oracle_tables_free_without_a_collection():
    # The CLI runs with the GC paused, so a reference cycle around the
    # DP's 2^n tables would hold them until it returns.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = optimal_cost_dp([3, -5, 7, 2, -4, 6, 1, -8, 9, 11])
        assert gc.collect() == 0
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert result.witness.values[-1] == 22


def test_triple_partition_search_leaves_no_garbage():
    # A recursive closure would be a reference cycle left on every call.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        witness = find_triple_partition(ThreePartitionInstance(b=(7, 8, 9, 7, 8, 9), k=24))
        assert gc.collect() == 0
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert witness == [(7, 8, 9), (7, 8, 9)]
