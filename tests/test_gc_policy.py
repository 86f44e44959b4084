"""Every public builder of an O(n)-node tree runs with the cyclic GC paused
and leaves the GC state as it found it."""

import gc

import pytest

from addtree.huffman import build_huffman, build_huffman_sorted
from addtree.matching import minimum_critical_matching, split_by_sign
from addtree.numeric import ParseError
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
