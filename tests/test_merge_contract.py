"""The contract of huffman.two_queue_merge, which both Huffman planners
share: it merges items by their keys and leaves every merge slot holding
its key, the sum of its children's keys; each caller turns keys into
values itself."""

from addtree.huffman import two_queue_merge
from addtree.tree import Schedule


def test_merge_writes_keys_not_values():
    # The keys differ from the leaf values, so a merge slot holding the sum
    # of its children's values (30, 60) would show.
    s = Schedule.over([10, 20, 30])
    two_queue_merge(s, [1, 1, 5].__getitem__, range(3))
    assert s.values == [10, 20, 30, 2, 7]
    assert list(s.left) == [0, 3]
    assert list(s.right) == [1, 2]

    # One item makes no merge and leaves the schedule as it was.
    s = Schedule.over([10])
    two_queue_merge(s, [1].__getitem__, range(1))
    assert s.values == [10] and list(s.left) == [] and list(s.right) == []
