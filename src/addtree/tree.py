"""Binary addition trees: the flat merge schedule every planner emits, the
tree view built from it on demand, cost, depth, the balanced construction,
and the s-expression rendering.

A tree over a multiset X has the elements of X at its leaves; every
internal node holds the exact sum of its two children. The cost of a tree
is the sum of absolute values of its internal nodes, and the worst-case
rounding error under unit roundoff alpha is alpha times the cost.

A Schedule holds a tree as three flat lists: the n leaf values, then one
value per merge, each after its two children, the root last, with the
children of each merge as two index lists. Its cost is one sum over the
merge values and its depth one forward loop; no walker recurses. Leaf and
Internal nodes are a view of a schedule, built on first read of
Schedule.tree. flatten turns such a view back into a schedule, so cost,
depth and serialize take either.
"""

from __future__ import annotations

import gc
import re
from array import array
from collections import namedtuple
from functools import wraps
from itertools import islice, repeat
from operator import add
from typing import Iterable, Iterator, Sequence, Union

from .numeric import ParseError, Value, format_value, parse_value


class Leaf(namedtuple("_LeafBase", ("value",))):
    """A single input number. Node types are tuple-backed so that bulk
    construction (10^6-leaf trees) stays cheap."""

    __slots__ = ()

    def __repr__(self):
        return f"Leaf({self.value!r})"


class Internal(namedtuple("_InternalBase", ("left", "right", "value"))):
    """An addition; its value is the exact sum of the two children."""

    __slots__ = ()

    def __new__(cls, left: "AdditionTree", right: "AdditionTree"):
        return tuple.__new__(cls, (left, right, left.value + right.value))

    def __repr__(self):
        return f"Internal(value={self.value!r})"


AdditionTree = Union[Leaf, Internal]


def without_gc(fn):
    """Decorator: run fn with the cyclic GC paused. For builds that make
    one tracked object per merge (a Fraction sum) or per node (the view,
    parse_tree): plans hold no reference cycle, so a collection in the
    middle of such a build frees nothing. Unpaused, build_balanced over
    10^5 rationals starts 142 collections and takes about 0.2 s instead of
    0.15 s. A schedule over ints allocates no tracked object per node.

    try/finally on purpose: a context manager allocates right after
    gc.enable(), which starts a collection over everything just built.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


class Schedule:
    """An addition tree as a flat merge schedule.

    values[:n] are the n leaf values and values[n + k] the value of merge
    k, the exact sum of values[left[k]] and values[right[k]]. Every merge
    comes after its two children, so the root is values[-1]; left and right
    are array("i") index lists of n - 1 entries. The Leaf/Internal view is
    built on the first read of .tree and then kept.
    """

    __slots__ = ("values", "left", "right", "_tree")

    def __init__(self, values: list, left: array, right: array, tree=None):
        self.values, self.left, self.right, self._tree = values, left, right, tree

    @classmethod
    def over(cls, leaves: Iterable[Value]) -> "Schedule":
        """A schedule over the leaves in the given order, its n - 1 merge
        slots still blank (None and 0), for a planner to fill in."""
        values = [*leaves]
        merges = len(values) - 1
        values.extend(repeat(None, merges))
        blank = array("i", [0]) * merges
        return cls(values, blank, array("i", blank))

    @property
    def tree(self) -> AdditionTree:
        if self._tree is None:
            self._tree = _build_view(self)
        return self._tree

    def __repr__(self):
        leaves = len(self.values) - len(self.left)
        return f"Schedule(leaves={leaves}, value={self.values[-1]!r})"


Plan = Union[Schedule, AdditionTree]


@without_gc
def _build_view(s: Schedule) -> AdditionTree:
    """The Leaf/Internal view of a schedule, in one forward pass: each leaf
    is made at its one parent, and only merges get a slot of their own."""
    values = s.values
    n = len(values) - len(s.left)
    if n == 1:
        return Leaf(values[0])
    tnew = tuple.__new__
    merges = [None] * (n - 1)
    for k, a, b in zip(range(n - 1), s.left, s.right):
        a = merges[a - n] if a >= n else tnew(Leaf, (values[a],))
        b = merges[b - n] if b >= n else tnew(Leaf, (values[b],))
        merges[k] = tnew(Internal, (a, b, values[n + k]))
    return merges[-1]


def flatten(tree: Plan) -> Schedule:
    """The schedule of a plan: a Schedule as it is, and a Leaf/Internal
    view taken apart in one iterative post-order pass, leaves left to right.
    The schedule keeps the view as its .tree."""
    if isinstance(tree, Schedule):
        return tree
    leaves: list = []
    sums: list = []
    left, right = array("i"), array("i")
    done: list = []  # finished subtrees: leaf i as i, merge k as ~k
    stack: list = [tree]
    pop = stack.pop
    while stack:
        node = pop()
        if node is None:  # both children of the node below are done
            b = done.pop()
            left.append(done.pop())
            right.append(b)
            done.append(~len(sums))
            sums.append(pop())
        elif isinstance(node, Internal):
            left_child, right_child, value = node
            stack += (value, None, right_child, left_child)
        else:
            done.append(len(leaves))
            leaves.append(node.value)
    n = len(leaves)
    # A merge id ~k becomes n + k, now that n is known.
    left = array("i", [i if i >= 0 else n + ~i for i in left])
    right = array("i", [i if i >= 0 else n + ~i for i in right])
    return Schedule(leaves + sums, left, right, tree)


def tree_view(tree: Plan) -> AdditionTree:
    """The Leaf/Internal view of a plan: a view as it is, a schedule's .tree."""
    return tree.tree if isinstance(tree, Schedule) else tree


def nodes(tree: Plan) -> Iterator[AdditionTree]:
    """All nodes of the view in left-to-right preorder, iteratively (trees
    may be deep)."""
    stack = [tree_view(tree)]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Internal):
            stack.append(node.right)
            stack.append(node.left)


def cost(tree: Plan) -> Value:
    """Sum of |value| over internal nodes; a lone leaf costs 0."""
    s = flatten(tree)
    return sum(map(abs, islice(s.values, len(s.values) - len(s.left), None)))


def depth(tree: Plan) -> int:
    """Number of edges on the longest root-to-leaf path, in one forward
    pass over the merges: each height is one more than its taller child's."""
    s = flatten(tree)
    heights = [0] * len(s.values)
    for k, a, b in zip(range(len(s.values) - len(s.left), len(s.values)), s.left, s.right):
        ha, hb = heights[a], heights[b]
        heights[k] = (ha if ha > hb else hb) + 1
    return heights[-1]


def pair_round(s: Schedule, ids: array, level: list, k: int) -> tuple:
    """One round of left-to-right adjacent pairing over the pieces ids,
    whose values are level[:len(ids)], written to merge slots k on; an odd
    last piece is carried unpaired. Returns the next round's ids and values
    and the next free slot."""
    values, left, right = s.values, s.left, s.right
    half = len(ids) // 2
    m, end = 2 * half, k + half
    left[k:end] = ids[0:m:2]
    right[k:end] = ids[1:m:2]
    sums = list(map(add, level[0:m:2], level[1:m:2]))
    n = len(values) - len(left)
    values[n + k : n + end] = sums
    pieces = array("i", range(n + k, n + end))
    if m < len(ids):
        pieces.append(ids[m])
        sums.append(level[m])
    return pieces, sums, end


def pair_rounds(s: Schedule, ids: array, level: list, k: int) -> int:
    """Rounds of pair_round until one piece is left: the balanced
    combination of existing pieces. Returns the root's id."""
    while len(ids) > 1:
        ids, level, k = pair_round(s, ids, level, k)
    return ids[0]


@without_gc
def build_balanced(values: Sequence[Value]) -> Schedule:
    """Balanced addition tree over the values in the given order, by
    rounds of adjacent pairing.

    Depth is exactly ceil(log2(n)).
    """
    if not values:
        raise ValueError("cannot build a tree over an empty sequence")
    s = Schedule.over(values)
    pair_rounds(s, array("i", range(len(values))), s.values, 0)
    return s


# serialize appends its pieces to the text every this many pieces.
SERIALIZE_CHUNK = 1 << 16


def serialize(tree: Plan) -> str:
    """Nested parenthesized form, e.g. "((1 2) 3)".

    The pieces (parens, separators, formatted values) are joined and
    appended to the text every SERIALIZE_CHUNK pieces. The text is a local
    that nothing else refers to, so CPython grows it in place rather than
    copying it, and at most SERIALIZE_CHUNK small piece strings are alive
    at once: the working memory is about the text and one chunk.
    """
    s = flatten(tree)
    values, left, right = s.values, s.left, s.right
    n = len(values) - len(left)
    text = ""
    out = []
    write = out.append
    stack: list = [len(values) - 1]
    push = stack.append
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            write(node)
            continue
        if len(out) >= SERIALIZE_CHUNK:
            text += "".join(out)
            out.clear()
        # Walk down the left spine: each merge opens at once and leaves
        # its separator, right child and closing paren on the stack, as
        # one string when the right child is a leaf.
        while node >= n:
            write("(")
            k = node - n
            node, r = left[k], right[k]
            if r >= n:
                push(")")
                push(r)
                push(" ")
            else:
                push(f" {format_value(values[r])})")
        write(format_value(values[node]))
    text += "".join(out)
    return text


# A paren, or a run of anything else that is not whitespace; \s matches
# exactly the characters for which str.isspace() is true.
_TOKEN = re.compile(r"[()]|[^\s()]+")


@without_gc
def parse_tree(text: str) -> AdditionTree:
    """Inverse of serialize; errors carry the character position.

    One pass over the tokens with a stack of open "(", so the nesting depth
    is not limited by the call stack.
    """
    tokens = _TOKEN.finditer(text)
    open_nodes: list = []  # children parsed so far, one list per open "("
    for match in tokens:
        token = match[0]
        if token == "(":
            open_nodes.append([])
            continue
        if token == ")":
            raise ParseError(f"unexpected ')' at position {match.start()}")
        try:
            node = Leaf(parse_value(token))
        except ParseError as exc:
            raise ParseError(f"{exc} at position {match.start()}") from None
        # Close every "(" whose second child is now complete.
        while open_nodes:
            children = open_nodes[-1]
            children.append(node)
            if len(children) < 2:
                break
            close = next(tokens, None)
            if close is None or close[0] != ")":
                where = len(text) if close is None else close.start()
                raise ParseError(f"expected ')' at position {where}")
            open_nodes.pop()
            node = Internal(*children)
        if not open_nodes:
            break
    else:
        raise ParseError(f"unexpected end of input at position {len(text)}")
    extra = next(tokens, None)
    if extra is not None:
        raise ParseError(f"trailing input at position {extra.start()}")
    return node
