"""Binary addition trees: representation, cost, balanced construction,
and the s-expression / JSON renderings.

A tree over a multiset X has the elements of X at its leaves; every
internal node holds the exact sum of its two children. The cost of a tree
is the sum of absolute values of its internal nodes, and the worst-case
rounding error under unit roundoff alpha is alpha times the cost.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from typing import Iterator, Sequence, Union

from .numeric import ErrorModel, ParseError, Value, format_value, parse_value


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


def nodes(tree: AdditionTree) -> Iterator[AdditionTree]:
    """All nodes, iteratively (trees may be deep)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Internal):
            stack.append(node.left)
            stack.append(node.right)


def leaf_values(tree: AdditionTree) -> list:
    """Leaf values in left-to-right order."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.value)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return out


def cost(tree: AdditionTree) -> Value:
    """Sum of |value| over internal nodes; a lone leaf costs 0."""
    total = 0
    for node in nodes(tree):
        if isinstance(node, Internal):
            total += abs(node.value)
    return total


def worst_case_error(tree: AdditionTree, model: ErrorModel) -> Value:
    return model.alpha * cost(tree)


def evaluate_exact(tree: AdditionTree) -> Value:
    """Root value; equals the exact sum of the leaves by construction."""
    return tree.value


def depth(tree: AdditionTree) -> int:
    """Number of edges on the longest root-to-leaf path."""
    best = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, Internal):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
        elif d > best:
            best = d
    return best


def without_gc(fn, *args):
    """fn(*args) with the cyclic GC paused; trees are acyclic, so collections
    in the middle of an O(n) build are pure overhead.

    A plain call on purpose: a context manager allocates right after
    gc.enable(), which starts a collection over every node just built.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args)
    finally:
        if was_enabled:
            gc.enable()


def combine_balanced(trees: Sequence[AdditionTree]) -> AdditionTree:
    """Balanced combination of existing subtrees by repeated rounds of
    left-to-right adjacent pairing; an odd trailing subtree is carried
    unpaired into the next round."""
    if not trees:
        raise ValueError("cannot build a tree over an empty sequence")
    tnew = tuple.__new__
    level = list(trees)
    while len(level) > 1:
        odd = len(level) % 2
        it = iter(level)
        nxt = [tnew(Internal, (a, b, a.value + b.value)) for a, b in zip(it, it)]
        if odd:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def build_balanced(values: Sequence[Value]) -> AdditionTree:
    """Balanced addition tree over the values in the given order.

    Depth is exactly ceil(log2(n)).
    """
    tnew = tuple.__new__
    return combine_balanced([tnew(Leaf, (v,)) for v in values])


def serialize(tree: AdditionTree) -> str:
    """Nested parenthesized form, e.g. "((1 2) 3)"."""
    out = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(format_value(item.value))
        else:
            stack.append(")")
            stack.append(item.right)
            stack.append(" ")
            stack.append(item.left)
            stack.append("(")
    return "".join(out)


def parse_tree(text: str) -> AdditionTree:
    """Inverse of serialize; errors carry the character position.

    Iterative, so the nesting depth is not limited by the call stack.
    """
    pos = 0
    n = len(text)
    open_nodes: list = []  # children parsed so far, one list per open "("

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    while True:
        skip_ws()
        if pos >= n:
            raise ParseError(f"unexpected end of input at position {pos}")
        if text[pos] == "(":
            pos += 1
            open_nodes.append([])
            continue
        if text[pos] == ")":
            raise ParseError(f"unexpected ')' at position {pos}")
        start = pos
        while pos < n and not text[pos].isspace() and text[pos] not in "()":
            pos += 1
        try:
            node = Leaf(parse_value(text[start:pos]))
        except ParseError as exc:
            raise ParseError(f"{exc} at position {start}") from None
        # Close every "(" whose second child is now complete.
        while open_nodes:
            children = open_nodes[-1]
            children.append(node)
            if len(children) < 2:
                break
            skip_ws()
            if pos >= n or text[pos] != ")":
                raise ParseError(f"expected ')' at position {pos}")
            pos += 1
            open_nodes.pop()
            node = Internal(*children)
        if not open_nodes:
            break
    skip_ws()
    if pos != n:
        raise ParseError(f"trailing input at position {pos}")
    return node


def _json_node(value: Value, c: Value, children: list) -> dict:
    return {"value": format_value(value), "cost": format_value(c), "children": children}


def to_json_dict(tree: AdditionTree) -> dict:
    """JSON rendering with per-node "value", subtree "cost", "children"."""
    done: list = []  # (dict, subtree cost) of finished subtrees
    stack: list = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            done.append((_json_node(node.value, 0, []), 0))
        elif expanded:
            (right, cr), (left, cl) = done.pop(), done.pop()
            c = cl + cr + abs(node.value)
            done.append((_json_node(node.value, c, [left, right]), c))
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return done[0][0]
