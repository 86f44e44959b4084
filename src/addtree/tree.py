"""Binary addition trees: representation, cost, balanced construction,
and the s-expression rendering.

A tree over a multiset X has the elements of X at its leaves; every
internal node holds the exact sum of its two children. The cost of a tree
is the sum of absolute values of its internal nodes, and the worst-case
rounding error under unit roundoff alpha is alpha times the cost.
"""

from __future__ import annotations

import gc
import re
from collections import namedtuple
from functools import wraps
from typing import Iterator, Sequence, Union

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


def nodes(tree: AdditionTree) -> Iterator[AdditionTree]:
    """All nodes in left-to-right preorder, iteratively (trees may be deep)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Internal):
            stack.append(node.right)
            stack.append(node.left)


def cost(tree: AdditionTree) -> Value:
    """Sum of |value| over internal nodes; a lone leaf costs 0.

    Adds in preorder, as sum() over nodes() would, in one walk down each
    left spine; only internal right children wait on the stack.
    """
    total = 0
    stack = [tree]
    push = stack.append
    while stack:
        node = stack.pop()
        while isinstance(node, Internal):
            node, right, value = node
            total += abs(value)
            if isinstance(right, Internal):
                push(right)
    return total


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


def without_gc(fn):
    """Decorator: run fn with the cyclic GC paused. Trees are acyclic, so
    collections in the middle of an O(n) build are pure overhead; the
    undecorated body stays reachable as fn.__wrapped__.

    try/finally on purpose: a context manager allocates right after
    gc.enable(), which starts a collection over every node just built.
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


@without_gc
def build_balanced(values: Sequence[Value]) -> AdditionTree:
    """Balanced addition tree over the values in the given order.

    Depth is exactly ceil(log2(n)).
    """
    tnew = tuple.__new__
    return combine_balanced([tnew(Leaf, (v,)) for v in values])


def serialize(tree: AdditionTree) -> str:
    """Nested parenthesized form, e.g. "((1 2) 3)"."""
    out = []
    write = out.append
    stack: list = [tree]
    push = stack.append
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            write(node)
            continue
        # Walk down the left spine: each Internal opens at once and leaves
        # its separator, right child and closing paren on the stack, as
        # one string when the right child is a leaf.
        while isinstance(node, Internal):
            write("(")
            node, right, _ = node
            if isinstance(right, Internal):
                push(")")
                push(right)
                push(" ")
            else:
                push(f" {format_value(right.value)})")
        write(format_value(node.value))
    return "".join(out)


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
