"""Differential tests: parse_tree against the character scanner it replaced.

The reference walks the text one character at a time with a whitespace
skipper; parse_tree makes one regular-expression pass over the tokens. On
every input both must give the same tree (compared by its s-expression) or
a ParseError with the same message, position included.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from addtree.numeric import ParseError, parse_value
from addtree.planner import plan
from addtree.tree import Internal, Leaf, parse_tree, serialize


def reference_parse_tree(text):
    pos = 0
    n = len(text)
    open_nodes = []

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


def outcome(parse, text):
    try:
        return "tree", serialize(parse(text))
    except ParseError as exc:
        return "error", str(exc)


# Parens, ASCII whitespace, a file separator (\x1c) and a no-break space
# (both whitespace to str.isspace()), and the characters of value literals.
noise = st.text(alphabet="() \t\n\x1c\xa00123456789-./ex", max_size=30)

planned_texts = st.builds(
    lambda x, strategy: serialize(plan(x, strategy).tree),
    st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=99),
            st.fractions(min_value=1, max_value=9, max_denominator=8),
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from(["balanced", "huffman", "grouped"]),
)


@st.composite
def damaged(draw, texts):
    """A planned s-expression, sometimes with a slice replaced by noise."""
    text = draw(texts)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, len(text)))
        text = text[:i] + draw(noise) + text[j:]
    return text


@settings(max_examples=300)
@given(st.one_of(noise, planned_texts, damaged(planned_texts)))
@example("")
@example("(")
@example(" ( 1\t2 ) ")
@example("(1 2))")
@example("(1\x1c2) ")
@example("((1 2) (3 4)")
@example("(1 (2 3) 4)")
@example("(1/0 2)")
@example("(-.5e1 x)")
def test_parse_tree_matches_reference(text):
    assert outcome(parse_tree, text) == outcome(reference_parse_tree, text)
