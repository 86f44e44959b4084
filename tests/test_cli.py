import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addtree import cli, numeric, planner
from addtree.cli import _read_text, main, read_values
from addtree.numeric import ParseError, as_value, format_value, parse_value
from addtree.tree import cost, serialize


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def data_file(tmp_path):
    return write(tmp_path, "data.txt", "1\n2\n# comment\n3\n\n4\n")


def test_plan_huffman(data_file, capsys):
    code, out, _ = run(capsys, "plan", "--strategy", "huffman", data_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] == "19"
    assert payload["strategy"] == "huffman" and payload["n"] == 4


def test_plan_strategy_mismatch_exit_2(tmp_path, capsys):
    path = write(tmp_path, "pos.txt", "1\n2\n3\n")
    code, _, err = run(capsys, "plan", "--strategy", "critical", path)
    assert code == 2
    assert "mixed" in err


@pytest.mark.parametrize("x, head", [([1, -2], -2), ([-1, 2], 2)])
def test_plan_huffman_mixed_sign_names_the_sort_head(tmp_path, capsys, x, head):
    # build_huffman's own check rejects mixed signs: the head of its sort,
    # the value nearest zero in merge order, has the wrong sign.
    message = f"Huffman construction requires nonzero values of one sign, got {head}"
    with pytest.raises(ValueError) as info:
        planner.plan(x, "huffman")
    assert str(info.value) == message
    path = write(tmp_path, "mixed.txt", "".join(f"{v}\n" for v in x))
    code, out, err = run(capsys, "plan", "--strategy", "huffman", path)
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


def test_plan_grouped(data_file, capsys):
    code, out, _ = run(capsys, "plan", "--strategy", "grouped", "--t", "1", data_file)
    assert code == 0
    assert json.loads(out)["cost"] == "20"


def test_plan_with_oracle(data_file, capsys):
    code, out, _ = run(capsys, "plan", "--strategy", "balanced", "--with-oracle", data_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal_cost"] == "19"
    assert payload["observed_ratio"] == "20/19"


def test_plan_sexpr_output(data_file, capsys):
    code, out, _ = run(capsys, "plan", "--strategy", "balanced", "--output", "sexpr", data_file)
    assert code == 0
    assert out.strip() == "((1 2) (3 4))"


def test_plan_alpha_flag(data_file, capsys):
    code, out, _ = run(capsys, "plan", "--strategy", "huffman", "--alpha", "1/8", data_file)
    payload = json.loads(out)
    assert payload["error_bound"] == "2.375"


def test_sorted_flag_violation(tmp_path, capsys):
    path = write(tmp_path, "unsorted.txt", "3\n1\n2\n")
    code, _, err = run(capsys, "plan", "--strategy", "huffman", "--sorted", path)
    assert code == 2 and "order" in err


def test_zero_value_exit_2(tmp_path, capsys):
    path = write(tmp_path, "zero.txt", "1\n0\n-2\n")
    code, _, err = run(capsys, "plan", path)
    assert code == 2 and "nonzero" in err


def test_empty_file_exit_2(tmp_path, capsys):
    path = write(tmp_path, "empty.txt", "# nothing\n")
    code, _, err = run(capsys, "plan", path)
    assert code == 2


def test_read_values_comments_blank_lines_and_crlf(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"# header\r\n5\r\n\r\n  -3 # tail\r\n1/2\r\n   \r\n+07\r\n")
    values = read_values(str(path))
    assert values == [5, -3, Fraction(1, 2), 7]
    assert [type(v) for v in values] == [int, int, Fraction, int]


@pytest.mark.parametrize(
    "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_read_values_breaks_lines_only_at_newlines(tmp_path, sep):
    # str.splitlines() would also break at sep: 1, 2, 3 and an error on line 4.
    path = write(tmp_path, "sep.txt", f"1\n2{sep}3\nabc\n")
    with pytest.raises(ValueError, match="sep.txt:2: malformed value literal"):
        read_values(path)


@pytest.mark.parametrize(
    "data, line",
    [
        (b"1\n\xff\n", 2),
        (b"1\r\n2\r3\n\xff4\n", 4),
        (b"\xef\xbb\xbf1\n2\n\xff", 3),
        (b"\xff\r\n", 1),
    ],
)
def test_undecodable_input_names_the_line(tmp_path, capsys, data, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "plan", str(path))
    assert code == 2 and out == ""
    assert err == f"invalid input: {path}:{line}: not valid UTF-8 (byte 0xff)\n"


@pytest.mark.parametrize(
    "data, line, byte",
    [
        (b"\xef\xbb\xbf1\r\n\xc3\n", 2, 0xC3),
        (b"\xef\xbb\xbf\r\r\n\xff", 3, 0xFF),
        (b"\xef\xbb\xbf\xff", 1, 0xFF),
        # Only the start of a byte-order mark: not UTF-8, not an empty file.
        (b"\xef", 1, 0xEF),
        (b"\xef\xbb", 1, 0xEF),
    ],
)
def test_undecodable_input_after_a_byte_order_mark(tmp_path, capsys, data, line, byte):
    # The line count rests on the undecoded input, the mark included.
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "plan", str(path))
    assert code == 2 and out == ""
    assert err == f"invalid input: {path}:{line}: not valid UTF-8 (byte 0x{byte:02x})\n"


def reference_read_values(path):
    """read_values as a per-line loop: each line's comment cut, the rest
    stripped and parsed on its own, the first bad line named."""
    values = []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        try:
            values.append(parse_value(token))
        except ParseError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no values found")
    return values


def read_outcome(read, path):
    try:
        values = read(path)
    except ValueError as exc:
        return "error", str(exc)
    return "values", values, [type(v) for v in values]


# Comment text may hold anything but a line break, '#' included.
comments = st.text(alphabet="# abc-(1)._\t", max_size=8).map(lambda c: "#" + c)
pads = st.sampled_from(["", " ", "\t", "  "])

# Literals in other forms than format_value's, with their values: plain
# decimals (signs, leading zeros, an empty whole part, Arabic-Indic
# digits), underscores, exponents and p/q.
OTHER_FORMS = [
    ("+.5", Fraction(1, 2)),
    ("-0.0", 0),
    ("+0.000", 0),
    ("007.250", Fraction(29, 4)),
    ("-.125", Fraction(-1, 8)),
    ("\u0663.\u0663", Fraction(33, 10)),
    ("\u0661\u0662", 12),
    ("5.", 5),
    ("1_000", 1000),
    ("-2_5.0_5", Fraction(-2505, 100)),
    ("2.5e-1", Fraction(1, 4)),
    ("-3E2", -300),
    ("3/4", Fraction(3, 4)),
    ("-6/4", Fraction(-3, 2)),
    ("8/4", 2),
]
# Tokens parse_value rejects, the long one only for its length.
BAD_TOKENS = ["abc", ".", "1.2.3", "1..2", "+-1", "1/0", "1e5000", "1__0", "+" + "1" * 4300]


@st.composite
def value_files(draw):
    """(file bytes, values): one value per line with spaces around it and an
    optional trailing comment, blank and comment-only lines in between, and
    LF, CRLF or lone CR line ends. Half the files hold only integer tokens;
    the rest mix in format_value's decimals and p/q and the OTHER_FORMS.
    values is None when one line holds one of the BAD_TOKENS."""
    ints = st.integers(min_value=-(10**30), max_value=10**30).filter(bool)
    if draw(st.booleans()):
        kinds = ints
    else:
        kinds = st.one_of(
            ints,
            st.fractions(max_denominator=1000).filter(bool).map(as_value),
            st.sampled_from(OTHER_FORMS),
        )
    entries = draw(st.lists(kinds, max_size=12))
    bad = draw(st.one_of(st.none(), st.sampled_from(BAD_TOKENS)))
    if bad is not None:
        entries.insert(draw(st.integers(0, len(entries))), (bad, None))
    lines = []
    for entry in entries:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(pads) + draw(st.one_of(st.just(""), comments)))
        token, v = entry if isinstance(entry, tuple) else (format_value(entry), entry)
        if isinstance(entry, int) and v > 0 and draw(st.booleans()):
            token = "+" + token
        tail = draw(st.one_of(st.just(""), comments))
        lines.append(draw(pads) + token + draw(pads) + tail)
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    values = None if bad is not None else [e[1] if isinstance(e, tuple) else e for e in entries]
    return text.encode(), values


@given(value_files())
def test_read_values_fuzz(tmp_path_factory, case):
    data, values = case
    path = str(tmp_path_factory.getbasetemp() / "fuzz.txt")
    Path(path).write_bytes(data)
    outcome = read_outcome(read_values, path)
    assert outcome == read_outcome(reference_read_values, path)
    if values is None:
        assert outcome[0] == "error"
    elif not values:
        assert outcome == ("error", f"{path}: no values found")
    else:
        assert outcome == ("values", values, [type(v) for v in values])


@given(value_files(), st.integers(1, 40), st.booleans())
def test_read_values_in_small_batches(tmp_path_factory, case, batch, unended):
    # Batches of a few characters put line ends of every kind, comments and
    # blank lines next to a cut, and make many batches of comments only.
    data, _ = case
    if unended:
        data = data.rstrip(b"\r\n")  # the last line has no line end
    path = str(tmp_path_factory.getbasetemp() / "batches.txt")
    Path(path).write_bytes(data)
    with patch.object(cli, "READ_BATCH", batch):
        outcome = read_outcome(read_values, path)
    assert outcome == read_outcome(reference_read_values, path)


def batched_file(bad=None):
    """The text of a file over many READ_BATCH batches: ints with LF ends,
    more than two batches of comment lines (so that one batch holds only
    comments), then ints with CRLF ends, the last line without an end and,
    with bad, the bad token on the 100,000th line of that last block."""
    head = "".join(f"{v} # {v}\n" for v in range(-90000, 90000) if v)
    comments = "# nothing to read on this line, only a comment\n" * 50000
    tail = [f" {v}\t" for v in range(1, 150001)]
    if bad is not None:
        tail[99999] = bad
    assert len(head) > cli.READ_BATCH and len(comments) > 2 * cli.READ_BATCH
    return head + comments + "\r\n".join(tail)


def test_read_values_across_real_batches(tmp_path):
    path = write(tmp_path, "batches.txt", batched_file())
    values = read_values(path)
    assert values == reference_read_values(path)
    assert len(values) == 179999 + 150000 and values[-1] == 150000


def test_read_values_returns_an_exact_size_list(tmp_path):
    # A list extended batch by batch keeps CPython's growth slack, which
    # planning would carry; the values come back in an exact-size list.
    path = write(tmp_path, "batches.txt", batched_file())
    values = read_values(path)
    assert sys.getsizeof(values) == sys.getsizeof([None] * len(values))


def test_bad_token_in_a_later_batch_names_its_line(tmp_path, capsys):
    path = write(tmp_path, "batches.txt", batched_file(bad="12x"))
    with pytest.raises(ValueError) as info:
        reference_read_values(path)
    lineno = 179999 + 50000 + 100000
    assert str(info.value) == f"{path}:{lineno}: malformed value literal: '12x'"
    code, out, err = run(capsys, "plan", path)
    assert code == 2 and out == ""
    assert err == f"invalid input: {info.value}\n"


def test_read_values_working_memory_is_bounded(tmp_path):
    # The tokens of the whole file at once peaked at 3.1 times the values
    # read; a batch at a time, the working memory beside the values is about
    # the text and one batch of tokens.
    rng = random.Random(1)
    text = "".join(f"{rng.choice((-1, 1)) * rng.randrange(1, 10**9)}\n" for _ in range(10**6))
    path = write(tmp_path, "ints.txt", text)
    tracemalloc.start()
    try:
        values = read_values(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) == 10**6
    assert peak - retained < 3 * len(text)


@pytest.mark.parametrize(
    "last", ["0.5", "-.25", "1_000", "3/4", "1e3", "8/4", "1.2.3", "+" + "1" * 4300]
)
def test_int_file_with_one_other_token_last(tmp_path, last):
    # Every line but the last takes int(); the last goes through
    # parse_value, or names its line.
    text = "".join(f"{v}\n" for v in range(-500, 500) if v) + last + "\n"
    path = write(tmp_path, "ints.txt", text)
    assert read_outcome(read_values, path) == read_outcome(reference_read_values, path)


def test_long_signed_int_in_an_int_file_exit_2(tmp_path, capsys):
    # int() takes 4300 digits after a sign; the length cap counts the sign.
    path = write(tmp_path, "ints.txt", "1\n-2\n+" + "1" * 4300 + "\n3\n")
    code, out, err = run(capsys, "plan", path)
    assert code == 2 and out == ""
    assert err == f"invalid input: {path}:3: value literal is longer than 4300 characters\n"


def test_bad_token_after_many_ints_names_its_line(tmp_path, capsys):
    path = write(tmp_path, "ints.txt", "7\n-7\n" * 50000 + "7x\n8\n")
    code, out, err = run(capsys, "plan", path)
    assert code == 2 and out == ""
    assert err == f"invalid input: {path}:100001: malformed value literal: '7x'\n"


def test_bad_token_is_named_without_parsing_again(tmp_path, monkeypatch):
    # The one parse_value call is the one that rejects "abc"; its line is
    # found by counting lines, not by parsing them again.
    calls = []

    def counted(token):
        calls.append(token)
        return parse_value(token)

    monkeypatch.setattr(numeric, "parse_value", counted)
    monkeypatch.setattr(cli, "parse_value", counted)
    text = "# head\n\n" + "".join(f"{v} # {v}\n" for v in range(1000)) + "  \nabc\n9\n"
    path = write(tmp_path, "ints.txt", text)
    with pytest.raises(ValueError, match=r"ints.txt:1004: malformed value literal: 'abc'$"):
        read_values(path)
    assert calls == ["abc"]


def test_comments_with_underscores_and_digits(tmp_path):
    path = write(tmp_path, "notes.txt", "# 1_000 or 2.5\n5 # __init__ 42\n-3#7_7\n  # 9/0\n")
    values = read_values(path)
    assert values == [5, -3] and [type(v) for v in values] == [int, int]


def test_oversized_literal_exit_2_names_the_line(tmp_path, capsys):
    path = write(tmp_path, "long.txt", "1\n-2\n" + "9" * 5000 + "\n")
    code, out, err = run(capsys, "plan", path)
    assert code == 2 and out == ""
    assert err == f"invalid input: {path}:3: value literal is longer than 4300 characters\n"


@pytest.mark.parametrize("text", ["9e4299\n9e4299\n", "1e-4300\n-3\n"])
def test_result_over_digit_limit_exit_2(tmp_path, capsys, text):
    # Each literal is under the cap; the cost or the bound is not.
    path = write(tmp_path, "wide.txt", text)
    code, out, err = run(capsys, "plan", "--strategy", "balanced", path)
    assert code == 2 and out == ""
    assert err == (
        "invalid input: a computed result exceeds the int/str conversion limit "
        "of 4300 digits (sys.get_int_max_str_digits())\n"
    )


def test_digit_limit_late_in_the_text_leaves_stdout_empty(tmp_path, capsys):
    # The last leaf, 2^-14000, formats only in the last chunk of the
    # s-expression, after many chunks are done: none of them is written.
    text = "".join(f"{i}\n" for i in range(1, 10**5 + 1)) + f"1/{2**14000}\n"
    path = write(tmp_path, "late.txt", text)
    code, out, err = run(capsys, "plan", "--strategy", "balanced", "--output", "sexpr", path)
    assert code == 2 and out == ""
    assert err == (
        "invalid input: a computed result exceeds the int/str conversion limit "
        "of 4300 digits (sys.get_int_max_str_digits())\n"
    )


def test_large_report_is_written_whole(tmp_path, capsys):
    values = list(range(1, 10**5 + 1))
    path = write(tmp_path, "ints.txt", "".join(f"{v}\n" for v in values))
    text = serialize(planner.plan(values, "balanced").schedule)
    assert len(text) > 3 * 2**16
    assert run(capsys, "plan", "--strategy", "balanced", "--output", "sexpr", path) == (
        0, text + "\n", ""
    )
    code, out, err = run(capsys, "plan", "--strategy", "balanced", path)
    assert (code, json.loads(out)["tree"], err) == (0, text, "")


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "plan", "--strategy", "bogus", "nofile")
    assert code == 1


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "five.txt", "37504\n37505\n37506\n-112560\n45\n")
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal_cost"] == "112605"
    assert payload["witness"].startswith("(")


def test_oracle_one_value(tmp_path, capsys):
    path = write(tmp_path, "one.txt", "1/3\n")
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal_cost"] == "0" and payload["witness"] == "1/3"


def test_oracle_sexpr_output(tmp_path, capsys):
    path = write(tmp_path, "three.txt", "5\n-5\n3\n")
    code, out, _ = run(capsys, "oracle", "--output", "sexpr", path)
    assert code == 0
    tree = planner.plan([5, -5, 3], "optimal").tree
    assert out == serialize(tree) + "\n"
    assert cost(tree) == 3


def test_oracle_cap_exit_3(tmp_path, capsys):
    path = write(tmp_path, "big.txt", "".join(f"{i}\n" for i in range(1, 8)))
    code, _, err = run(capsys, "oracle", "--cap", "5", path)
    assert code == 3 and "cap" in err


def test_plan_with_oracle_over_the_cap_exits_3_before_planning(tmp_path, capsys, monkeypatch):
    def planner_ran(*args):
        raise AssertionError("planned an input over the oracle cap")

    monkeypatch.setattr(planner, "build_huffman", planner_ran)
    path = write(tmp_path, "big.txt", "".join(f"{i}\n" for i in range(1, 22)))
    code, out, err = run(capsys, "plan", "--strategy", "huffman", "--with-oracle", path)
    assert (code, out) == (3, "")
    assert err == "oracle cap: oracle capped at 20 elements, got 21\n"
    assert run(capsys, "oracle", path) == (code, out, err)


@pytest.mark.parametrize("batch", [8, cli.READ_BATCH])
def test_over_the_cap_exits_3_before_parsing(tmp_path, capsys, monkeypatch, batch):
    # The value lines (non-blank once '#' comments are cut) are counted
    # before any is parsed, in batches, so a file over the cap never reaches
    # the parser, and a malformed one exits 3 as well.
    def parser_ran(tokens):
        raise AssertionError("parsed an input over the oracle cap")

    monkeypatch.setattr(cli, "READ_BATCH", batch)
    monkeypatch.setattr(cli, "parse_values", parser_ran)
    text = "".join(f"{i}  # value {i}\n \n" for i in range(1, 22)) + "# 22\nx"
    path = write(tmp_path, "big.txt", text)
    expected = (3, "", "oracle cap: oracle capped at 21 elements, got 22\n")
    assert run(capsys, "oracle", "--cap", "21", path) == expected
    expected = (3, "", "oracle cap: oracle capped at 20 elements, got 22\n")
    assert run(capsys, "plan", "--with-oracle", path) == expected
    assert run(capsys, "oracle", path) == expected


def test_reduce_command(tmp_path, capsys):
    path = write(tmp_path, "par1.txt", "15 1\n4 5 6\n")
    prefix = str(tmp_path / "out")
    code, out, _ = run(capsys, "reduce", "--out-prefix", prefix, path)
    assert code == 0
    payload = json.loads(out)
    assert payload["target_cost"] == "112605"
    x_lines = (tmp_path / "out.txt").read_text().split()
    assert sorted(int(v) for v in x_lines) == [-112560, 45, 37504, 37505, 37506]
    sidecar = json.loads((tmp_path / "out.json").read_text())
    assert sidecar["target_cost"] == "112605" and sidecar["H"] == 112560


def test_reduce_invalid_instance_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "6 1\n1 2 3\n")
    code, _, err = run(capsys, "reduce", path)
    assert code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("5 -1\n", "the 'K m' header needs m >= 1, got 5 -1"),
        ("24 0\n", "the 'K m' header needs m >= 1, got 24 0"),
        ("24 1\n8 8 8 9\n", "expected 3 elements after the header, got 4"),
        ("6 1\n1 2 3\n", "element 1 violates b > K/4 (K = 6)"),
    ],
    ids=["negative-m", "zero-m", "count", "invalid"],
)
def test_reduce_names_the_file_of_a_bad_instance(tmp_path, capsys, text, message):
    path = write(tmp_path, "bad.txt", text)
    code, out, err = run(capsys, "reduce", path)
    assert (code, out, err) == (2, "", f"invalid input: {path}: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]


def test_reduce_empty_out_prefix_exits_2_and_writes_nothing(tmp_path, capsys):
    path = write(tmp_path, "par1.txt", "15 1\n4 5 6\n")
    code, out, err = run(capsys, "reduce", "--out-prefix", "", path)
    assert (code, out, err) == (2, "", "invalid input: --out-prefix: empty prefix\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["par1.txt"]


def test_reduce_names_the_file_and_line_of_a_bad_element(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "100 1\n30 x 40\n")
    code, out, err = run(capsys, "reduce", path)
    assert code == 2 and out == ""
    assert err == (
        f"invalid input: {path}:2: malformed 3-PARTITION file: "
        "invalid literal for int() with base 10: 'x'\n"
    )


def test_simulate_command(tmp_path, capsys):
    path = write(tmp_path, "two.txt", "5\n4\n")
    code, out, _ = run(capsys, "simulate", "--precision", "3", "--strategy", "balanced", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_error"] == "1"
    assert payload["computed"] == "8" and payload["true_sum"] == "9"


def test_simulate_non_dyadic_exit_2(tmp_path, capsys):
    path = write(tmp_path, "tenth.txt", "1\n0.1\n2\n")
    code, out, err = run(capsys, "simulate", "--precision", "53", path)
    assert code == 2 and out == ""
    assert err == "invalid input: leaves not representable at 53 bits: [Fraction(1, 10)]\n"


def test_simulate_huge_precision_fails_fast(tmp_path, capsys):
    # The bound has 10^8 fractional bits; the digit limit is known to be
    # exceeded before any of its digits are computed.
    path = write(tmp_path, "three.txt", "1\n0.5\n3\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", "--precision", "100000000", path)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == (
        "invalid input: a computed result exceeds the int/str conversion limit "
        "of 4300 digits (sys.get_int_max_str_digits())\n"
    )


def test_simulate_precision_too_large_to_shift_names_the_option(tmp_path, capsys):
    path = write(tmp_path, "three.txt", "1\n0.5\n3\n")
    code, out, err = run(capsys, "simulate", "--precision", str(2**70), path)
    assert code == 2 and out == ""
    assert err == (
        "invalid input: --precision 1180591620717411303424 is too large: "
        "too many digits in integer\n"
    )


def test_oracle_zero_value_exit_2(tmp_path, capsys):
    path = write(tmp_path, "zero.txt", "1\n0\n-1\n")
    code, out, err = run(capsys, "oracle", path)
    assert code == 2 and out == ""
    assert err == "invalid input: input values must be nonzero\n"


def test_missing_file_exit_2(capsys):
    for command in ("plan", "reduce"):
        code, _, err = run(capsys, command, "/nonexistent/input.txt")
        assert code == 2
        assert err.startswith("invalid input: cannot read /nonexistent/input.txt")


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_errors_exit_2(data_file, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error()

    monkeypatch.setattr(planner, "plan", fail)
    code, out, err = run(capsys, "plan", data_file)
    assert code == 2 and out == ""
    assert err == f"invalid input: {error.__name__}\n"


def test_plan_deep_all_negative_huffman(tmp_path, capsys):
    neg = write(tmp_path, "neg.txt", "".join(f"{-(2**i)}\n" for i in range(3000)))
    pos = write(tmp_path, "pos.txt", "".join(f"{2**i}\n" for i in range(3000)))
    code, out, err = run(capsys, "plan", neg, "--strategy", "huffman")
    assert code == 0 and err == ""
    _, pos_out, _ = run(capsys, "plan", pos, "--strategy", "huffman")
    assert json.loads(out)["cost"] == json.loads(pos_out)["cost"]


@pytest.mark.parametrize(
    "strategy, values",
    [
        ("balanced", [-4, -1, 2, 3]),
        ("critical", [-4, -1, 2, 3]),
        ("optimal", [-4, -1, 2, 3]),
        ("grouped", [1, 2, 2, 4]),
        ("huffman", [-4, -2, -2, -1]),
    ],
)
def test_sorted_flag_is_checked_for_every_strategy(tmp_path, capsys, strategy, values):
    ok = write(tmp_path, "sorted.txt", "".join(f"{v}\n" for v in values))
    code, out, _ = run(capsys, "plan", "--strategy", strategy, "--sorted", ok)
    assert code == 0 and out == run(capsys, "plan", "--strategy", strategy, ok)[1]
    bad = write(tmp_path, "unsorted.txt", "".join(f"{v}\n" for v in values[::-1]))
    for command in (["plan"], ["simulate", "--precision", "8"]):
        code, _, err = run(capsys, *command, "--strategy", strategy, "--sorted", bad)
        assert code == 2 and "breaks ascending order" in err


@pytest.mark.parametrize(
    "argv, walks",
    [
        (["plan", "--strategy", "balanced"], 1),
        (["plan", "--strategy", "balanced", "--with-oracle"], 1),
        (["plan", "--strategy", "balanced", "--output", "sexpr"], 0),
        (["oracle"], 0),
        (["oracle", "--output", "sexpr"], 0),
        (["simulate", "--precision", "24"], 0),
    ],
)
def test_cost_walks_per_command(data_file, capsys, monkeypatch, argv, walks):
    # C(T) is computed from a finished tree only where it is printed, and
    # then once; simulate prints the cost its own pass summed.
    walked = []

    def counted(t):
        walked.append(t)
        return cost(t)

    monkeypatch.setattr(planner, "cost", counted)
    code, out, _ = run(capsys, argv[0], data_file, *argv[1:])
    assert code == 0 and len(walked) == walks
    if argv[0] != "oracle" and "sexpr" not in argv:
        assert json.loads(out)["cost"] == "20"


ROOT = Path(__file__).resolve().parent.parent
VALUES = b"1\n-2\n"
INSTANCE = b"15 1\n4 5 6\n"


def run_cli(*argv, **options):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options}
    return subprocess.run(
        [sys.executable, "-m", "addtree.cli", *argv],
        env=env, text=True, timeout=120, **options,
    )


def limit_address_space():
    # A child that builds 2^p for p = 3 * 10^10 (3.75 GB) then gets a
    # MemoryError at once instead of exhausting the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "text, code, err",
    [
        ("1\n0.5\n3\n", 2, (
            "invalid input: a computed result exceeds the int/str conversion limit "
            "of 4300 digits (sys.get_int_max_str_digits())\n"
        )),
        ("1\n-1\n2\n-2\n", 0, ""),  # every internal node is 0: so is the bound
    ],
    ids=["nonzero-cost", "zero-cost"],
)
def test_simulate_precision_3e10_builds_no_power_of_two(tmp_path, text, code, err):
    path = write(tmp_path, "values.txt", text)
    start = time.perf_counter()
    result = run_cli(
        "simulate", "--precision", str(3 * 10**10), path, preexec_fn=limit_address_space
    )
    assert time.perf_counter() - start < 5
    assert (result.returncode, result.stderr) == (code, err)
    if code == 0:
        payload = json.loads(result.stdout)
        assert (payload["bound"], payload["ratio"], payload["cost"]) == ("0", "0", "0")


@pytest.mark.parametrize("p", [2**63, 2**64], ids=["2^63", "2^64"])
def test_simulate_precision_past_maxsize_names_the_option(tmp_path, p):
    # Above sys.maxsize and below about 2^66, 1 << p fails in the allocator
    # with MemoryError; the message is the one 2^70 gets from OverflowError.
    path = write(tmp_path, "three.txt", "1\n0.5\n3\n")
    result = run_cli("simulate", "--precision", str(p), path, preexec_fn=limit_address_space)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", f"invalid input: --precision {p} is too large: too many digits in integer\n"
    )


@pytest.mark.parametrize(
    "command, case",
    [
        (command, case)
        for command in ("plan", "oracle", "simulate", "reduce")
        for case in ("missing", "directory", "undecodable", "bom", "unwritable")
        if case != "unwritable" or command == "reduce"
    ],
)
def test_no_traceback_on_bad_files(tmp_path, command, case):
    valid = INSTANCE if command == "reduce" else VALUES
    path = tmp_path / "input.txt"
    prefix = tmp_path / "out"
    if case == "directory":
        path.mkdir()
    elif case == "undecodable":
        path.write_bytes(valid + b"\xff\n")
    elif case == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + valid.replace(b"\n", b"\r\n"))
    elif case == "unwritable":
        path.write_bytes(valid)
        prefix = tmp_path / "no" / "such" / "out"
    extra = {
        "simulate": ["--precision", "24"],
        "reduce": ["--out-prefix", str(prefix)],
    }.get(command, [])
    result = run_cli(command, str(path), *extra)
    assert "Traceback" not in result.stderr
    if case == "bom":
        assert result.returncode == 0 and result.stderr == ""
        key, value = {
            "plan": ("tree", "(1 -2)"),
            "oracle": ("witness", "(1 -2)"),
            "simulate": ("true_sum", "-1"),
            "reduce": ("target_cost", "112605"),
        }[command]
        assert json.loads(result.stdout)[key] == value
        return
    assert result.returncode == 2 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid input: ")
    expected = {
        "missing": f"cannot read {path}",
        "directory": f"cannot read {path}",
        "undecodable": f"{path}:3: not valid UTF-8 (byte 0xff)",
        "unwritable": f"cannot write {prefix}.txt",
    }[case]
    assert expected in lines[0]


@pytest.mark.parametrize(
    "command, size",
    [("plan", 2), ("plan", 2000), ("plan", 200000), ("oracle", 2), ("simulate", 2), ("reduce", 2)],
)
def test_closed_stdout_exits_2_with_one_line(tmp_path, command, size):
    # A small report fails in the final flush, a large one in its write,
    # before the newline after it.
    path = tmp_path / "input.txt"
    path.write_bytes(INSTANCE if command == "reduce" else b"1\n-2\n" * (size // 2))
    extra = {
        "simulate": ["--precision", "24"],
        "reduce": ["--out-prefix", str(tmp_path / "out")],
    }.get(command, [])
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write to stdout fails
    try:
        result = run_cli(command, str(path), *extra, stdout=write_end)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (
        2, "invalid input: cannot write stdout: [Errno 32] Broken pipe\n"
    )


@pytest.mark.parametrize("alpha", ["", " "], ids=["empty", "blank"])
def test_plan_empty_alpha_exits_2(data_file, capsys, alpha):
    code, out, err = run(capsys, "plan", "--strategy", "huffman", "--alpha", alpha, data_file)
    assert (code, out, err) == (2, "", "invalid input: --alpha: empty value literal\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plan", "--alpha", "abc"], "--alpha: malformed value literal: 'abc'"),
        (["plan", "--alpha", "1/0"], "--alpha: malformed value literal: '1/0'"),
        (
            ["plan", "--alpha", "1e-5000"],
            f"--alpha: value literal exponent exceeds {sys.get_int_max_str_digits()} in magnitude",
        ),
        (["simulate", "--precision", "0"], "--precision: significand must have at least 2 bits"),
        (["simulate", "--precision", "1"], "--precision: significand must have at least 2 bits"),
    ],
    ids=lambda v: "=".join(v[-2:]) if isinstance(v, list) else "",
)
def test_bad_option_value_names_the_option(data_file, capsys, argv, message):
    code, out, err = run(capsys, argv[0], *argv[1:], data_file)
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("alpha, shown", [("1", "1"), ("-1/2", "-1/2"), ("1.5", "3/2")])
def test_plan_alpha_out_of_range_names_the_option(data_file, capsys, alpha, shown):
    # One range check: planner.plan raises it, and the CLI names the option.
    message = f"alpha must satisfy 0 <= alpha < 1, got {shown}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        planner.plan([1, 2], "huffman", alpha=parse_value(alpha))
    code, out, err = run(capsys, "plan", "--strategy", "huffman", f"--alpha={alpha}", data_file)
    assert (code, out, err) == (2, "", f"invalid input: --alpha: {message}\n")


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("t", [0, -5])
def test_group_parameter_below_1_names_the_option(data_file, capsys, command, t):
    # One check: plan_single_sign raises it, and the CLI names the option.
    message = f"group parameter t must be >= 1, got {t}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        planner.plan_single_sign([1, 2], t)
    extra = ["--precision", "24"] if command == "simulate" else []
    grouped = run(capsys, command, data_file, "--strategy", "grouped", "--t", str(t), *extra)
    assert grouped == (2, "", f"invalid input: --t: {message}\n")
    # The balanced strategy ignores t.
    balanced = [command, data_file, "--strategy", "balanced", *extra]
    with_t = run(capsys, *balanced, "--t", str(t))
    assert with_t[0] == 0 and with_t == run(capsys, *balanced)


HUGE = str(2**70)


@pytest.mark.parametrize(
    "argv",
    [
        *(["simulate", "--precision", p] for p in ("0", "1", HUGE)),
        *(["plan", "--strategy", "grouped", "--t", t] for t in ("0", "-1", HUGE)),
        *(["oracle", "--cap", cap] for cap in ("-1", HUGE)),
        *(["plan", "--alpha", alpha] for alpha in ("1/0", "1", "-1/2", "1e-5000")),
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_no_traceback_on_numeric_options(tmp_path, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(b"1\n0.5\n3\n")
    result = run_cli(argv[0], str(path), *argv[1:])
    assert result.returncode in (0, 1, 2, 3)
    assert len(result.stderr.splitlines()) <= 1 and "Traceback" not in result.stderr
