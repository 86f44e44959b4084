import json

import pytest

from addtree.cli import main


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


def test_oracle_cap_exit_3(tmp_path, capsys):
    path = write(tmp_path, "big.txt", "".join(f"{i}\n" for i in range(1, 8)))
    code, _, err = run(capsys, "oracle", "--cap", "5", path)
    assert code == 3 and "cap" in err


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


def test_simulate_command(tmp_path, capsys):
    path = write(tmp_path, "two.txt", "5\n4\n")
    code, out, _ = run(capsys, "simulate", "--precision", "3", "--strategy", "balanced", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_error"] == "1"
    assert payload["computed"] == "8" and payload["true_sum"] == "9"


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "plan", "/nonexistent/input.txt")
    assert code == 2


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
