import random
from fractions import Fraction

import pytest

from addtree.hardness import (
    ThreePartitionInstance,
    amplify,
    check_partition_witness,
    find_triple_partition,
    parse_3par,
    perturbation_bounds,
    random_3par_instance,
    reduce_to_addition_tree,
    reduction_sidecar,
    validate_3par,
)
from addtree.oracle import optimal_cost_dp
from checkers import format_3par

POS = ThreePartitionInstance(b=(4, 5, 6), k=15)
NEG = ThreePartitionInstance(b=(7, 7, 7, 9, 9, 9), k=24)


def test_validate():
    assert validate_3par(POS) == 1
    assert validate_3par(NEG) == 2
    with pytest.raises(ValueError, match="K/4"):
        validate_3par(ThreePartitionInstance(b=(1, 2, 3), k=6))
    with pytest.raises(ValueError, match="multiple of 3"):
        validate_3par(ThreePartitionInstance(b=(4, 5), k=15))
    with pytest.raises(ValueError, match="differs"):
        validate_3par(ThreePartitionInstance(b=(4, 5, 5), k=15))
    with pytest.raises(ValueError, match="K must be positive, got 0"):
        validate_3par(ThreePartitionInstance(b=(4, 5, 6), k=0))
    with pytest.raises(ValueError, match="element 8 violates b < K/2"):
        validate_3par(ThreePartitionInstance(b=(4, 4, 8), k=15))


def test_amplify():
    a, l = amplify(POS)
    assert a == [37504, 37505, 37506] and l == 112515
    a2, l2 = amplify(NEG)
    assert l2 == 720024 and a2[0] == 240007
    # amplified pair is itself a valid instance with sum mL
    m = validate_3par(ThreePartitionInstance(b=tuple(a), k=l))
    assert m == 1 and sum(a) == m * l


def test_reduction_positive_instance():
    r = reduce_to_addition_tree(POS)
    assert r.epsilon == Fraction(1, 10000)
    assert r.h == 45 and r.h_big == 112560
    assert sorted(r.x) == sorted([37504, 37505, 37506, -112560, 45])
    assert r.target_cost == 112605
    assert optimal_cost_dp(list(r.x)).optimal_cost == r.target_cost


def test_reduction_negative_instance_parameters():
    r = reduce_to_addition_tree(NEG)
    assert r.h == 72 and r.h_big == 720096
    assert len(r.x) == 10
    assert r.target_cost == 1440336


def test_partition_witness():
    assert check_partition_witness(POS, [(4, 5, 6)]) is True
    assert check_partition_witness(NEG, [(7, 7, 9), (7, 9, 9)]) is False
    assert check_partition_witness(NEG, [(7, 7, 7), (9, 9, 9)]) is False
    with pytest.raises(ValueError):
        check_partition_witness(POS, [(4, 5, 7)])
    with pytest.raises(ValueError, match="parts must be triples"):
        check_partition_witness(NEG, [(7, 7), (7, 9, 9, 9)])


def test_find_triple_partition():
    witness = find_triple_partition(POS)
    assert witness is not None and check_partition_witness(POS, witness)
    assert find_triple_partition(NEG) is None
    good2 = ThreePartitionInstance(b=(7, 8, 9, 7, 8, 9), k=24)
    witness2 = find_triple_partition(good2)
    assert witness2 is not None and check_partition_witness(good2, witness2)
    five = ThreePartitionInstance(b=(7, 8, 9) * 5, k=24)
    with pytest.raises(ValueError, match="capped at m = 4, got 5"):
        find_triple_partition(five)


def test_perturbation_bounds_hold():
    for inst in (POS, NEG):
        bounds = perturbation_bounds(reduce_to_addition_tree(inst))
        assert bounds.ok
        assert 0 < bounds.beta0 < 4 * bounds.epsilon
        assert all(abs(b) < 4 * bounds.epsilon for b in bounds.betas)
        assert 3 * bounds.a_max < bounds.h_big


def test_reduction_size_is_polynomial():
    for m in (1, 2, 3):
        inst = random_3par_instance(m, random.Random(m))
        r = reduce_to_addition_tree(inst)
        assert len(r.x) == 5 * m
        assert all(abs(v) <= r.h_big for v in r.x)


def test_random_instances_are_valid_and_positive():
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(1, 3)
        inst = random_3par_instance(m, rng)
        assert validate_3par(inst) == m
        witness = find_triple_partition(inst)
        assert witness is not None
    with pytest.raises(ValueError, match="m must be >= 1"):
        random_3par_instance(0, rng)


def test_file_roundtrip():
    text = format_3par(NEG)
    back = parse_3par(text)
    assert back == NEG
    assert parse_3par("15 1  # header\n4 5 6\n") == POS
    with pytest.raises(ValueError):
        parse_3par("15 1\n4 5\n")
    with pytest.raises(ValueError):
        parse_3par("")
    with pytest.raises(ValueError, match="malformed 3-PARTITION file") as info:
        parse_3par("15 1\n4 5 six\n")
    assert info.value.lineno == 2
    with pytest.raises(ValueError, match="'K m' header"):
        parse_3par("# only a comment\nx\n")
    for text in ("5 -1\n", "24 0\n"):
        with pytest.raises(ValueError, match="'K m' header needs m >= 1"):
            parse_3par(text)


@pytest.mark.parametrize(
    "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_parse_3par_breaks_lines_only_at_newlines(sep):
    # str.splitlines() would end the comment at sep and read 9 as an element.
    assert parse_3par(f"15 1  # note{sep}9\n4 5 6\n") == POS


def test_sidecar_fields():
    side = reduction_sidecar(reduce_to_addition_tree(POS))
    assert side["target_cost"] == "112605"
    assert side["H"] == 112560 and side["n"] == 5
    assert side["epsilon"] == "1/10000"
