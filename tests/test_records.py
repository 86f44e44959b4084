"""The behaviour every record class keeps, whatever machinery builds it.

Eight classes carry results between the library's stages. Each is built
by keyword or by position from named fields, compares equal to a record of
its type with equal fields, prints as Name(field=value, ...) and, all but
PlanReport, refuses assignment to a field. Its _replace and _make build a
record of its own type, through the checks its constructor makes.
"""

import inspect
from fractions import Fraction

import pytest

from addtree import planner
from addtree.fpsim import Precision, SimulationResult
from addtree.hardness import (
    PerturbationBounds,
    ReductionInstance,
    ThreePartitionInstance,
    perturbation_bounds,
    reduce_to_addition_tree,
)
from addtree.matching import CriticalMatching
from addtree.oracle import OptimalResult
from addtree.planner import PlanReport, plan
from addtree.tree import Schedule

SOURCE = ThreePartitionInstance((5, 5, 6), 16)
REDUCTION = reduce_to_addition_tree(SOURCE)
BOUNDS = perturbation_bounds(REDUCTION)
REPORT = plan([1, 2, 3], "huffman")
WITNESS = Schedule.over([1, 2])


def fields_of(record):
    return [getattr(record, name) for name in inspect.signature(type(record)).parameters]


# (class, field names, one value per field); values are shared objects, so
# records built from them compare equal even where a field compares by identity.
RECORDS = [
    (Precision, ["significand_bits"], [24]),
    (
        SimulationResult,
        ["computed", "true_sum", "abs_error", "cost", "precision"],
        [2, Fraction(3, 2), Fraction(1, 2), 3, Precision(2)],
    ),
    (CriticalMatching, ["positives", "negatives"], [[1, 4], [-2, -3]]),
    (OptimalResult, ["optimal_cost", "witness"], [3, WITNESS]),
    (
        PlanReport,
        ["strategy", "schedule", "alpha", "guarantee_factor", "optimal_cost"],
        fields_of(REPORT),
    ),
    (ThreePartitionInstance, ["b", "k"], [(5, 5, 6), 16]),
    (
        ReductionInstance,
        ["x", "w", "l", "h", "h_big", "epsilon", "m", "target_cost", "source"],
        fields_of(REDUCTION),
    ),
    (
        PerturbationBounds,
        ["beta0", "betas", "epsilon", "a_max", "h_big"],
        fields_of(BOUNDS),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_fields_and_construction(cls, names, values):
    assert list(inspect.signature(cls).parameters) == names
    by_keyword = cls(**dict(zip(names, values)))
    by_position = cls(*values)
    for record in (by_keyword, by_position):
        assert [getattr(record, name) for name in names] == values


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(cls, names, values):
    assert cls(*values) == cls(*values)
    assert not cls(*values) != cls(*values)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, names, values):
    record = cls(*values)
    if cls is PlanReport:
        return  # its fields need not be read-only: nothing assigns them
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert [getattr(record, name) for name in names] == values


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize(
    "cls, names, values",
    [r for r in RECORDS if r[0] not in (CriticalMatching, PlanReport)],
    ids=[name for name in IDS if name not in ("CriticalMatching", "PlanReport")],
)
def test_frozen_records_hash_by_their_fields(cls, names, values):
    assert hash(cls(*values)) == hash(cls(*values))


def test_precision_rejects_fewer_than_two_bits():
    for bits in (1, 0, -3):
        with pytest.raises(ValueError, match="^significand must have at least 2 bits$"):
            Precision(bits)
    assert Precision(2).alpha == Fraction(1, 4)


def test_three_partition_instance_stores_b_as_a_tuple():
    for record in (ThreePartitionInstance(b=[5, 5, 6], k=16), ThreePartitionInstance([5, 5, 6], 16)):
        assert type(record.b) is tuple and record.b == (5, 5, 6)
    assert ThreePartitionInstance(b=[5, 5, 6], k=16) == SOURCE


def test_plan_report_cost_is_computed_once(monkeypatch):
    calls = []

    def counted(schedule):
        calls.append(schedule)
        return 11

    monkeypatch.setattr(planner, "cost", counted)
    report = PlanReport("huffman", REPORT.schedule, REPORT.alpha)
    assert report.cost == 11 and report.cost == 11 and report.error_bound == 11 * REPORT.alpha
    assert calls == [REPORT.schedule]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_replace_and_make_keep_the_record_type(cls, names, values):
    record = cls(*values)
    assert record._replace() == record
    assert type(record._make(record)) is cls


def test_precision_replace_rejects_fewer_than_two_bits():
    with pytest.raises(ValueError, match="^significand must have at least 2 bits$"):
        Precision(24)._replace(significand_bits=1)


def test_three_partition_instance_replace_stores_b_as_a_tuple():
    replaced = ThreePartitionInstance((1, 2, 3), 6)._replace(b=[5, 5, 6])
    assert type(replaced.b) is tuple and replaced == ThreePartitionInstance((5, 5, 6), 6)
