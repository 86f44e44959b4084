"""Addition-tree construction for low-error floating-point summation.

Exact-rational planners with provable worst-case error bounds, an
exponential exact oracle for small instances, a 3-PARTITION-based
adversarial instance generator, and a reduced-precision simulator.
"""

from .fpsim import Precision, SimulationResult, round_to_precision, simulate
from .hardness import (
    ReductionInstance,
    ThreePartitionInstance,
    amplify,
    check_partition_witness,
    find_triple_partition,
    perturbation_bounds,
    random_3par_instance,
    reduce_to_addition_tree,
    validate_3par,
)
from .huffman import build_huffman, build_huffman_sorted
from .matching import CriticalMatching, minimum_critical_matching, split_by_sign
from .numeric import ParseError, Value, format_value, parse_value
from .oracle import CapExceededError, OptimalResult, optimal_cost_dp
from .planner import PlanReport, default_group_parameter, plan, plan_general, plan_single_sign
from .tree import (
    AdditionTree,
    Internal,
    Leaf,
    Schedule,
    build_balanced,
    cost,
    depth,
    flatten,
    parse_tree,
    serialize,
)

__all__ = [
    "AdditionTree",
    "CapExceededError",
    "CriticalMatching",
    "Internal",
    "Leaf",
    "OptimalResult",
    "ParseError",
    "PlanReport",
    "Precision",
    "ReductionInstance",
    "Schedule",
    "SimulationResult",
    "ThreePartitionInstance",
    "Value",
    "amplify",
    "build_balanced",
    "build_huffman",
    "build_huffman_sorted",
    "check_partition_witness",
    "cost",
    "default_group_parameter",
    "depth",
    "find_triple_partition",
    "flatten",
    "format_value",
    "minimum_critical_matching",
    "optimal_cost_dp",
    "parse_tree",
    "parse_value",
    "perturbation_bounds",
    "plan",
    "plan_general",
    "plan_single_sign",
    "random_3par_instance",
    "reduce_to_addition_tree",
    "round_to_precision",
    "serialize",
    "simulate",
    "split_by_sign",
    "validate_3par",
]

__version__ = "0.1.0"
