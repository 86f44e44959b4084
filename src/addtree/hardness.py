"""Adversarial instance generation from 3-PARTITION.

Finding a minimum-cost addition tree over mixed-sign input is NP-hard; the
proof reduces 3-PARTITION to it. This module implements that reduction as
a generator of adversarial summation instances: a valid 3-PARTITION
instance (B, K) is amplified to (A, L) and turned into the multiset

    X = A  u  {-H} * m  u  {h} * m

whose minimum addition-tree cost is exactly m(H + h) if and only if the
source instance is a yes-instance. At desk scale (m <= 2) the claim is
verifiable with the exact oracle; the generator itself has no size limit.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .numeric import ParseError, uncommented_lines


class ThreePartitionInstance(namedtuple("_ThreePartitionBase", ("b", "k"))):
    """A 3-PARTITION instance: the multiset B of 3m integers and the target K."""

    __slots__ = ()

    def __new__(cls, b: Sequence[int], k: int):
        return tuple.__new__(cls, (tuple(b), k))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)


def validate_3par(instance: ThreePartitionInstance) -> int:
    """Check the 3-PARTITION side conditions; return m = |B| / 3."""
    b, k = instance.b, instance.k
    if k <= 0:
        raise ValueError(f"K must be positive, got {k}")
    if len(b) == 0 or len(b) % 3 != 0:
        raise ValueError(f"|B| must be a positive multiple of 3, got {len(b)}")
    m = len(b) // 3
    for v in b:
        if not (4 * v > k):
            raise ValueError(f"element {v} violates b > K/4 (K = {k})")
        if not (2 * v < k):
            raise ValueError(f"element {v} violates b < K/2 (K = {k})")
    if sum(b) != m * k:
        raise ValueError(f"sum(B) = {sum(b)} differs from mK = {m * k}")
    return m


def amplify(instance: ThreePartitionInstance) -> Tuple[List[int], int]:
    """Shift to (A, L): a_i = b_i + W, L = 3W + K with W = 100(5m)^2 K.

    (A, L) is again a valid 3-PARTITION instance and is positive exactly
    when (B, K) is; the amplification packs all a_i tightly around L/3.
    """
    m = validate_3par(instance)
    w = 100 * (5 * m) ** 2 * instance.k
    a = [v + w for v in instance.b]
    return a, 3 * w + instance.k


class ReductionInstance(
    namedtuple(
        "_ReductionBase", ("x", "w", "l", "h", "h_big", "epsilon", "m", "target_cost", "source")
    )
):
    """The multiset X built from a 3-PARTITION instance, its parameters and
    cost threshold: x is a tuple of values, epsilon a Fraction, source the
    ThreePartitionInstance, and the other fields are ints."""

    __slots__ = ()

    @property
    def a(self) -> Tuple[int, ...]:
        return self.x[: 3 * self.m]


def reduce_to_addition_tree(instance: ThreePartitionInstance) -> ReductionInstance:
    """Build the summation multiset X and its cost threshold m(H + h)."""
    a, l = amplify(instance)  # validates the instance
    m = len(a) // 3
    w = (l - instance.k) // 3  # L = 3W + K
    epsilon = Fraction(1, 400 * (5 * m) ** 2)
    h = (4 * epsilon.numerator * l) // epsilon.denominator  # floor(4 eps L)
    h_big = l + h
    x = tuple(a) + (-h_big,) * m + (h,) * m
    return ReductionInstance(
        x=x,
        w=w,
        l=l,
        h=h,
        h_big=h_big,
        epsilon=epsilon,
        m=m,
        target_cost=m * (h_big + h),
        source=instance,
    )


class PerturbationBounds(
    namedtuple("_PerturbationBase", ("beta0", "betas", "epsilon", "a_max", "h_big"))
):
    """The exact perturbation quantities h = beta0 * H, a_i = (1/3 + beta_i) H:
    beta0 and epsilon are Fractions, betas a tuple of them, a_max and h_big
    ints."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        four_eps = 4 * self.epsilon
        return (
            0 < self.beta0 < four_eps
            and all(abs(b) < four_eps for b in self.betas)
            and 3 * self.a_max < self.h_big
        )


def perturbation_bounds(reduction: ReductionInstance) -> PerturbationBounds:
    """The perturbation quantities beta0, beta_i of a reduction, for checking its inequalities."""
    big = reduction.h_big
    return PerturbationBounds(
        beta0=Fraction(reduction.h, big),
        betas=tuple(Fraction(a, big) - Fraction(1, 3) for a in reduction.a),
        epsilon=reduction.epsilon,
        a_max=max(reduction.a),
        h_big=big,
    )


def check_partition_witness(
    instance: ThreePartitionInstance, partition: Sequence[Sequence[int]]
) -> bool:
    """True iff partition is an exact triple cover of B with all sums K."""
    flat = sorted(v for triple in partition for v in triple)
    if flat != sorted(instance.b):
        raise ValueError("partition does not cover B exactly")
    if any(len(triple) != 3 for triple in partition):
        raise ValueError("partition parts must be triples")
    return all(sum(triple) == instance.k for triple in partition)


def find_triple_partition(
    instance: ThreePartitionInstance,
) -> Optional[List[Tuple[int, int, int]]]:
    """The first witness partition of sorted B, by exhaustive search; None if
    the instance is negative. Independent of the oracle. Capped at m <= 4."""
    m = validate_3par(instance)
    if m > 4:
        raise ValueError(f"exhaustive partition search capped at m = 4, got {m}")
    return _triples(sorted(instance.b), instance.k)


def _triples(items: List[int], k: int) -> Optional[List[Tuple[int, int, int]]]:
    """The first partition of sorted items into triples summing to k, or None.

    The first item goes with each pair of the others in turn. A module
    function, not a closure: a recursive closure is a reference cycle.
    """
    if not items:
        return []
    first, *rest = items
    for i, j in itertools.combinations(range(len(rest)), 2):
        if first + rest[i] + rest[j] == k:
            sub = _triples(rest[:i] + rest[i + 1 : j] + rest[j + 1 :], k)
            if sub is not None:
                return [(first, rest[i], rest[j])] + sub
    return None


def random_3par_instance(m: int, rng: random.Random) -> ThreePartitionInstance:
    """Sample a valid (always positive) 3-PARTITION instance with m triples.

    K is drawn from [20, 400); each triple is drawn from the open range
    (K/4, K/2) to sum exactly to K, by rejection.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k = rng.randrange(20, 400)
    lo = k // 4 + 1
    hi = (k - 1) // 2  # largest value with 2v < k
    b: List[int] = []
    for _ in range(m):
        while True:
            b1 = rng.randint(lo, hi)
            b2 = rng.randint(lo, hi)
            b3 = k - b1 - b2
            if lo <= b3 <= hi:
                b.extend((b1, b2, b3))
                break
    return ThreePartitionInstance(b=tuple(b), k=k)


def parse_3par(text: str) -> ThreePartitionInstance:
    """Parse the instance file format: first line "K m", then 3m integers
    (whitespace separated, '#' comments cut by numeric.uncommented_lines).

    A token that is not an integer raises ParseError with lineno set to
    its line, counted from 1.
    """
    rows = [line.split() for line in uncommented_lines(text)]
    if sum(map(len, rows)) < 2:
        raise ValueError("3-PARTITION file needs a 'K m' header")
    values: List[int] = []
    for lineno, row in enumerate(rows, 1):
        try:
            values.extend(map(int, row))
        except ValueError as exc:
            error = ParseError(f"malformed 3-PARTITION file: {exc}")
            error.lineno = lineno
            raise error from None
    k, m, *b = values
    if m < 1:
        raise ValueError(f"the 'K m' header needs m >= 1, got {k} {m}")
    if len(b) != 3 * m:
        raise ValueError(f"expected {3 * m} elements after the header, got {len(b)}")
    return ThreePartitionInstance(b=tuple(b), k=k)


def reduction_sidecar(reduction: ReductionInstance) -> dict:
    """JSON-ready parameter summary emitted next to the generated X file."""
    return {
        "m": reduction.m,
        "K": reduction.source.k,
        "W": reduction.w,
        "L": reduction.l,
        "epsilon": f"{reduction.epsilon.numerator}/{reduction.epsilon.denominator}",
        "h": reduction.h,
        "H": reduction.h_big,
        "n": len(reduction.x),
        "target_cost": str(reduction.target_cost),
    }
