"""Discretization of the input space into per-feature partitions.

Every threshold a forest tests on a numerical feature becomes a partition
boundary: n distinct thresholds b_1 < ... < b_n give the n+1 half-open
cells (-inf, b_1), [b_1, b_2), ..., [b_n, +inf).  Categorical features
partition into one cell per category.  Two vectors in the same cell of
every feature reach identical leaves in every tree, so the forest output
is a function of the discretized state alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .forest import (
    FeatureMeta,
    Label,
    Leaf,
    ModelError,
    RandomForest,
    Split,
    Vector,
    _check_vector,
)

State = tuple[int, ...]


class StateError(ValueError):
    """State outside the partition table's domain."""


@dataclass(frozen=True)
class PartitionTable:
    """Per-feature partition boundaries harvested from one forest."""

    features: tuple[FeatureMeta, ...]
    thresholds: tuple[tuple[float, ...], ...]  # empty tuple for categorical features

    def __post_init__(self):
        if len(self.features) != len(self.thresholds):
            raise ModelError("one threshold list per feature required")
        for meta, ths in zip(self.features, self.thresholds):
            if meta.is_categorical and ths:
                raise ModelError(f"feature {meta.name!r}: categorical features take no thresholds")
            if list(ths) != sorted(set(ths)):
                raise ModelError(f"feature {meta.name!r}: thresholds must be sorted and distinct")

    @property
    def sizes(self) -> tuple[int, ...]:
        """Number of partitions per feature."""
        return tuple(
            len(meta.categories) if meta.is_categorical else len(ths) + 1
            for meta, ths in zip(self.features, self.thresholds)
        )

    @property
    def state_count(self) -> int:
        return math.prod(self.sizes)


def build_partitions(forest: RandomForest) -> PartitionTable:
    """Collect the distinct thresholds each numerical feature is tested against."""
    per_feature: list[set[float]] = [set() for _ in forest.features]
    for tree in forest.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                continue
            if node.threshold is not None:
                per_feature[node.feature].add(float(node.threshold))
            stack.append(node.left)
            stack.append(node.right)
    return PartitionTable(
        features=forest.features,
        thresholds=tuple(
            () if meta.is_categorical else tuple(sorted(per_feature[i]))
            for i, meta in enumerate(forest.features)
        ),
    )


def check_state(table: PartitionTable, s: Sequence[int]) -> State:
    sizes = table.sizes
    if len(s) != len(sizes):
        raise StateError(f"state has {len(s)} coordinates, table declares {len(sizes)}")
    for i, (v, n) in enumerate(zip(s, sizes)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise StateError(f"coordinate {i}: partition index must be an int, got {v!r}")
        if not 0 <= v < n:
            raise StateError(f"coordinate {i}: index {v} outside [0, {n})")
    return tuple(s)


def to_state(table: PartitionTable, x: Vector) -> State:
    """Map a raw vector to its tuple of partition indices."""
    _check_vector(table.features, x)
    out = []
    for meta, ths, value in zip(table.features, table.thresholds, x):
        if meta.is_categorical:
            out.append(meta.categories.index(value))
        else:
            out.append(bisect_right(ths, value))
    return tuple(out)


def representative(table: PartitionTable, s: Sequence[int]) -> tuple:
    """A concrete vector inside the cell of ``s``.

    Bounded numerical cells take their midpoint; the open end cells sit one
    unit beyond the boundary; features the forest never splits on map to 0.
    """
    s = check_state(table, s)
    out = []
    for meta, ths, j in zip(table.features, table.thresholds, s):
        if meta.is_categorical:
            out.append(meta.categories[j])
        elif not ths:
            out.append(0.0)
        elif j == 0:
            out.append(ths[0] - 1.0)
        elif j == len(ths):
            out.append(ths[-1] + 1.0)
        else:
            out.append((ths[j - 1] + ths[j]) / 2.0)
    return tuple(out)


def state_proba(forest: RandomForest, table: PartitionTable, s: Sequence[int], c: Label) -> float:
    """Vote share of class ``c`` anywhere in the cell of ``s``."""
    return forest.class_proba(representative(table, s), c)


def enumerate_states(table: PartitionTable, cap: int | None = None) -> Iterator[State]:
    """All states in lexicographic order; refuses to run past ``cap`` states."""
    total = table.state_count
    if cap is not None and total > cap:
        raise StateError(f"state space has {total} states, above the cap of {cap}")
    yield from product(*(range(n) for n in table.sizes))


class StateEvaluator:
    """Memoized p(target | state) lookups for search loops."""

    def __init__(self, forest: RandomForest, table: PartitionTable, target: Label):
        if target not in forest.classes:
            raise ModelError(f"unknown class {target!r}")
        self.forest = forest
        self.table = table
        self.target = target
        self._cache: dict[State, float] = {}

    def proba(self, s: State) -> float:
        p = self._cache.get(s)
        if p is None:
            p = state_proba(self.forest, self.table, s, self.target)
            self._cache[s] = p
        return p
