"""Discretization of the input space into per-feature partitions.

Every threshold a forest tests on a numerical feature becomes a partition
boundary: n distinct thresholds b_1 < ... < b_n give the n+1 half-open
cells (-inf, b_1), [b_1, b_2), ..., [b_n, +inf).  Categorical features
partition into one cell per category.  Two vectors in the same cell of
every feature reach identical leaves in every tree, so the forest output
is a function of the discretized state alone.

A state is evaluated on its partition indices, without a concrete vector.
Each tree is rewritten once per (forest, table, class) so that a split on
feature i holds, for every cell j of feature i, the child that cell goes
to: a numerical ``x < b_k`` sends the cells j < k left, a categorical
split sends its categories' cells left.  A leaf holds its tree's weight
if its label is the class, else 0.0.  ``state_proba`` walks these trees,
sums the leaves in tree order and divides by the weight total, the same
arithmetic as ``RandomForest.class_distribution``, so a state's share
equals the share of any vector in its cell.  The rewritten trees are
kept beside the forest's fields, like its fingerprint, out of its
equality, hash and repr.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Number of partitions per feature (computed once, out of equality, hash and repr)."""
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


def _indexed_trees(
    forest: RandomForest, table: PartitionTable, c: Label
) -> tuple[PartitionTable, tuple, float]:
    """The forest's trees as tests on ``table``'s partition indices, for class ``c``.

    A split becomes ``(feature, branches)`` with ``branches[j]`` the child
    that cell j of the feature goes to; a leaf becomes its tree's weight if
    it votes ``c``, else 0.0.  Returns the table, the trees and the weight
    total.  One set per class is kept beside the forest's fields, like its
    fingerprint; it is rebuilt only for a table of other content.
    """
    slots = forest.__dict__.setdefault("_indexed_trees", {})
    hit = slots.get(c)
    if hit is not None and (hit[0] is table or hit[0] == table):
        return hit
    if c not in forest.classes:
        raise ModelError(f"unknown class {c!r}")
    if table.features != forest.features:
        raise ModelError("partition table was not built over the forest's features")
    cells = [{th: k + 1 for k, th in enumerate(ths)} for ths in table.thresholds]
    trees = []
    for tree, w in zip(forest.trees, forest.weights):
        # post-order over (node, children done): each split reads its two
        # compiled children off the top of ``done``
        done: list = []
        todo: list = [(tree, False)]
        while todo:
            node, ready = todo.pop()
            if isinstance(node, Leaf):
                done.append(w if node.label == c else 0.0)
            elif not ready:
                todo += ((node, True), (node.right, False), (node.left, False))
            else:
                right = done.pop()
                left = done.pop()
                meta = table.features[node.feature]
                if node.threshold is not None:
                    k = cells[node.feature].get(float(node.threshold))
                    if k is None:
                        raise ModelError(
                            f"partition table lacks threshold {node.threshold} on {meta.name!r}"
                        )
                    size = len(table.thresholds[node.feature]) + 1
                    branches = (left,) * k + (right,) * (size - k)
                else:
                    branches = tuple(
                        left if cat in node.categories else right for cat in meta.categories
                    )
                # a split whose branches give the same share is left out
                done.append(left if left == right else (node.feature, branches))
        trees.append(done.pop())
    hit = slots[c] = (table, tuple(trees), sum(forest.weights))
    return hit


def state_proba(forest: RandomForest, table: PartitionTable, s: Sequence[int], c: Label) -> float:
    """Vote share of class ``c`` anywhere in the cell of ``s``."""
    s = check_state(table, s)
    _, trees, total = _indexed_trees(forest, table, c)
    share = 0.0
    for node in trees:
        while node.__class__ is tuple:
            node = node[1][s[node[0]]]
        share += node
    return share / total


def enumerate_states(table: PartitionTable, cap: int | None = None) -> Iterator[State]:
    """All states in lexicographic order; refuses to run past ``cap`` states."""
    if cap is not None and cap < 1:
        raise StateError(f"cap must be >= 1, got {cap}")
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
