"""Similarity over discretized states and k-nearest goal lookup.

Per-feature similarity: categorical features score 1 on the same
partition and 0 otherwise; a numerical feature with n partitions scores
1 - |i - i'| / (n - 1), and 1 by convention when n is 1.  The state
similarity is the weighted mean of the per-feature scores, except that
any disagreement on a hard feature forces it to 0: a stored state that
differs in an unchangeable attribute can never be reached.

All similarity arithmetic is exact, so rankings and equality comparisons
carry no rounding noise.  ``state_similarity`` computes one similarity
with fractions.Fraction and is the reference; ``k_nearest`` scores every
stored state with integers over one common denominator and returns the
same Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .discretize import PartitionTable, State, check_state
from .forest import ModelError, RandomForest
from .offline import GoalDatabase, PreferredGoalEntry


@dataclass(frozen=True)
class SimilarityWeights:
    """Per-feature weights; non-negative with a positive total."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        for i, v in enumerate(vals):
            if v < 0:
                raise ModelError(f"similarity weight {i} must be >= 0, got {v}")
        if sum(vals) <= 0:
            raise ModelError("similarity weights must not all be zero")
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, m: int) -> "SimilarityWeights":
        return cls(values=tuple(Fraction(1, m) for _ in range(m)))

    @classmethod
    def from_forest(cls, forest: RandomForest) -> "SimilarityWeights":
        """Split-frequency weights: how often each feature is tested.

        Falls back to uniform when the forest contains no splits at all.
        """
        from .forest import Leaf

        counts = [0] * len(forest.features)
        for tree in forest.trees:
            stack = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, Leaf):
                    continue
                counts[node.feature] += 1
                stack.append(node.left)
                stack.append(node.right)
        total = sum(counts)
        if total == 0:
            return cls.uniform(len(forest.features))
        return cls(values=tuple(Fraction(c, total) for c in counts))


def feature_similarity(s1: State, s2: State, i: int, table: PartitionTable) -> Fraction:
    meta = table.features[i]
    n = table.sizes[i]
    if meta.is_categorical:
        return Fraction(1) if s1[i] == s2[i] else Fraction(0)
    if n == 1:
        return Fraction(1)
    return 1 - Fraction(abs(s1[i] - s2[i]), n - 1)


def state_similarity(
    s1: State, s2: State, weights: SimilarityWeights, table: PartitionTable
) -> Fraction:
    s1 = check_state(table, s1)
    s2 = check_state(table, s2)
    if len(weights.values) != len(table.features):
        raise ModelError(
            f"{len(weights.values)} similarity weights for {len(table.features)} features"
        )
    for i, meta in enumerate(table.features):
        if not meta.is_soft and s1[i] != s2[i]:
            return Fraction(0)
    num = sum(
        w * feature_similarity(s1, s2, i, table)
        for i, w in enumerate(weights.values)
    )
    return num / sum(weights.values)


def k_nearest(
    s: State,
    db: GoalDatabase,
    k: int,
    weights: SimilarityWeights,
    table: PartitionTable,
) -> list[tuple[State, PreferredGoalEntry, Fraction]]:
    """The k most similar stored states that actually carry a goal.

    Entries with zero similarity or without a goal are skipped.  Ties
    break toward the lower stored cost, then the lexicographically
    smaller state.
    """
    if k < 1:
        raise ModelError(f"k must be >= 1, got {k}")
    s = check_state(table, s)
    features, sizes = table.features, table.sizes
    if len(weights.values) != len(features):
        raise ModelError(f"{len(weights.values)} similarity weights for {len(features)} features")
    # Every similarity is score / denom with one integer denom: the lcm of
    # the weights' denominators times the lcm of the numerical n - 1.
    # gain[i][u] is the score feature i adds for a candidate value u.
    wden = math.lcm(*(w.denominator for w in weights.values))
    fden = math.lcm(*(n - 1 for meta, n in zip(features, sizes)
                      if not meta.is_categorical and n > 1))
    gain = []
    denom = 0
    for meta, n, w, v in zip(features, sizes, weights.values, s):
        wi = w.numerator * (wden // w.denominator)
        denom += wi * fden
        if meta.is_categorical:
            gain.append([wi * fden if u == v else 0 for u in range(n)])
        elif n == 1:
            gain.append([wi * fden])
        else:
            step = fden // (n - 1)
            gain.append([wi * (fden - abs(u - v) * step) for u in range(n)])
    hard = [i for i, meta in enumerate(features) if not meta.is_soft]
    domains = [range(n) for n in sizes]

    scored = []
    for cand, entry in db.entries.items():
        if not entry.found:
            continue
        if len(cand) != len(domains) or not all(
            type(u) is int and u in r for u, r in zip(cand, domains)
        ):
            cand = check_state(table, cand)  # raises for a state off the grid
        if any(cand[i] != s[i] for i in hard):
            continue
        score = sum([row[u] for row, u in zip(gain, cand)])
        if score:
            scored.append((-score, entry.cost, cand, entry))
    scored.sort(key=lambda row: row[:3])
    return [(cand, entry, Fraction(-neg, denom)) for neg, _, cand, entry in scored[:k]]
