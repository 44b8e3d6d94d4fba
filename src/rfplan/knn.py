"""Similarity over discretized states and k-nearest goal lookup.

Per-feature similarity: categorical features score 1 on the same
partition and 0 otherwise; a numerical feature with n partitions scores
1 - |i - i'| / (n - 1), and 1 by convention when n is 1.  The state
similarity is the weighted mean of the per-feature scores, except that
any disagreement on a hard feature forces it to 0: a stored state that
differs in an unchangeable attribute can never be reached.

All similarity arithmetic is exact, so rankings and equality comparisons
carry no rounding noise: ``k_nearest`` scores every stored state with
integers over one common denominator and returns each similarity as a
fractions.Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .discretize import PartitionTable, State, check_state
from .forest import ModelError, check_count
from .offline import GoalDatabase, PreferredGoalEntry


def k_nearest(
    s: State,
    db: GoalDatabase,
    k: int,
    weights: tuple[int, ...],
    table: PartitionTable,
) -> list[tuple[State, PreferredGoalEntry, Fraction]]:
    """The k most similar stored states that actually carry a goal, under
    ``weights``: one int >= 0 per feature, with a positive total.

    Entries with zero similarity or without a goal are skipped.  Ties
    break toward the lower stored cost, then the lexicographically
    smaller state.
    """
    check_count("k", k, 1, ModelError)
    s = check_state(table, s)
    features, sizes = table.features, table.sizes
    if len(weights) != len(features):
        raise ModelError(f"{len(weights)} similarity weights for {len(features)} features")
    for i, w in enumerate(weights):
        check_count(f"similarity weight {i}", w, 0, ModelError)
    if not any(weights):
        raise ModelError("similarity weights must not all be zero")
    # Every similarity is score / denom with one integer denom: the weights'
    # total times the lcm of the numerical n - 1.  gain[i][u] is the score
    # feature i adds for a candidate value u.
    fden = math.lcm(*(n - 1 for meta, n in zip(features, sizes)
                      if not meta.is_categorical and n > 1))
    denom = sum(weights) * fden
    gain = []
    for meta, n, w, v in zip(features, sizes, weights, s):
        if meta.is_categorical:
            gain.append([w * fden if u == v else 0 for u in range(n)])
        elif n == 1:
            gain.append([w * fden])
        else:
            step = fden // (n - 1)
            gain.append([w * (fden - abs(u - v) * step) for u in range(n)])
    hard = [i for i, meta in enumerate(features) if not meta.is_soft]

    scored = []
    for cand, entry in db.entries.items():
        if not entry.found:
            continue
        cand = check_state(table, cand)  # raises for a state off the grid
        if any(cand[i] != s[i] for i in hard):
            continue
        score = sum([row[u] for row, u in zip(gain, cand)])
        if score:
            scored.append((-score, entry.cost, cand, entry))
    scored.sort(key=lambda row: row[:3])
    return [(cand, entry, Fraction(-neg, denom)) for neg, _, cand, entry in scored[:k]]
