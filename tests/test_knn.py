from __future__ import annotations

from fractions import Fraction

import pytest

from rfplan import encoder
from rfplan.discretize import build_partitions
from rfplan.encoder import build_sas
from rfplan.forest import Leaf, ModelError, RandomForest, fingerprint
from rfplan.knn import k_nearest
from rfplan.offline import GoalDatabase

from helpers import feature_similarity, state_similarity


# ---------------------------------------------------------------------------
# weights


class _Seen(Exception):
    """Raised by the k_nearest spy once it has the weights build_sas passes."""


def _build_sas_weights(monkeypatch, s, db, forest, table, library):
    def spy(s, db, k, weights, table):
        raise _Seen(weights)
    monkeypatch.setattr(encoder, "k_nearest", spy)
    with pytest.raises(_Seen) as seen:
        build_sas(s, db, 3, forest, table, library)
    return seen.value.args[0]


def test_uniform_weights(monkeypatch, toy_forest, unit_library, toy_params):
    # a forest that never splits weighs every feature 1
    flat = RandomForest(features=toy_forest.features, classes=toy_forest.classes,
                        trees=(Leaf(label=0),), weights=(1.0,))
    db = GoalDatabase(fingerprint=fingerprint(flat), params=toy_params, entries={})
    assert _build_sas_weights(monkeypatch, (0, 0, 0), db, flat, build_partitions(flat),
                              unit_library) == (1, 1, 1)


def test_weights_validation(toy_db, toy_table):
    for bad, needle in [((1, -1, 1), "similarity weight 1 must be >= 0, got -1"),
                        ((0, 0, 0), "similarity weights must not all be zero"),
                        ((1, Fraction(1, 2), 1), "similarity weight 1 must be an int"),
                        ((1, True, 1), "similarity weight 1 must be an int"),
                        ((1, 1), "2 similarity weights for 3 features")]:
        with pytest.raises(ModelError, match=needle):
            k_nearest((0, 0, 1), toy_db, 3, bad, toy_table)


def test_split_frequency_weights(monkeypatch, toy_forest, toy_table, unit_library, toy_db):
    # gender never splits, visits twice, balance three times
    assert _build_sas_weights(monkeypatch, (0, 0, 1), toy_db, toy_forest, toy_table,
                              unit_library) == (0, 2, 3)


# ---------------------------------------------------------------------------
# per-feature and state similarity


def test_feature_similarity_numerical(toy_table):
    # balance has 3 partitions: distance scaled by n - 1 = 2
    assert feature_similarity((0, 0, 0), (0, 0, 0), 2, toy_table) == 1
    assert feature_similarity((0, 0, 0), (0, 0, 1), 2, toy_table) == Fraction(1, 2)
    assert feature_similarity((0, 0, 0), (0, 0, 2), 2, toy_table) == 0
    # visits has 2 partitions
    assert feature_similarity((0, 0, 0), (0, 1, 0), 1, toy_table) == 0


def test_feature_similarity_categorical(toy_table):
    assert feature_similarity((0, 0, 0), (0, 0, 0), 0, toy_table) == 1
    assert feature_similarity((0, 0, 0), (1, 0, 0), 0, toy_table) == 0


def test_feature_similarity_single_cell_is_one():
    from rfplan.forest import FeatureMeta
    from rfplan.discretize import PartitionTable

    table = PartitionTable(
        features=(FeatureMeta(name="idle", kind="numerical", mutability="soft"),),
        thresholds=((),),
    )
    assert feature_similarity((0,), (0,), 0, table) == 1


def test_state_similarity_toy_values(toy_table):
    w = (1, 1, 1)
    # same gender cell keeps the hard feature at similarity 1
    assert state_similarity((0, 0, 1), (0, 0, 0), w, toy_table) == Fraction(5, 6)
    assert state_similarity((0, 0, 1), (0, 1, 0), w, toy_table) == Fraction(1, 2)
    assert state_similarity((0, 0, 1), (0, 1, 1), w, toy_table) == Fraction(2, 3)
    assert state_similarity((0, 0, 1), (0, 0, 1), w, toy_table) == 1


def test_state_similarity_hard_mismatch_is_zero(toy_table):
    w = (1, 1, 1)
    # disagreeing on gender zeroes everything else out
    assert state_similarity((0, 1, 2), (1, 1, 2), w, toy_table) == 0


def test_state_similarity_is_symmetric_and_exact(toy_table):
    w = (1, 2, 4)
    a, b = (0, 0, 2), (0, 1, 0)
    left = state_similarity(a, b, w, toy_table)
    right = state_similarity(b, a, w, toy_table)
    assert left == right
    assert isinstance(left, Fraction)
    # 1/7 * 1 + 2/7 * 0 + 4/7 * 0 = 1/7
    assert left == Fraction(1, 7)


def test_state_similarity_weight_count_mismatch(toy_table):
    with pytest.raises(ModelError, match="3 features"):
        state_similarity((0, 0, 0), (0, 0, 0), (1, 1), toy_table)


# ---------------------------------------------------------------------------
# k-nearest lookup


def test_k_nearest_ranking(toy_db, toy_table):
    w = (1, 1, 1)
    out = k_nearest((0, 0, 1), toy_db, 3, w, toy_table)
    states = [cand for cand, _, _ in out]
    sims = [sim for _, _, sim in out]
    # the state's own entry ranks first; the two 5/6 ties break on cost
    assert states == [(0, 0, 1), (0, 0, 2), (0, 0, 0)]
    assert sims == [1, Fraction(5, 6), Fraction(5, 6)]
    assert out[1][1].cost == 1.0 and out[2][1].cost == 3.0


def test_k_nearest_excludes_other_gender(toy_db, toy_table):
    w = (1, 1, 1)
    out = k_nearest((0, 0, 1), toy_db, 100, w, toy_table)
    assert len(out) == 6, "only the six same-gender states can score above zero"
    assert all(cand[0] == 0 for cand, _, _ in out)


def test_k_nearest_excludes_entries_without_goal(toy_db, toy_table, toy_params):
    from rfplan.offline import NO_GOAL, GoalDatabase, PreferredGoalEntry

    entries = dict(toy_db.entries)
    entries[(0, 0, 2)] = PreferredGoalEntry(
        initial=(0, 0, 2), goal=None, cost=None, expansions=1, status=NO_GOAL
    )
    db = GoalDatabase(fingerprint=toy_db.fingerprint, params=toy_params, entries=entries)
    out = k_nearest((0, 0, 1), db, 3, (1, 1, 1), toy_table)
    assert [cand for cand, _, _ in out] == [(0, 0, 1), (0, 0, 0), (0, 1, 1)]


def test_k_nearest_k_validation(toy_db, toy_table):
    with pytest.raises(ModelError, match="k must be"):
        k_nearest((0, 0, 1), toy_db, 0, (1, 1, 1), toy_table)


def test_k_nearest_handles_small_db(toy_db, toy_table):
    w = (1, 1, 1)
    out = k_nearest((1, 0, 0), toy_db, 50, w, toy_table)
    assert 0 < len(out) <= 6
    sims = [sim for _, _, sim in out]
    assert sims == sorted(sims, reverse=True)


def test_k_nearest_equals_a_sort_on_state_similarity():
    """Integer scoring against the Fraction reference, on every pair of
    cells of a grid with categorical, hard, single-cell and numerical
    features of several sizes, uneven weights (one zero), tied costs and
    goal-less entries."""
    from rfplan.discretize import PartitionTable, enumerate_states
    from rfplan.forest import FeatureMeta
    from rfplan.offline import NO_GOAL, PROVED_EXHAUSTED, GoalDatabase, PreferredGoalEntry, SearchParams

    table = PartitionTable(
        features=(
            FeatureMeta(name="colour", kind="categorical", categories=("r", "g", "b")),
            FeatureMeta(name="kind", kind="categorical", mutability="hard", categories=("x", "y")),
            FeatureMeta(name="age", kind="numerical"),
            FeatureMeta(name="height", kind="numerical", mutability="hard"),
            FeatureMeta(name="idle", kind="numerical"),
            FeatureMeta(name="load", kind="numerical"),
        ),
        thresholds=((), (), (1.0, 2.0, 3.0), (5.0,), (), (0.5, 1.5)),
    )
    # 1/3, 2/7, 0, 1/5, 1/2 and 3/11, scaled by their lcm 2310
    weights = (770, 660, 0, 462, 1155, 630)
    cells = list(enumerate_states(table))
    entries = {}
    for i, c in enumerate(cells):
        if i % 7 == 3:
            entries[c] = PreferredGoalEntry(initial=c, goal=None, cost=None, expansions=0,
                                            status=NO_GOAL)
        else:
            entries[c] = PreferredGoalEntry(initial=c, goal=c, cost=float(i % 2), expansions=0,
                                            status=PROVED_EXHAUSTED)
    db = GoalDatabase(fingerprint="-", params=SearchParams(target=1, z=0.5), entries=entries)

    for s in cells:
        ref = sorted(
            ((state_similarity(s, c, weights, table), e.cost, c, e)
             for c, e in entries.items() if e.found),
            key=lambda row: (-row[0], row[1], row[2]),
        )
        ref = [(c, e, sim) for sim, _, c, e in ref if sim != 0]
        got = k_nearest(s, db, len(cells), weights, table)
        assert got == ref
        assert all(type(sim) is Fraction for _, _, sim in got)
        assert k_nearest(s, db, 3, weights, table) == ref[:3]
        # scaling every weight moves neither the ranking nor a similarity
        assert k_nearest(s, db, len(cells), tuple(3 * w for w in weights), table) == got
    with pytest.raises(ModelError, match="6 features"):
        k_nearest(cells[0], db, 3, (1,) * 5, table)
    # a stored state off the grid is rejected, not scored
    from rfplan.discretize import StateError

    for bad in ((0, 0, 0, 0, 0, 3), (0, 0, 0, 0, -1, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1.5)):
        off = GoalDatabase(fingerprint="-", params=db.params, entries={
            **entries, bad: PreferredGoalEntry(initial=bad, goal=cells[0], cost=1.0,
                                               expansions=0, status=PROVED_EXHAUSTED)})
        with pytest.raises(StateError):
            k_nearest(cells[0], off, 3, weights, table)
