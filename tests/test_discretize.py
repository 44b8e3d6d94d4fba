from __future__ import annotations

import pickle
import random

import pytest

from rfplan.discretize import (
    PartitionTable,
    StateError,
    StateEvaluator,
    build_partitions,
    check_state,
    enumerate_states,
    representative,
    state_proba,
    to_state,
)
from rfplan.forest import FeatureMeta, Leaf, ModelError, NUMERICAL, RandomForest, Split

from helpers import random_soft_forest, random_state, random_weighted_forest


def test_toy_partition_table(toy_table):
    assert toy_table.thresholds == ((), (5.0,), (1000.0, 1500.0))
    assert toy_table.sizes == (2, 2, 3)
    assert toy_table.state_count == 12


@pytest.mark.parametrize(
    "x,s",
    [
        (("male", 2, 500), (0, 0, 0)),
        (("male", 2, 1200), (0, 0, 1)),
        (("female", 7, 2000), (1, 1, 2)),
        (("male", 5, 1000), (0, 1, 1)),      # boundary values land right
        (("male", 4.999, 999.999), (0, 0, 0)),
        (("male", 2, 1500), (0, 0, 2)),
    ],
)
def test_to_state(toy_table, x, s):
    assert to_state(toy_table, x) == s


def test_to_state_validates(toy_table):
    # raw-vector problems surface as model errors, index problems as state errors
    with pytest.raises(ModelError, match="3 features"):
        to_state(toy_table, ("male", 2))
    with pytest.raises(ModelError, match="not in"):
        to_state(toy_table, ("robot", 2, 500))


def test_check_state(toy_table):
    assert check_state(toy_table, [0, 1, 2]) == (0, 1, 2)
    with pytest.raises(StateError, match="coordinates"):
        check_state(toy_table, (0, 1))
    with pytest.raises(StateError, match="outside"):
        check_state(toy_table, (0, 2, 0))
    with pytest.raises(StateError, match="outside"):
        check_state(toy_table, (0, -1, 0))


def test_representative_values(toy_table):
    assert representative(toy_table, (0, 1, 2)) == ("male", 6.0, 1501.0)
    assert representative(toy_table, (1, 0, 0)) == ("female", 4.0, 999.0)
    assert representative(toy_table, (0, 0, 1)) == ("male", 4.0, 1250.0)


def test_representative_never_split_numerical():
    meta = (FeatureMeta(name="x", kind=NUMERICAL),
            FeatureMeta(name="y", kind=NUMERICAL))
    forest = RandomForest(
        features=meta, classes=(0, 1),
        trees=(Split(feature=0, threshold=2.0, left=Leaf(label=0), right=Leaf(label=1)),),
        weights=(1.0,),
    )
    table = build_partitions(forest)
    assert table.sizes == (2, 1)
    assert representative(table, (0, 0)) == (1.0, 0.0)
    assert to_state(table, (95.0, -3.0)) == (1, 0)


def test_representative_roundtrip_everywhere(toy_table):
    for s in enumerate_states(toy_table):
        assert to_state(toy_table, representative(toy_table, s)) == s


@pytest.mark.parametrize("seed", range(10))
def test_representative_roundtrip_random(seed):
    _, table = random_soft_forest(seed)
    rng = random.Random(seed)
    for _ in range(20):
        s = random_state(rng, table)
        assert to_state(table, representative(table, s)) == s


def test_enumerate_states(toy_table):
    states = list(enumerate_states(toy_table))
    assert len(states) == 12
    assert states[0] == (0, 0, 0)
    assert states[-1] == (1, 1, 2)
    assert states == sorted(states)
    with pytest.raises(StateError, match="cap"):
        list(enumerate_states(toy_table, cap=5))


def _random_point_in_cell(rng, table, s):
    x = []
    for meta, ths, idx in zip(table.features, table.thresholds, s):
        if meta.is_categorical:
            x.append(meta.categories[idx])
            continue
        lo = ths[idx - 1] if idx > 0 else (ths[0] - 10.0 if ths else -10.0)
        hi = ths[idx] if idx < len(ths) else (ths[-1] + 10.0 if ths else 10.0)
        x.append(lo + (hi - lo) * rng.random())
    return tuple(x)


def test_partition_soundness_toy(toy_forest, toy_table):
    rng = random.Random(0)
    for s in enumerate_states(toy_table):
        ref = toy_forest.class_distribution(representative(toy_table, s))
        for _ in range(20):
            x = _random_point_in_cell(rng, toy_table, s)
            assert to_state(toy_table, x) == s
            assert toy_forest.class_distribution(x) == ref


def test_state_proba_and_label(toy_forest, toy_table):
    assert state_proba(toy_forest, toy_table, (0, 1, 2), 1) == 1.0
    assert state_proba(toy_forest, toy_table, (0, 0, 0), 1) == 0.0


def test_state_evaluator_matches_direct(toy_forest, toy_table):
    ev = StateEvaluator(toy_forest, toy_table, 1)
    for s in enumerate_states(toy_table):
        direct = state_proba(toy_forest, toy_table, s, 1)
        assert ev.proba(s) == direct
        assert ev.proba(s) == direct  # cached second read


@pytest.mark.parametrize("seed", range(16))
def test_state_proba_equals_the_vector_walk_on_every_cell(seed):
    forest, table = random_weighted_forest(seed)
    for s in enumerate_states(table):
        ref = forest.class_distribution(representative(table, s))
        for c in forest.classes:
            assert state_proba(forest, table, s, c) == ref[c]


def test_state_proba_on_a_finer_table(toy_forest, toy_table):
    # extra boundaries split cells; the shares still follow the forest
    finer = PartitionTable(
        features=toy_table.features,
        thresholds=tuple(ths + (ths[-1] + 7.0,) if ths else ths for ths in toy_table.thresholds),
    )
    assert finer.sizes != toy_table.sizes
    for s in enumerate_states(finer):
        ref = toy_forest.class_distribution(representative(finer, s))
        assert state_proba(toy_forest, finer, s, 1) == ref[1]


def test_state_proba_rejects_a_table_of_another_forest(toy_forest, toy_table):
    lacking = PartitionTable(
        features=toy_table.features,
        thresholds=tuple(ths[1:] if len(ths) > 1 else ths for ths in toy_table.thresholds),
    )
    with pytest.raises(ModelError, match="lacks threshold"):
        state_proba(toy_forest, lacking, (0, 0, 0), 1)
    renamed = PartitionTable(
        features=(toy_table.features[0], FeatureMeta("other", NUMERICAL),
                  toy_table.features[2]),
        thresholds=toy_table.thresholds,
    )
    with pytest.raises(ModelError, match="features"):
        state_proba(toy_forest, renamed, (0, 0, 0), 1)
    with pytest.raises(ModelError, match="unknown class"):
        state_proba(toy_forest, toy_table, (0, 0, 0), 7)
    with pytest.raises(StateError):
        state_proba(toy_forest, toy_table, (0, 2, 0), 1)
    # the table the forest was paired with still evaluates afterwards
    assert state_proba(toy_forest, toy_table, (0, 1, 2), 1) == 1.0


def test_indexed_trees_stay_out_of_equality_hash_and_repr():
    forest, table = random_weighted_forest(3)
    fresh, _ = random_weighted_forest(3)
    shares = [state_proba(forest, table, s, "mid") for s in enumerate_states(table)]
    assert forest == fresh and hash(forest) == hash(fresh) and repr(forest) == repr(fresh)
    again = pickle.loads(pickle.dumps(forest))
    assert [state_proba(again, table, s, "mid") for s in enumerate_states(table)] == shares


def test_table_sizes_stay_out_of_equality_hash_and_repr(toy_forest, toy_table):
    fresh = build_partitions(toy_forest)
    assert toy_table.sizes == (2, 2, 3)
    assert fresh == toy_table and hash(fresh) == hash(toy_table)
    assert repr(fresh) == repr(toy_table) and "sizes" not in repr(toy_table)
    assert pickle.loads(pickle.dumps(toy_table)).sizes == (2, 2, 3)
