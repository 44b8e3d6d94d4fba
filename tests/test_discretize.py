from __future__ import annotations

import random

import pytest

from rfplan.discretize import (
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

from helpers import random_soft_forest, random_state


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
