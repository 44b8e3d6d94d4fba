from __future__ import annotations

import pytest

from rfplan.baselines import (
    ALREADY_GOAL,
    FAILED,
    SOLVED,
    UNREACHABLE,
    GreedyResult,
    OracleCapExceeded,
    greedy_plan,
    oracle_plan,
)
from rfplan.discretize import build_partitions, enumerate_states
from rfplan.forest import FeatureMeta, Leaf, RandomForest, Split
from rfplan.offline import SearchParams, find_preferred_goal
from rfplan.sas_core import (
    ActionError,
    ActionLibrary,
    CostModel,
    default_action_library,
    simulate_step,
)


# ---------------------------------------------------------------------------
# greedy on the toy model


def test_greedy_fails_on_plateau(toy_forest, toy_table, unit_library, toy_params):
    # from the all-low state no single action changes the vote, so the
    # climber has nothing to grab onto even though a plan exists
    res = greedy_plan((0, 0, 0), unit_library, toy_forest, toy_table, toy_params)
    assert res.status == FAILED and not res.solved
    assert res.plan is None
    assert res.visited == ((0, 0, 0),)
    exact = find_preferred_goal((0, 0, 0), unit_library, toy_forest, toy_table, toy_params)
    assert exact.found and exact.cost == 3.0


def test_greedy_solves_one_step_cases(toy_forest, toy_table, unit_library, toy_params):
    for start in ((0, 1, 1), (1, 1, 1)):
        res = greedy_plan(start, unit_library, toy_forest, toy_table, toy_params)
        assert res.status == SOLVED and res.solved
        assert res.plan.cost == 1.0
        assert res.plan.action_ids() == [["balance:1->2"]]
        assert res.visited == (start, res.plan.goal)


def test_greedy_already_goal(toy_forest, toy_table, unit_library, toy_params):
    res = greedy_plan((0, 1, 2), unit_library, toy_forest, toy_table, toy_params)
    assert res.status == ALREADY_GOAL and res.solved
    assert res.plan.cost == 0.0 and res.plan.steps == ()
    assert res.visited == ((0, 1, 2),)


def test_greedy_unknown_rule(toy_forest, toy_table, unit_library, toy_params):
    with pytest.raises(ActionError, match="unknown greedy rule"):
        greedy_plan((0, 0, 0), unit_library, toy_forest, toy_table, toy_params, rule="best")


def test_greedy_is_single_action_steps(toy_forest, toy_table, unit_library, toy_params):
    res = greedy_plan((0, 0, 2), unit_library, toy_forest, toy_table, toy_params)
    assert res.solved
    assert all(len(step) == 1 for step in res.plan.steps)
    assert isinstance(res, GreedyResult)


# ---------------------------------------------------------------------------
# scoring-rule divergence

# Four unit-weight trees over two soft numerical features: two trees vote
# 1 when f0 lands in its top cell, one when f1 does, one never.  With
# z = 0.7 the single goal cell is (2, 1).


@pytest.fixture(scope="module")
def steep_forest():
    f0_deep = Split(
        feature=0,
        threshold=1.0,
        left=Leaf(0),
        right=Split(feature=0, threshold=2.0, left=Leaf(0), right=Leaf(1)),
    )
    f0_flat = Split(feature=0, threshold=2.0, left=Leaf(0), right=Leaf(1))
    f1_tree = Split(feature=1, threshold=1.0, left=Leaf(0), right=Leaf(1))
    forest = RandomForest(
        features=(
            FeatureMeta(name="f0", kind="numerical"),
            FeatureMeta(name="f1", kind="numerical"),
        ),
        classes=(0, 1),
        trees=(f0_deep, f0_flat, f1_tree, Leaf(0)),
        weights=(1.0, 1.0, 1.0, 1.0),
    )
    return forest


@pytest.fixture(scope="module")
def steep_setup(steep_forest):
    table = build_partitions(steep_forest)
    assert table.sizes == (3, 2)
    lib = default_action_library(table, CostModel.unit(2))
    params = SearchParams(target=1, z=0.7)
    return steep_forest, table, lib, params


def test_rules_pick_different_first_actions(steep_setup):
    forest, table, lib, params = steep_setup
    first = {}
    for rule in ("ratio", "max_gain", "min_cost"):
        res = greedy_plan((0, 0), lib, forest, table, params, rule=rule)
        assert res.solved, rule
        first[rule] = res.plan.action_ids()[0][0]
    # a cheap small gain via f1 against an expensive jump via f0
    assert first["ratio"] == "f1:0->1"
    assert first["min_cost"] == "f1:0->1"
    assert first["max_gain"] == "f0:0->2"


def test_greedy_pays_for_its_shortsightedness(steep_setup):
    forest, table, lib, params = steep_setup
    greedy = greedy_plan((0, 0), lib, forest, table, params)
    oracle = oracle_plan((0, 0), lib, forest, table, params)
    assert greedy.plan.cost == 5.0
    assert oracle.plan.cost == 3.0, "stepping f0 twice is invisible to the climber"
    assert greedy.plan.goal == oracle.plan.goal == (2, 1)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_matches_exhaustive_search(toy_forest, toy_table, unit_library, toy_params):
    for s in enumerate_states(toy_table):
        oracle = oracle_plan(s, unit_library, toy_forest, toy_table, toy_params)
        exact = find_preferred_goal(s, unit_library, toy_forest, toy_table, toy_params)
        assert oracle.solved == exact.found
        if oracle.solved:
            assert oracle.cost == exact.cost
            assert oracle.plan.goal == exact.goal


def test_oracle_plan_executes(toy_forest, toy_table, unit_library, toy_params):
    res = oracle_plan((0, 0, 0), unit_library, toy_forest, toy_table, toy_params)
    assert res.status == SOLVED and res.plan.cost == 3.0
    s = (0, 0, 0)
    for (action,) in res.plan.steps:
        s = simulate_step(s, (action,))
    assert s == res.plan.goal == (0, 1, 2)
    assert res.expansions > 0


def test_oracle_already_goal(toy_forest, toy_table, unit_library, toy_params):
    res = oracle_plan((1, 1, 2), unit_library, toy_forest, toy_table, toy_params)
    assert res.status == ALREADY_GOAL
    assert res.plan.cost == 0.0 and res.expansions == 0


def test_oracle_unreachable_without_actions(toy_forest, toy_table, toy_params):
    res = oracle_plan((0, 0, 0), ActionLibrary(actions=()), toy_forest, toy_table, toy_params)
    assert res.status == UNREACHABLE and not res.solved
    assert res.plan is None
    assert res.cost == float("inf")


def test_oracle_cap(toy_forest, toy_table, unit_library, toy_params):
    with pytest.raises(OracleCapExceeded, match="raise the cap"):
        oracle_plan((0, 0, 0), unit_library, toy_forest, toy_table, toy_params, cap=1)
