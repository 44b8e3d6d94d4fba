from __future__ import annotations

import collections
import concurrent.futures
import math
import os
import random

import pytest

from helpers import (
    baseline_model, baseline_search_sample, entries_digest, random_action_spec,
    random_soft_forest, random_weighted_forest,
)
from rfplan import offline
from rfplan.baselines import oracle_plan
from rfplan.discretize import StateError, StateEvaluator, enumerate_states
from rfplan.forest import fingerprint
from rfplan.offline import (
    AUTO,
    BUDGET_STOP,
    NO_GOAL,
    PATIENCE_STOP,
    PROVED_EXHAUSTED,
    GoalDatabase,
    PreferredGoalEntry,
    SearchError,
    SearchParams,
    SuccessorTable,
    check_pairing,
    db_persist,
    db_restore,
    find_preferred_goal,
    heuristic,
    preprocess,
    resolve_alpha,
)
from rfplan.sas_core import (
    WILDCARD,
    Action,
    ActionLibrary,
    CostModel,
    Transition,
    default_action_library,
    load_action_spec,
    neighbors,
    simulate_step,
)


# ---------------------------------------------------------------------------
# parameters and heuristic


def test_params_defaults_and_roundtrip():
    p = SearchParams(target=1)
    assert p.z == 0.5 and p.alpha == AUTO
    assert SearchParams.from_dict(p.to_dict()) == p
    q = SearchParams(target="yes", z=0.7, alpha=2, patience=5, node_budget=9)
    assert q.alpha == 2.0 and isinstance(q.alpha, float)
    assert SearchParams.from_dict(q.to_dict()) == q


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(z=0.0), "z must"),
        (dict(z=1.5), "z must"),
        (dict(alpha=-0.1), "alpha must"),
        (dict(alpha="fast"), "alpha must"),
        (dict(alpha=True), "alpha must"),
        (dict(patience=0), "patience"),
        (dict(node_budget=0), "node_budget"),
        (dict(z="0.5"), "z must be a number"),
        (dict(z=True), "z must be a number"),
        (dict(patience=True), "patience must be an int,"),
        (dict(patience=2.5), "patience must be an int,"),
        (dict(node_budget="9"), "node_budget must be an int,"),
        (dict(node_budget=False), "node_budget must be an int,"),
    ],
)
def test_params_rejects(kwargs, needle):
    with pytest.raises(SearchError, match=needle):
        SearchParams(target=1, **kwargs)


def test_params_from_dict_missing_key():
    with pytest.raises(SearchError, match="missing"):
        SearchParams.from_dict({"target": 1, "z": 0.5})


def test_resolve_alpha(unit_library):
    assert resolve_alpha(SearchParams(target=1), unit_library) == 1.75
    assert resolve_alpha(SearchParams(target=1, alpha=2.5), unit_library) == 2.5


def test_heuristic_shape():
    assert heuristic(0.2, 0.5, 2.0) == pytest.approx(0.6)
    assert heuristic(0.5, 0.5, 2.0) == 0.0
    assert heuristic(0.9, 0.5, 2.0) == 0.0
    assert heuristic(0.2, 0.5, 0.0) == 0.0


# ---------------------------------------------------------------------------
# entry invariants


def test_entry_validation():
    with pytest.raises(SearchError, match="unknown status"):
        PreferredGoalEntry(initial=(0,), goal=(1,), cost=1.0, expansions=0, status="weird")
    with pytest.raises(SearchError, match="goal and cost must be both set or both absent"):
        PreferredGoalEntry(initial=(0,), goal=None, cost=1.0, expansions=0, status=BUDGET_STOP)
    with pytest.raises(SearchError, match="goal and cost must be both set or both absent"):
        PreferredGoalEntry(initial=(0,), goal=(1,), cost=None, expansions=0, status=PATIENCE_STOP)
    with pytest.raises(SearchError, match="a no_goal entry cannot have a goal"):
        PreferredGoalEntry(initial=(0,), goal=(1,), cost=1.0, expansions=0, status=NO_GOAL)
    with pytest.raises(SearchError, match="a proved_exhausted entry needs a goal"):
        PreferredGoalEntry(initial=(0,), goal=None, cost=None, expansions=0,
                           status=PROVED_EXHAUSTED)
    # a search cut off by a cap may stop before or after its first goal
    for status in (PATIENCE_STOP, BUDGET_STOP):
        assert PreferredGoalEntry(initial=(0,), goal=(1,), cost=1.0, expansions=2,
                                  status=status).found
        assert not PreferredGoalEntry(initial=(0,), goal=None, cost=None, expansions=2,
                                      status=status).found
    for cost in ("cheap", -1, -0.5, math.inf, math.nan, True):
        with pytest.raises(SearchError, match="cost must be a finite number >= 0"):
            PreferredGoalEntry(initial=(0,), goal=(1,), cost=cost, expansions=0,
                               status=PROVED_EXHAUSTED)
    for n in (-1, 2.0, "3", None, True):
        with pytest.raises(SearchError, match="expansions must be (an int|>= 0), got"):
            PreferredGoalEntry(initial=(0,), goal=None, cost=None, expansions=n, status=NO_GOAL)
    ok = PreferredGoalEntry(initial=(0,), goal=None, cost=None, expansions=3, status=NO_GOAL)
    assert not ok.found
    free = PreferredGoalEntry(initial=(0,), goal=(0,), cost=0, expansions=0, status=PROVED_EXHAUSTED)
    assert free.cost == 0


# ---------------------------------------------------------------------------
# single-state search on the toy model


def test_preferred_goals_toy(toy_forest, toy_table, unit_library, toy_params):
    expect = {
        (0, 0, 0): ((0, 1, 2), 3.0),
        (0, 1, 0): ((0, 1, 2), 2.0),
        (0, 1, 1): ((0, 1, 2), 1.0),
        (0, 0, 1): ((0, 1, 2), 2.0),
        (1, 0, 0): ((1, 1, 2), 3.0),
    }
    for s, (goal, cost) in expect.items():
        e = find_preferred_goal(s, unit_library, toy_forest, toy_table, toy_params)
        assert e.status == PROVED_EXHAUSTED
        assert (e.goal, e.cost) == (goal, cost)
        # the recorded path witnesses the goal at the recorded cost
        state = s
        total = 0.0
        for action in e.path:
            state = simulate_step(state, (action,))
            total += action.cost
        assert state == e.goal and total == e.cost


def test_already_goal_state(toy_forest, toy_table, unit_library, toy_params):
    e = find_preferred_goal((0, 1, 2), unit_library, toy_forest, toy_table, toy_params)
    assert e.status == PROVED_EXHAUSTED
    assert e.goal == (0, 1, 2) and e.cost == 0.0
    assert e.path == () and e.expansions == 0


def test_no_actions_means_no_goal(toy_forest, toy_table, toy_params):
    empty = ActionLibrary(actions=())
    e = find_preferred_goal((0, 0, 0), empty, toy_forest, toy_table, toy_params)
    assert e.status == NO_GOAL
    assert e.goal is None and e.cost is None and not e.found
    assert e.expansions == 1
    # a state that is already past the threshold still counts as found
    g = find_preferred_goal((0, 1, 2), empty, toy_forest, toy_table, toy_params)
    assert g.found and g.cost == 0.0


def test_budget_stop(toy_forest, toy_table, unit_library):
    params = SearchParams(target=1, z=0.5, alpha=0.0, node_budget=3)
    e = find_preferred_goal((0, 1, 1), unit_library, toy_forest, toy_table, params)
    assert e.status == BUDGET_STOP
    assert e.goal == (0, 1, 2) and e.cost == 1.0
    assert e.expansions == 3


def test_patience_gives_up_before_any_goal(toy_forest, toy_table, unit_library):
    params = SearchParams(target=1, z=0.5, alpha=0.0, patience=1)
    e = find_preferred_goal((0, 0, 0), unit_library, toy_forest, toy_table, params)
    # cut off, not exhausted: no_goal would claim that no goal is reachable
    assert e.status == PATIENCE_STOP and e.expansions == 1
    assert e.goal is None and e.cost is None and not e.found


def test_caps_count_the_expansions_done():
    forest, table, library = baseline_model()
    s = (0, 0, 0, 0)

    def search(**caps):
        return find_preferred_goal(s, library, forest, table,
                                   SearchParams(target=1, alpha=0.0, **caps))

    # the first goal pops after 48 expansions; popping it expands nothing
    assert search(node_budget=47).goal is None
    first = search(node_budget=48)
    assert (first.status, first.expansions, first.cost) == (BUDGET_STOP, 48, 248.0)
    for budget in (1, 2, 3, 5):
        e = search(node_budget=budget)
        assert (e.status, e.expansions, e.goal, e.cost) == (BUDGET_STOP, budget, None, None)
    e = search(patience=1)
    assert (e.status, e.expansions, e.goal) == (PATIENCE_STOP, 1, None)
    e = search(patience=50)
    assert (e.status, e.expansions, e.cost) == (PATIENCE_STOP, 48 + 50, 248.0)


def test_patience_stop_after_goal():
    forest, table = random_soft_forest(0)
    lib = default_action_library(table, CostModel((1.0,) * len(table.features)))
    eager = SearchParams(target=1, z=0.5, alpha=0.0, patience=1)
    e = find_preferred_goal((0, 0, 0, 2), lib, forest, table, eager)
    assert e.status == PATIENCE_STOP and e.found
    full = find_preferred_goal((0, 0, 0, 2), lib, forest, table, SearchParams(target=1, alpha=0.0))
    assert full.status == PROVED_EXHAUSTED
    # alpha=0 pops goals in cost order, so the early stop is already exact
    assert e.cost == full.cost
    assert e.expansions < full.expansions


def test_exhausted_search_is_alpha_independent(toy_forest, toy_table, unit_library):
    auto = SearchParams(target=1, z=0.5)
    dijkstra = SearchParams(target=1, z=0.5, alpha=0.0)
    for s in enumerate_states(toy_table):
        a = find_preferred_goal(s, unit_library, toy_forest, toy_table, auto)
        d = find_preferred_goal(s, unit_library, toy_forest, toy_table, dijkstra)
        assert a.status == PROVED_EXHAUSTED and d.status == PROVED_EXHAUSTED
        assert (a.goal, a.cost) == (d.goal, d.cost)
    # on the benchmark's baseline model the default alpha is inconsistent:
    # these states reach their optimum only through a reopened state
    # node counts are pinned: successor generation must not change them
    forest, table, library = baseline_model()
    for s, optimum in (((0, 4, 5, 3), 240.0), ((1, 4, 5, 3), 192.0)):
        a = find_preferred_goal(s, library, forest, table, auto)
        d = find_preferred_goal(s, library, forest, table, dijkstra)
        assert oracle_plan(s, library, forest, table, auto).plan.cost == optimum
        assert a.status == PROVED_EXHAUSTED and d.status == PROVED_EXHAUSTED
        assert a.cost == d.cost == optimum
        assert (a.expansions, d.expansions) == (1412, 1411)
        state, spent = s, 0.0
        for action in a.path:
            assert action.applicable(state)
            state, spent = simulate_step(state, (action,)), spent + action.cost
        assert state == a.goal and spent == a.cost


def test_bad_state_rejected(toy_forest, toy_table, unit_library, toy_params):
    with pytest.raises(StateError):
        find_preferred_goal((0, 0, 9), unit_library, toy_forest, toy_table, toy_params)


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_covers_all_states(toy_db, toy_forest, toy_table):
    assert len(toy_db) == 12
    assert toy_db.fingerprint == fingerprint(toy_forest)
    for s in enumerate_states(toy_table):
        e = toy_db.entries.get(s)
        assert e is not None and e.initial == s and e.found


def test_preprocess_dedupes_and_reports_progress(toy_forest, toy_table, unit_library, toy_params):
    calls = []
    db = preprocess(
        [(0, 0, 0), (0, 0, 0), (0, 1, 2)],
        unit_library,
        toy_forest,
        toy_table,
        toy_params,
        on_progress=lambda done, total: calls.append((done, total)),
    )
    assert len(db) == 2
    assert calls == [(1, 2), (2, 2)]


@pytest.mark.parametrize("workers", [1, 2])
def test_preprocess_of_no_states(toy_forest, toy_table, unit_library, toy_params, workers):
    db = preprocess([], unit_library, toy_forest, toy_table, toy_params, workers=workers)
    assert len(db) == 0


def test_preprocess_workers_match_serial(toy_forest, toy_table, unit_library, toy_params, toy_db):
    states = list(enumerate_states(toy_table))
    parallel = preprocess(
        states, unit_library, toy_forest, toy_table, toy_params, workers=2
    )
    assert parallel == toy_db


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the pool and maps in process."""

    made: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.batches: list = []
        _SerialPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        for chunk in chunks:
            self.batches.append(chunk)
            yield fn(chunk)


@pytest.mark.parametrize("cpus,workers,batches", [(3, 5000, 3), (3, 2, 2), (64, 5000, 12), (1, 8, 1)])
def test_preprocess_starts_at_most_one_worker_per_cpu(
    toy_forest, toy_table, unit_library, toy_params, toy_db, monkeypatch, cpus, workers, batches
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "made", [])
    states = list(enumerate_states(toy_table))  # 12 states
    db = preprocess(states, unit_library, toy_forest, toy_table, toy_params, workers=workers)
    assert db == toy_db
    assert all(db.entries[s].path == toy_db.entries[s].path for s in states)
    if batches == 1:
        assert _SerialPool.made == []  # one batch runs in process
    else:
        (pool,) = _SerialPool.made
        assert pool.max_workers == len(pool.batches) == batches
        assert sorted(s for b in pool.batches for s in b) == states


def test_preprocess_workers_match_serial_with_mechanical_actions(
    toy_forest, toy_table, unit_library, toy_params
):
    extra = (
        Action(id="reset", transitions=(Transition(2, WILDCARD, 0),), cost=2.0),
        Action(id="keep", transitions=(Transition(1, 1, 1), Transition(2, WILDCARD, 2)), cost=1.5),
    )
    library = ActionLibrary(actions=unit_library.actions + extra)
    states = list(enumerate_states(toy_table))
    serial = preprocess(states, library, toy_forest, toy_table, toy_params)
    parallel = preprocess(states, library, toy_forest, toy_table, toy_params, workers=2)
    assert parallel == serial
    for s in states:
        assert parallel.entries[s].path == serial.entries[s].path
    assert any(a in extra for e in serial.entries.values() for a in e.path)


def test_preprocess_generates_each_successor_row_once(
    toy_forest, toy_table, unit_library, toy_params, toy_db, monkeypatch
):
    expanded = []

    def counting_neighbors(s, library):
        expanded.append(s)
        return neighbors(s, library)

    monkeypatch.setattr(offline, "neighbors", counting_neighbors)
    states = list(enumerate_states(toy_table))
    db = preprocess(states, unit_library, toy_forest, toy_table, toy_params)
    assert db == toy_db
    assert len(expanded) == len(set(expanded))
    assert sum(e.expansions for e in db.entries.values()) > len(expanded)
    # a lone search is a batch of one: its table goes with it, so a second
    # search regenerates every row
    del expanded[:]
    for _ in range(2):
        find_preferred_goal((0, 0, 0), unit_library, toy_forest, toy_table, toy_params)
    assert len(expanded) == 2 * len(set(expanded))


def test_successor_table_is_bound_to_its_library(toy_forest, toy_table, unit_library, toy_params):
    successors = SuccessorTable(unit_library, StateEvaluator(toy_forest, toy_table, 1))
    other = ActionLibrary(actions=unit_library.actions[:2])
    with pytest.raises(SearchError, match="another action library"):
        find_preferred_goal((0, 0, 0), other, toy_forest, toy_table, toy_params,
                            successors=successors)
    # shares of class 0 would make the search prove a goal of the wrong class
    other_target = SuccessorTable(unit_library, StateEvaluator(toy_forest, toy_table, 0))
    with pytest.raises(SearchError, match="another forest, table or target"):
        find_preferred_goal((0, 0, 0), unit_library, toy_forest, toy_table, toy_params,
                            successors=other_target)
    e = find_preferred_goal((0, 0, 0), unit_library, toy_forest, toy_table, toy_params,
                            successors=successors)
    assert (e.goal, e.cost) == ((0, 1, 2), 3.0)


def test_successor_table_numbers_states_by_rank():
    forest, table, library = baseline_model()
    evaluator = StateEvaluator(forest, table, 1)
    successors = SuccessorTable(library, evaluator)
    states = list(enumerate_states(table))
    ranks = [successors.rank(s) for s in states]
    assert ranks == list(range(table.state_count))
    for s, r in zip(states, ranks):
        assert successors.state[r] == s
        assert successors.share[r] == evaluator.proba(s)
        # interned: ranking a fresh copy of the state gives the same int object
        assert successors.rank(tuple(list(s))) is r
    s = (1, 4, 5, 3)
    actions, succ, costs = successors.row(successors.rank(s))
    assert [(a, successors.state[r2], w) for a, r2, w in zip(actions, succ, costs)] == (
        neighbors(s, library)
    )
    assert all(r2 is ranks[r2] for r2 in succ)


# the searches of the 40 baseline non-goal states that random.Random(0) draws
# (baseline_search_sample), pinned by entries_digest: sha256 over (start,
# goal, cost, status, expansions, witness action ids)
SEARCH_PINS = {AUTO: "4deed489bfafa1ba", 0.0: "be6ee3493d6ba300"}
# the same searches cut off by a cap: at alpha 0, patience 50 stops 10 of
# them before their first goal and 30 after it; every other run below stops
# after its first goal
CAPPED_SEARCH_PINS = {
    ("patience", 50, AUTO): "1d7b0fa4f042d918",
    ("patience", 50, 0.0): "57f5f307d648ed10",
    ("node_budget", 200, AUTO): "1b653d0539a04a88",
    ("node_budget", 200, 0.0): "42181379c7329300",
}


def _baseline_sample_digest(params):
    """The searches' pin digest and their entries, as one ``preprocess`` call."""
    forest, table, library = baseline_model()
    states = baseline_search_sample(forest, table, params)
    db = preprocess(states, library, forest, table, params)
    return entries_digest(db), db.entries.values()


@pytest.mark.parametrize("alpha", [AUTO, 0.0])
def test_search_entries_pinned_on_baseline(alpha):
    digest, _ = _baseline_sample_digest(SearchParams(target=1, z=0.5, alpha=alpha))
    assert digest == SEARCH_PINS[alpha]


@pytest.mark.parametrize("cap, limit, alpha", list(CAPPED_SEARCH_PINS))
def test_capped_search_entries_pinned_on_baseline(cap, limit, alpha):
    digest, entries = _baseline_sample_digest(
        SearchParams(target=1, z=0.5, alpha=alpha, **{cap: limit}))
    stops = collections.Counter((e.status, e.found) for e in entries)
    status = PATIENCE_STOP if cap == "patience" else BUDGET_STOP
    if (cap, alpha) == ("patience", 0.0):
        assert stops == {(status, True): 30, (status, False): 10}
    else:
        assert stops == {(status, True): 40}
    assert digest == CAPPED_SEARCH_PINS[cap, limit, alpha]


def assert_same_as_lone_searches(db, library, forest, table, params):
    """Every entry equals a lone search's, its witness path included."""
    for s, got in db.entries.items():
        lone = find_preferred_goal(s, library, forest, table, params)
        assert (got.goal, got.cost, got.status, got.expansions) == (
            lone.goal, lone.cost, lone.status, lone.expansions
        ), s
        # PreferredGoalEntry.path has compare=False, so == above skips it
        assert got.path == lone.path, s


@pytest.mark.parametrize("alpha", [AUTO, 0.0])
def test_preprocess_matches_lone_searches_on_baseline(alpha):
    forest, table, library = baseline_model()
    params = SearchParams(target=1, z=0.5, alpha=alpha)
    evaluator = StateEvaluator(forest, table, params.target)
    nongoal = [s for s in enumerate_states(table) if evaluator.proba(s) < params.z]
    # the two reopening cases of the default alpha, then a seeded sample
    states = [(0, 4, 5, 3), (1, 4, 5, 3)] + random.Random(0).sample(nongoal, 4)
    db = preprocess(states, library, forest, table, params)
    assert len(db) == len(set(states))
    assert all(e.status == PROVED_EXHAUSTED for e in db.entries.values())
    assert_same_as_lone_searches(db, library, forest, table, params)


@pytest.mark.parametrize(
    "kwargs", [dict(alpha=AUTO), dict(alpha=0.0), dict(alpha=0.0, node_budget=3), dict(patience=1)]
)
def test_preprocess_matches_lone_searches_with_mechanical_actions(
    toy_forest, toy_table, unit_library, kwargs
):
    # a mechanical-only action and one with a prevailing condition as well
    extra = (
        Action(id="reset", transitions=(Transition(2, WILDCARD, 0),), cost=2.0),
        Action(id="keep", transitions=(Transition(1, 1, 1), Transition(2, WILDCARD, 2)), cost=1.5),
    )
    library = ActionLibrary(actions=unit_library.actions + extra)
    params = SearchParams(target=1, z=0.5, **kwargs)
    states = list(enumerate_states(toy_table))
    serial = preprocess(states, library, toy_forest, toy_table, params)
    assert_same_as_lone_searches(serial, library, toy_forest, toy_table, params)
    parallel = preprocess(states, library, toy_forest, toy_table, params, workers=2)
    assert parallel == serial
    assert all(parallel.entries[s].path == serial.entries[s].path for s in states)


# ---------------------------------------------------------------------------
# the paper's action model under the oracle: multi-feature actions with
# prevailing conditions and mechanical writes, on worlds with a hard feature


def _small_world(kind, seed, tmp_path):
    """(forest, table, library, target) of one seeded world; its catalog is
    written as JSON and read back through ``load_action_spec``."""
    if kind == "soft":
        forest, table = random_soft_forest(seed, hard_chance=1.0)
        target = 1
    else:
        forest, table = random_weighted_forest(seed)
        target = "hi"
    rng = random.Random(seed)
    spec = tmp_path / f"{kind}-{seed}.json"
    spec.write_text(random_action_spec(rng, table, rng.randint(4, 10)), encoding="utf-8")
    return forest, table, load_action_spec(spec, table), target


@pytest.mark.parametrize("kind", ["soft", "weighted"])
def test_exhausted_entries_match_the_oracle_with_multi_feature_actions(kind, tmp_path):
    proved = multi = 0
    for seed in range(30):
        forest, table, library, target = _small_world(kind, seed, tmp_path)
        states = list(enumerate_states(table))
        base = SearchParams(target=target, z=0.5)
        evaluator = StateEvaluator(forest, table, target)
        oracle = {s: oracle_plan(s, library, forest, table, base, evaluator=evaluator)
                  for s in states}
        for alpha in (0.0, AUTO):
            params = SearchParams(target=target, z=0.5, alpha=alpha)
            db = preprocess(states, library, forest, table, params)
            for s, e in db.entries.items():
                where = (kind, seed, alpha, s)
                assert e.status in (PROVED_EXHAUSTED, NO_GOAL), where
                if e.status == NO_GOAL:
                    assert not oracle[s].solved, where
                    continue
                assert e.cost == oracle[s].cost, where
                state, spent = s, 0.0
                for action in e.path:
                    assert action.applicable(state), where
                    state, spent = simulate_step(state, (action,)), spent + action.cost
                assert (state, spent) == (e.goal, e.cost), where
                assert evaluator.proba(e.goal) >= params.z, where
                proved += e.cost > 0
                multi += any(len(a.transitions) > 1 for a in e.path)
    # the worlds are not vacuous: many entries need a plan, some a multi-feature action
    assert proved >= 100 and multi >= 20, (proved, multi)


# ---------------------------------------------------------------------------
# persistence and merging


def test_db_roundtrip(toy_db, tmp_path):
    path = tmp_path / "goals.jsonl"
    db_persist(toy_db, path)
    back = db_restore(path)
    assert back == toy_db
    # paths are in-process only; the restored entries drop them
    assert all(e.path is None for e in back.entries.values())


def test_db_roundtrip_keeps_a_cut_off_search_without_goal(toy_forest, toy_table, unit_library,
                                                          tmp_path):
    params = SearchParams(target=1, z=0.5, alpha=0.0, patience=1)
    db = preprocess([(0, 0, 0)], unit_library, toy_forest, toy_table, params)
    assert db.entries[(0, 0, 0)].status == PATIENCE_STOP
    db_persist(db, tmp_path / "goals.jsonl")
    back = db_restore(tmp_path / "goals.jsonl")
    assert back == db
    assert not back.entries[(0, 0, 0)].found


def test_check_pairing(toy_db, toy_forest):
    check_pairing(toy_db, toy_forest)
    other, _ = random_soft_forest(3)
    with pytest.raises(SearchError, match="does not match"):
        check_pairing(toy_db, other)


# ---------------------------------------------------------------------------
# restore diagnostics


def _write_db(tmp_path, *lines):
    path = tmp_path / "db.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


HEADER = (
    '{"fingerprint": "fp", "format_version": 1, '
    '"params": {"target": 1, "z": 0.5, "alpha": "auto", "patience": 10, "node_budget": 10}}'
)
ROW = '{"cost": 1.0, "expansions": 2, "goal": [0, 1], "initial": [0, 0], "status": "proved_exhausted"}'


def test_db_restore_happy(tmp_path):
    db = db_restore(_write_db(tmp_path, HEADER, ROW))
    assert db.fingerprint == "fp"
    assert db.entries[(0, 0)].goal == (0, 1)


@pytest.mark.parametrize(
    "lines,needle",
    # an explicit id is the case's name from before the record rule's wording
    [
        ((), "empty"),
        (("not json",), r"db\.jsonl:1: not valid JSON"),
        (('["a", "list"]',), r"db\.jsonl:1: expected a JSON object"),
        (('{"format_version": 99}',), "unsupported format_version"),
        pytest.param(('{"format_version": 1}',),
                     r"db\.jsonl:1: missing keys \['fingerprint', 'params'\]",
                     id="lines4-header missing 'fingerprint'"),
        ((HEADER, "{broken"), r"db\.jsonl:2: not valid JSON"),
        ((HEADER, '{"initial": [0], "status": "weird"}'), r"db\.jsonl:2: bad entry"),
        ((HEADER, ROW, ROW), r"db\.jsonl:3: duplicate entry"),
        ((HEADER, ROW.replace("1.0", '"cheap"')), r"db\.jsonl:2: bad entry \(cost must be"),
        ((HEADER, ROW.replace("1.0", "-1")), r"db\.jsonl:2: bad entry \(cost must be"),
        ((HEADER, ROW.replace("1.0", "NaN")), r"db\.jsonl:2: bad entry \(cost must be"),
        ((HEADER, ROW.replace('"expansions": 2', '"expansions": -1')),
         r"db\.jsonl:2: bad entry \(expansions must be"),
        ((HEADER, ROW.replace('"expansions": 2', '"expansions": "many"')),
         r"db\.jsonl:2: bad entry \(expansions must be"),
        ((HEADER, ROW.replace('"expansions": 2', '"expansions": 2.5')),
         r"db\.jsonl:2: bad entry \(expansions must be"),
        # the header takes no unknown key, so these carry no unused params record
        pytest.param(('{"fingerprint": "fp", "format_version": 1, "params": "x"}',),
                     r"db\.jsonl:1: bad search params \(expected a JSON object, got a string\)",
                     id=r"lines14-db\.jsonl:1: bad search params \(search params must be a JSON object"),
        pytest.param(('{"fingerprint": "fp", "format_version": 1, "params": [1]}',),
                     r"db\.jsonl:1: bad search params \(expected a JSON object, got an array\)",
                     id=r"lines15-db\.jsonl:1: bad search params \(search params must be a JSON object"),
        ((HEADER.replace('"z": 0.5', '"z": "0.5"'),), r"db\.jsonl:1: bad search params \(z must"),
        ((HEADER.replace('"z": 0.5', '"z": true'),), r"db\.jsonl:1: bad search params \(z must"),
        ((HEADER.replace('"patience": 10', '"patience": true'),),
         r"db\.jsonl:1: bad search params \(patience must"),
        ((HEADER.replace('"patience": 10', '"patience": null'),),
         r"db\.jsonl:1: bad search params \(patience must"),
        pytest.param((HEADER.replace('"z": 0.5, ', ''),),
                     r"db\.jsonl:1: bad search params \(missing keys \['z'\]\)",
                     id=r"lines20-db\.jsonl:1: bad search params \(search params missing"),
        pytest.param((HEADER, ROW.replace('"expansions"', '"expansion"')),
                     r"db\.jsonl:2: bad entry \(unknown keys \['expansion'\]; "
                     r"known: \['initial', 'goal', 'cost', 'expansions', 'status'\]\)",
                     id=r"lines21-db\.jsonl:2: bad entry \(unknown keys \['expansion'\]\)"),
        ((HEADER, ROW.replace('"expansions": 2, ', '')),
         r"db\.jsonl:2: bad entry \(missing keys \['expansions'\]\)"),
        ((HEADER, '{"expansions": 2, "initial": [0, 0], "status": "no_goal"}'),
         r"db\.jsonl:2: bad entry \(missing keys \['cost', 'goal'\]\)"),
        ((HEADER, ROW.replace(', "status": "proved_exhausted"', '')),
         r"db\.jsonl:2: bad entry \(missing keys \['status'\]\)"),
        ((HEADER, ROW.replace(', "initial": [0, 0]', '')),
         r"db\.jsonl:2: bad entry \(missing keys \['initial'\]\)"),
        pytest.param((HEADER.replace('"patience"', '"patiense"'),),
                     r"db\.jsonl:1: bad search params \(unknown keys \['patiense'\]; known: "
                     r"\['target', 'z', 'alpha', 'patience', 'node_budget'\]\)",
                     id=r"lines26-db\.jsonl:1: bad search params \(search params have unknown keys "
                        r"\['patiense'\]\)"),
        pytest.param((HEADER.replace('"format_version"', '"extra": 0, "format_version"'),),
                     r"db\.jsonl:1: unknown keys \['extra'\]; "
                     r"known: \['format_version', 'fingerprint', 'params'\]",
                     id=r"lines27-db\.jsonl:1: header has unknown keys \['extra'\]"),
        # a header of another format fails on its version, whatever else it holds
        ((HEADER.replace('"format_version": 1', '"format_version": 2, "extra": 0'),),
         r"db\.jsonl:1: unsupported format_version 2 \(expected 1\)$"),
    ],
)
def test_db_restore_rejects(tmp_path, lines, needle):
    with pytest.raises(SearchError, match=needle):
        db_restore(_write_db(tmp_path, *lines))


def test_db_restore_skips_blank_lines(tmp_path):
    db = db_restore(_write_db(tmp_path, HEADER, "", ROW, ""))
    assert len(db) == 1
