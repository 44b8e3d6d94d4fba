"""Acceptance gate: the eight headline behaviors, checked end to end.

Each test prints exactly one PASS or FAIL line (run with ``-s`` to see
them); a FAIL line is followed by the usual assertion traceback.  The
random-instance suite is shared between the oracle-equivalence, quality
-ordering, and latency checks so all three describe the same runs.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from statistics import fmean

import numpy as np
import pytest

from helpers import (
    brute_force_cost,
    min_plan_cost,
    random_sas,
    random_soft_forest,
    random_state,
    random_wcnf,
    state_similarity,
)
from rfplan.baselines import greedy_plan, oracle_plan
from rfplan.discretize import enumerate_states, to_state
from rfplan.encoder import check_plan, decode, encode, plan_actions
from rfplan.knn import k_nearest
from rfplan.maxsat import HARD_UNSAT, OPTIMAL, solve
from rfplan.offline import SearchParams, find_preferred_goal, preprocess
from rfplan.sas_core import CostModel, default_action_library

N_BENCH = 100


def _verdict(n, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS")


# ---------------------------------------------------------------------------
# shared random-instance benchmark suite (criteria 2, 6, 7)


@pytest.fixture(scope="module")
def bench_suite():
    """100 random forests; per instance one hard solvable start state.

    Starts are drawn from the top cost quartile of the exhaustively
    preprocessed states: one-step-from-goal starts make every arm equal
    and say nothing about plan quality.
    """
    rows = []
    seed = 0
    t0 = time.perf_counter()
    while len(rows) < N_BENCH and seed < 250:
        forest, table = random_soft_forest(seed, cells_max=4)
        beta_rng = np.random.default_rng(10_000 + seed)
        library = default_action_library(
            table, CostModel.random(len(table.features), beta_rng, 1, 100)
        )
        size = table.state_count
        params = SearchParams(target=1, z=0.5, alpha=0.0,
                              patience=size + 1, node_budget=size + 1)
        db = preprocess(list(enumerate_states(table)), library, forest, table, params)
        starts = sorted(s for s, e in db.entries.items() if e.found and e.cost > 0)
        sd = seed
        seed += 1
        if not starts:
            continue
        ranked = sorted(starts, key=lambda s: (db.entries[s].cost, s))
        hard = ranked[3 * len(ranked) // 4:]
        s = hard[random.Random(20_000 + sd).randrange(len(hard))]

        orc = oracle_plan(s, library, forest, table, params, cap=size + 5)
        t1 = time.perf_counter()
        out = plan_actions(forest, table, library, db, state=s, k=3,
                           l_max=max(1, len(db.entries[s].path)), sweep=True)
        plan_seconds = time.perf_counter() - t1
        gr = greedy_plan(s, library, forest, table, params)
        rows.append({
            "oracle": orc.cost,
            "planner": out.plan.cost if out.plan is not None else math.inf,
            "status": out.status,
            "seconds": plan_seconds,
            "greedy": gr.plan.cost if gr.solved else None,
        })
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# 1. worked-example golden suite


def test_worked_example_golden_suite(toy_forest, toy_table, unit_library, toy_params):
    def body():
        t0 = time.perf_counter()
        assert to_state(toy_table, ("male", 2.0, 500.0)) == (0, 0, 0)
        assert to_state(toy_table, ("male", 2.0, 1200.0)) == (0, 0, 1)

        w = (1, 1, 1)
        s_i = (0, 0, 1)
        assert state_similarity(s_i, (0, 0, 0), w, toy_table) == Fraction(5, 6)
        assert state_similarity(s_i, (0, 1, 0), w, toy_table) == Fraction(1, 2)
        assert state_similarity(s_i, (0, 1, 1), w, toy_table) == Fraction(2, 3)

        stored = [(0, 0, 0), (0, 1, 0), (0, 1, 1)]
        db = preprocess(stored, unit_library, toy_forest, toy_table, toy_params)
        for s in stored:
            assert db.entries[s].goal == (0, 1, 2)

        near = k_nearest(s_i, db, 2, w, toy_table)
        assert {s for s, _, _ in near} == {(0, 0, 0), (0, 1, 1)}
        assert time.perf_counter() - t0 < 1.0

    _verdict(1, "worked-example golden suite", body)


# ---------------------------------------------------------------------------
# 2. planner equals the exhaustive oracle


def test_planner_matches_oracle_on_random_instances(bench_suite):
    def body():
        rows = bench_suite["rows"]
        assert len(rows) >= N_BENCH
        for row in rows:
            assert row["status"] == "solved"
            assert abs(row["planner"] - row["oracle"]) <= 1e-3
        assert bench_suite["elapsed"] < 120.0

    _verdict(2, "planner cost equals the exhaustive oracle on "
                f"{N_BENCH} random instances", body)


# ---------------------------------------------------------------------------
# 3. encoding completeness and soundness


def test_encoding_matches_step_bounded_reference():
    def body():
        rng = random.Random(42)
        tasks = sat_checks = 0
        while tasks < 400:
            sas = random_sas(rng)
            if sas.initial in sas.goals:
                continue  # the online pipeline never encodes these
            tasks += 1
            for makespan in (1, 2, 3):
                reference = min_plan_cost(sas, makespan)
                instance, varmap = encode(sas, makespan)
                res = solve(instance)
                if reference is None:
                    assert res.status == HARD_UNSAT
                    continue
                assert res.status == OPTIMAL
                plan = decode(res.assignment, varmap, sas)
                check_plan(plan, sas)
                assert abs(plan.cost - reference) < 1e-9
                assert res.cost == round(reference)
                sat_checks += 1
        assert sat_checks >= 200

    _verdict(3, "encoding satisfiable iff a bounded-makespan plan exists, "
                "at equal optimal cost", body)


# ---------------------------------------------------------------------------
# 4. exact solver versus full enumeration


def test_solver_matches_exhaustive_enumeration():
    def body():
        t0 = time.perf_counter()
        rng = random.Random(7)
        feasible_count = 0
        for _ in range(50):
            instance = random_wcnf(rng)
            feasible, best = brute_force_cost(instance)
            res = solve(instance)
            if feasible:
                feasible_count += 1
                assert res.status == OPTIMAL
                assert res.cost == best
            else:
                assert res.status == HARD_UNSAT
        assert feasible_count >= 25
        assert time.perf_counter() - t0 < 30.0

    _verdict(4, "solver cost equals full enumeration on 50 random instances", body)


# ---------------------------------------------------------------------------
# 5. discretization soundness


def _vector_in_cell(rng, table, s):
    out = []
    for meta, ths, j in zip(table.features, table.thresholds, s):
        if meta.is_categorical:
            out.append(meta.categories[j])
        elif not ths:
            out.append(rng.uniform(-5.0, 5.0))
        elif j == 0:
            out.append(ths[0] - 1e-9 - 3.0 * rng.random())
        elif j == len(ths):
            out.append(ths[-1] + 3.0 * rng.random())
        else:
            out.append(ths[j - 1] + (ths[j] - ths[j - 1]) * rng.random())
    return tuple(out)


def test_same_cell_vectors_share_probabilities():
    def body():
        pairs = 0
        for fs in range(25):
            forest, table = random_soft_forest(fs)
            rng = random.Random(fs)
            for _ in range(40):
                s = random_state(rng, table)
                x1 = _vector_in_cell(rng, table, s)
                x2 = _vector_in_cell(rng, table, s)
                assert to_state(table, x1) == s
                assert to_state(table, x2) == s
                assert forest.class_distribution(x1) == forest.class_distribution(x2)
                pairs += 1
        assert pairs == 1000

    _verdict(5, "1000 same-cell vector pairs get identical class "
                "probabilities", body)


# ---------------------------------------------------------------------------
# 6. cost-quality ordering across the arms


def test_cost_quality_ordering(bench_suite):
    def body():
        rows = [r for r in bench_suite["rows"] if r["greedy"] is not None]
        # a failed greedy run has no finite cost; compare all arms on the
        # instances greedy actually solved
        assert len(rows) >= N_BENCH // 2
        mean_greedy = fmean(r["greedy"] for r in rows)
        mean_planner = fmean(r["planner"] for r in rows)
        mean_oracle = fmean(r["oracle"] for r in rows)
        assert mean_greedy > mean_planner
        assert mean_planner >= mean_oracle - 1e-9
        assert mean_greedy / mean_planner >= 1.5

    _verdict(6, "mean cost: greedy above planner (>= 1.5x) above oracle", body)


# ---------------------------------------------------------------------------
# 7. online latency


def test_online_latency(bench_suite):
    def body():
        assert fmean(r["seconds"] for r in bench_suite["rows"]) <= 1.0

    _verdict(7, "mean online planning time at most 1 s per instance", body)


# ---------------------------------------------------------------------------
# 8. anytime behavior of the offline search


def test_anytime_patience_behavior():
    def body():
        solvable = 0
        for i in range(50):
            forest, table = random_soft_forest(1000 + i)
            beta_rng = np.random.default_rng(3000 + i)
            library = default_action_library(
                table, CostModel.random(len(table.features), beta_rng, 1, 100)
            )
            size = table.state_count
            s = random_state(random.Random(4000 + i), table)

            costs = []
            for delta in (1, 2, 5, 20, size):
                params = SearchParams(target=1, z=0.5, alpha=0.0,
                                      patience=delta, node_budget=size + 1)
                entry = find_preferred_goal(s, library, forest, table, params)
                costs.append(entry.cost if entry.found else math.inf)
            for shorter, longer in zip(costs, costs[1:]):
                assert longer <= shorter

            params = SearchParams(target=1, z=0.5, alpha=0.0,
                                  patience=size, node_budget=size + 1)
            entry = find_preferred_goal(s, library, forest, table, params)
            orc = oracle_plan(s, library, forest, table, params, cap=size + 5)
            if math.isinf(orc.cost):
                assert not entry.found
            else:
                solvable += 1
                assert entry.found
                assert abs(entry.cost - orc.cost) < 1e-9
        assert solvable >= 5

    _verdict(8, "more search patience never worsens the preferred goal; "
                "full patience matches the oracle", body)
