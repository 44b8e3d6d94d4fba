"""The benchmark's workloads: set-up, one round of ops, and the per-op check.

Every workload plans against a fixed model so that runs with different
seeds measure the same system; the seed draws the inputs (which states are
searched, and in which order states are searched or planned).  Models are trained from one
synthetic data set: four integer features in 0..9, 1500 rows, labelled
``x0 + x1 - x2 + N(0, 2) > 8`` with ``numpy.random.default_rng(0)``.

- ``baseline``: 20 trees of depth 3, an 8x8x7x5 grid and 174 actions.
- ``small``: 5 trees of depth 2, a 4x3x6x1 grid and 48 actions.

Both use the cost model ``CostModel.random(4, default_rng(1), 1, 100)``,
target class 1 and z = 0.5.  The online workload plans against a goal database
that labels every grid cell with its exact cheapest goal, found by
``baselines.oracle_plan``; the same labelling is the reference cost every
answer is checked against.

Layers are called through their modules (``offline.preprocess``, not a
name imported from it) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from rfplan import baselines, discretize, encoder, offline, sas_core
from rfplan.forest import NUMERICAL, FeatureMeta, TrainParams, fingerprint, train_forest

TARGET = 1
Z = 0.5
K = 3
L_MAX = 4
# offline-search runs the search with alpha = 0 (uniform-cost order).  The
# default alpha="auto" makes the heuristic inconsistent, and since closed
# states are never reopened, 80 of the baseline model's 1411 non-goal
# states get an entry that claims proved_exhausted at a cost above the
# optimum; check_entry fails those.  Every search expands all non-goal
# states either way, so the work measured is the same.
OFFLINE_ALPHA = 0.0

MODELS = {
    "baseline": TrainParams(n_trees=20, max_depth=3, rng_seed=0),
    "small": TrainParams(n_trees=5, max_depth=2, rng_seed=0),
}


def training_data(n_rows: int = 1500):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 10, size=(n_rows, 4))
    y = x[:, 0] + x[:, 1] - x[:, 2] + rng.normal(0.0, 2.0, n_rows) > 8
    rows = [tuple(float(v) for v in row) for row in x]
    return rows, [int(v) for v in y]


@dataclass
class World:
    """A trained model with its grid, action library and reference costs."""

    forest: object
    table: object
    library: object
    params: object
    nongoal: list  # grid states below z, in lexicographic order
    oracle: dict = field(default_factory=dict)  # state -> OracleResult, filled on demand

    def oracle_result(self, s):
        res = self.oracle.get(s)
        if res is None:
            res = self.oracle[s] = baselines.oracle_plan(
                s, self.library, self.forest, self.table, self.params, evaluator=self.evaluator
            )
        return res

    def __post_init__(self):
        self.evaluator = discretize.StateEvaluator(self.forest, self.table, TARGET)


def build_world(model: str) -> World:
    rows, labels = training_data()
    features = [FeatureMeta(f"x{i}", NUMERICAL) for i in range(4)]
    forest = train_forest(features, rows, labels, MODELS[model])
    table = discretize.build_partitions(forest)
    cost = sas_core.CostModel.random(4, np.random.default_rng(1), 1, 100)
    library = sas_core.default_action_library(table, cost)
    params = offline.SearchParams(target=TARGET, z=Z)
    world = World(forest, table, library, params, nongoal=[])
    world.nongoal = [
        s for s in discretize.enumerate_states(table) if world.evaluator.proba(s) < Z
    ]
    return world


def oracle_database(world: World) -> offline.GoalDatabase:
    """The exact goal database: every grid cell labelled by the oracle."""
    entries = {}
    for s in discretize.enumerate_states(world.table):
        res = world.oracle_result(s)
        entries[s] = offline.PreferredGoalEntry(
            initial=s,
            goal=res.plan.goal,
            cost=res.plan.cost,
            expansions=res.expansions,
            status=offline.PROVED_EXHAUSTED,
        )
    return offline.GoalDatabase(
        fingerprint=fingerprint(world.forest), params=world.params, entries=entries
    )


@dataclass
class Op:
    """One finished op: its input, wall time, output and check result."""

    state: tuple
    seconds: float
    output: object = None  # PreferredGoalEntry or PlanOutcome
    record: list | None = None  # what the digest covers
    cost: float | None = None
    error: str | None = None


@dataclass
class Context:
    world: World
    inputs: list
    db: offline.GoalDatabase | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    op_count: int  # inputs per round; fixes the tail percentile
    setup: Callable[[World, int, int], Context]
    run_round: Callable[[Context, list], list]
    check: Callable[[World, Op], str | None]  # why the op's output is wrong, or None


def tail_percentile(ops_per_round: int) -> int:
    """Highest whole percentile with at least ten of a round's ops beyond it,
    and never below the median."""
    return max(50, math.floor(100 * (ops_per_round - 10) / ops_per_round))


# --- correctness gates -------------------------------------------------------


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)


def _reaches_z(world: World, s) -> bool:
    # recomputed from the forest itself, not through StateEvaluator
    rep = discretize.representative(world.table, s)
    return world.forest.class_proba(rep, TARGET) >= Z


def check_entry(world: World, op: Op) -> str | None:
    """Why an offline entry is wrong, or None."""
    entry = op.output
    if entry.goal is None:
        return f"{entry.initial}: no goal found ({entry.status})"
    if not _reaches_z(world, entry.goal):
        return f"{entry.initial}: goal {entry.goal} does not reach z={Z}"
    if entry.path is not None:
        try:
            end = sas_core.simulate_plan(entry.initial, [(a,) for a in entry.path])
        except sas_core.ActionError as exc:
            return f"{entry.initial}: witness path does not replay ({exc})"
        if end != entry.goal or not _same(sum(a.cost for a in entry.path), entry.cost):
            return f"{entry.initial}: witness path does not reach {entry.goal} at cost {entry.cost}"
    best = world.oracle_result(entry.initial).cost
    if entry.cost < best and not _same(entry.cost, best):
        return f"{entry.initial}: cost {entry.cost} below the oracle's {best}"
    if entry.status == offline.PROVED_EXHAUSTED and not _same(entry.cost, best):
        return f"{entry.initial}: {entry.status} at cost {entry.cost}, oracle cost {best}"
    return None


def check_outcome(world: World, op: Op) -> str | None:
    """Why an online plan is wrong, or None."""
    s, outcome = op.state, op.output
    if outcome.status != encoder.SOLVED or outcome.plan is None:
        return f"{s}: status {outcome.status}"
    plan = outcome.plan
    try:
        end = sas_core.simulate_plan(s, plan.steps)
    except sas_core.ActionError as exc:
        return f"{s}: plan does not replay ({exc})"
    if end != plan.goal:
        return f"{s}: plan ends in {end}, not its goal {plan.goal}"
    if not _reaches_z(world, end):
        return f"{s}: plan ends in {end}, below z={Z}"
    if not _same(sum(a.cost for step in plan.steps for a in step), plan.cost):
        return f"{s}: plan cost {plan.cost} is not the sum of its action costs"
    best = world.oracle_result(s).cost
    if plan.cost < best and not _same(plan.cost, best):
        return f"{s}: plan cost {plan.cost} below the oracle's {best}"
    return None


# --- offline-search ----------------------------------------------------------


def _offline_setup(world: World, seed: int, n: int) -> Context:
    states = random.Random(seed).sample(world.nongoal, n)
    return Context(world, states)


def _offline_round(ctx: Context, _nodes: list) -> list:
    w = ctx.world
    params = replace(w.params, alpha=OFFLINE_ALPHA)
    marks = [time.perf_counter()]
    ops: list[Op] = []
    try:
        db = offline.preprocess(
            ctx.inputs, w.library, w.forest, w.table, params, workers=1,
            on_progress=lambda done, total: marks.append(time.perf_counter()),
        )
    except Exception as exc:  # the whole round failed; every op counts as failed
        now = time.perf_counter()
        return [Op(s, (now - marks[0]) / len(ctx.inputs), error=f"preprocess raised {exc!r}")
                for s in ctx.inputs]
    # preprocess searches states in sorted order and reports after each one
    for s, t0, t1 in zip(sorted(db.entries), marks, marks[1:]):
        e = db.entries[s]
        goal = list(e.goal) if e.goal is not None else None
        record = [list(s), e.status, e.cost, goal, e.expansions]
        ops.append(Op(s, t1 - t0, output=e, record=record, cost=e.cost))
    return ops


# --- online-sweep ------------------------------------------------------------


def _online_setup(world: World, seed: int, n: int) -> Context:
    db = oracle_database(world)
    queries = list(world.nongoal)
    random.Random(seed).shuffle(queries)
    return Context(world, queries[:n], db)


def _online_round(ctx: Context, nodes: list) -> list:
    w = ctx.world
    ops: list[Op] = []
    for s in ctx.inputs:
        del nodes[:]
        t0 = time.perf_counter()
        try:
            outcome = encoder.plan_actions(
                w.forest, w.table, w.library, ctx.db, state=s, k=K, l_max=L_MAX, sweep=True
            )
        except Exception as exc:  # counted as a failed op; the run goes on
            ops.append(Op(s, time.perf_counter() - t0, error=f"{s}: raised {exc!r}"))
            continue
        dt = time.perf_counter() - t0
        plan = outcome.plan
        record = [
            list(s),
            outcome.status,
            plan.cost if plan else None,
            list(plan.goal) if plan else None,
            [[a.L, a.status, a.cost] for a in outcome.attempts],
            list(nodes),
        ]
        ops.append(Op(s, dt, output=outcome, record=record, cost=plan.cost if plan else None))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists: see README.md and BENCHMARK.json
        Workload("offline-search", "baseline", 40, _offline_setup, _offline_round, check_entry),
        # all 40 non-goal states of the small model; the seed sets their order
        Workload("online-sweep", "small", 40, _online_setup, _online_round, check_outcome),
    )
}

# --size tiny: every workload on the small model with a few ops (smoke tests)
TINY_OPS = 3


def digest(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
