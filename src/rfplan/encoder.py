"""Bounded-makespan planning compiled to weighted partial Max-SAT.

The task: from the discretized start state, reach any of the goal states
collected from the k nearest stored neighbors.  ``build_sas`` sets up one
query whole: it pairs the goal database with the model, evaluates states
with one ``StateEvaluator``, and gives a start that already reaches the
vote threshold a task whose one goal is the start.

At makespan L the encoding has one variable per goal state, per (action,
step), and per step and transition of a variable's graph: its prevailing
``(f, f)`` pairs, the actions' explicit ``(f, g)`` pairs, and for each
mechanical target ``g`` the pair ``(None, g)`` and an explicit ``(f, g)``
from every value ``f`` (``_transition_universe``).  Soft clauses price
each action occurrence.  The hard clause families: the reachability units
(below); pin the start state; require a goal and pin its values at step
L; chain each explicit transition back to an explicit one ending where it
starts; exclude two transitions of a variable that leave the same value,
and a mechanical one with any transition to another value; tie each
action to its transitions; require for every value change one of its
actions or one writing its target mechanically; exclude actions that
contain the same non-prevailing transition.

Per step and state variable exactly one explicit transition is true.  The
units fix false every step-1 transition that does not leave the start
value, the start clause makes one that does true, and the mutex leaves no
other.  Backward chaining makes each true step-(t+1) transition start
where a true step-t one ends, so by induction the true transitions of a
step all leave one value and the mutex leaves one.  The mutex pairs of
explicit transitions leaving different values, which SASE lists too, are
thus implied and left out: the units are part of the encoding, not only
a cut.  So a model decodes to one well-defined state trajectory, and
SASE's forward chaining (on to a next-step transition that starts where
this one ends) holds in every model; that family is left out as well.

A mechanical transition rides along with its variable's explicit one: the
mutex makes that one end at the mechanical target, and the explicit move
there exists from every value and counts the mechanical write as its
support.  So a value change that only a mechanical write makes is
reachable too.  Chaining runs over the explicit transitions alone.

Clashing actions need no clause of their own: when ``a`` contains ``t``,
``b`` contains ``u`` and ``t``, ``u`` are mutex (``transition_mutex``),
either a mutex clause excludes ``t`` with ``u`` or both are explicit and
leave different values, which the invariant above excludes (the
transition view of Huang, Chen & Zhang, "SAS+ Planning as
Satisfiability", JAIR 2012).  Identical transitions never clash, so only
a shared write needs an action pair.

Only the reachability units (below), the start, at-least-one-goal and
goal-pin clauses and the goal variables depend on the query.  The
rest (the action-cost soft clauses; the chaining, transition-mutex,
shared-write, action-to-transition and support hard clauses; the
transition graphs, variable tables and action weights) depends only on
the action library, the domain sizes and the makespan.  Each action's soft
weight is its cost as an exact integer (``_action_weights``), so the
optimum is the cheapest plan with no rounding.
``encode`` builds that part once per (sizes, makespan), as a goal-free
``VarMap`` and the kept instance, and keeps it in the ``ActionLibrary``
for as long as the library lives, with no size limit.  Each query's
instance is that kept instance extended (``WcnfInstance.extend``) with
the query's clauses, so the first solve at a makespan also keeps the
kernel's compiled form of the kept clauses on it, and later solves add
only their own clauses (``maxsat.compile_instance``).  Repeated queries against one library gain
from this; a single ``plan`` call encodes each makespan once and does not.

The reachability units are one unit clause fixing false each explicit
step transition that no plan from this start to these goals within L
steps can use (``_reachability_units``).  They lose no plan, spare the
kernel the search through those transitions and, at step 1, stand in for
the mutex pairs left out (above), so the clauses without them are no
plan encoding.  The instance ``encode`` returns is the one every solve
gets, in-process or external, and the one ``export-wcnf`` writes: the
units first, then the start and goal clauses, then the kept clauses;
``VarMap.units`` counts the units.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping

from . import maxsat
from .discretize import PartitionTable, State, StateEvaluator, check_state, to_state
from .forest import RandomForest, Vector
from .knn import SimilarityWeights, k_nearest
from .maxsat import SolveResult, WcnfInstance
from .offline import GoalDatabase, check_pairing, find_preferred_goal
from .sas_core import (
    Action,
    ActionError,
    ActionLibrary,
    Plan,
    Transition,
    simulate_plan,
)

SOLVED = "solved"
ALREADY_GOAL = "already_goal"
UNSOLVABLE = "unsolvable"
TIMEOUT = "timeout"


class PlanningError(ValueError):
    """Unplannable request or ill-formed planning inputs."""


class NoGoalsError(PlanningError):
    """Neither a stored neighbor nor the fallback search supplies a goal state."""


class EncodingBug(RuntimeError):
    """A decoded model failed validation; the encoding itself is at fault."""


@dataclass(frozen=True)
class SasProblem:
    """Planning task over partition-index state variables."""

    sizes: tuple[int, ...]
    library: ActionLibrary
    initial: State
    goals: tuple[State, ...]

    def __post_init__(self):
        if not self.goals:
            raise PlanningError("a planning task needs at least one goal state")
        goals = tuple(sorted(set(self.goals)))
        for g in (self.initial, *goals):
            if len(g) != len(self.sizes):
                raise PlanningError(f"state {g} does not match {len(self.sizes)} variables")
            for i, (v, n) in enumerate(zip(g, self.sizes)):
                if not 0 <= v < n:
                    raise PlanningError(f"state {g}: value {v} outside domain of variable {i}")
        for a in self.library.actions:
            for t in a.transitions:
                if t.var >= len(self.sizes):
                    raise PlanningError(f"action {a.id!r}: variable {t.var} out of range")
                if t.to >= self.sizes[t.var] or (t.frm is not None and t.frm >= self.sizes[t.var]):
                    raise PlanningError(f"action {a.id!r}: transition {t} outside variable domain")
        object.__setattr__(self, "goals", goals)


@dataclass
class VarMap:
    """Bidirectional map between encoding variables and their meanings."""

    L: int
    nvars: int
    # read-only: shared by every encoding of one library at this makespan
    trans: Mapping[tuple[int, int, int | None, int], int]  # (step, var, frm, to)
    acts: Mapping[tuple[int, str], int]  # (step, action id)
    goals: dict[State, int]
    universe: tuple[tuple[tuple[int | None, int], ...], ...]  # per var: (frm, to) pairs
    weights: Mapping[str, int]  # action id -> soft weight (read-only)
    units: int = 0  # reachability units: the instance's first hard clauses

    def write_map(self, path) -> None:
        """One line per variable: its number and what it stands for."""
        names = {v: f"t={t} transition {Transition(*key)}" for (t, *key), v in self.trans.items()}
        names.update((v, f"t={t} action {aid}") for (t, aid), v in self.acts.items())
        names.update((v, f"goal state {g}") for g, v in self.goals.items())
        with open(path, "w", encoding="utf-8") as fh:
            for v in range(1, self.nvars + 1):
                fh.write(f"{v} {names[v]}\n")


def _transition_universe(
    library: ActionLibrary, sizes: tuple[int, ...]
) -> tuple[tuple[tuple[int | None, int], ...], ...]:
    """Per variable, its transition graph: the prevailing ``(f, f)``, the
    actions' explicit ``(from, to)`` pairs and ``(f, to)`` from every value
    ``f`` of a mechanical target ``to``, sorted, then the mechanical
    targets ``(None, to)``, sorted.  A catalog with every pair gets the
    numbering of all n² pairs."""
    explicit = [{(f, f) for f in range(n)} for n in sizes]
    mech_targets: list[set[int]] = [set() for _ in sizes]
    for a in library.actions:
        for t in a.transitions:
            if t.is_mechanical:
                mech_targets[t.var].add(t.to)
                explicit[t.var].update((f, t.to) for f in range(sizes[t.var]))
            else:
                explicit[t.var].add((t.frm, t.to))
    return tuple(
        (*sorted(pairs), *((None, g) for g in sorted(mech)))
        for pairs, mech in zip(explicit, mech_targets)
    )


def _action_weights(library: ActionLibrary) -> dict[str, int]:
    """Each action's cost as an integer soft weight, exactly proportional to
    the costs as written: each cost's shortest decimal form times the lcm
    of their denominators.  Integer costs weigh exactly themselves."""
    exact = {a.id: Fraction(repr(a.cost)) for a in library.actions}
    lcm = math.lcm(*(c.denominator for c in exact.values()))
    return {aid: int(c * lcm) for aid, c in exact.items()}


def _build_skeleton(
    library: ActionLibrary, sizes: tuple[int, ...], L: int
) -> tuple[VarMap, WcnfInstance]:
    """The part of the makespan-``L`` encoding that no query changes: the
    map of the step variables 1..``nvars``, with no goals, and the instance
    of the action-cost soft clauses and every hard clause but the start,
    goal and goal-pin ones."""
    m = len(sizes)
    steps = range(1, L + 1)
    actions = library.actions
    universe = _transition_universe(library, sizes)
    weights = _action_weights(library)

    ids = itertools.count(1)
    trans = {(t, v, f, g): next(ids) for t in steps for v in range(m) for f, g in universe[v]}
    acts = {(t, a.id): next(ids) for t in steps for a in actions}
    nsteps = next(ids) - 1

    # transition -> the actions that contain it
    support: dict[tuple[int, int | None, int], list[Action]] = {}
    for a in actions:
        for tr in a.transitions:
            support.setdefault((tr.var, tr.frm, tr.to), []).append(a)

    hard: list[list[int]] = []
    soft: list[tuple[int, list[int]]] = []

    # action costs
    for t in steps:
        for a in actions:
            soft.append((weights[a.id], [-acts[(t, a.id)]]))

    # backward chaining, explicit-endpoint transitions only (see the module docstring)
    for t in range(1, L):
        for v in range(m):
            for f, g in universe[v]:
                if f is None:
                    continue
                hard.append(
                    [-trans[(t + 1, v, f, g)]]
                    + [trans[(t, v, f2, g2)] for f2, g2 in universe[v]
                       if f2 is not None and g2 == f]
                )

    # mutex transitions within a step, same variable only: those leaving one
    # value, and a mechanical one against any other target; the units and
    # backward chaining exclude the rest (see the module docstring)
    for v in range(m):
        clashing = [
            ((f1, g1), (f2, g2))
            for (f1, g1), (f2, g2) in itertools.combinations(universe[v], 2)
            if f1 == f2 or (None in (f1, f2) and g1 != g2)
        ]
        for t in steps:
            for u, w in clashing:
                hard.append([-trans[(t, v, *u)], -trans[(t, v, *w)]])

    # actions sharing a write exclude each other; other clashing actions are
    # excluded through their transitions (see the module docstring).  One
    # clause per pair, in a fixed order: a dict, not a set of str hashes.
    shared = dict.fromkeys(
        (a.id, b.id)
        for (_, f, g), backers in support.items()
        if f != g
        for i, a in enumerate(backers)
        for b in backers[i + 1:]
    )
    for t in steps:
        for a_id, b_id in shared:
            hard.append([-acts[(t, a_id)], -acts[(t, b_id)]])

    # an action brings all its transitions along
    for t in steps:
        for a in actions:
            for tr in a.transitions:
                hard.append([-acts[(t, a.id)], trans[(t, tr.var, tr.frm, tr.to)]])

    # every value change needs a supporting action
    for t in steps:
        for v in range(m):
            for f, g in universe[v]:
                if f is not None and f == g:
                    continue  # prevailing transitions hold by the frame rule
                backers = support.get((v, f, g), [])
                if f is not None:  # a mechanical write of g makes any move to g
                    backers = backers + support.get((v, None, g), [])
                hard.append([-trans[(t, v, f, g)]] + [acts[(t, a.id)] for a in backers])

    return (
        VarMap(L=L, nvars=nsteps, trans=MappingProxyType(trans), acts=MappingProxyType(acts),
               goals={}, universe=universe, weights=MappingProxyType(weights)),
        WcnfInstance.build(nvars=nsteps, hard=hard, soft=soft),
    )


def encode(sas: SasProblem, L: int) -> tuple[WcnfInstance, VarMap]:
    """Compile the task at makespan ``L``, reachability units included,
    reusing the clauses ``sas.library`` keeps (see the module docstring)."""
    if L < 1:
        raise PlanningError(f"makespan must be >= 1, got {L}")
    store = sas.library._encodings
    key = (sas.sizes, L)
    kept = store.get(key)
    if kept is None:
        kept = store[key] = _build_skeleton(sas.library, sas.sizes, L)
    steps, base = kept

    m = len(sas.sizes)
    trans, universe = steps.trans, steps.universe
    goal_vars = {g: base.nvars + i for i, g in enumerate(sas.goals, 1)}
    nvars = base.nvars + len(goal_vars)
    hard: list[list[int]] = []

    # start state: step 1 leaves each variable through its current value
    for v in range(m):
        hard.append(
            [trans[(1, v, f, g)] for f, g in universe[v] if f == sas.initial[v]]
        )

    # at least one goal state
    hard.append([goal_vars[g] for g in sas.goals])

    # a chosen goal pins each variable's final transition target
    for g in sas.goals:
        for v in range(m):
            hard.append(
                [-goal_vars[g]]
                + [trans[(L, v, f, t_)] for f, t_ in universe[v] if f is not None and t_ == g[v]]
            )

    # units, then query clauses, then the kept ones
    units = _reachability_units(sas, steps)
    instance = base.extend(nvars, [*units, *hard])
    return instance, dataclasses.replace(steps, nvars=nvars, goals=goal_vars, units=len(units))


def _reachability_units(sas: SasProblem, varmap: VarMap) -> tuple[tuple[int], ...]:
    """Unit clauses fixing false each explicit step transition that no plan
    from ``sas.initial`` to a goal within ``varmap.L`` steps can use.

    Per variable, a step moves along an explicit edge of its transition
    graph ``varmap.universe``.  ``fwd[t]`` holds the values reachable from
    the start in ``t`` steps, ``bwd[t]`` those from which some goal value is
    reachable by step ``L`` (the reachability half of Graphplan's planning
    graph, one variable at a time).  Every plan walks such edges, so the
    units lose none.  They are part of the encoding, not only a cut: the
    step-1 units fix false every transition that does not leave the start
    value, which the mutex pairs between transitions leaving different
    values would otherwise have to do (see the module docstring).
    Mechanical transitions are left alone.
    """
    L = varmap.L
    fwd, bwd = [], []
    for v, pairs in enumerate(varmap.universe):
        moves = [(f, g) for f, g in pairs if f is not None]
        reach = [{sas.initial[v]}]
        for _ in range(L - 1):
            reach.append({g for f, g in moves if f in reach[-1]})
        back = [{goal[v] for goal in sas.goals}]
        for _ in range(L):
            back.append({f for f, g in moves if g in back[-1]})
        fwd.append(reach)
        bwd.append(back[::-1])
    return tuple(
        (-x,)
        for (t, v, f, g), x in varmap.trans.items()
        if f is not None
        and (f not in fwd[v][t - 1] or f not in bwd[v][t - 1] or g not in bwd[v][t])
    )


def decode(assignment: tuple[bool, ...], varmap: VarMap, sas: SasProblem) -> Plan:
    """Read the non-empty per-step action sets out of a model and simulate
    them; EncodingBug if they do not execute."""
    steps: list[list[Action]] = [[] for _ in range(varmap.L)]
    for (t, action_id), v in varmap.acts.items():
        if assignment[v]:
            steps[t - 1].append(sas.library.by_id(action_id))
    kept = tuple(tuple(step) for step in steps if step)
    try:
        final = simulate_plan(sas.initial, kept)
    except ActionError as exc:
        raise EncodingBug(f"plan does not execute: {exc}") from exc
    cost = sum(a.cost for step in kept for a in step)
    return Plan(steps=kept, cost=cost, goal=final)


def check_plan(plan: Plan, sas: SasProblem) -> None:
    """Raise EncodingBug unless the plan executes and reaches a goal."""
    for step in plan.steps:
        for a in step:
            if a not in sas.library:
                raise EncodingBug(f"plan uses action {a.id!r} not present in the library")
    try:
        final = simulate_plan(sas.initial, plan.steps)
    except Exception as exc:
        raise EncodingBug(f"plan does not execute: {exc}") from exc
    if final != plan.goal:
        raise EncodingBug(f"plan ends in {final}, not its recorded goal {plan.goal}")
    if final not in sas.goals:
        raise EncodingBug(f"plan ends in {final}, which is not a goal state")
    total = sum(a.cost for step in plan.steps for a in step)
    if not math.isclose(total, plan.cost, rel_tol=0.0, abs_tol=1e-9):
        raise EncodingBug(f"plan cost {plan.cost} != sum of action costs {total}")


def build_sas(
    s_init: State,
    db: GoalDatabase,
    k: int,
    forest: RandomForest,
    table: PartitionTable,
    library: ActionLibrary,
) -> SasProblem:
    """Goal states from the k nearest stored neighbors, as one SAS+ task.

    The whole set-up of one query: ``db`` must pair with ``forest``, and one
    ``StateEvaluator`` serves the query.  A start that already reaches the
    vote threshold is the task's one goal.  Else neighbors are ranked with
    the forest's similarity weights; when none is usable, the offline search
    runs for this one state (slow path).  Every goal is re-checked against
    the vote threshold.
    """
    check_pairing(db, forest)
    s_init = check_state(table, s_init)
    evaluator = StateEvaluator(forest, table, db.params.target)
    if evaluator.proba(s_init) >= db.params.z:
        return SasProblem(sizes=table.sizes, library=library, initial=s_init, goals=(s_init,))
    near = k_nearest(s_init, db, k, SimilarityWeights.from_forest(forest), table)
    goals = sorted({entry.goal for _, entry, _ in near})
    if not goals:
        entry = find_preferred_goal(s_init, library, forest, table, db.params, evaluator=evaluator)
        if entry.found:
            goals = [entry.goal]
    if not goals:
        raise NoGoalsError(f"no goal states available for {s_init}: no usable stored neighbor")
    for g in goals:
        if evaluator.proba(g) < db.params.z:
            raise PlanningError(
                f"stored goal {g} does not reach the vote threshold; "
                "the goal database does not match this model"
            )
    return SasProblem(sizes=table.sizes, library=library, initial=s_init, goals=tuple(goals))


# a solve's status as its attempt records it
_ATTEMPT_STATUS = {maxsat.OPTIMAL: "sat", maxsat.HARD_UNSAT: "unsat", maxsat.TIMEOUT: "timeout"}


@dataclass(frozen=True)
class PlanAttempt:
    L: int
    status: str  # "sat" | "unsat" | "timeout"
    cost: float | None  # on "timeout", the checked incumbent's cost, if any
    # reachability units in this makespan's instance; None if none was built
    units: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class PlanOutcome:
    status: str
    plan: Plan | None
    s_init: State
    goals: tuple[State, ...]
    attempts: tuple[PlanAttempt, ...]

    @property
    def solved(self) -> bool:
        return self.status in (SOLVED, ALREADY_GOAL)


def plan_actions(
    forest: RandomForest,
    table: PartitionTable,
    library: ActionLibrary,
    db: GoalDatabase,
    x: Vector | None = None,
    state: State | None = None,
    k: int = 3,
    l_max: int = 8,
    sweep: bool = False,
    timeout: float | None = None,
    solver: Callable[..., SolveResult] | None = None,
) -> PlanOutcome:
    """Full online pipeline for one instance.

    The goals come from ``build_sas``: the start itself when it already
    reaches the vote threshold (status ``already_goal``), else those of
    the k nearest stored neighbors, or else the one found by an offline
    search from this state.  When none yields a goal the status is
    ``unsolvable``.
    Makespans 1..l_max are tried in order; the first satisfiable one
    yields the cost-minimal plan at that makespan.  With ``sweep`` the
    remaining makespans are solved too and the cheapest plan overall is
    kept (optimal cost can only improve with more steps); a later plan
    replaces it only if its exact weight is strictly smaller.

    Each encoding is solved by ``solver(instance, timeout=seconds_left)``,
    which returns a SolveResult; ``None`` means ``maxsat.solve``.
    ``timeout`` (None, or finite seconds > 0) bounds all solves together.
    When it runs out the status is ``timeout``, never ``solved``, and the
    plan is the cheapest one found so far (the solver's checked incumbent
    or an earlier makespan's optimum), which is not proven cheapest; it is
    None when no plan was found in time.
    """
    if (x is None) == (state is None):
        raise PlanningError("pass exactly one of x (raw vector) or state (partition indices)")
    for name, n in (("k", k), ("l_max", l_max)):
        if isinstance(n, bool) or not isinstance(n, int):
            raise PlanningError(f"{name} must be an int, got {n!r}")
        if n < 1:
            raise PlanningError(f"{name} must be >= 1, got {n}")
    if not maxsat.valid_timeout(timeout):
        raise PlanningError(
            f"timeout must be None or a finite number of seconds > 0, got {timeout!r}"
        )
    s_init = to_state(table, x) if x is not None else check_state(table, state)
    try:
        sas = build_sas(s_init, db, k, forest, table, library)
    except NoGoalsError:
        return PlanOutcome(status=UNSOLVABLE, plan=None, s_init=s_init, goals=(), attempts=())
    if s_init in sas.goals:
        return PlanOutcome(status=ALREADY_GOAL, plan=Plan(steps=(), cost=0.0, goal=s_init),
                           s_init=s_init, goals=sas.goals, attempts=())
    # looked up per call, not bound as a default, so a rebound maxsat.solve is used
    solve = solver if solver is not None else maxsat.solve

    deadline = time.perf_counter() + timeout if timeout is not None else None
    attempts: list[PlanAttempt] = []
    best: Plan | None = None
    best_weight = math.inf
    for L in range(1, l_max + 1):
        budget = None
        if deadline is not None:
            budget = deadline - time.perf_counter()
            if budget <= 0:
                attempts.append(PlanAttempt(L=L, status="timeout", cost=None))
                break
        instance, varmap = encode(sas, L)
        result = solve(instance, timeout=budget)
        plan = None
        if result.assignment is not None:
            plan = decode(result.assignment, varmap, sas)
            check_plan(plan, sas)
            weight = sum(varmap.weights[a.id] for step in plan.steps for a in step)
            if weight != result.cost:
                raise EncodingBug(f"decoded plan weighs {weight}, solver reported {result.cost}")
            if weight < best_weight:
                best, best_weight = plan, weight
        status = _ATTEMPT_STATUS[result.status]
        attempts.append(PlanAttempt(L=L, status=status, cost=plan.cost if plan else None,
                                    units=varmap.units))
        if status == "timeout" or (status == "sat" and not sweep):
            break

    if any(a.status == "timeout" for a in attempts):
        status = TIMEOUT
    else:
        status = SOLVED if best is not None else UNSOLVABLE
    return PlanOutcome(
        status=status, plan=best, s_init=s_init, goals=sas.goals, attempts=tuple(attempts)
    )
