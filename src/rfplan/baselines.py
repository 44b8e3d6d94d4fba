"""Baseline planners: a greedy hill climber and an exact uniform-cost oracle.

The greedy baseline repeatedly applies the single applicable action that
most improves the target vote share (several scoring rules available) and
fails on plateaus where no action improves it.  The oracle runs Dijkstra
over the full action graph and is exact but exponential in feature count,
so it carries an expansion cap; it exists to calibrate the others.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .discretize import PartitionTable, State, StateEvaluator, check_state
from .forest import RandomForest, check_count
from .offline import SearchError, SearchParams
from .sas_core import Action, ActionLibrary, ActionError, Plan, neighbors

SOLVED = "solved"
ALREADY_GOAL = "already_goal"
FAILED = "failed"
UNREACHABLE = "unreachable"

GREEDY_RULES = ("ratio", "max_gain", "min_cost")


class OracleCapExceeded(RuntimeError):
    """The oracle's expansion cap was hit before the search finished."""


@dataclass(frozen=True)
class GreedyResult:
    status: str
    plan: Plan | None
    visited: tuple[State, ...]

    @property
    def solved(self) -> bool:
        return self.status in (SOLVED, ALREADY_GOAL)


def greedy_plan(
    s_init: State,
    library: ActionLibrary,
    forest: RandomForest,
    table: PartitionTable,
    params: SearchParams,
    rule: str = "ratio",
    evaluator: StateEvaluator | None = None,
) -> GreedyResult:
    """Hill-climb on the target vote share, one action per step.

    ``rule`` picks among the actions that strictly improve the share:
    ``ratio`` takes the best improvement per unit cost, ``max_gain`` the
    largest improvement, ``min_cost`` the cheapest improving action.
    Ties fall to the cheaper action, then the smaller id.
    """
    if rule not in GREEDY_RULES:
        raise ActionError(f"unknown greedy rule {rule!r}; choose from {GREEDY_RULES}")
    s = check_state(table, s_init)
    if evaluator is None:
        evaluator = StateEvaluator(forest, table, params.target)
    p = evaluator.proba(s)
    visited = [s]
    if p >= params.z:
        return GreedyResult(
            status=ALREADY_GOAL, plan=Plan(steps=(), cost=0.0, goal=s), visited=tuple(visited)
        )
    steps: list[tuple[Action, ...]] = []
    total = 0.0
    while True:
        candidates = []
        for action, s2, w in neighbors(s, library):
            gain = evaluator.proba(s2) - p
            if gain > 0:
                candidates.append((action, s2, w, gain))
        if not candidates:
            return GreedyResult(status=FAILED, plan=None, visited=tuple(visited))
        if rule == "ratio":
            key = lambda c: (-(c[3] / c[2]), c[2], c[0].id)
        elif rule == "max_gain":
            key = lambda c: (-c[3], c[2], c[0].id)
        else:
            key = lambda c: (c[2], -c[3], c[0].id)
        action, s2, w, gain = min(candidates, key=key)
        steps.append((action,))
        total += w
        s = s2
        p = evaluator.proba(s)
        visited.append(s)
        if p >= params.z:
            return GreedyResult(
                status=SOLVED,
                plan=Plan(steps=tuple(steps), cost=total, goal=s),
                visited=tuple(visited),
            )


@dataclass(frozen=True)
class OracleResult:
    status: str
    plan: Plan | None
    expansions: int

    @property
    def solved(self) -> bool:
        return self.status in (SOLVED, ALREADY_GOAL)

    @property
    def cost(self) -> float:
        return self.plan.cost if self.plan is not None else math.inf


def oracle_plan(
    s_init: State,
    library: ActionLibrary,
    forest: RandomForest,
    table: PartitionTable,
    params: SearchParams,
    cap: int = 1_000_000,
    evaluator: StateEvaluator | None = None,
) -> OracleResult:
    """Dijkstra over the action graph; the first goal popped is optimal.

    Exhaustive and exact, with one action per step.  Raises
    OracleCapExceeded once more than ``cap`` states have been expanded,
    and SearchError for a ``cap`` below 1.
    """
    check_count("cap", cap, 1, SearchError)
    s_init = check_state(table, s_init)
    if evaluator is None:
        evaluator = StateEvaluator(forest, table, params.target)
    if evaluator.proba(s_init) >= params.z:
        return OracleResult(
            status=ALREADY_GOAL, plan=Plan(steps=(), cost=0.0, goal=s_init), expansions=0
        )
    heap: list[tuple[float, State]] = [(0.0, s_init)]
    best_g: dict[State, float] = {s_init: 0.0}
    parent: dict[State, tuple[State, Action]] = {}
    closed: set[State] = set()
    while heap:
        g, s = heapq.heappop(heap)
        if s in closed or g > best_g.get(s, math.inf):
            continue
        if evaluator.proba(s) >= params.z:
            steps: list[tuple[Action, ...]] = []
            cur = s
            while cur != s_init:
                prev, action = parent[cur]
                steps.append((action,))
                cur = prev
            steps.reverse()
            return OracleResult(
                status=SOLVED,
                plan=Plan(steps=tuple(steps), cost=g, goal=s),
                expansions=len(closed),
            )
        closed.add(s)
        if len(closed) > cap:
            raise OracleCapExceeded(
                f"oracle expanded more than {cap} states from {s_init}; "
                "raise the cap or shrink the instance"
            )
        for action, s2, w in neighbors(s, library):
            g2 = g + w
            if s2 in closed or g2 >= best_g.get(s2, math.inf):
                continue
            best_g[s2] = g2
            parent[s2] = (s, action)
            heapq.heappush(heap, (g2, s2))
    return OracleResult(status=UNREACHABLE, plan=None, expansions=len(closed))
