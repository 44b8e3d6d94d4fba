"""Offline preprocessing: per-state search for the cheapest goal state.

For each start state an anytime best-first search over the action graph
looks for the cheapest state whose target-class vote share reaches the
threshold z.  Its heuristic is alpha * (z - p), which need not be
consistent (the default alpha is the mean action cost), so the search
keeps one cost label per state and puts an already expanded state back
on the frontier whenever a cheaper route reaches it.  Goal states are
recorded but never expanded.  The search stops when the frontier empties,
which proves the stored cost optimal for every alpha; when more than
``patience`` expansions pass without a cheaper goal; or when the
expansion budget is exhausted.  Re-expansions count as expansions.

``preprocess`` searches its states in batches, one batch in process or
one per worker process with ``workers > 1``; each batch builds one
evaluator and one successor table and searches its states in order.
A state's successors are generated once per batch, however many
searches expand it.  The table holds one row per expanded state and is
freed with its batch; a lone ``find_preferred_goal`` call builds none.

Results are stored in a goal database keyed by start state and stamped
with the model fingerprint so stale pairings are rejected.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import forest as forest_mod
from .discretize import PartitionTable, State, StateEvaluator, check_state, enumerate_states
from .forest import Label, ModelError, RandomForest
from .sas_core import Action, ActionLibrary, neighbors

AUTO = "auto"

PROVED_EXHAUSTED = "proved_exhausted"
PATIENCE_STOP = "patience_stop"
BUDGET_STOP = "budget_stop"
NO_GOAL = "no_goal"

DB_FORMAT_VERSION = 1


class SearchError(ValueError):
    """Bad search parameters or an inconsistent goal database."""


@dataclass(frozen=True)
class SearchParams:
    """Offline search knobs.

    ``alpha`` scales the heuristic and may be the string ``"auto"``,
    which resolves to the mean action cost of the library in use.  Any
    alpha is safe for the ``proved_exhausted`` status, since expanded
    states reopen; a smaller alpha only makes the search less directed.
    ``patience`` is the number of expansions tolerated past the last goal
    improvement; ``node_budget`` caps total expansions.  Both count
    re-expansions of reopened states, as does the entry's ``expansions``.
    """

    target: Label
    z: float = 0.5
    alpha: float | str = AUTO
    patience: int = 10_000_000
    node_budget: int = 5_000_000

    def __post_init__(self):
        if not 0.0 < self.z <= 1.0:
            raise SearchError(f"z must be in (0, 1], got {self.z}")
        if self.alpha != AUTO:
            if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)):
                raise SearchError(f"alpha must be a number or 'auto', got {self.alpha!r}")
            if self.alpha < 0 or not math.isfinite(self.alpha):
                raise SearchError(f"alpha must be >= 0, got {self.alpha}")
            object.__setattr__(self, "alpha", float(self.alpha))
        if self.patience < 1:
            raise SearchError(f"patience must be >= 1, got {self.patience}")
        if self.node_budget < 1:
            raise SearchError(f"node_budget must be >= 1, got {self.node_budget}")

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "z": self.z,
            "alpha": self.alpha,
            "patience": self.patience,
            "node_budget": self.node_budget,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchParams":
        try:
            return cls(
                target=doc["target"],
                z=doc["z"],
                alpha=doc["alpha"],
                patience=doc["patience"],
                node_budget=doc["node_budget"],
            )
        except KeyError as exc:
            raise SearchError(f"search params missing {exc}") from None


def resolve_alpha(params: SearchParams, library: ActionLibrary) -> float:
    """Numeric alpha: 'auto' becomes the library's mean action cost."""
    if params.alpha == AUTO:
        return library.mean_cost()
    return float(params.alpha)


def heuristic(p: float, z: float, alpha: float) -> float:
    """Optimistic remaining cost for a state with target share ``p``."""
    return alpha * (z - p) if p < z else 0.0


@dataclass(frozen=True)
class PreferredGoalEntry:
    """One database row: the cheapest goal found for a start state.

    ``path`` carries the witnessing action sequence when the entry was
    produced in-process; it is not persisted.
    """

    initial: State
    goal: State | None
    cost: float | None
    expansions: int
    status: str
    path: tuple[Action, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.status not in (PROVED_EXHAUSTED, PATIENCE_STOP, BUDGET_STOP, NO_GOAL):
            raise SearchError(f"unknown status {self.status!r}")
        if (self.goal is None) != (self.status == NO_GOAL):
            raise SearchError("goal must be absent exactly when status is no_goal")
        if (self.cost is None) != (self.status == NO_GOAL):
            raise SearchError("cost must be absent exactly when status is no_goal")
        cost, n = self.cost, self.expansions
        if cost is not None and (
            isinstance(cost, bool) or not isinstance(cost, (int, float)) or not 0 <= cost < math.inf
        ):
            raise SearchError(f"cost must be a finite number >= 0, got {cost!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise SearchError(f"expansions must be an int >= 0, got {n!r}")

    @property
    def found(self) -> bool:
        return self.status != NO_GOAL


_cost = operator.attrgetter("cost")


class SuccessorTable:
    """Successor rows shared by the searches of one ``preprocess`` call.

    A state's first expansion stores ``neighbors(s, library)`` as two
    parallel tuples, its actions and its successor states, in the same id
    order; later expansions, in this search or another, reuse the row.
    Successor states are interned, one object per state.  The table grows
    by one row per state expanded through it and lives as long as its
    owner, which for ``preprocess`` is one call.
    """

    def __init__(self, library: ActionLibrary):
        self.library = library
        self._rows: dict[State, tuple[tuple[Action, ...], tuple[State, ...]]] = {}
        self._interned: dict[State, State] = {}

    def edges(self, s: State) -> Iterable[tuple[Action, State, float]]:
        """``(action, successor, cost)`` triples, as ``neighbors`` yields them."""
        row = self._rows.get(s)
        if row is None:
            intern = self._interned.setdefault
            found = neighbors(s, self.library)
            row = self._rows[s] = (
                tuple(a for a, _, _ in found),
                tuple(intern(s2, s2) for _, s2, _ in found),
            )
        actions, states = row
        return zip(actions, states, map(_cost, actions))


def find_preferred_goal(
    s_init: State,
    library: ActionLibrary,
    forest: RandomForest,
    table: PartitionTable,
    params: SearchParams,
    evaluator: StateEvaluator | None = None,
    successors: SuccessorTable | None = None,
) -> PreferredGoalEntry:
    """Best-first anytime search from one start state.

    ``successors`` is a table shared with other searches over the same
    library; without one, every expansion calls ``neighbors``.
    """
    s_init = check_state(table, s_init)
    if evaluator is None:
        evaluator = StateEvaluator(forest, table, params.target)
    if successors is not None and successors.library is not library:
        raise SearchError("successor table was built for another action library")
    alpha = resolve_alpha(params, library)
    z = params.z

    best_goal: State | None = None
    best_cost = math.inf
    best_path: tuple[Action, ...] = ()
    expansions = 0
    expansions_at_goal = 0

    best_g: dict[State, float] = {s_init: 0.0}
    parent: dict[State, tuple[State, Action]] = {}
    p0 = evaluator.proba(s_init)
    heap: list[tuple[float, float, State]] = [(heuristic(p0, z, alpha), 0.0, s_init)]
    status = PROVED_EXHAUSTED

    def path_to(s: State) -> tuple[Action, ...]:
        steps: list[Action] = []
        while s != s_init:
            prev, action = parent[s]
            steps.append(action)
            s = prev
        steps.reverse()
        return tuple(steps)

    while heap:
        f, g, s = heapq.heappop(heap)
        if g > best_g[s]:
            continue  # stale: a cheaper route to s was pushed since
        p = evaluator.proba(s)
        if p >= z and g < best_cost:
            # an ancestor reopened after s was pushed may have a cheaper
            # parent link now, so the path can cost less than g
            best_goal, best_path = s, path_to(s)
            best_cost = sum((a.cost for a in best_path), 0.0)
            expansions_at_goal = expansions
        if expansions - expansions_at_goal > params.patience:
            status = PATIENCE_STOP
            break
        if p >= z:
            continue  # goal states are recorded, never expanded
        expansions += 1
        if expansions > params.node_budget:
            status = BUDGET_STOP
            break
        edges = neighbors(s, library) if successors is None else successors.edges(s)
        for action, s2, w in edges:
            g2 = g + w
            if g2 < best_g.get(s2, math.inf):
                best_g[s2] = g2
                parent[s2] = (s, action)
                p2 = evaluator.proba(s2)
                heapq.heappush(heap, (g2 + heuristic(p2, z, alpha), g2, s2))

    if best_goal is None:
        return PreferredGoalEntry(
            initial=s_init, goal=None, cost=None, expansions=expansions, status=NO_GOAL
        )
    return PreferredGoalEntry(
        initial=s_init,
        goal=best_goal,
        cost=best_cost,
        expansions=expansions,
        status=status,
        path=best_path,
    )


@dataclass(frozen=True)
class GoalDatabase:
    """Preferred-goal entries for one model and one parameter set."""

    fingerprint: str
    params: SearchParams
    entries: dict[State, PreferredGoalEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, s: State) -> PreferredGoalEntry | None:
        return self.entries.get(tuple(s))


def _search_batch(
    states: list[State],
    library: ActionLibrary,
    forest: RandomForest,
    table: PartitionTable,
    params: SearchParams,
    on_each: Callable[[int], None] | None = None,
) -> list[PreferredGoalEntry]:
    """Search ``states`` in order, sharing one evaluator and one successor
    table; ``on_each(done)`` runs after every state."""
    evaluator = StateEvaluator(forest, table, params.target)
    successors = SuccessorTable(library)
    entries = []
    for s in states:
        entries.append(
            find_preferred_goal(s, library, forest, table, params, evaluator, successors)
        )
        if on_each:
            on_each(len(entries))
    return entries


def preprocess(
    states: Iterable[State],
    library: ActionLibrary,
    forest: RandomForest,
    table: PartitionTable,
    params: SearchParams,
    workers: int = 1,
    on_progress: Callable[[int, int], None] | None = None,
) -> GoalDatabase:
    """Search every given start state and assemble the goal database.

    Duplicate states are searched once, in sorted order, as one batch
    that shares a ``SuccessorTable`` until the call returns;
    ``on_progress(done, total)`` runs after every state.  With
    ``workers > 1`` the states are dealt into one batch per process and
    ``on_progress`` runs as each batch's results arrive.  Results are
    identical either way, and identical to lone ``find_preferred_goal``
    calls.
    """
    todo = sorted(set(check_state(table, s) for s in states))
    report = (lambda done: on_progress(done, len(todo))) if on_progress else None
    if workers <= 1 or not todo:
        found = _search_batch(todo, library, forest, table, params, report)
    else:
        chunks = [c for c in (todo[i::workers] for i in range(workers)) if c]
        search = functools.partial(
            _search_batch, library=library, forest=forest, table=table, params=params
        )
        found = []
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for batch in pool.map(search, chunks):
                found.extend(batch)
                if report:
                    report(len(found))
    return GoalDatabase(
        fingerprint=forest_mod.fingerprint(forest),
        params=params,
        entries={e.initial: e for e in found},
    )


def db_persist(db: GoalDatabase, path) -> None:
    """JSON-lines: one header object, then one entry object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format_version": DB_FORMAT_VERSION,
            "fingerprint": db.fingerprint,
            "params": db.params.to_dict(),
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in sorted(db.entries):
            e = db.entries[s]
            rec = {
                "initial": list(e.initial),
                "goal": list(e.goal) if e.goal is not None else None,
                "cost": e.cost,
                "expansions": e.expansions,
                "status": e.status,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def db_restore(path) -> GoalDatabase:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise SearchError(f"{path}: empty database file")

    def parse(lineno: int, text: str) -> dict:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SearchError(f"{path}:{lineno}: not valid JSON ({exc.msg})") from None
        if not isinstance(doc, dict):
            raise SearchError(f"{path}:{lineno}: expected a JSON object")
        return doc

    header = parse(1, lines[0])
    if header.get("format_version") != DB_FORMAT_VERSION:
        raise SearchError(
            f"{path}:1: unsupported format_version {header.get('format_version')!r}"
        )
    for key in ("fingerprint", "params"):
        if key not in header:
            raise SearchError(f"{path}:1: header missing {key!r}")
    params = SearchParams.from_dict(header["params"])
    entries: dict[State, PreferredGoalEntry] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = parse(lineno, line)
        try:
            entry = PreferredGoalEntry(
                initial=tuple(rec["initial"]),
                goal=tuple(rec["goal"]) if rec.get("goal") is not None else None,
                cost=rec.get("cost"),
                expansions=rec.get("expansions", 0),
                status=rec.get("status", ""),
            )
        except (KeyError, TypeError, SearchError) as exc:
            raise SearchError(f"{path}:{lineno}: bad entry ({exc})") from None
        if entry.initial in entries:
            raise SearchError(f"{path}:{lineno}: duplicate entry for state {entry.initial}")
        entries[entry.initial] = entry
    return GoalDatabase(fingerprint=header["fingerprint"], params=params, entries=entries)


def check_pairing(db: GoalDatabase, forest: RandomForest) -> None:
    """Reject a database that was built from a different model."""
    fp = forest_mod.fingerprint(forest)
    if db.fingerprint != fp:
        raise SearchError(
            f"goal database fingerprint {db.fingerprint[:12]}... does not match "
            f"model {fp[:12]}..."
        )


__all__ = [
    "AUTO",
    "PROVED_EXHAUSTED",
    "PATIENCE_STOP",
    "BUDGET_STOP",
    "NO_GOAL",
    "SearchError",
    "SearchParams",
    "PreferredGoalEntry",
    "SuccessorTable",
    "GoalDatabase",
    "resolve_alpha",
    "heuristic",
    "find_preferred_goal",
    "preprocess",
    "db_persist",
    "db_restore",
    "check_pairing",
    "enumerate_states",
]
