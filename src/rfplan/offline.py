"""Offline preprocessing: per-state search for the cheapest goal state.

For each start state an anytime best-first search over the action graph
looks for the cheapest state whose target-class vote share reaches the
threshold z.  Its heuristic is alpha * (z - p), which need not be
consistent (the default alpha is the mean action cost), so the search
keeps one cost label per state and puts an already expanded state back
on the frontier whenever a cheaper route reaches it.  Goal states are
recorded but never expanded, and a goal reached at a cost no lower than
the best goal's is not queued.  A goal is recorded only when it pops
cheaper than the best, the best cost only falls, and a goal's pop expands
and counts nothing, so this skip changes no entry, expansion count or stop
status.  Non-goal states are queued whatever their cost.  The search
stops when the frontier empties, which proves the stored cost optimal for
every alpha (or, with no goal found, proves none reachable: ``no_goal``);
when ``patience`` expansions have passed without a cheaper goal; or when
``node_budget`` expansions are done.  A search cut off by either cap keeps
its stop status, with or without a goal.  Re-expansions count as
expansions.

The search works on integer state ranks: a state's row-major rank in the
partition grid (``PartitionTable.strides``).  Rank order is the tuples'
lexicographic order, so frontier entries ``(f, g, rank)`` pop in the
order ``(f, g, state)`` would, and a rank becomes a tuple again only for
the entry's goal.

``preprocess`` searches its states in batches, one batch in process or
one per worker process with ``workers > 1`` (at most one per usable
CPU); each batch builds one evaluator and one state table
(``SuccessorTable``) and searches its states in order.  The table maps
ranks to states and target shares and holds one row per expanded state:
its actions, successor ranks and action costs.  A state's row is built
once per batch, however many searches expand it, and the table is freed
with its batch.  A lone ``find_preferred_goal`` call is a batch of one.

Results are stored in a goal database keyed by start state and stamped
with the model fingerprint so stale pairings are rejected.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import io
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from . import forest as forest_mod
from .discretize import PartitionTable, State, StateEvaluator, check_state
from .forest import (
    Label, RandomForest, check_count, check_label, check_record, read_json, read_text,
)
from .sas_core import Action, ActionLibrary, neighbors

AUTO = "auto"

PROVED_EXHAUSTED = "proved_exhausted"
PATIENCE_STOP = "patience_stop"
BUDGET_STOP = "budget_stop"
NO_GOAL = "no_goal"

DB_FORMAT_VERSION = 1


class SearchError(ValueError):
    """Bad search parameters or an inconsistent goal database."""


def check_z(name: str, z: Any, error: type[Exception]) -> float:
    """``z`` when it is a number in (0, 1]; else ``error`` as ``<name> must
    be …``.  The one rule for a vote-share threshold."""
    if isinstance(z, bool) or not isinstance(z, (int, float)):
        raise error(f"{name} must be a number, got {z!r}")
    if not 0.0 < z <= 1.0:
        raise error(f"{name} must be in (0, 1], got {z}")
    return z


def check_alpha(name: str, alpha: Any, error: type[Exception]) -> float | str:
    """``"auto"``, or ``alpha`` as a float when it is a finite number >= 0;
    else ``error`` as ``<name> must be …``.  The one rule for a heuristic scale."""
    if alpha == AUTO:
        return alpha
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise error(f"{name} must be a number or '{AUTO}', got {alpha!r}")
    if not 0 <= alpha <= sys.float_info.max:
        raise error(f"{name} must be a finite number >= 0, got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class SearchParams:
    """Offline search knobs.

    ``alpha`` scales the heuristic and may be the string ``"auto"``,
    which resolves to the mean action cost of the library in use.  Any
    alpha is safe for the ``proved_exhausted`` status, since expanded
    states reopen; a smaller alpha only makes the search less directed.
    ``patience`` is the number of expansions tolerated past the last goal
    improvement (or past the start, before any goal); ``node_budget`` caps
    total expansions.  Both count re-expansions of reopened states, as does
    the entry's ``expansions``.
    """

    target: Label
    z: float = 0.5
    alpha: float | str = AUTO
    patience: int = 10_000_000
    node_budget: int = 5_000_000

    def __post_init__(self):
        check_label(self.target, "target", SearchError)
        check_z("z", self.z, SearchError)
        object.__setattr__(self, "alpha", check_alpha("alpha", self.alpha, SearchError))
        for name in ("patience", "node_budget"):
            check_count(name, getattr(self, name), 1, SearchError)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Any) -> "SearchParams":
        """Read a search params record: every field, each checked by the constructor."""
        check_record(doc, "", SearchError, {f.name: object for f in dataclasses.fields(cls)})
        return cls(**doc)


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

    ``goal`` and ``cost`` are both set or both None: set for
    ``proved_exhausted``, None for ``no_goal`` (the frontier emptied), and
    either after a patience or budget stop.  ``path`` carries the witnessing
    action sequence when the entry was produced in-process; not persisted.
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
        if (self.goal is None) != (self.cost is None):
            raise SearchError("goal and cost must be both set or both absent")
        if self.status == NO_GOAL and self.goal is not None:
            raise SearchError("a no_goal entry cannot have a goal")
        if self.status == PROVED_EXHAUSTED and self.goal is None:
            raise SearchError("a proved_exhausted entry needs a goal")
        cost = self.cost
        if cost is not None and (
            isinstance(cost, bool) or not isinstance(cost, (int, float))
            or not 0 <= cost <= sys.float_info.max
        ):
            raise SearchError(f"cost must be a finite number >= 0, got {cost!r}")
        check_count("expansions", self.expansions, 0, SearchError)

    @property
    def found(self) -> bool:
        return self.goal is not None


class SuccessorTable:
    """The state table shared by the searches of one ``preprocess`` batch.

    A state is numbered by its row-major rank in the partition grid,
    ``Σ s[i]·strides[i]`` (``PartitionTable.strides``).  Rank order is the
    tuples' lexicographic order, so search entries keyed by rank pop in
    the order entries keyed by the state would.  Ranks are interned, one
    int object per state.  The table holds:

    - ``state``: rank -> state, for every state it has ranked;
    - ``share``: rank -> the state's target share, read through the
      batch's ``StateEvaluator`` each time a row lists the state;
    - one row per expanded state, from its first expansion's
      ``neighbors(s, library)``: its actions, successor ranks and action
      costs, as three parallel tuples in id order.  Later expansions, in
      this search or another, reuse the row.

    The table grows by one row per state expanded through it and lives as
    long as its batch.  A lone ``find_preferred_goal`` call is a batch of
    one: it builds its own table, which is freed when the call returns.
    """

    def __init__(self, library: ActionLibrary, evaluator: StateEvaluator):
        self.library = library
        self.evaluator = evaluator
        self.state: dict[int, State] = {}
        self.share: dict[int, float] = {}
        self._strides = evaluator.table.strides
        self._interned: dict[int, int] = {}
        self._rows: dict[int, tuple[tuple[Action, ...], tuple[int, ...], tuple[float, ...]]] = {}

    def rank(self, s: State) -> int:
        """The interned rank of ``s``; records ``s`` and reads its share."""
        r = sum(map(operator.mul, s, self._strides))
        r = self._interned.setdefault(r, r)
        self.state.setdefault(r, s)
        self.share[r] = self.evaluator.proba(s)
        return r

    def row(self, r: int) -> tuple[tuple[Action, ...], tuple[int, ...], tuple[float, ...]]:
        """``(actions, successor ranks, costs)`` of the state ranked ``r``."""
        row = self._rows.get(r)
        if row is None:
            found = neighbors(self.state[r], self.library)
            row = self._rows[r] = (
                tuple(a for a, _, _ in found),
                tuple(self.rank(s2) for _, s2, _ in found),
                tuple(w for _, _, w in found),
            )
        return row


def find_preferred_goal(
    s_init: State,
    library: ActionLibrary,
    forest: RandomForest,
    table: PartitionTable,
    params: SearchParams,
    successors: SuccessorTable | None = None,
) -> PreferredGoalEntry:
    """Best-first anytime search from one start state.

    ``successors`` is a state table shared with other searches over the
    same library, whose evaluator reads ``forest``, ``table`` and the
    target of ``params``; without one, the search builds its own.  Search
    entries are keyed by rank.

    A goal successor whose cost reaches the best goal's is not pushed, and
    its cost label and parent link are not written.  It could never be
    recorded, and any later route to it that its label would have blocked
    costs at least as much and is skipped too.  Keys ``(f, g, rank)`` are
    unique, so every other entry pops in the same order, and the entry, its
    expansions and its witness path are those of a search that queues
    every goal.
    """
    s_init = check_state(table, s_init)
    if successors is None:
        successors = SuccessorTable(library, StateEvaluator(forest, table, params.target))
    elif successors.library is not library:
        raise SearchError("successor table was built for another action library")
    else:
        ev = successors.evaluator
        if (ev.forest, ev.table, ev.target) != (forest, table, params.target):
            raise SearchError("successor table reads shares of another forest, table or target")
    alpha = resolve_alpha(params, library)
    z = params.z
    share = successors.share
    row = successors.row

    best_goal: int | None = None
    best_cost = math.inf
    best_path: tuple[Action, ...] = ()
    expansions = 0
    expansions_at_goal = 0

    r_init = successors.rank(s_init)
    best_g: dict[int, float] = {r_init: 0.0}
    parent: dict[int, tuple[int, Action]] = {}
    heap: list[tuple[float, float, int]] = [(heuristic(share[r_init], z, alpha), 0.0, r_init)]
    status = PROVED_EXHAUSTED

    def path_to(r: int) -> tuple[Action, ...]:
        steps: list[Action] = []
        while r != r_init:
            r, action = parent[r]
            steps.append(action)
        steps.reverse()
        return tuple(steps)

    # local names for the loop that runs once per edge
    g_of, inf, push, pop = best_g.get, math.inf, heapq.heappush, heapq.heappop
    while heap:
        f, g, r = pop(heap)
        if g > best_g[r]:
            continue  # stale: a cheaper route to r was pushed since
        if share[r] >= z:
            if g < best_cost:
                # an ancestor reopened after r was pushed may have a cheaper
                # parent link now, so the path can cost less than g
                best_goal, best_path = r, path_to(r)
                best_cost = sum((a.cost for a in best_path), 0.0)
                expansions_at_goal = expansions
            continue  # goal states are recorded, never expanded
        if expansions - expansions_at_goal >= params.patience:
            status = PATIENCE_STOP
            break
        if expansions >= params.node_budget:
            status = BUDGET_STOP
            break
        expansions += 1
        for action, r2, w in zip(*row(r)):
            g2 = g + w
            if g2 < g_of(r2, inf):
                p2 = share[r2]
                if p2 >= z and g2 >= best_cost:
                    continue  # a goal no cheaper than the best one is never recorded
                best_g[r2] = g2
                parent[r2] = (r, action)
                # heuristic(p2, z, alpha), inlined
                push(heap, (g2 + (alpha * (z - p2) if p2 < z else 0.0), g2, r2))

    if best_goal is None:
        # only an emptied frontier proves that no goal is reachable
        return PreferredGoalEntry(initial=s_init, goal=None, cost=None, expansions=expansions,
                                  status=NO_GOAL if status == PROVED_EXHAUSTED else status)
    return PreferredGoalEntry(initial=s_init, goal=successors.state[best_goal], cost=best_cost,
                              expansions=expansions, status=status, path=best_path)


@dataclass(frozen=True)
class GoalDatabase:
    """Preferred-goal entries for one model and one parameter set."""

    fingerprint: str
    params: SearchParams
    entries: dict[State, PreferredGoalEntry]

    def __len__(self) -> int:
        return len(self.entries)


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
    successors = SuccessorTable(library, StateEvaluator(forest, table, params.target))
    entries = []
    for s in states:
        entries.append(
            find_preferred_goal(s, library, forest, table, params, successors=successors)
        )
        if on_each:
            on_each(len(entries))
    return entries


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    ``workers > 1`` the states are dealt into one batch per process, at
    most one per CPU this process may use and one per state, and
    ``on_progress`` runs as each batch's results arrive.  Results are
    identical either way, and identical to lone ``find_preferred_goal``
    calls.
    """
    check_count("workers", workers, 1, SearchError)
    todo = sorted(set(check_state(table, s) for s in states))
    report = (lambda done: on_progress(done, len(todo))) if on_progress else None
    batches = min(workers, len(todo), _usable_cpus())
    if batches <= 1:
        found = _search_batch(todo, library, forest, table, params, report)
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [todo[i::batches] for i in range(batches)]
        search = functools.partial(
            _search_batch, library=library, forest=forest, table=table, params=params
        )
        found = []
        with ProcessPoolExecutor(max_workers=batches) as pool:
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
    lines = io.StringIO(read_text(path, SearchError), newline=None).readlines()
    if not lines:
        raise SearchError(f"{path}: empty database file")
    header = check_record(read_json(path, SearchError, lines[0]), f"{path}:1", SearchError,
                          {"fingerprint": str, "params": object}, version=DB_FORMAT_VERSION)
    try:
        params = SearchParams.from_dict(header["params"])
    except SearchError as exc:
        raise SearchError(f"{path}:1: bad search params ({exc})") from None

    def state(rec: dict, key: str) -> State:
        return tuple(check_count(f"{key}[{i}]", v, 0, SearchError)
                     for i, v in enumerate(rec[key]))

    entries: dict[State, PreferredGoalEntry] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = read_json(path, SearchError, line, lineno)
        try:
            check_record(rec, "", SearchError, {"initial": list, "goal": (list, type(None)),
                                                "cost": object, "expansions": object,
                                                "status": object})
            entry = PreferredGoalEntry(
                initial=state(rec, "initial"),
                goal=state(rec, "goal") if rec["goal"] is not None else None,
                cost=rec["cost"],
                expansions=rec["expansions"],
                status=rec["status"],
            )
        except SearchError as exc:
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
]
