"""SAS+ building blocks: transitions, actions, mutex rules, cost model.

State variables are the discretized features; their values are partition
indices.  A transition moves one variable between values.  Three shapes:

  regular     (f, g) with f != g   -- requires f, produces g
  prevailing  (f, f)               -- requires f, leaves it unchanged
  mechanical  (*, g)               -- produces g from any prior value

An action is a set of compatible transitions, applied simultaneously, with
a positive finite cost: at most one per variable, except that a mechanical
write may sit next to another transition to the same value.

``ActionLibrary`` indexes its actions once, on construction, by the
(variable, value) its first non-mechanical transition requires; actions
made of mechanical transitions only sit in one always-checked list.
``neighbors`` looks up one bucket per variable of the state, so it visits
only the actions that can fire there instead of the whole library.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from .discretize import PartitionTable, State, cell
from .forest import FeatureMeta, ModelError, check_record, read_json, read_text

WILDCARD = None  # the "from anywhere" marker of a mechanical transition


class ActionError(ValueError):
    """Ill-formed transition, action, or action spec file."""


@dataclass(frozen=True)
class Transition:
    """One variable move.  ``frm`` is WILDCARD for a mechanical transition."""

    var: int
    frm: int | None
    to: int

    def __post_init__(self):
        if self.var < 0:
            raise ActionError(f"variable index must be >= 0, got {self.var}")
        if self.to < 0:
            raise ActionError(f"target value must be >= 0, got {self.to}")
        if self.frm is not None and self.frm < 0:
            raise ActionError(f"source value must be >= 0 or WILDCARD, got {self.frm}")

    @property
    def is_mechanical(self) -> bool:
        return self.frm is None

    @property
    def is_prevailing(self) -> bool:
        return self.frm is not None and self.frm == self.to

    @property
    def sort_key(self) -> tuple[int, int, int]:
        # mechanical transitions sort after explicit sources of the same variable
        return (self.var, self.frm if self.frm is not None else 1 << 30, self.to)

    def __str__(self) -> str:
        frm = "*" if self.frm is None else str(self.frm)
        return f"x{self.var}:{frm}->{self.to}"


def transition_mutex(t1: Transition, t2: Transition) -> bool:
    """Whether two transitions cannot fire in the same step.

    Identical transitions and transitions on different variables never
    clash.  On a shared variable, agreement on the target with at least
    one mechanical member is tolerated; everything else clashes.
    """
    if t1 == t2:
        return False
    if t1.var != t2.var:
        return False
    if (t1.is_mechanical or t2.is_mechanical) and t1.to == t2.to:
        return False
    return True


@dataclass(frozen=True)
class Action:
    """Simultaneous transitions with a cost: at most one per variable, except
    that a mechanical write may sit next to another transition to the same value."""

    id: str
    transitions: tuple[Transition, ...]
    cost: float

    def __post_init__(self):
        if not self.id:
            raise ActionError("action id must be non-empty")
        if not 0 < self.cost < float("inf"):
            raise ActionError(f"action {self.id!r}: cost must be finite and > 0, got {self.cost}")
        ts = tuple(sorted(set(self.transitions), key=lambda t: t.sort_key))
        if not ts:
            raise ActionError(f"action {self.id!r}: needs at least one transition")
        for i, a in enumerate(ts):
            for b in ts[i + 1:]:
                if transition_mutex(a, b):
                    raise ActionError(
                        f"action {self.id!r}: transitions {a} and {b} are mutually exclusive"
                    )
        object.__setattr__(self, "transitions", ts)
        object.__setattr__(self, "cost", float(self.cost))

    def applicable(self, s: State) -> bool:
        return all(t.is_mechanical or s[t.var] == t.frm for t in self.transitions)


def action_mutex(a1: Action, a2: Action) -> bool:
    """Whether two actions cannot share a step.

    They clash when they contain a mutex transition pair, or when they
    share a transition that writes (anything non-prevailing).
    """
    for t1 in a1.transitions:
        for t2 in a2.transitions:
            if transition_mutex(t1, t2):
                return True
            if t1 == t2 and not t1.is_prevailing:
                return True
    return False


@dataclass(frozen=True)
class CostModel:
    """Per-feature effort weights; a move from f to g on feature j costs
    weight_j * (f - g)^2 in partition-index space."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights:
            raise ActionError("cost model needs at least one weight")
        for j, w in enumerate(self.weights):
            if not (w > 0):
                raise ActionError(f"weight {j} must be positive, got {w}")

    @classmethod
    def random(cls, m: int, rng, low: int = 1, high: int = 100) -> "CostModel":
        """Integer weights drawn uniformly from [low, high]."""
        return cls(weights=tuple(float(rng.integers(low, high + 1)) for _ in range(m)))

    def step_cost(self, var: int, frm: int, to: int) -> float:
        return self.weights[var] * (frm - to) ** 2


@dataclass(frozen=True)
class ActionLibrary:
    """Actions sorted by id, with unique ids.

    ``__post_init__`` also builds, outside the dataclass fields (so
    equality, hash and repr see only ``actions``), an id -> action dict and
    the successor index ``neighbors`` reads: each action is filed under the
    ``(var, frm)`` of its first non-mechanical transition, with its position
    in id order, the ``(var, frm)`` pairs its other transitions require and
    the ``(var, to)`` values it writes.  Beside them sits the dict in which
    ``encoder.encode`` keeps the query-independent clauses it builds for
    this library, so they live exactly as long as the library.  Pickling
    sends ``actions`` alone; loading rebuilds the index and starts an empty
    dict.
    """

    actions: tuple[Action, ...]

    def __post_init__(self):
        acts = tuple(sorted(self.actions, key=lambda a: a.id))
        ids = [a.id for a in acts]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ActionError(f"duplicate action ids: {dupes}")
        object.__setattr__(self, "actions", acts)
        object.__setattr__(self, "_by_id", dict(zip(ids, acts)))
        keyed: dict[tuple[int, int], list] = {}
        always = []
        for pos, a in enumerate(acts):
            requires = [(t.var, t.frm) for t in a.transitions if not t.is_mechanical]
            writes = tuple((t.var, t.to) for t in a.transitions if not t.is_prevailing)
            if requires:
                keyed.setdefault(requires[0], []).append((pos, a, tuple(requires[1:]), writes))
            else:
                always.append((pos, a, (), writes))
        object.__setattr__(self, "_keyed", {k: tuple(v) for k, v in keyed.items()})
        object.__setattr__(self, "_always", tuple(always))
        object.__setattr__(self, "_encodings", {})

    def __reduce__(self):
        return (ActionLibrary, (self.actions,))

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __contains__(self, action) -> bool:
        return isinstance(action, Action) and self._by_id.get(action.id) == action

    def by_id(self, action_id: str) -> Action:
        return self._by_id[action_id]

    def mean_cost(self) -> float:
        if not self.actions:
            return 0.0
        return sum(a.cost for a in self.actions) / len(self.actions)


def default_action_library(table: PartitionTable, cost: CostModel) -> ActionLibrary:
    """One single-transition action per soft feature and ordered value pair.

    Hard features get no actions.  A soft feature with n partitions yields
    n*(n-1) actions; the move from f to g costs weight * (f - g)^2.
    """
    if len(cost.weights) != len(table.features):
        raise ActionError(
            f"cost model has {len(cost.weights)} weights, table declares {len(table.features)} features"
        )
    actions = []
    for var, (meta, n) in enumerate(zip(table.features, table.sizes)):
        if not meta.is_soft:
            continue
        for f in range(n):
            for g in range(n):
                if f == g:
                    continue
                actions.append(
                    Action(
                        id=f"{meta.name}:{f}->{g}",
                        transitions=(Transition(var, f, g),),
                        cost=cost.step_cost(var, f, g),
                    )
                )
    return ActionLibrary(actions=tuple(actions))


def neighbors(s: State, library: ActionLibrary) -> list[tuple[Action, State, float]]:
    """Applicable actions with their successor states and costs, in id order.

    The candidates are the library's index buckets for ``s``'s values plus
    its mechanical-only actions; each is checked on its remaining required
    values and its successor built once.
    """
    keyed = library._keyed
    candidates = list(library._always)
    for var, value in enumerate(s):
        bucket = keyed.get((var, value))
        if bucket:
            candidates += bucket
    candidates.sort()  # positions are unique, so only they are compared
    out = []
    for _, a, requires, writes in candidates:
        for var, frm in requires:
            if s[var] != frm:
                break
        else:
            succ = list(s)
            for var, to in writes:
                succ[var] = to
            out.append((a, tuple(succ), a.cost))
    return out


@dataclass(frozen=True, slots=True)
class Plan:
    """Action steps executed in order; actions within a step fire together."""

    steps: tuple[tuple[Action, ...], ...]
    cost: float
    goal: State

    def __post_init__(self):
        object.__setattr__(
            self, "steps", tuple(tuple(sorted(step, key=lambda a: a.id)) for step in self.steps)
        )

    @property
    def makespan(self) -> int:
        return len(self.steps)

    @property
    def n_actions(self) -> int:
        return sum(len(step) for step in self.steps)

    def action_ids(self) -> list[list[str]]:
        return [[a.id for a in step] for step in self.steps]


def simulate_step(s: State, step: Sequence[Action]) -> State:
    """Apply one step's actions simultaneously; raises on any violation."""
    acts = sorted(step, key=lambda a: a.id)
    for i, a in enumerate(acts):
        if not a.applicable(s):
            raise ActionError(f"action {a.id!r} is not applicable in state {s}")
        for b in acts[i + 1:]:
            if action_mutex(a, b):
                raise ActionError(f"actions {a.id!r} and {b.id!r} in one step are mutually exclusive")
    out = list(s)
    for a in acts:
        for t in a.transitions:
            out[t.var] = t.to
    return tuple(out)


def simulate_plan(s: State, steps: Sequence[Sequence[Action]]) -> State:
    """Run all steps in order and return the final state."""
    for step in steps:
        s = simulate_step(s, step)
    return s


def _element_lines(text: str) -> list[int]:
    """1-based line number of each top-level element of ``text``, a valid
    JSON array, found by decoding one element after another."""
    decode = json.JSONDecoder().raw_decode
    skip = re.compile(r"[ \t\n\r]*").match  # JSON whitespace
    lines: list[int] = []
    line, start = 1, 0
    pos = skip(text, text.index("[") + 1).end()
    while text[pos] != "]":
        line += text.count("\n", start, pos)
        lines.append(line)
        start = pos
        pos = skip(text, decode(text, pos)[1]).end()
        if text[pos] == ",":
            pos = skip(text, pos + 1).end()
    return lines


def _resolve_feature(ref: str | int, features: Sequence[FeatureMeta]) -> int:
    if isinstance(ref, int):
        if not 0 <= ref < len(features):
            raise ActionError(f"feature index {ref} out of range")
        return ref
    for i, meta in enumerate(features):
        if meta.name == ref:
            return i
    raise ActionError(f"unknown feature {ref!r}")


def _resolve_value(value, var: int, table: PartitionTable, what: str) -> int:
    """An int is a partition index; any other value is a raw value, put in its cell."""
    if isinstance(value, int):  # the record rule lets no bool through
        n, name = table.sizes[var], table.features[var].name
        if not 0 <= value < n:
            raise ActionError(f"{what} index {value} outside [0, {n}) for feature {name!r}")
        return value
    try:
        return cell(table, var, value)
    except ModelError as exc:
        raise ActionError(f"{what}: {exc}") from None


def parse_action_spec(text: str, table: PartitionTable, source: str = "<action spec>") -> ActionLibrary:
    """Parse a JSON action spec.

    The document is an array of ``{"id", "cost", "transitions": [...]}``
    entries; each transition is ``{"feature", "from", "to"}`` where
    ``feature`` is a name or index, ``from`` is ``"*"`` for a mechanical
    transition, and values are integer partition indices, raw numbers, or
    category labels.  Errors name the offending entry's line.
    """
    doc = read_json(source, ActionError, text)
    if not isinstance(doc, list):
        raise ActionError(f"{source}:1: action spec must be a JSON array")
    actions = []
    for entry, line in zip(doc, _element_lines(text)):
        try:
            actions.append(_parse_action_entry(entry, table))
        except ActionError as exc:
            raise ActionError(f"{source}:{line}: {exc}") from None
    try:
        return ActionLibrary(actions=tuple(actions))
    except ActionError as exc:
        raise ActionError(f"{source}: {exc}") from None


def _parse_action_entry(entry, table: PartitionTable) -> Action:
    check_record(entry, "", ActionError, {"id": str, "cost": float, "transitions": list})
    what = f"action {entry['id']!r}"
    transitions = []
    for j, t in enumerate(entry["transitions"]):
        check_record(t, f"{what}: transitions[{j}]", ActionError,
                     {"feature": (str, int), "to": (float, str)}, {"from": (float, str)})
        var = _resolve_feature(t["feature"], table.features)
        meta = table.features[var]
        frm = t.get("from", "*")
        frm = WILDCARD if frm == "*" else _resolve_value(frm, var, table, f"{what}: 'from'")
        to = _resolve_value(t["to"], var, table, f"{what}: 'to'")
        tr = Transition(var, frm, to)
        if not meta.is_soft and not tr.is_prevailing:
            raise ActionError(f"{what}: transition {tr} mutates hard feature {meta.name!r}")
        transitions.append(tr)
    return Action(id=entry["id"], transitions=tuple(transitions), cost=entry["cost"])


def load_action_spec(path, table: PartitionTable) -> ActionLibrary:
    return parse_action_spec(read_text(path, ActionError), table, source=str(path))
