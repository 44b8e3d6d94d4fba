"""Benchmark harness: planner vs greedy vs exhaustive search on one forest.

For each preprocessing fraction r the harness samples r% of the state
space, builds a goal database, then runs the planner on the same test
instances and reports per-instance records plus per-fraction means.
Greedy and the oracle read no database: they run once per instance, and
every fraction reports those same results.
Everything except wall-clock timings is determined by the seeds.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .baselines import greedy_plan, oracle_plan, OracleCapExceeded
from .discretize import PartitionTable, State, StateEvaluator, enumerate_states
from .encoder import plan_actions
from .forest import RandomForest, check_count
from .maxsat import check_timeout
from .offline import SearchParams, preprocess
from .sas_core import ActionLibrary


class BenchError(ValueError):
    """The benchmark cannot run as configured."""


@dataclass(frozen=True)
class BenchSettings:
    """One benchmark run: ``params`` drive preprocessing and both baselines,
    and the test instances are states below ``params.z``; ``k``, ``l_max``,
    ``sweep_makespan`` and ``timeout`` are the planner's."""

    params: SearchParams
    k: int = 3
    l_max: int = 4
    sweep_makespan: bool = False
    n_instances: int = 100
    sample_seed: int = 0
    state_cap: int = 250_000
    oracle_cap: int = 2_000_000
    workers: int = 1
    timeout: float | None = None

    def __post_init__(self):
        for name in ("k", "l_max", "n_instances", "state_cap", "oracle_cap", "workers"):
            check_count(name, getattr(self, name), 1, BenchError)
        check_timeout("timeout", self.timeout, BenchError)


@dataclass(frozen=True)
class ArmResult:
    status: str
    cost: float | None
    length: int | None
    makespan: int | None
    seconds: float

    @property
    def solved(self) -> bool:
        return self.cost is not None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "cost": self.cost,
            "length": self.length,
            "makespan": self.makespan,
            "seconds": round(self.seconds, 6),
        }


@dataclass(frozen=True)
class InstanceReport:
    index: int
    state: State
    planner: ArmResult
    greedy: ArmResult
    oracle: ArmResult

    def to_dict(self) -> dict:
        return {
            "kind": "instance",
            "index": self.index,
            "state": list(self.state),
            "planner": self.planner.to_dict(),
            "greedy": self.greedy.to_dict(),
            "oracle": self.oracle.to_dict(),
        }


@dataclass(frozen=True)
class FractionReport:
    fraction: int
    db_states: int
    goals_found: int
    prep_seconds: float
    peak_gb: float
    instances: tuple[InstanceReport, ...] = field(repr=False)

    def arm_summary(self, arm: str) -> dict:
        results = [getattr(r, arm) for r in self.instances]
        solved = [r for r in results if r.solved]
        out = {"solved": len(solved), "total": len(results)}
        if solved:
            out["mean_cost"] = sum(r.cost for r in solved) / len(solved)
            out["mean_length"] = sum(r.length for r in solved) / len(solved)
            out["mean_seconds"] = sum(r.seconds for r in solved) / len(solved)
        else:
            out["mean_cost"] = None
            out["mean_length"] = None
            out["mean_seconds"] = None
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "summary",
            "fraction": self.fraction,
            "db_states": self.db_states,
            "goals_found": self.goals_found,
            "prep_seconds": round(self.prep_seconds, 6),
            "peak_gb": self.peak_gb,
            "n_instances": len(self.instances),
            "planner": _round_summary(self.arm_summary("planner")),
            "greedy": _round_summary(self.arm_summary("greedy")),
            "oracle": _round_summary(self.arm_summary("oracle")),
        }


def _round_summary(doc: dict) -> dict:
    out = dict(doc)
    for key in ("mean_cost", "mean_length", "mean_seconds"):
        if out.get(key) is not None:
            out[key] = round(out[key], 6)
    return out


def peak_memory_gb() -> float:
    """Peak resident set size of this process so far, in GB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kb * 1024 / 1e9, 4)


def pick_instances(
    universe: Sequence[State],
    evaluator: StateEvaluator,
    settings: BenchSettings,
    candidates: Sequence[State] | None = None,
) -> list[State]:
    """Test instances: states the forest does not yet send to the target.

    Explicit candidates (dataset rows, in file order) are used as given;
    otherwise the universe is shuffled with the sample seed.
    """
    if candidates is None:
        pool = list(universe)
        random.Random(f"instances:{settings.sample_seed}").shuffle(pool)
    else:
        pool = list(candidates)
    z = settings.params.z
    picked = []
    for s in pool:
        if evaluator.proba(s) < z:
            picked.append(s)
            if len(picked) == settings.n_instances:
                break
    if not picked:
        raise BenchError(f"no test instances: every candidate state already reaches z={z}")
    return picked


def _timed_arm(run: Callable, *args, **kwargs) -> ArmResult:
    """Call one arm on one instance and time it.  Every arm's result has
    ``status``, ``plan`` and ``solved``; an oracle over its cap reads
    ``cap_exceeded``."""
    t0 = time.perf_counter()
    try:
        res = run(*args, **kwargs)
    except OracleCapExceeded:
        return ArmResult("cap_exceeded", None, None, None, time.perf_counter() - t0)
    dt = time.perf_counter() - t0
    if res.solved:
        return ArmResult(res.status, res.plan.cost, res.plan.n_actions, res.plan.makespan, dt)
    return ArmResult(res.status, None, None, None, dt)


def run_bench(
    forest: RandomForest,
    table: PartitionTable,
    library: ActionLibrary,
    settings: BenchSettings,
    fractions: Sequence[int] = (100,),
    candidates: Sequence[State] | None = None,
    on_event: Callable[[str], None] | None = None,
) -> list[FractionReport]:
    """Run the planner for each preprocessing fraction, greedy and the oracle
    once per instance, and collect reports.

    A state space above ``settings.state_cap`` raises ``StateError``.
    """
    for r in fractions:
        if not 1 <= r <= 100:
            raise BenchError(f"fractions must be in 1..100, got {r}")
    say = on_event or (lambda msg: None)
    params = settings.params
    evaluator = StateEvaluator(forest, table, params.target)

    universe = list(enumerate_states(table, settings.state_cap))
    instances = pick_instances(universe, evaluator, settings, candidates)
    say(f"{len(universe)} states, {len(instances)} test instances")
    baseline_arms = [
        (_timed_arm(greedy_plan, s, library, forest, table, params, evaluator=evaluator),
         _timed_arm(oracle_plan, s, library, forest, table, params,
                    cap=settings.oracle_cap, evaluator=evaluator))
        for s in instances
    ]

    reports = []
    for r in fractions:
        n_states = max(1, len(universe) * r // 100)
        if r == 100:
            sample = list(universe)
        else:
            rng = random.Random(f"prep:{settings.sample_seed}:{r}")
            sample = rng.sample(universe, n_states)
        t0 = time.perf_counter()
        db = preprocess(
            sample, library, forest, table, params, workers=settings.workers
        )
        prep_dt = time.perf_counter() - t0
        goals = sum(1 for e in db.entries.values() if e.found)
        say(f"r={r}%: database over {len(db.entries)} states, {goals} with goals, "
            f"{prep_dt:.2f}s")

        rows = []
        for i, (s, (grd, orc)) in enumerate(zip(instances, baseline_arms)):
            planner = _timed_arm(
                plan_actions, forest, table, library, db, state=s, k=settings.k,
                l_max=settings.l_max, sweep=settings.sweep_makespan, timeout=settings.timeout,
            )
            rows.append(
                InstanceReport(index=i, state=s, planner=planner, greedy=grd, oracle=orc)
            )
        reports.append(
            FractionReport(
                fraction=r,
                db_states=len(db.entries),
                goals_found=goals,
                prep_seconds=prep_dt,
                peak_gb=peak_memory_gb(),
                instances=tuple(rows),
            )
        )
    return reports


def parse_fractions(text: str) -> tuple[int, ...]:
    """Parse sweep specs like '10,20,...,100' or 'r=25,50,100'."""
    body = text.strip()
    if body.startswith("r="):
        body = body[2:]
    parts = [p.strip() for p in body.replace("…", "...").split(",") if p.strip()]
    if not parts:
        raise BenchError(f"empty fraction list {text!r}")
    if "..." in parts:
        i = parts.index("...")
        if i < 2 or i != len(parts) - 2:
            raise BenchError(
                f"ellipsis needs two leading values and one trailing value: {text!r}"
            )
        try:
            head = [int(p) for p in parts[:i]]
            last = int(parts[-1])
        except ValueError:
            raise BenchError(f"fractions must be integers: {text!r}") from None
        step = head[1] - head[0]
        if step <= 0:
            raise BenchError(f"fraction step must be positive: {text!r}")
        for k, v in enumerate(head):
            if v != head[0] + k * step:
                raise BenchError(f"leading value {v} is off the step {step}: {text!r}")
        values = list(head)
        while values[-1] + step <= last:
            values.append(values[-1] + step)
        if values[-1] != last:
            raise BenchError(f"{last} is not reached by step {step}: {text!r}")
    else:
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise BenchError(f"fractions must be integers: {text!r}") from None
    for v in values:
        if not 1 <= v <= 100:
            raise BenchError(f"fractions must be in 1..100, got {v}")
    if len(set(values)) != len(values):
        raise BenchError(f"duplicate fractions: {text!r}")
    return tuple(values)
