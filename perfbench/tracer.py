"""Per-layer tracing by rebinding rfplan's public functions.

Each traced layer is a public function or method of an rfplan module.  The
tracer replaces every module attribute (and class attribute) that refers
to the original function with a wrapper, and puts the originals back on
``uninstall``; no rfplan source changes.  Wrappers keep a stack of open
calls so that nested layers report self time: a call's duration minus the
time spent in the traced calls it made.  Every call only adds to per-layer
totals in memory; no per-call records are kept, which matters for the hot
layers (successor generation and state evaluation, called thousands of
times per op).

A layer whose function no longer exists is reported as absent and the run
goes on without it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _neighbors_post(add, result, args, kwargs):
    library = args[1] if len(args) > 1 else kwargs["library"]
    add("sas_core.neighbors.scanned", len(library.actions))
    add("sas_core.neighbors.returned", len(result))


def _search_post(add, result, args, kwargs):
    add("offline.find_preferred_goal.expansions", result.expansions)


def _knn_post(add, result, args, kwargs):
    db = args[1] if len(args) > 1 else kwargs["db"]
    add("knn.k_nearest.entries", len(db.entries))


def _encode_post(add, result, args, kwargs):
    instance = result[0]
    add("encoder.encode.vars", instance.nvars)
    add("encoder.encode.hard_clauses", len(instance.hard))
    add("encoder.encode.soft_clauses", len(instance.soft))


def _kernel_post(add, result, args, kwargs):
    add("maxsat.kernel.nodes", result[3])


@dataclass(frozen=True)
class Layer:
    """One traced function: reported name, module, attribute path."""

    name: str
    module: str
    attr: str  # "func" or "Class.method"
    post: Callable | None = None


LAYERS = (
    Layer("offline.preprocess", "rfplan.offline", "preprocess"),
    Layer("offline.find_preferred_goal", "rfplan.offline", "find_preferred_goal", _search_post),
    Layer("offline.check_pairing", "rfplan.offline", "check_pairing"),
    Layer("sas_core.neighbors", "rfplan.sas_core", "neighbors", _neighbors_post),
    Layer("discretize.StateEvaluator.proba", "rfplan.discretize", "StateEvaluator.proba"),
    Layer("discretize.state_proba", "rfplan.discretize", "state_proba"),
    Layer("baselines.oracle_plan", "rfplan.baselines", "oracle_plan"),
    Layer("encoder.plan_actions", "rfplan.encoder", "plan_actions"),
    Layer("encoder.build_sas", "rfplan.encoder", "build_sas"),
    Layer("knn.k_nearest", "rfplan.knn", "k_nearest", _knn_post),
    Layer("encoder.encode", "rfplan.encoder", "encode", _encode_post),
    Layer("maxsat.WcnfInstance.build", "rfplan.maxsat.model", "WcnfInstance.build"),
    Layer("maxsat.solve", "rfplan.maxsat", "solve"),
    Layer("maxsat.compile_instance", "rfplan.maxsat.model", "compile_instance"),
    Layer("maxsat.kernel", "rfplan.maxsat._pure", "solve_compiled", _kernel_post),
    Layer("maxsat.kernel", "rfplan.maxsat._bb", "solve_compiled", _kernel_post),
    Layer("maxsat.WcnfInstance.check", "rfplan.maxsat.model", "WcnfInstance.check"),
    Layer("encoder.decode", "rfplan.encoder", "decode"),
    Layer("encoder.check_plan", "rfplan.encoder", "check_plan"),
)

# kernels that may legitimately be missing: the compiled one is optional
_OPTIONAL_MODULES = {"rfplan.maxsat._bb"}


class Patcher:
    """Rebinds attributes and restores them in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_everywhere(self, orig, wrapper) -> None:
        """Point every rfplan module attribute bound to ``orig`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rfplan" or modname.startswith("rfplan.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self.set(mod, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Aggregated self time, call counts and layer counters."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.totals: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open call
        self._patcher: Patcher | None = None

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def take(self) -> dict[str, float]:
        """Totals since the last take, then reset."""
        out = dict(self.totals)
        self.totals.clear()
        return out

    def _wrap(self, name: str, fn, post):
        stack = self._stack
        totals = self.totals
        add = self.add
        mark_absent = self._mark_absent
        clock = time.perf_counter
        ms_key = name + ".ms"
        calls_key = name + ".calls"

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                totals[ms_key] += (dt - frame[0]) * 1e3
                totals[calls_key] += 1
                if stack:
                    stack[-1][0] += dt
            if post is not None:
                try:
                    post(add, result, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the call's arguments or result changed shape
                    mark_absent(name + " counters")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patcher is not None:
            raise RuntimeError("tracer already installed")
        patcher = Patcher()
        for layer in self.layers:
            try:
                mod = importlib.import_module(layer.module)
            except ImportError:
                if layer.module not in _OPTIONAL_MODULES:
                    self._mark_absent(f"{layer.module}.{layer.attr}")
                continue
            owner_name, _, attr = layer.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self._mark_absent(f"{layer.module}.{layer.attr}")
                continue
            if isinstance(raw, classmethod):
                patcher.set(owner, attr, classmethod(self._wrap(layer.name, raw.__func__, layer.post)))
            elif owner is not mod:
                patcher.set(owner, attr, self._wrap(layer.name, raw, layer.post))
            else:
                patcher.replace_everywhere(raw, self._wrap(layer.name, raw, layer.post))
        self._patcher = patcher

    def _mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def uninstall(self) -> None:
        if self._patcher is not None:
            self._patcher.restore()
            self._patcher = None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(loop: dict[str, float], ops: int, setup: dict[str, float]) -> dict[str, float]:
    """Per-op layer metrics from loop totals; set-up layers per set-up."""

    def per_op(key: str) -> float:
        return _ratio(loop.get(key, 0.0), ops)

    proba_calls = loop.get("discretize.StateEvaluator.proba.calls", 0.0)
    misses = loop.get("discretize.state_proba.calls", 0.0)
    out = {
        "offline.find_preferred_goal.ms": per_op("offline.find_preferred_goal.ms"),
        "offline.find_preferred_goal.expansions": per_op("offline.find_preferred_goal.expansions"),
        "offline.preprocess.ms": per_op("offline.preprocess.ms"),
        "sas_core.neighbors.calls": per_op("sas_core.neighbors.calls"),
        "sas_core.neighbors.ms": per_op("sas_core.neighbors.ms"),
        "sas_core.neighbors.applicable_ratio": _ratio(
            loop.get("sas_core.neighbors.returned", 0.0), loop.get("sas_core.neighbors.scanned", 0.0)
        ),
        "discretize.StateEvaluator.proba.calls": per_op("discretize.StateEvaluator.proba.calls"),
        "discretize.StateEvaluator.proba.ms": per_op("discretize.StateEvaluator.proba.ms"),
        "discretize.state_proba.calls": per_op("discretize.state_proba.calls"),
        "discretize.state_proba.ms": per_op("discretize.state_proba.ms"),
        # a proba call that does not reach state_proba was answered from the cache
        "discretize.evaluator.hit_ratio": _ratio(max(proba_calls - misses, 0.0), proba_calls),
        "baselines.oracle_plan.ms": setup.get("baselines.oracle_plan.ms", 0.0),
        "setup.sas_core.neighbors.ms": setup.get("sas_core.neighbors.ms", 0.0),
        "offline.check_pairing.ms": per_op("offline.check_pairing.ms"),
        "encoder.plan_actions.ms": per_op("encoder.plan_actions.ms"),
        "encoder.build_sas.ms": per_op("encoder.build_sas.ms"),
        "knn.k_nearest.ms": per_op("knn.k_nearest.ms"),
        "knn.k_nearest.entries": per_op("knn.k_nearest.entries"),
        "encoder.encode.calls": per_op("encoder.encode.calls"),
        "encoder.encode.ms": per_op("encoder.encode.ms"),
        "encoder.encode.vars": per_op("encoder.encode.vars"),
        "encoder.encode.hard_clauses": per_op("encoder.encode.hard_clauses"),
        "encoder.encode.soft_clauses": per_op("encoder.encode.soft_clauses"),
        "maxsat.WcnfInstance.build.ms": per_op("maxsat.WcnfInstance.build.ms"),
        "maxsat.solve.ms": per_op("maxsat.solve.ms"),
        "maxsat.compile_instance.ms": per_op("maxsat.compile_instance.ms"),
        "maxsat.kernel.ms": per_op("maxsat.kernel.ms"),
        "maxsat.kernel.nodes": per_op("maxsat.kernel.nodes"),
        "maxsat.WcnfInstance.check.ms": per_op("maxsat.WcnfInstance.check.ms"),
        "encoder.decode.ms": per_op("encoder.decode.ms"),
        "encoder.check_plan.ms": per_op("encoder.check_plan.ms"),
    }
    return out
