#!/usr/bin/env python3
"""Benchmark rfplan's offline goal search and online Max-SAT planning.

    python3 perfbench/run.py --workload online-sweep --seed 0 --seconds 25 --trace 0

Runs one workload (see perfbench/README.md) in this process, single
threaded and closed loop: each op starts when the previous one returns.
It imports rfplan from this checkout's ``src/`` and uses the solver kernel
``rfplan.maxsat.default_backend()`` picks.  Set-up is timed at least three
times and the last set-up's inputs are used.  Ops then run in whole rounds
over the workload's fixed inputs until at least ``--seconds`` have passed.
Every op is checked; a failed op is counted and the run goes on.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the set-up runs once under the
tracer, the rounds run untraced and then again traced, and the JSON holds
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up is repeated at least three times and until it has taken three
# seconds, so that a set-up of a few milliseconds still gives a steady median
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPS = 100


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("offline-search", "online-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small model, a few ops, one set-up (smoke tests)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_rfplan():
    if not (SRC / "rfplan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rfplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rfplan

    where = Path(rfplan.__file__).resolve().parent
    if where != SRC / "rfplan":
        raise SystemExit(f"perfbench: imported rfplan from {where}, not from {SRC}")
    return where


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class SolveTap:
    """Records the node count of every solve; optionally keeps the instances."""

    def __init__(self, keep_instances: bool):
        from rfplan import maxsat
        from tracer import Patcher

        self.nodes: list[int] = []
        self.solved: list = []  # (instance, result) when keep_instances
        self.original = maxsat.solve
        self._patcher = Patcher()

        def tapped(instance, *args, **kwargs):
            result = self.original(instance, *args, **kwargs)
            self.nodes.append(result.nodes)
            if keep_instances:
                self.solved.append((instance, result))
            return result

        self._patcher.replace_everywhere(self.original, tapped)

    def close(self):
        self._patcher.restore()


def kernel_parity(tap: SolveTap, used: str) -> tuple[str, int]:
    """Re-solve every captured instance on the other kernel; (summary, mismatches)."""
    from rfplan import maxsat

    others = [b for b in maxsat.available_backends() if b != used]
    if not others:
        return f"skipped: only the {used} kernel imports", 0
    other = others[0]
    bad = 0
    for instance, mine in tap.solved:
        theirs = tap.original(instance, backend=other)
        if (mine.status, mine.cost, mine.assignment, mine.nodes) != (
            theirs.status, theirs.cost, theirs.assignment, theirs.nodes
        ):
            bad += 1
            print(f"kernel parity: {used} ({mine.status}, {mine.cost}, {mine.nodes} nodes) vs "
                  f"{other} ({theirs.status}, {theirs.cost}, {theirs.nodes} nodes)")
    return f"{len(tap.solved) - bad}/{len(tap.solved)} instances agree with {other}", bad


def run_rounds(workload, ctx, tap, min_seconds: float, rounds: int | None = None):
    """Whole rounds until min_seconds pass (or exactly ``rounds``); (ops, rounds, wall)."""
    ops = []
    done = 0
    t0 = time.perf_counter()
    while True:
        ops.extend(workload.run_round(ctx, tap.nodes))
        done += 1
        if rounds is not None:
            if done == rounds:
                break
        elif time.perf_counter() - t0 >= min_seconds:
            break
    return ops, done, time.perf_counter() - t0


def main(argv=None) -> int:
    args = _parse(argv)
    where = _import_rfplan()

    import numpy as np
    from rfplan import maxsat
    from tracer import Tracer, layer_metrics
    from workloads import TINY_OPS, WORKLOADS, build_world, digest, tail_percentile

    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    model = "small" if tiny else workload.model
    n_ops = TINY_OPS if tiny else workload.op_count
    backend = maxsat.default_backend()
    print(f"rfplan from {where}")
    print(f"python {platform.python_version()}, nproc {_nproc()}, kernel {backend} "
          f"(available: {', '.join(maxsat.available_backends())})")

    tracer = Tracer() if args.trace else None
    setup_seconds = []
    if tracer:
        tracer.install()
    while True:
        t0 = time.perf_counter()
        ctx = workload.setup(build_world(model), args.seed, n_ops)
        setup_seconds.append(time.perf_counter() - t0)
        if tiny or tracer or len(setup_seconds) == SETUP_MAX_REPS:
            break
        if len(setup_seconds) >= SETUP_MIN_REPS and sum(setup_seconds) >= SETUP_MIN_SECONDS:
            break
    setup_totals = {}
    if tracer:
        setup_totals = tracer.take()
        tracer.uninstall()

    tap = SolveTap(keep_instances=bool(tracer) and len(maxsat.available_backends()) > 1)
    try:
        ops, rounds, wall = run_rounds(workload, ctx, tap, args.seconds)
        traced_ops = []
        parity = ("", 0)
        loop_totals = {}
        if tracer:
            tap.solved.clear()  # parity covers the traced rounds
            tracer.install()
            try:
                traced_ops, _, _ = run_rounds(workload, ctx, tap, args.seconds, rounds=rounds)
                loop_totals = tracer.take()
            finally:
                tracer.uninstall()
            parity = kernel_parity(tap, backend)
    finally:
        tap.close()

    # checks run after the timed loops, untraced; outputs must also not
    # change between rounds (or between untraced and traced rounds)
    world = ctx.world
    all_ops = ops + traced_ops
    first = {}
    for op in all_ops:
        if op.error is None:
            op.error = workload.check(world, op)
        ref = first.setdefault(op.state, op.record)
        if op.error is None and op.record != ref:
            op.error = f"{op.state}: output changed between rounds"
    failures = [op.error for op in all_ops if op.error is not None]
    failed = len(failures) + parity[1]

    print(f"workload {workload.name}: seed {args.seed}, model {model}, {n_ops} ops per round, "
          f"{rounds} round(s), {len(ops)} ops in {wall:.3f} s, {len(setup_seconds)} set-up(s)")
    print(f"digest {digest([op.record for op in ops[:n_ops]])}")
    for reason in failures[:10]:
        print(f"failed: {reason}")
    if len(failures) > 10:
        print(f"failed: ... {len(failures) - 10} more")

    if args.trace:
        if tracer.absent:
            print(f"absent layers (reported as 0): {', '.join(tracer.absent)}")
        print(f"kernel parity: {parity[0]}")
        values = layer_metrics(loop_totals, len(traced_ops), setup_totals)
        untraced = sum(op.seconds for op in ops) / len(ops)
        traced = sum(op.seconds for op in traced_ops) / len(traced_ops)
        values["trace.overhead_frac"] = traced / untraced - 1.0
        units = {}
    else:
        # an input's latency is the mean of its repeats, which lie a round
        # apart, so a host slowdown of a few seconds reaches every input
        # alike instead of splitting equal-work inputs into two groups
        repeats = {}
        for op in ops:
            repeats.setdefault(op.state, []).append(op.seconds * 1e3)
        latencies_ms = [statistics.fmean(v) for v in repeats.values()]
        tail = tail_percentile(n_ops)
        ratios = [op.cost / world.oracle_result(op.state).cost
                  for op in ops if op.cost is not None]
        print(f"op_ms_tail is p{tail} ({n_ops} inputs, each the mean of its {rounds} repeat(s))")
        values = {
            "setup_s": statistics.median(setup_seconds),
            "ops_per_s": len(ops) / wall,
            "op_ms_p50": statistics.median(latencies_ms),
            "op_ms_tail": float(np.percentile(latencies_ms, tail)),
            "cost_ratio": statistics.fmean(ratios) if ratios else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                 "cost_ratio": "ratio", "peak_rss_mb": "MB"}

    metrics = {k: {"value": v, "unit": units.get(k, _layer_unit(k))} for k, v in values.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
