"""Smoke tests for the benchmark itself, at tiny size.

    python3 -m pytest perfbench -q

Each workload runs on the small model with a few ops.  The tests check
that the printed metrics are exactly the ones BENCHMARK.json names, that
two runs of the same seed print the same output digest, that the layers a
workload bypasses show no calls, that the tracer survives a missing layer
and restores every binding, and that the benchmark refuses to run without
the rfplan sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc, proc.stdout.splitlines()


def result(workload: str, trace: int, seed: int = 3):
    proc, lines = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return lines, json.loads(lines[-1])


def digest_line(lines):
    (line,) = [l for l in lines if l.startswith("digest ")]
    return line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    lines1, first = result(workload, 0)
    lines2, second = result(workload, 0)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in first["metrics"].values())
    assert first["attempted"] >= 1
    assert first["correct"] == (first["failed"] == 0)
    assert digest_line(lines1) == digest_line(lines2)
    assert any(l.startswith("rfplan from ") and l.endswith("src/rfplan") for l in lines1)
    assert any(l.startswith("python ") and "nproc " in l and "kernel " in l for l in lines1)


def test_digest_depends_on_seed():
    a, _ = result("online-sweep", 0, seed=3)
    b, _ = result("online-sweep", 0, seed=4)
    assert digest_line(a) != digest_line(b)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    lines, res = result(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = res["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == expected
    assert not any(l.startswith("absent layers") for l in lines)
    assert any(l.startswith("kernel parity: ") for l in lines)
    value = {k: v["value"] for k, v in got.items()}
    if workload == "offline-search":
        # the online layers are bypassed
        for name in ("knn.k_nearest.ms", "knn.k_nearest.entries", "encoder.encode.calls",
                     "maxsat.kernel.nodes", "offline.check_pairing.ms"):
            assert value[name] == 0, name
        assert value["offline.find_preferred_goal.expansions"] > 0
        assert value["sas_core.neighbors.calls"] > 0
        assert 0 < value["sas_core.neighbors.applicable_ratio"] < 1
        assert 0 < value["discretize.evaluator.hit_ratio"] < 1
    else:
        # the query loop never searches: every query has a stored neighbor
        for name in ("sas_core.neighbors.calls", "offline.find_preferred_goal.expansions"):
            assert value[name] == 0, name
        assert value["knn.k_nearest.entries"] > 0
        assert value["encoder.encode.calls"] >= 1
        assert value["maxsat.kernel.nodes"] > 0
        assert value["baselines.oracle_plan.ms"] > 0  # set-up labels the database
    if workload == "online-sweep":
        assert value["encoder.encode.calls"] == 4


def test_tracer_reports_a_missing_layer_and_restores_bindings():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from rfplan import encoder, offline, sas_core
        from tracer import LAYERS, Layer, Tracer

        orig = (offline.find_preferred_goal, sas_core.neighbors, encoder.k_nearest)
        tracer = Tracer(LAYERS + (Layer("offline.gone", "rfplan.offline", "no_such_function"),))
        tracer.install()
        try:
            assert offline.find_preferred_goal is not orig[0]
            assert offline.neighbors is sas_core.neighbors is not orig[1]
        finally:
            tracer.uninstall()
        assert tracer.absent == ["rfplan.offline.no_such_function"]
        assert (offline.find_preferred_goal, sas_core.neighbors, encoder.k_nearest) == orig
        assert offline.neighbors is orig[1]
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run("online-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in lines)
