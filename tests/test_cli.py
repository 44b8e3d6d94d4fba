"""End-to-end tests for the command line interface.

Every test drives ``rfplan.cli.main`` in process and checks exit codes,
stdout/stderr, and the files the commands leave behind.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import stat
import sys
import time

import pytest

from conftest import DATA, FIXTURES
from rfplan.baselines import greedy_plan, oracle_plan
from rfplan.cli import _catalog, main
from rfplan.data import DataError, Schema, ingest, load_schema
from rfplan.discretize import build_partitions, enumerate_states, state_proba, to_state
from rfplan.encoder import NoGoalsError, build_sas, encode, plan_actions
from rfplan.forest import (
    FeatureMeta, Leaf, ModelError, RandomForest, Split, fingerprint, persist, restore,
)
from rfplan.maxsat import OPTIMAL, solve, wcnf_write
from rfplan.offline import GoalDatabase, SearchParams, db_persist, db_restore, preprocess
from rfplan.sas_core import ActionError, load_action_spec


def run(args):
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rv = main([str(a) for a in args])
    return rv, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A trained demo model plus its preprocessed goal database."""
    d = tmp_path_factory.mktemp("cli-ws")
    model, db = d / "model.json", d / "db.jsonl"
    rv, _, _ = run(["train", "--data", DATA / "demo.csv", "--schema", DATA / "demo_schema.json",
                    "--out", model, "--trees", 5, "--max-depth", 3, "--seed", 0,
                    "--test-fraction", 0.25])
    assert rv == 0
    rv, _, _ = run(["preprocess", "--model", model, "--out", db, "--target", 1, "--quiet"])
    assert rv == 0
    return {"dir": d, "model": model, "db": db, "gdb": db_restore(db)}


@pytest.fixture(scope="module")
def hardws(tmp_path_factory):
    """A model that splits only on an immutable feature: no state can be changed."""
    d = tmp_path_factory.mktemp("cli-hard")
    forest = RandomForest(
        features=(FeatureMeta(name="gender", kind="categorical", mutability="hard",
                              categories=("male", "female")),),
        classes=(0, 1),
        trees=(Split(feature=0, categories=frozenset({"male"}), left=Leaf(0), right=Leaf(1)),),
        weights=(1.0,),
    )
    model, db = d / "hard.json", d / "hdb.jsonl"
    persist(forest, str(model))
    rv, _, _ = run(["preprocess", "--model", model, "--out", db, "--target", 1, "--quiet"])
    assert rv == 0
    return {"model": model, "db": db}


# top-level behaviour


def test_version_exits_zero():
    rv, out, _ = run(["--version"])
    assert rv == 0
    assert "rfplan" in out and "version" in out


def test_help_lists_commands():
    rv, out, _ = run(["--help"])
    assert rv == 0
    for cmd in ("train", "partitions", "preprocess", "plan", "greedy",
                "oracle", "export-wcnf", "bench"):
        assert cmd in out


def test_unknown_command_is_an_error():
    rv, out, err = run(["frobnicate"])
    assert rv == 3
    assert out == ""
    assert "error" in err.lower() and "frobnicate" in err


# train


def test_train_writes_model_and_reports(tmp_path):
    out_path = tmp_path / "m.json"
    rv, out, err = run(["train", "--data", DATA / "demo.csv",
                        "--schema", DATA / "demo_schema.json", "--out", out_path,
                        "--trees", 3, "--max-depth", 3, "--seed", 1,
                        "--test-fraction", 0.25])
    assert rv == 0 and err == ""
    assert "trained 3 trees on 18 rows" in out
    assert "holdout accuracy:" in out
    forest = restore(str(out_path))
    assert len(forest.trees) == 3
    m = re.search(r"fingerprint ([0-9a-f]+)", out)
    assert m and fingerprint(forest).startswith(m.group(1))


def test_train_without_holdout_prints_no_accuracy(tmp_path):
    rv, out, _ = run(["train", "--data", DATA / "demo.csv",
                      "--schema", DATA / "demo_schema.json",
                      "--out", tmp_path / "m.json", "--trees", 2, "--seed", 0])
    assert rv == 0
    assert "trained 2 trees on 24 rows" in out
    assert "holdout accuracy" not in out


def test_train_missing_data_file(tmp_path):
    rv, out, err = run(["train", "--data", tmp_path / "nope.csv",
                        "--schema", DATA / "demo_schema.json",
                        "--out", tmp_path / "m.json"])
    assert rv == 3
    assert out == ""
    assert err.startswith("error:")


def test_train_rejects_a_nan_label(tmp_path):
    rows = (DATA / "demo.csv").read_text(encoding="utf-8").splitlines()
    rows[2] = rows[2].rsplit(",", 1)[0] + ",nan"
    rows[5] = rows[5].rsplit(",", 1)[0] + ",nan"
    data = tmp_path / "nan-labels.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rv, out, err = run(["train", "--data", data, "--schema", DATA / "demo_schema.json",
                        "--out", tmp_path / "m.json", "--trees", 2, "--seed", 0])
    assert rv == 3 and out == ""
    assert f"{data}:3: label 'nan' is not finite" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


# partitions


def test_partitions_human_output(ws):
    rv, out, err = run(["partitions", "--model", ws["model"]])
    assert rv == 0 and err == ""
    assert "3 features, 40 states" in out
    assert "gender [categorical, hard] 2 cells" in out
    assert "visits [numerical, soft]" in out and "thresholds:" in out


def test_partitions_json_payload(ws):
    rv, out, _ = run(["partitions", "--model", ws["model"], "--json"])
    assert rv == 0
    payload = json.loads(out)
    names = [f["name"] for f in payload["features"]]
    assert names == ["gender", "visits", "balance"]
    cells = [f["cells"] for f in payload["features"]]
    assert payload["state_count"] == cells[0] * cells[1] * cells[2] == 40
    gender = payload["features"][0]
    assert gender["kind"] == "categorical" and gender["mutability"] == "hard"


def test_bad_model_file_is_named_once(tmp_path):
    model = tmp_path / "broken.json"
    model.write_text('{\n  "format_version": 1,\n  "classes": [0, 1\n}\n', encoding="utf-8")
    rv, _, err = run(["partitions", "--model", model])
    assert rv == 3
    assert re.fullmatch(rf"error: {re.escape(str(model))}:4: not valid JSON \([^()]+\)\n", err)
    model.write_text('{"format_version": 1, "classes": [0, 1], "features": []}', encoding="utf-8")
    rv, _, err = run(["partitions", "--model", model])
    assert rv == 3
    assert err == f"error: {model}: missing keys ['trees']\n"


# preprocess


def test_preprocess_reports_and_is_restorable(ws, tmp_path):
    out_path = tmp_path / "db.jsonl"
    rv, out, _ = run(["preprocess", "--model", ws["model"], "--out", out_path,
                      "--target", 1, "--quiet"])
    assert rv == 0
    assert re.search(r"searched 40 states in [\d.]+s", out)
    assert "goal database written to" in out
    gdb = db_restore(out_path)
    assert len(gdb) == 40
    assert gdb.fingerprint == fingerprint(restore(str(ws["model"])))


def test_preprocess_workers_report_progress(ws, tmp_path):
    out_path = tmp_path / "db.jsonl"
    rv, _, err = run(["preprocess", "--model", ws["model"], "--out", out_path,
                      "--target", 1, "--workers", 2])
    assert rv == 0, err
    assert "  searched 40/40" in err.splitlines()
    assert db_restore(out_path) == ws["gdb"]


def test_preprocess_data_restricts_to_observed_rows(ws, tmp_path):
    out_path = tmp_path / "db.jsonl"
    rv, out, _ = run(["preprocess", "--model", ws["model"], "--out", out_path,
                      "--target", 1, "--quiet",
                      "--data", DATA / "demo.csv", "--schema", DATA / "demo_schema.json"])
    assert rv == 0
    # 24 rows discretize onto 16 distinct states, far fewer than the 40-state space
    assert re.search(r"searched 16 states in", out)
    assert len(db_restore(out_path)) == 16


def test_data_requires_the_schema(ws, tmp_path):
    for command in (["preprocess", "--out", tmp_path / "db.jsonl"], ["bench"]):
        rv, _, err = run([*command, "--model", ws["model"], "--target", 1,
                          "--data", DATA / "demo.csv"])
        assert rv == 3
        assert err == "error: --data needs --schema\n"
    # the grid or the data's states: there is no --states option to choose
    rv, _, err = run(["preprocess", "--model", ws["model"], "--out", tmp_path / "db.jsonl",
                      "--target", 1, "--states", "data"])
    assert rv == 3 and "No such option '--states'" in err


# plan


def test_plan_human_output(ws):
    rv, out, err = run(["plan", "--model", ws["model"], "--db", ws["db"],
                        "--state", "0,0,0"])
    assert rv == 0 and err == ""
    assert "initial state (0, 0, 0)  p(target)=0.0000" in out
    assert re.search(r"plan: cost \d+, \d+ step\(s\), \d+ action\(s\)", out)
    assert "step 1:" in out
    assert "status: solved" in out


def test_plan_json_payload_is_consistent(ws):
    rv, out, _ = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "--state", "0,0,0", "--json"])
    assert rv == 0
    p = json.loads(out)
    assert set(p) == {"status", "initial", "target", "goal_pool", "attempts",
                      "cost", "makespan", "n_actions", "steps", "final", "p_final"}
    assert p["status"] == "solved" and p["initial"] == [0, 0, 0] and p["target"] == 1
    assert p["makespan"] == len(p["steps"])
    assert p["n_actions"] == sum(len(s) for s in p["steps"])
    assert p["final"] in p["goal_pool"]
    sat_costs = [a["cost"] for a in p["attempts"] if a["status"] == "sat"]
    assert p["cost"] == min(sat_costs)


def test_plan_sweep_improves_on_makespan_one(ws):
    rv, out, _ = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "--state", "0,0,0", "--l-max", 2, "--sweep", "--json"])
    assert rv == 0
    p = json.loads(out)
    assert [a["L"] for a in p["attempts"]] == [1, 2]
    # splitting the jump across two steps is cheaper under the quadratic cost
    assert p["attempts"][1]["cost"] < p["attempts"][0]["cost"]
    assert p["cost"] == p["attempts"][1]["cost"]


def test_plan_json_reports_reachability_units(ws):
    rv, out, _ = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "--state", "0,0,0", "--l-max", 2, "--sweep", "--json"])
    assert rv == 0
    attempts = json.loads(out)["attempts"]
    assert [set(a) for a in attempts] == [{"L", "status", "cost", "units"}] * 2
    # a longer makespan has more step transitions, and so more to prune
    assert 0 < attempts[0]["units"] < attempts[1]["units"]


def test_plan_accepts_raw_feature_values(ws):
    rv, out, _ = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "-x", "male,1,100", "--json"])
    assert rv == 0
    p = json.loads(out)
    assert p["initial"] == [0, 0, 0] and p["status"] == "solved"


def test_plan_raw_vector_already_at_goal(ws):
    rv, out, _ = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "-x", "male,6,2000", "--json"])
    assert rv == 0
    assert json.loads(out)["status"] == "already_goal"


def test_plan_raw_vector_arity_mismatch(ws):
    rv, _, err = run(["plan", "--model", ws["model"], "--db", ws["db"], "-x", "male,1"])
    assert rv == 3
    assert "input has 2 values but the model has 3 features" in err


def test_plan_needs_exactly_one_input_form(ws):
    for extra in ([], ["-x", "male,1,100", "--state", "0,0,0"]):
        rv, _, err = run(["plan", "--model", ws["model"], "--db", ws["db"], *extra])
        assert rv == 3
        assert "pass exactly one of -x/--input" in err


def test_plan_rejects_out_of_range_state(ws):
    rv, _, err = run(["plan", "--model", ws["model"], "--db", ws["db"], "--state", "9,9,9"])
    assert rv == 3
    assert "outside" in err


def _bad_params_db(ws, tmp_path):
    """The workspace database with a header whose search params are not an object."""
    lines = ws["db"].read_text().splitlines()
    header = json.loads(lines[0])
    header["params"] = "x"
    path = tmp_path / "bad-params.jsonl"
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    return path


_INPUT_ERROR_CASES = {
    "train-trees": "n_trees must be >= 1",
    "train-min-leaf": "min_leaf must be >= 1",
    "train-seed": "rng_seed must be >= 0",
    "preprocess-node-budget": "node_budget must be >= 1, got 0",
    "greedy-z": "z must be in (0, 1], got 2.0",
    "bench-sweep": "fractions must be in 1..100, got 0",
    "bench-instances": "n_instances must be >= 1, got 0",
    "bench-negative-instances": "n_instances must be >= 1, got -3",
    "plan-params": ":1: bad search params (expected a JSON object, got a string)",
    "oracle-cap": "cap must be >= 1, got 0",
    "bench-oracle-cap": "oracle_cap must be >= 1, got 0",
    "bench-state-cap": "state_cap must be >= 1, got 0",
    "bench-negative-state-cap": "state_cap must be >= 1, got -1",
    "preprocess-state-cap": "cap must be >= 1, got 0",
    "preprocess-negative-state-cap": "cap must be >= 1, got -1",
}


@pytest.mark.parametrize("case, message", _INPUT_ERROR_CASES.items(), ids=list(_INPUT_ERROR_CASES))
def test_library_input_errors_exit_three(ws, tmp_path, case, message):
    # every library input error leaves the CLI as `error: <message>`, exit 3
    train = ["train", "--data", DATA / "demo.csv", "--schema", DATA / "demo_schema.json",
             "--out", tmp_path / "model.json"]
    model = ["--model", ws["model"]]
    args = {
        "train-trees": [*train, "--trees", 0],
        "train-min-leaf": [*train, "--min-leaf", 0],
        "train-seed": [*train, "--seed", -1],
        "preprocess-node-budget": ["preprocess", *model, "--out", tmp_path / "db.jsonl",
                                   "--target", 1, "--quiet", "--node-budget", 0],
        "greedy-z": ["greedy", *model, "--state", "0,0,0", "--target", 1, "--z", 2],
        "bench-sweep": ["bench", *model, "--target", 1, "--sweep", "0"],
        "bench-instances": ["bench", *model, "--target", 1, "--instances", 0],
        "bench-negative-instances": ["bench", *model, "--target", 1, "--instances", -3],
        "plan-params": ["plan", *model, "--db", _bad_params_db(ws, tmp_path),
                        "--state", "0,0,0"],
        "oracle-cap": ["oracle", *model, "--state", "0,0,0", "--target", 1, "--cap", 0],
        "bench-oracle-cap": ["bench", *model, "--target", 1, "--oracle-cap", 0],
        "bench-state-cap": ["bench", *model, "--target", 1, "--state-cap", 0],
        "bench-negative-state-cap": ["bench", *model, "--target", 1, "--state-cap", -1],
        "preprocess-state-cap": ["preprocess", *model, "--out", tmp_path / "db.jsonl",
                                 "--target", 1, "--quiet", "--state-cap", 0],
        "preprocess-negative-state-cap": ["preprocess", *model, "--out", tmp_path / "db.jsonl",
                                          "--target", 1, "--quiet", "--state-cap", -1],
    }[case]
    rv, out, err = run(args)
    assert rv == 3
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("cmd", ["plan", "bench"])
def test_backend_is_not_an_option(ws, cmd):
    # there is one in-process kernel and no flag to pick a solver backend
    args = {"plan": ["--db", ws["db"], "--state", "0,0,0"], "bench": ["--target", 1]}[cmd]
    rv, out, err = run([cmd, "--model", ws["model"], *args, "--backend", "pure"])
    assert rv == 3
    assert out == ""
    assert "No such option" in err and "--backend" in err


def _corrupt_db(ws, tmp_path, field):
    """The workspace database with one entry's ``field`` moved off the grid."""
    lines = ws["db"].read_text().splitlines()
    rec = json.loads(lines[1])
    rec[field] = [9] * len(rec[field])
    path = tmp_path / f"bad-{field}.jsonl"
    path.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
    return path


@pytest.mark.parametrize("field", ["goal", "initial"])
@pytest.mark.parametrize("cmd", ["plan", "export-wcnf"])
def test_off_grid_db_entry_is_invalid_input(ws, tmp_path, cmd, field):
    db = _corrupt_db(ws, tmp_path, field)
    extra = ["-L", 1, "--out", tmp_path / "x.wcnf"] if cmd == "export-wcnf" else []
    rv, out, err = run([cmd, "--model", ws["model"], "--db", db, "--state", "0,0,0", *extra])
    assert rv == 3
    assert f"goal database {db}: coordinate 0: index 9 outside" in err


def test_plan_missing_db_suggests_preprocess(ws, tmp_path):
    rv, _, err = run(["plan", "--model", ws["model"], "--db", tmp_path / "missing.jsonl",
                      "--state", "0,0,0"])
    assert rv == 3
    assert "run `rfplan preprocess" in err


def test_plan_timeout_exits_four(ws):
    rv, out, err = run(["plan", "--model", ws["model"], "--db", ws["db"],
                        "--state", "0,0,0", "--timeout", "1e-9"])
    assert rv == 4
    assert "status: timeout" in out
    assert "no plan within the time budget" in err


def test_plan_unsolvable_exits_two(hardws):
    rv, out, err = run(["plan", "--model", hardws["model"], "--db", hardws["db"],
                        "--state", "0"])
    assert rv == 2
    assert "status: unsolvable" in out
    assert "no plan exists for this instance" in err


def test_plan_config_file_sets_defaults(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L_max": 1}))
    rv, out, _ = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "--state", "0,0,0", "--sweep", "--config", cfg, "--json"])
    assert rv == 0
    assert [a["L"] for a in json.loads(out)["attempts"]] == [1]


def test_plan_flag_overrides_config(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L_max": 1}))
    rv, out, _ = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "--state", "0,0,0", "--sweep", "--config", cfg,
                      "--l-max", 2, "--json"])
    assert rv == 0
    assert [a["L"] for a in json.loads(out)["attempts"]] == [1, 2]


def test_plan_rejects_unknown_config_key(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rv, _, err = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "--state", "0,0,0", "--config", cfg])
    assert rv == 3
    assert err == (f"error: {cfg}: unknown keys ['bogus']; known: ['z', 'alpha', 'delta', 'K', "
                   "'L_max', 'cost_seed', 'beta_range', 'workers']\n")


def test_plan_rejects_malformed_config(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rv, _, err = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "--state", "0,0,0", "--config", cfg])
    assert rv == 3
    assert err.startswith("error:")


# greedy


def test_greedy_solves_and_reports(ws):
    rv, out, _ = run(["greedy", "--model", ws["model"], "--state", "0,0,0",
                      "--target", 1, "--json"])
    assert rv == 0
    p = json.loads(out)
    assert p["status"] == "solved"
    assert p["n_actions"] == p["makespan"] == len(p["steps"])
    assert all(len(step) == 1 for step in p["steps"])
    assert p["visited"] == p["n_actions"] + 1


def test_greedy_rules_are_selectable(ws):
    costs = {}
    for rule in ("ratio", "max_gain", "min_cost"):
        rv, out, _ = run(["greedy", "--model", ws["model"], "--state", "0,0,0",
                          "--target", 1, "--rule", rule, "--json"])
        assert rv == 0
        costs[rule] = json.loads(out)["cost"]
    assert all(c > 0 for c in costs.values())


def test_greedy_has_no_alpha_option(ws):
    # greedy reads only the target and z; an unknown option is invalid input
    rv, out, err = run(["greedy", "--model", ws["model"], "--state", "0,0,0",
                        "--target", 1, "--alpha", 1])
    assert rv == 3
    assert out == ""
    assert "No such option" in err and "--alpha" in err


def test_greedy_failure_exits_two(hardws):
    rv, out, err = run(["greedy", "--model", hardws["model"], "--state", "0",
                        "--target", 1])
    assert rv == 2
    assert "status: failed" in out
    assert "no plan found" in err


# oracle


def test_oracle_cost_matches_exhaustive_database(ws):
    rv, out, _ = run(["oracle", "--model", ws["model"], "--state", "0,0,0",
                      "--target", 1, "--json"])
    assert rv == 0
    p = json.loads(out)
    assert p["status"] == "solved"
    assert p["cost"] == ws["gdb"].entries[(0, 0, 0)].cost
    assert p["expansions"] > 0
    assert all(len(step) == 1 for step in p["steps"])


def test_oracle_already_goal(hardws):
    rv, out, _ = run(["oracle", "--model", hardws["model"], "--state", "1",
                      "--target", 1])
    assert rv == 0
    assert "status: already_goal" in out
    assert "cost 0" in out


def test_oracle_unreachable_exits_two(hardws):
    rv, out, err = run(["oracle", "--model", hardws["model"], "--state", "0",
                        "--target", 1])
    assert rv == 2
    assert "status: unreachable" in out
    assert "no plan found" in err


def test_oracle_cap_exits_four(ws):
    rv, _, err = run(["oracle", "--model", ws["model"], "--state", "0,0,0",
                      "--target", 1, "--cap", 1])
    assert rv == 4
    assert "raise the cap" in err


def test_non_finite_numbers_exit_three(ws, tmp_path):
    rv, _, err = run(["oracle", "--model", ws["model"], "-x", "male,nan,2000", "--target", 1])
    assert rv == 3
    assert "feature 'visits': nan is not finite" in err and "Traceback" not in err
    rows = (DATA / "demo.csv").read_text(encoding="utf-8").splitlines()
    rows[2] = "female,nan,1800,1"
    data = tmp_path / "nan.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rv, _, err = run(["preprocess", "--model", ws["model"], "--out", tmp_path / "db.jsonl",
                      "--target", 1, "--quiet",
                      "--data", data, "--schema", DATA / "demo_schema.json"])
    assert rv == 3
    assert f"{data}:3: feature 'visits': nan is not finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name,token,value,fault",
    [
        ("visits", "x", "x", "'x' is not a number"),
        ("visits", "1_000", "1_000", "'1_000' is not a number"),
        ("visits", "\u0661\u0660", "\u0661\u0660", "'\u0661\u0660' is not a number"),
        ("visits", "nan", math.nan, "nan is not finite"),
        ("gender", "robot", "robot", "unknown category 'robot'; choices: ['male', 'female']"),
    ],
    ids=["not-a-number", "underscore", "non-ascii-digits", "not-finite", "unknown-category"],
)
def test_raw_value_faults_read_alike(tmp_path, toy_table, name, token, value, fault):
    """One fault reads the same after each path's location prefix: -x, a CSV
    row, a libsvm row, a catalog's raw 'to' value and ``to_state``."""
    text = f"feature {name!r}: {fault}"
    raw = {"gender": "male", "visits": "2", "balance": "500", name: token}
    rv, _, err = run(["oracle", "--model", FIXTURES / "toy_forest.json", "--target", 1,
                      "-x", ",".join(raw.values())])
    assert (rv, err) == (3, f"error: {text}\n")

    csv = tmp_path / "data.csv"
    csv.write_text("gender,visits,balance,churn\n" + ",".join(raw.values()) + ",1\n",
                   encoding="utf-8")
    with pytest.raises(DataError) as exc:
        ingest(csv, "csv", load_schema(DATA / "demo_schema.json"))
    assert str(exc.value) == f"{csv}:2: {text}"

    if name == "visits":  # libsvm rows carry numbers only
        svm = tmp_path / "data.libsvm"
        svm.write_text(f"1 2:1500 1:{token}\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            ingest(svm, "libsvm", Schema(features=toy_table.features[1:], label=0))
        assert str(exc.value) == f"{svm}:1: {text}"

    spec = tmp_path / "actions.json"
    spec.write_text(f'[\n  {{"id": "a", "cost": 1, "transitions": '
                    f'[{{"feature": "{name}", "to": {json.dumps(value)}}}]}}\n]', encoding="utf-8")
    with pytest.raises(ActionError) as exc:
        load_action_spec(spec, toy_table)
    assert str(exc.value) == f"{spec}:2: action 'a': 'to': {text}"

    vector = {"gender": "male", "visits": 2.0, "balance": 500.0, name: value}
    with pytest.raises(ModelError) as exc:
        to_state(toy_table, tuple(vector.values()))
    assert str(exc.value) == text


# export-wcnf


def _wcnf_bytes(instance, path):
    wcnf_write(instance, path)
    return path.read_bytes()


def _plan_instances(ws, state, l_max):
    """The instance ``plan --sweep`` solves at each makespan 1..l_max, with
    the CLI's default catalog (cost seed 0, beta range 1..100)."""
    forest, table, library = _catalog(str(ws["model"]), None, 0, (1, 100))
    instances = []

    def recording(instance, timeout=None):
        instances.append(instance)
        return solve(instance, timeout=timeout)

    out = plan_actions(forest, table, library, ws["gdb"], state=state, sweep=True,
                       l_max=l_max, solver=recording)
    assert [a.L for a in out.attempts] == list(range(1, l_max + 1))
    return list(zip(out.attempts, instances, strict=True))


def test_export_wcnf_writes_a_parseable_instance(ws, tmp_path):
    wcnf, vmap = tmp_path / "x.wcnf", tmp_path / "x.map"
    rv, out, err = run(["export-wcnf", "--model", ws["model"], "--db", ws["db"],
                        "--state", "0,0,0", "-L", 2, "--out", wcnf, "--map", vmap])
    assert rv == 0 and err == ""
    m = re.search(r"wrote .*: (\d+) variables, (\d+) hard \+ (\d+) soft clauses, "
                  r"(\d+) goal state\(s\)", out)
    assert m
    _, inst = _plan_instances(ws, (0, 0, 0), 2)[1]
    assert wcnf.read_bytes() == _wcnf_bytes(inst, tmp_path / "planned.wcnf")
    assert inst.nvars == int(m.group(1))
    assert len(inst.hard) == int(m.group(2)) and len(inst.soft) == int(m.group(3))
    assert "variable map written to" in out
    first = vmap.read_text().splitlines()[0]
    assert first == "1 t=1 transition x0:0->0"


def test_export_wcnf_writes_the_instance_plan_solves(ws, tmp_path):
    for L, (attempt, inst) in enumerate(_plan_instances(ws, (0, 0, 0), 3), start=1):
        wcnf = tmp_path / f"L{L}.wcnf"
        rv, text, _ = run(["export-wcnf", "--model", ws["model"], "--db", ws["db"],
                           "--state", "0,0,0", "-L", L, "--out", wcnf])
        assert rv == 0 and f", {attempt.units} reachability unit(s)" in text
        assert wcnf.read_bytes() == _wcnf_bytes(inst, tmp_path / f"planned{L}.wcnf")
        assert attempt.units > 0
        assert all(len(c) == 1 and c[0] < 0 for c in inst.hard[:attempt.units])


def test_export_wcnf_at_an_already_reached_start_writes_the_one_goal_task(ws, tmp_path):
    forest, table, library = _catalog(str(ws["model"]), None, 0, (1, 100))
    start = next(s for s in enumerate_states(table) if state_proba(forest, table, s, 1) >= 0.5)
    text = ",".join(map(str, start))
    rv, out, _ = run(["plan", "--model", ws["model"], "--db", ws["db"], "--state", text,
                      "--json"])
    assert rv == 0 and json.loads(out)["status"] == "already_goal"
    wcnf, vmap = tmp_path / "x.wcnf", tmp_path / "x.map"
    rv, out, err = run(["export-wcnf", "--model", ws["model"], "--db", ws["db"],
                        "--state", text, "-L", 2, "--out", wcnf, "--map", vmap])
    assert rv == 0 and err == "" and "1 goal state(s)" in out
    # plan solves nothing here; the file is the instance encode returns for this task
    inst, _ = encode(build_sas(start, ws["gdb"], 3, forest, table, library), 2)
    assert wcnf.read_bytes() == _wcnf_bytes(inst, tmp_path / "encoded.wcnf")
    assert [line for line in vmap.read_text().splitlines() if "goal state" in line] == [
        f"{inst.nvars} goal state {start}"
    ]
    res = solve(inst)
    assert res.status == OPTIMAL and res.cost == 0


def test_export_wcnf_without_goals_exits_two(hardws, tmp_path):
    rv, _, err = run(["export-wcnf", "--model", hardws["model"], "--db", hardws["db"],
                      "--state", "0", "-L", 1, "--out", tmp_path / "x.wcnf"])
    assert rv == 2
    assert "no goal states for this instance; nothing to encode" in err


# external solver


SOLVER_STUB = """\
import sys
import time
sys.path[:0] = [{src!r}, {tests!r}]
from helpers import read_wcnf
from rfplan.maxsat import HARD_UNSAT, OPTIMAL, solve

mode = sys.argv[1:-1]  # optional misbehaviour, before the WCNF path
if "sleep" in mode:
    time.sleep(30)
if "crash" in mode:
    print("solver ran out of memory", file=sys.stderr)
    sys.exit(1)
inst = read_wcnf(sys.argv[-1])
res = solve(inst)
if res.status == OPTIMAL:
    # "satisfiable": claim no optimum, as a solver stopped by its time limit
    print("s SATISFIABLE" if "satisfiable" in mode else "s OPTIMUM FOUND")
    print("o", res.cost)
    lits = [v if res.assignment[v] else -v for v in range(1, inst.nvars + 1)]
    print("v", " ".join(str(l) for l in lits))
elif res.status == HARD_UNSAT:
    print("s UNSATISFIABLE")
else:
    print("s UNKNOWN")
"""


def _stub_command(tmp_path, mode=""):
    """Command line running SOLVER_STUB, optionally in a misbehaving mode."""
    tests = os.path.dirname(os.path.abspath(__file__))
    stub = tmp_path / "solver.py"
    stub.write_text(SOLVER_STUB.format(src=os.path.join(os.path.dirname(tests), "src"),
                                       tests=tests))
    stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
    return f"{sys.executable} {stub} {mode}".rstrip()


def test_external_solver_matches_internal_plan(ws, tmp_path):
    cmd = _stub_command(tmp_path)
    for extra in (["--l-max", 1], ["--l-max", 2, "--sweep"]):
        base = ["plan", "--model", ws["model"], "--db", ws["db"],
                "--state", "0,0,0", "--json", *extra]
        rv, out, _ = run(base)
        assert rv == 0
        internal = json.loads(out)
        rv, out, _ = run(base + ["--external-solver", cmd])
        assert rv == 0
        external = json.loads(out)
        assert external["status"] == "solved"
        assert external == internal


def test_external_solver_agrees_on_goal_states_missing_from_db(ws, tmp_path):
    # a database without the goal states' own entries, as `preprocess --data` can
    # leave: the neighbors' goals lie elsewhere, yet a goal state needs no plan
    gdb = ws["gdb"]
    goal_states = sorted(s for s, e in gdb.entries.items() if e.goal == s)
    assert goal_states
    partial = GoalDatabase(
        fingerprint=gdb.fingerprint, params=gdb.params,
        entries={s: e for s, e in gdb.entries.items() if e.goal != s},
    )
    db = tmp_path / "partial.jsonl"
    db_persist(partial, str(db))
    cmd = _stub_command(tmp_path)
    for s in goal_states:
        base = ["plan", "--model", ws["model"], "--db", db,
                "--state", ",".join(map(str, s)), "--json"]
        rv, out, _ = run(base)
        assert rv == 0
        internal = json.loads(out)
        rv, out, _ = run(base + ["--external-solver", cmd])
        assert rv == 0
        external = json.loads(out)
        assert internal["status"] == "already_goal" and internal["cost"] == 0
        assert external == internal, s


@pytest.mark.parametrize("mode, extra, code, message", [
    ("sleep", ["--timeout", 1], 4, "no plan within the time budget"),
    ("crash", [], 3, "exited with code 1; stderr ends: solver ran out of memory"),
], ids=["timeout", "exit-code"])
def test_external_solver_failures(ws, tmp_path, mode, extra, code, message):
    t0 = time.perf_counter()
    rv, out, err = run(["plan", "--model", ws["model"], "--db", ws["db"], "--state", "0,0,0",
                        "--external-solver", _stub_command(tmp_path, mode), *extra])
    assert rv == code
    assert message in err
    assert time.perf_counter() - t0 < 10, "the solver process outlived its budget"


def test_external_solver_incumbent_is_returned_unproven(ws, tmp_path):
    base = ["plan", "--model", ws["model"], "--db", ws["db"], "--state", "0,0,0",
            "--l-max", 2]
    rv, out, _ = run(base + ["--json"])
    assert rv == 0
    internal = json.loads(out)
    cmd = _stub_command(tmp_path, "satisfiable")
    rv, out, err = run(base + ["--json", "--external-solver", cmd])
    assert rv == 4
    assert "not proven cheapest" in err
    external = json.loads(out)
    assert external["status"] == "timeout"
    assert (external["cost"], external["steps"]) == (internal["cost"], internal["steps"])
    assert external["attempts"][-1] == {**internal["attempts"][-1], "status": "timeout"}
    rv, out, _ = run(base + ["--external-solver", cmd])
    assert rv == 4
    assert f"plan: cost {internal['cost']:g}" in out and "not proven cheapest" in out


def test_external_solver_not_found(ws):
    rv, _, err = run(["plan", "--model", ws["model"], "--db", ws["db"],
                      "--state", "0,0,0", "--external-solver", "/does/not/exist"])
    assert rv == 3
    assert "external solver not found" in err


# bench


def test_bench_writes_json_lines(ws, tmp_path):
    jl = tmp_path / "bench.jsonl"
    rv, out, err = run(["bench", "--model", ws["model"], "--target", 1,
                        "--instances", 2, "--l-max", 2, "--sweep", "100",
                        "--sample-seed", 7, "--node-budget", 90_000, "--timeout", 30,
                        "--state-cap", 5_000, "--oracle-cap", 80_000, "--json-out", jl])
    assert rv == 0, err
    for arm in ("planner", "greedy", "oracle"):
        assert arm in out
    records = [json.loads(line) for line in jl.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["settings", "instance", "instance", "summary"]
    settings, first, _, summary = records
    assert settings == {
        "kind": "settings", "target": 1, "z": 0.5, "alpha": "auto", "delta": 10_000_000,
        "node_budget": 90_000, "k": 3, "l_max": 2, "sweep_makespan": False,
        "n_instances": 2, "sample_seed": 7, "state_cap": 5_000, "oracle_cap": 80_000,
        "workers": 1, "timeout": 30.0, "cost_seed": 0, "beta_range": [1, 100],
        "fractions": [100], "model_fingerprint": settings["model_fingerprint"],
    }
    assert settings["model_fingerprint"] == fingerprint(restore(str(ws["model"])))
    assert first["index"] == 0
    for arm in ("planner", "greedy", "oracle"):
        assert arm in first
        assert 0 <= summary[arm]["solved"] <= summary[arm]["total"] == 2


def test_bench_data_instances_are_below_target_rows_in_file_order(ws, tmp_path):
    forest = restore(str(ws["model"]))
    table = build_partitions(forest)
    schema = load_schema(DATA / "demo_schema.json")
    rows = [to_state(table, x) for x in ingest(DATA / "demo.csv", "csv", schema).rows]
    below = [list(s) for s in rows if state_proba(forest, table, s, 1) < 0.5]
    assert 0 < len(below) < len(rows)
    jl = tmp_path / "bench.jsonl"
    rv, _, err = run(["bench", "--model", ws["model"], "--target", 1, "--l-max", 2,
                      "--data", DATA / "demo.csv", "--schema", DATA / "demo_schema.json",
                      "--json-out", jl])
    assert rv == 0, err
    records = [json.loads(line) for line in jl.read_text().splitlines()]
    assert [r["state"] for r in records if r["kind"] == "instance"] == below


def test_bench_oracle_over_its_cap_reads_cap_exceeded(ws, tmp_path):
    jl = tmp_path / "bench.jsonl"
    rv, out, err = run(["bench", "--model", ws["model"], "--target", 1, "--instances", 2,
                        "--l-max", 2, "--oracle-cap", 1, "--json-out", jl])
    assert rv == 0, err
    oracle_row = next(line for line in out.splitlines() if line.split()[0] == "oracle")
    assert oracle_row.split() == ["oracle", "0/2", "-", "-", "-"]
    records = [json.loads(line) for line in jl.read_text().splitlines()]
    rows = [r["oracle"] for r in records if r["kind"] == "instance"]
    assert [r["status"] for r in rows] == ["cap_exceeded"] * 2
    assert all(r["cost"] is None for r in rows)
    summary = records[-1]["oracle"]
    assert summary == {"solved": 0, "total": 2, "mean_cost": None, "mean_length": None,
                       "mean_seconds": None}


def test_bench_data_rows_all_reaching_z_is_an_error(ws, tmp_path):
    forest = restore(str(ws["model"]))
    table = build_partitions(forest)
    lines = (DATA / "demo.csv").read_text().splitlines()
    schema = load_schema(DATA / "demo_schema.json")
    rows = ingest(DATA / "demo.csv", "csv", schema).rows
    assert len(rows) == len(lines) - 1
    reached = [line for line, x in zip(lines[1:], rows)
               if state_proba(forest, table, to_state(table, x), 1) >= 0.5]
    assert reached
    data = tmp_path / "reached.csv"
    data.write_text("\n".join([lines[0], *reached]) + "\n")
    rv, _, err = run(["bench", "--model", ws["model"], "--target", 1, "--l-max", 2,
                      "--data", data, "--schema", DATA / "demo_schema.json"])
    assert rv == 3
    assert "no test instances" in err


# action catalogs


ACTION_SPEC = [
    *({"id": f"visits+{i}", "cost": 11 + i, "transitions": [
        {"feature": "visits", "from": i, "to": i + 1}]} for i in range(3)),
    *({"id": f"balance+{j}", "cost": 5 + 3 * j, "transitions": [
        {"feature": "balance", "from": j, "to": j + 1}]} for j in range(4)),
    {"id": "visits-back", "cost": 2, "transitions": [{"feature": "visits", "to": 0}]},
    {"id": "jump", "cost": 90, "transitions": [{"feature": "visits", "from": 0, "to": 3},
                                               {"feature": "balance", "to": 4}]},
]


def test_actions_spec_matches_library_api(ws, tmp_path):
    spec = tmp_path / "actions.json"
    spec.write_text(json.dumps(ACTION_SPEC))
    forest = restore(str(ws["model"]))
    table = build_partitions(forest)
    library = load_action_spec(str(spec), table)
    params = SearchParams(target=1)

    db_cli, db_api = tmp_path / "cli.jsonl", tmp_path / "api.jsonl"
    rv, _, err = run(["preprocess", "--model", ws["model"], "--out", db_cli, "--target", 1,
                      "--quiet", "--actions", spec])
    assert rv == 0, err
    db = preprocess(list(enumerate_states(table)), library, forest, table, params)
    db_persist(db, str(db_api))
    assert db_cli.read_bytes() == db_api.read_bytes()

    used = set()
    for s in enumerate_states(table):
        cell = ",".join(map(str, s))
        rv, out, _ = run(["plan", "--model", ws["model"], "--db", db_cli, "--state", cell,
                          "--actions", spec, "--json"])
        outcome = plan_actions(forest, table, library, db, state=s, k=3, l_max=8)
        p = json.loads(out)
        assert (rv, p["status"]) == (0 if outcome.solved else 2, outcome.status), cell
        if outcome.plan is not None:
            assert (p["cost"], p["steps"]) == (outcome.plan.cost, outcome.plan.action_ids())
            used.update(a for step in p["steps"] for a in step)

        greedy = greedy_plan(s, library, forest, table, params)
        oracle = oracle_plan(s, library, forest, table, params)
        for cmd, res, extra in (("greedy", greedy, {"visited": len(greedy.visited)}),
                                ("oracle", oracle, {"expansions": oracle.expansions})):
            rv, out, _ = run([cmd, "--model", ws["model"], "--state", cell, "--target", 1,
                              "--actions", spec, "--json"])
            p = json.loads(out)
            assert (p["status"], {k: p[k] for k in extra}) == (res.status, extra), (cmd, cell)
            if res.plan is not None:
                assert (p["cost"], p["steps"]) == (res.plan.cost, res.plan.action_ids())

        wcnf_cli, wcnf_api = tmp_path / "cli.wcnf", tmp_path / "api.wcnf"
        rv, _, _ = run(["export-wcnf", "--model", ws["model"], "--db", db_cli, "--state", cell,
                        "-L", 2, "--out", wcnf_cli, "--actions", spec])
        try:
            instance, _ = encode(build_sas(s, db, 3, forest, table, library), 2)
        except NoGoalsError:
            assert rv == 2, cell
            continue
        assert rv == 0, cell
        wcnf_write(instance, str(wcnf_api))
        assert wcnf_cli.read_bytes() == wcnf_api.read_bytes(), cell
    assert used and used <= {a["id"] for a in ACTION_SPEC}


def test_infinite_action_cost_is_invalid_input(ws, tmp_path):
    spec = tmp_path / "actions.json"
    spec.write_text('[\n  {"id": "a", "cost": Infinity,\n'
                    '   "transitions": [{"feature": "visits", "to": 1}]}\n]')
    for cmd, args in (("preprocess", ["--out", tmp_path / "db.jsonl", "--target", 1]),
                      ("plan", ["--db", ws["db"], "--state", "0,0,0"])):
        rv, out, err = run([cmd, "--model", ws["model"], *args, "--actions", spec])
        assert (rv, out) == (3, ""), cmd
        assert f"{spec}:2: action 'a': cost must be finite" in err, cmd


_TIMING_KEYS = {"seconds", "prep_seconds", "peak_gb", "mean_seconds"}


def _untimed(doc):
    if isinstance(doc, dict):
        return {k: _untimed(v) for k, v in doc.items() if k not in _TIMING_KEYS}
    return doc


def _catalog_run(ws, cmd, out_file, extra):
    """One catalog-dependent command; returns its output with timings removed."""
    args = {
        "preprocess": ["--out", out_file, "--target", 1, "--quiet"],
        "plan": ["--db", ws["db"], "--state", "0,0,0", "--sweep", "--l-max", 2, "--json"],
        "greedy": ["--state", "0,0,0", "--target", 1, "--json"],
        "oracle": ["--state", "0,0,0", "--target", 1, "--json"],
        "export-wcnf": ["--db", ws["db"], "--state", "0,0,0", "-L", 2, "--out", out_file],
        "bench": ["--target", 1, "--instances", 3, "--l-max", 2, "--json-out", out_file],
    }[cmd]
    rv, out, err = run([cmd, "--model", ws["model"], *args, *extra])
    assert rv == 0, err
    if cmd == "bench":
        return [_untimed(json.loads(line)) for line in out_file.read_text().splitlines()]
    return out_file.read_text() if cmd in ("preprocess", "export-wcnf") else out


@pytest.mark.parametrize("cmd", ["preprocess", "plan", "greedy", "oracle", "export-wcnf",
                                 "bench"])
def test_catalog_flags_match_config(ws, tmp_path, cmd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cost_seed": 3, "beta_range": [2, 9]}))
    flags = _catalog_run(ws, cmd, tmp_path / "a", ["--cost-seed", 3, "--beta-range", "2,9"])
    config = _catalog_run(ws, cmd, tmp_path / "b", ["--config", cfg])
    default = _catalog_run(ws, cmd, tmp_path / "c", [])
    assert flags == config
    assert flags != default


# shared keys: one rule per key, for a flag and for the same key in --config


@pytest.mark.parametrize("key, value, code", [
    ("z", 1.0, 0),
    ("z", 0, 3),
    ("alpha", "auto", 0),
    ("alpha", -1, 3),
    ("delta", 0, 3),
    ("workers", 0, 3),
    ("K", 0, 3),
    ("L_max", 0, 3),
    ("L_max", 1, 0),
    ("cost_seed", -1, 3),
    ("beta_range", [0, 5], 3),
    ("beta_range", [9, 2], 3),
    ("timeout", 0, 3),
    ("timeout", -1, 3),
    ("timeout", "nan", 3),
    ("timeout", "inf", 3),
])
def test_flag_and_config_follow_one_rule(ws, tmp_path, key, value, code):
    if key in ("z", "alpha", "delta", "workers"):
        base = ["preprocess", "--model", ws["model"], "--out", tmp_path / "db.jsonl",
                "--target", 1, "--quiet"]
    elif key in ("cost_seed", "beta_range"):
        base = ["greedy", "--model", ws["model"], "--state", "0,0,0", "--target", 1]
    else:
        base = ["plan", "--model", ws["model"], "--db", ws["db"], "--state", "0,0,0"]
    flag = "--" + key.lower().replace("_", "-")
    text = ",".join(map(str, value)) if isinstance(value, list) else value
    forms = [[flag, text]]
    if key != "timeout":  # the one key without a config form
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        forms.append(["--config", cfg])
    for form in forms:
        rv, _, err = run(base + form)
        assert rv == code, (form, err)
        if code == 3:
            assert key.lower().replace("_", "-") in err.lower().replace("_", "-"), err
            # a fault names where the value came from: the flag, or the config file
            assert (str(cfg) if form[0] == "--config" else flag) in err, err


# numbers in a flag's text: plain ASCII decimal, as in a raw feature value;
# Python's int() and float() would read each of these


@pytest.mark.parametrize("cmd, flag, text", [
    ("plan", "--state", "\u0660,0,0"),
    ("plan", "--state", "0_0,0,0"),
    ("plan", "--k", "\u0661"),
    ("plan", "--timeout", "\u0661.5"),
    ("preprocess", "--delta", "\u0661_0"),
    ("preprocess", "--z", "0_0.5"),
    ("preprocess", "--node-budget", "1_000"),
    ("greedy", "--beta-range", "1,\u0665"),
    ("bench", "--sweep", "1_0,\u0665\u0660"),
])
def test_numbers_in_flag_text_are_ascii_decimal(ws, tmp_path, cmd, flag, text):
    base = {
        "plan": ["--db", ws["db"]],
        "preprocess": ["--out", tmp_path / "db.jsonl", "--target", 1, "--quiet"],
        "greedy": ["--target", 1],
        "bench": ["--target", 1, "--instances", 1],
    }[cmd]
    state = [] if flag == "--state" or cmd in ("preprocess", "bench") else ["--state", "0,0,0"]
    rv, out, err = run([cmd, "--model", ws["model"], *base, *state, flag, text])
    assert rv == 3, err
    assert err.startswith("error: ") and flag in err and "Traceback" not in err, err
    assert out == ""


def test_target_class_in_text_is_ascii_decimal(ws):
    rv, _, err = run(["greedy", "--model", ws["model"], "--state", "0,0,0", "--target", "\u0661"])
    assert (rv, err) == (3, "error: unknown class '\u0661'; model classes: ['0', '1']\n")


# file faults: one reader for every input file, one boundary for every fault


def _readers(ws, tmp_path):
    """Per input file: its good bytes, and the command that reads it from a path."""
    schema = DATA / "demo_schema.json"
    numbers = tmp_path / "numbers.json"
    numbers.write_text('{"label": 0, "features": [{"name": "a"}, {"name": "b"}]}')
    train = ["train", "--out", tmp_path / "m.json", "--trees", 2]
    model = ["--model", ws["model"]]
    greedy = ["greedy", *model, "--state", "0,0,0", "--target", 1]
    return {
        "model": (ws["model"].read_bytes(), lambda p: ["partitions", "--model", p]),
        "schema": (schema.read_bytes(), lambda p: [*train, "--data", DATA / "demo.csv",
                                                   "--schema", p]),
        "csv": ((DATA / "demo.csv").read_bytes(), lambda p: [*train, "--data", p,
                                                             "--schema", schema]),
        "libsvm": ((DATA / "demo.libsvm").read_bytes(),
                   lambda p: [*train, "--format", "libsvm", "--data", p, "--schema", numbers]),
        "catalog": (json.dumps(ACTION_SPEC, indent=1).encode(),
                    lambda p: [*greedy, "--actions", p]),
        "database": (ws["db"].read_bytes(),
                     lambda p: ["plan", *model, "--db", p, "--state", "0,0,0"]),
        "config": (b'{\n "cost_seed": 3\n}\n', lambda p: [*greedy, "--config", p]),
    }


@pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8", "bom"])
@pytest.mark.parametrize("reader", ["model", "schema", "csv", "libsvm", "catalog", "database",
                                    "config"])
def test_input_file_faults_exit_three(ws, tmp_path, reader, fault):
    good, command = _readers(ws, tmp_path)[reader]
    path = tmp_path / "input"
    if fault == "directory":
        path.mkdir()
    elif fault == "not-utf8":
        path.write_bytes(good.replace(b"\n", b"\n\xff", 1))
    elif fault == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + good)
    rv, out, err = run(command(path))
    if fault == "bom":
        assert (rv, err) == (0, "")
        return
    assert (rv, out) == (3, ""), err
    if fault == "missing" and reader == "database":
        assert err.startswith(f"error: goal database {path} not found; run `rfplan preprocess")
    elif fault == "missing":
        assert err == f"error: {path}: No such file or directory\n"
    elif fault == "directory":
        assert err == f"error: {path}: Is a directory\n"
    else:
        assert re.fullmatch(rf"error: {re.escape(str(path))}:2: not UTF-8 text "
                            r"\(invalid start byte at byte \d+\)\n", err), err


@pytest.mark.parametrize("writer", ["train", "preprocess", "export-wcnf", "export-wcnf-map",
                                    "bench"])
def test_unwritable_output_is_named(ws, tmp_path, writer):
    bad = tmp_path / "no-such-dir" / "out"
    model = ["--model", ws["model"]]
    export = ["export-wcnf", *model, "--db", ws["db"], "--state", "0,0,0", "-L", 1]
    args = {
        "train": ["train", "--data", DATA / "demo.csv", "--schema", DATA / "demo_schema.json",
                  "--trees", 2, "--out", bad],
        "preprocess": ["preprocess", *model, "--target", 1, "--out", bad],
        "export-wcnf": [*export, "--out", bad],
        "export-wcnf-map": [*export, "--out", tmp_path / "x.wcnf", "--map", bad],
        "bench": ["bench", *model, "--target", 1, "--instances", 1, "--l-max", 1,
                  "--json-out", bad],
    }[writer]
    rv, out, err = run(args)
    # the path is checked before the work: no progress line, arm table or report
    assert (rv, out, err) == (3, "", f"error: {bad}: No such file or directory\n")
