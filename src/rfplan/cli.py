"""Command line front end.

Exit codes: 0 success, 2 no plan exists, 3 invalid input, 4 timed out.
Defaults can come from a JSON config file (--config); explicit flags win.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import click
import numpy as np

from . import __version__
from . import baselines
from . import encoder
from . import maxsat
from .bench import (
    BenchError,
    BenchSettings,
    parse_fractions,
    run_bench,
    state_universe,
)
from .data import DataError, Dataset, ingest, load_schema, train_test_split
from .discretize import (
    StateError,
    build_partitions,
    check_state,
    state_proba,
    to_state,
)
from .encoder import DEFAULT_SCALE, NoGoalsError, PlanningError, build_sas, encode
from .forest import (
    ModelError,
    TrainParams,
    fingerprint,
    restore,
    persist,
    train_forest,
)
from .knn import SimilarityWeights
from .maxsat import BackendError, WcnfError, wcnf_write
from .offline import (
    AUTO,
    SearchError,
    SearchParams,
    check_pairing,
    db_persist,
    db_restore,
    preprocess,
)
from .sas_core import ActionError, CostModel, default_action_library, load_action_spec

EXIT_OK = 0
EXIT_UNSOLVABLE = 2
EXIT_INVALID = 3
EXIT_TIMEOUT = 4

_CONFIG_KEYS = ("z", "alpha", "delta", "K", "L_max", "cost_seed", "beta_range", "workers")


class CliError(click.ClickException):
    """Invalid input of any kind; rendered as `error: ...`, exit code 3."""

    exit_code = EXIT_INVALID

    def format_message(self) -> str:
        return self.message


def main(argv=None) -> int:
    """Entry point wrapper that owns the exit code contract."""
    try:
        # ctx.exit(n) surfaces here as a plain return value, not SystemExit
        rv = cli.main(args=argv, prog_name="rfplan", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        click.echo("error: aborted", err=True)
        return EXIT_INVALID
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_INVALID
    return rv if isinstance(rv, int) else EXIT_OK


@click.group()
@click.version_option(version=__version__, prog_name="rfplan")
def cli() -> None:
    """Action planning over random forest predictions."""


# ---------------------------------------------------------------------------
# shared plumbing


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: not valid JSON ({exc.msg})") from None
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise CliError(f"{path}: unknown config keys {unknown}; known: {list(_CONFIG_KEYS)}")
    if "z" in doc:
        z = doc["z"]
        if not isinstance(z, (int, float)) or isinstance(z, bool) or not 0.0 < z < 1.0:
            raise CliError(f"{path}: z must be a number in (0, 1), got {z!r}")
    if "alpha" in doc:
        a = doc["alpha"]
        ok = a == AUTO or (isinstance(a, (int, float)) and not isinstance(a, bool) and a >= 0)
        if not ok:
            raise CliError(f"{path}: alpha must be 'auto' or a number >= 0, got {a!r}")
    for key in ("delta", "K", "L_max", "cost_seed", "workers"):
        if key in doc:
            v = doc[key]
            if not isinstance(v, int) or isinstance(v, bool):
                raise CliError(f"{path}: {key} must be an integer, got {v!r}")
            if key != "cost_seed" and v < (0 if key == "delta" else 1):
                raise CliError(f"{path}: {key} out of range: {v}")
    if "beta_range" in doc:
        br = doc["beta_range"]
        ok = (
            isinstance(br, list)
            and len(br) == 2
            and all(isinstance(b, int) and not isinstance(b, bool) for b in br)
            and 1 <= br[0] <= br[1]
        )
        if not ok:
            raise CliError(f"{path}: beta_range must be [low, high] with 1 <= low <= high")
    return doc


def _eff(flag, cfg: dict, key: str, default):
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _parse_alpha(text):
    if text is None:
        return None
    if text == AUTO:
        return AUTO
    try:
        value = float(text)
    except ValueError:
        raise CliError(f"--alpha must be 'auto' or a number, got {text!r}") from None
    if value < 0:
        raise CliError(f"--alpha must be >= 0, got {value}")
    return value


def _parse_beta_range(text):
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError:
        raise CliError(f"--beta-range must be LOW,HIGH integers, got {text!r}") from None
    if not 1 <= lo <= hi:
        raise CliError(f"--beta-range needs 1 <= low <= high, got {lo},{hi}")
    return (lo, hi)


def _load_forest(path):
    try:
        return restore(path)
    except OSError as exc:
        raise CliError(f"cannot read model {path}: {exc.strerror}") from None
    except (ModelError, json.JSONDecodeError) as exc:
        raise CliError(f"model {path}: {exc}") from None


def _load_db(path):
    if not os.path.exists(path):
        raise CliError(
            f"goal database {path} not found; run `rfplan preprocess --out {path} ...` "
            "against this model first"
        )
    try:
        return db_restore(path)
    except OSError as exc:
        raise CliError(f"cannot read goal database {path}: {exc.strerror}") from None
    except SearchError as exc:
        raise CliError(str(exc)) from None


def _resolve_class(forest, token: str):
    for c in forest.classes:
        if str(c) == token:
            return c
    for cast in (int, float):
        try:
            v = cast(token)
        except ValueError:
            continue
        if v in forest.classes:
            return v
    raise CliError(
        f"unknown class {token!r}; model classes: {[str(c) for c in forest.classes]}"
    )


def _library(table, actions_path, cost_seed, beta_range):
    if actions_path is not None:
        try:
            return load_action_spec(actions_path, table)
        except OSError as exc:
            raise CliError(f"cannot read actions {actions_path}: {exc.strerror}") from None
        except ActionError as exc:
            raise CliError(str(exc)) from None
    rng = np.random.default_rng(cost_seed)
    cost = CostModel.random(len(table.features), rng, beta_range[0], beta_range[1])
    return default_action_library(table, cost)


def _parse_vector(text, features):
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != len(features):
        raise CliError(
            f"input has {len(tokens)} values but the model has {len(features)} features"
        )
    values = []
    for meta, token in zip(features, tokens):
        if meta.is_numerical:
            try:
                values.append(float(token))
            except ValueError:
                raise CliError(f"feature {meta.name!r}: {token!r} is not a number") from None
        else:
            if token not in meta.categories:
                raise CliError(
                    f"feature {meta.name!r}: unknown category {token!r}; "
                    f"choices: {list(meta.categories)}"
                )
            values.append(token)
    return tuple(values)


def _parse_state(text, table):
    tokens = [t.strip() for t in text.split(",")]
    try:
        s = tuple(int(t) for t in tokens)
    except ValueError:
        raise CliError(f"--state must be comma-separated integers, got {text!r}") from None
    try:
        return check_state(table, s)
    except StateError as exc:
        raise CliError(str(exc)) from None


def _instance_state(table, x_text, state_text):
    if (x_text is None) == (state_text is None):
        raise CliError("pass exactly one of -x/--input (raw values) or --state (cell indices)")
    if x_text is not None:
        x = _parse_vector(x_text, table.features)
        return to_state(table, x)
    return _parse_state(state_text, table)


def _load_dataset(data_path, schema_path, fmt) -> Dataset:
    try:
        schema = load_schema(schema_path)
        return ingest(data_path, fmt, schema)
    except OSError as exc:
        raise CliError(f"cannot read {exc.filename}: {exc.strerror}") from None
    except DataError as exc:
        raise CliError(str(exc)) from None


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True, default=_jsonable))


def _plan_payload(outcome: encoder.PlanOutcome, forest, table, target) -> dict:
    doc = {
        "status": outcome.status,
        "initial": list(outcome.s_init),
        "target": _jsonable(target),
        "goal_pool": [list(g) for g in outcome.goals],
        "attempts": [
            {"L": a.L, "status": a.status, "cost": a.cost} for a in outcome.attempts
        ],
    }
    if outcome.plan is not None:
        plan = outcome.plan
        final = plan.goal
        doc.update(
            cost=plan.cost,
            makespan=plan.makespan,
            n_actions=plan.n_actions,
            steps=[[a.id for a in step] for step in plan.steps],
            final=list(final),
            p_final=state_proba(forest, table, final, target),
        )
    return doc


def _render_plan(outcome: encoder.PlanOutcome, forest, table, target) -> None:
    p0 = state_proba(forest, table, outcome.s_init, target)
    click.echo(f"initial state {outcome.s_init}  p(target)={p0:.4f}")
    for a in outcome.attempts:
        cost = "-" if a.cost is None else f"{a.cost:g}"
        click.echo(f"  L={a.L}: {a.status} (cost {cost})")
    if outcome.status == encoder.ALREADY_GOAL:
        click.echo("already at goal; nothing to do")
        return
    if outcome.plan is None:
        click.echo(f"status: {outcome.status}")
        return
    plan = outcome.plan
    unproven = " (time ran out: not proven cheapest)" if outcome.status == encoder.TIMEOUT else ""
    click.echo(
        f"plan: cost {plan.cost:g}, {plan.makespan} step(s), {plan.n_actions} action(s)"
        + unproven
    )
    for i, step in enumerate(plan.steps, start=1):
        click.echo(f"  step {i}: " + ", ".join(a.id for a in step))
    p1 = state_proba(forest, table, plan.goal, target)
    click.echo(f"final state {plan.goal}  p(target)={p1:.4f}")
    click.echo(f"status: {outcome.status}")


def _exit_for_outcome(ctx, outcome: encoder.PlanOutcome) -> None:
    if outcome.solved:
        return
    if outcome.status == encoder.TIMEOUT:
        if outcome.plan is None:
            click.echo("no plan within the time budget", err=True)
        else:
            click.echo("time budget ran out; the plan found is not proven cheapest", err=True)
        ctx.exit(EXIT_TIMEOUT)
    click.echo("no plan exists for this instance", err=True)
    ctx.exit(EXIT_UNSOLVABLE)


# ---------------------------------------------------------------------------
# train


@cli.command()
@click.option("--data", "data_path", required=True, type=click.Path(), help="Training data file.")
@click.option("--schema", "schema_path", required=True, type=click.Path(), help="JSON schema file.")
@click.option("--format", "fmt", type=click.Choice(["csv", "libsvm"]), default="csv", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(), help="Where to write the model.")
@click.option("--trees", type=int, default=100, show_default=True)
@click.option("--max-depth", type=int, default=64, show_default=True)
@click.option("--min-leaf", type=int, default=1, show_default=True)
@click.option("--mtry", type=int, default=None, help="Features tried per split (default sqrt).")
@click.option("--sample-size", type=int, default=None, help="Bootstrap sample size (default n).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--test-fraction", type=float, default=None, help="Hold out a test split and report accuracy.")
@click.option("--split-seed", type=int, default=0, show_default=True)
def train(data_path, schema_path, fmt, out_path, trees, max_depth, min_leaf, mtry,
          sample_size, seed, test_fraction, split_seed):
    """Fit a random forest on a dataset and save it as JSON."""
    ds = _load_dataset(data_path, schema_path, fmt)
    test = None
    if test_fraction is not None:
        try:
            ds_train, test = train_test_split(ds, test_fraction, split_seed)
        except DataError as exc:
            raise CliError(str(exc)) from None
    else:
        ds_train = ds
    params = TrainParams(
        n_trees=trees, sample_size=sample_size, mtry=mtry,
        max_depth=max_depth, min_leaf=min_leaf, rng_seed=seed,
    )
    try:
        forest = train_forest(ds_train.features, ds_train.rows, ds_train.labels, params,
                              classes=ds_train.classes)
        persist(forest, out_path)
    except ModelError as exc:
        raise CliError(str(exc)) from None
    except OSError as exc:
        raise CliError(f"cannot write model {out_path}: {exc.strerror}") from None
    click.echo(f"trained {len(forest.trees)} trees on {len(ds_train)} rows "
               f"({len(forest.features)} features, classes {[str(c) for c in forest.classes]})")
    if test is not None:
        hits = sum(1 for x, y in zip(test.rows, test.labels) if forest.predict(x) == y)
        click.echo(f"holdout accuracy: {hits}/{len(test)} = {hits / len(test):.4f}")
    click.echo(f"model written to {out_path} (fingerprint {fingerprint(forest)[:16]})")


# ---------------------------------------------------------------------------
# partitions


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def partitions(model_path, as_json):
    """Show the partition each feature is split into."""
    forest = _load_forest(model_path)
    table = build_partitions(forest)
    if as_json:
        feats = []
        for meta, ths, size in zip(table.features, table.thresholds, table.sizes):
            rec = {"name": meta.name, "kind": meta.kind, "mutability": meta.mutability,
                   "cells": size}
            if meta.is_numerical:
                rec["thresholds"] = list(ths)
            else:
                rec["categories"] = list(meta.categories)
            feats.append(rec)
        _echo_json({"state_count": table.state_count, "features": feats})
        return
    click.echo(f"{len(table.features)} features, {table.state_count} states")
    for meta, ths, size in zip(table.features, table.thresholds, table.sizes):
        if meta.is_numerical:
            shown = ", ".join(f"{t:g}" for t in ths) if ths else "(never split)"
            detail = f"thresholds: {shown}"
        else:
            detail = "categories: " + ", ".join(meta.categories)
        click.echo(f"  {meta.name} [{meta.kind}, {meta.mutability}] {size} cells; {detail}")


# ---------------------------------------------------------------------------
# preprocess


@cli.command("preprocess")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(), help="Goal database file.")
@click.option("--target", "target_text", required=True, help="Class the plans must reach.")
@click.option("--z", type=float, default=None, help="Vote share that counts as reached.")
@click.option("--alpha", "alpha_text", default=None, help="Heuristic scale, 'auto' or a number.")
@click.option("--delta", type=int, default=None, help="Patience: extra expansions after the last improvement.")
@click.option("--node-budget", type=int, default=5_000_000, show_default=True)
@click.option("--states", "states_mode", type=click.Choice(["all", "data"]), default="all",
              show_default=True, help="Search the whole state space or the states of data rows.")
@click.option("--data", "data_path", type=click.Path(), default=None)
@click.option("--schema", "schema_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "libsvm"]), default="csv", show_default=True)
@click.option("--state-cap", type=int, default=250_000, show_default=True)
@click.option("--actions", "actions_path", type=click.Path(), default=None,
              help="Action spec JSON (default: one action per cell pair).")
@click.option("--cost-seed", type=int, default=None, help="Seed for the default action costs.")
@click.option("--beta-range", "beta_text", default=None, help="Cost weight range LOW,HIGH.")
@click.option("--workers", type=int, default=None, help="Worker processes.")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--quiet", is_flag=True, help="No progress output.")
def preprocess_cmd(model_path, out_path, target_text, z, alpha_text, delta, node_budget,
                   states_mode, data_path, schema_path, fmt, state_cap, actions_path,
                   cost_seed, beta_text, workers, config_path, quiet):
    """Search every start state offline and store the goals found."""
    cfg = _load_config(config_path)
    z = _eff(z, cfg, "z", 0.5)
    alpha = _eff(_parse_alpha(alpha_text), cfg, "alpha", AUTO)
    delta = _eff(delta, cfg, "delta", 10_000_000)
    cost_seed = _eff(cost_seed, cfg, "cost_seed", 0)
    beta_range = tuple(_eff(_parse_beta_range(beta_text), cfg, "beta_range", (1, 100)))
    workers = _eff(workers, cfg, "workers", 1)

    forest = _load_forest(model_path)
    table = build_partitions(forest)
    library = _library(table, actions_path, cost_seed, beta_range)
    target = _resolve_class(forest, target_text)
    try:
        params = SearchParams(target=target, z=z, alpha=alpha, patience=delta,
                              node_budget=node_budget)
    except SearchError as exc:
        raise CliError(str(exc)) from None

    if states_mode == "data":
        if data_path is None or schema_path is None:
            raise CliError("--states data needs --data and --schema")
        ds = _load_dataset(data_path, schema_path, fmt)
        try:
            states = [to_state(table, x) for x in ds.rows]
        except StateError as exc:
            raise CliError(str(exc)) from None
    else:
        try:
            states = state_universe(table, state_cap)
        except BenchError as exc:
            raise CliError(str(exc)) from None

    total = len(set(states))
    step = max(1, total // 20)

    def progress(done: int, n: int) -> None:
        if not quiet and (done % step == 0 or done == n):
            click.echo(f"  searched {done}/{n}", err=True)

    t0 = time.perf_counter()
    try:
        db = preprocess(states, library, forest, table, params, workers=workers,
                        on_progress=progress if workers <= 1 else None)
    except SearchError as exc:
        raise CliError(str(exc)) from None
    elapsed = time.perf_counter() - t0
    try:
        db_persist(db, out_path)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc.strerror}") from None

    found = sum(1 for e in db.entries.values() if e.found)
    by_status: dict[str, int] = {}
    for e in db.entries.values():
        by_status[e.status] = by_status.get(e.status, 0) + 1
    statuses = ", ".join(f"{k}={v}" for k, v in sorted(by_status.items()))
    click.echo(f"searched {len(db.entries)} states in {elapsed:.2f}s "
               f"({found} goals found; {statuses})")
    click.echo(f"goal database written to {out_path}")


# ---------------------------------------------------------------------------
# plan


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--db", "db_path", required=True, type=click.Path(), help="Goal database from preprocess.")
@click.option("-x", "--input", "x_text", default=None, help="Raw feature values, comma separated.")
@click.option("--state", "state_text", default=None, help="Cell indices, comma separated.")
@click.option("--k", type=int, default=None, help="Stored neighbors consulted for goals.")
@click.option("--l-max", type=int, default=None, help="Largest makespan tried.")
@click.option("--sweep", is_flag=True, help="Try every makespan and keep the cheapest plan.")
@click.option("--timeout", type=float, default=None, help="Total solver budget in seconds.")
@click.option("--scale", type=int, default=DEFAULT_SCALE, show_default=True)
@click.option("--backend", type=click.Choice(["pure", "compiled"]), default=None)
@click.option("--external-solver", "external_cmd", default=None,
              help="Shell command solving a WCNF file passed as its last argument "
                   "(not with --backend).")
@click.option("--actions", "actions_path", type=click.Path(), default=None)
@click.option("--cost-seed", type=int, default=None)
@click.option("--beta-range", "beta_text", default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.pass_context
def plan(ctx, model_path, db_path, x_text, state_text, k, l_max, sweep, timeout, scale,
         backend, external_cmd, actions_path, cost_seed, beta_text, as_json, config_path):
    """Find a minimum-cost action sequence that flips the prediction."""
    if backend is not None and external_cmd is not None:
        raise CliError("--backend selects an in-process kernel; it cannot be combined "
                       "with --external-solver")
    cfg = _load_config(config_path)
    k = _eff(k, cfg, "K", 3)
    l_max = _eff(l_max, cfg, "L_max", 8)
    cost_seed = _eff(cost_seed, cfg, "cost_seed", 0)
    beta_range = tuple(_eff(_parse_beta_range(beta_text), cfg, "beta_range", (1, 100)))

    forest = _load_forest(model_path)
    table = build_partitions(forest)
    library = _library(table, actions_path, cost_seed, beta_range)
    db = _load_db(db_path)
    target = db.params.target
    s_init = _instance_state(table, x_text, state_text)

    if external_cmd is not None:
        solver = functools.partial(maxsat.solve_external, command=external_cmd)
    else:
        solver = functools.partial(maxsat.solve, backend=backend)
    try:
        outcome = encoder.plan_actions(
            forest, table, library, db, state=s_init, k=k, l_max=l_max,
            sweep=sweep, scale=scale, timeout=timeout, solver=solver,
        )
    except (PlanningError, SearchError, BackendError, WcnfError) as exc:
        raise CliError(str(exc)) from None

    if as_json:
        _echo_json(_plan_payload(outcome, forest, table, target))
    else:
        _render_plan(outcome, forest, table, target)
    _exit_for_outcome(ctx, outcome)


# ---------------------------------------------------------------------------
# greedy / oracle


def _baseline_render(ctx, res_status, plan_obj, extra, forest, table, target, s_init,
                     as_json):
    if as_json:
        doc = {"status": res_status, "initial": list(s_init),
               "target": _jsonable(target)}
        doc.update(extra)
        if plan_obj is not None:
            doc.update(
                cost=plan_obj.cost,
                makespan=plan_obj.makespan,
                n_actions=plan_obj.n_actions,
                steps=[[a.id for a in step] for step in plan_obj.steps],
                final=list(plan_obj.goal),
                p_final=state_proba(forest, table, plan_obj.goal, target),
            )
        _echo_json(doc)
    else:
        p0 = state_proba(forest, table, s_init, target)
        click.echo(f"initial state {s_init}  p(target)={p0:.4f}")
        if plan_obj is not None:
            click.echo(f"plan: cost {plan_obj.cost:g}, {plan_obj.n_actions} action(s)")
            for i, step in enumerate(plan_obj.steps, start=1):
                click.echo(f"  step {i}: " + ", ".join(a.id for a in step))
            p1 = state_proba(forest, table, plan_obj.goal, target)
            click.echo(f"final state {plan_obj.goal}  p(target)={p1:.4f}")
        click.echo(f"status: {res_status}")
    if res_status in (baselines.SOLVED, baselines.ALREADY_GOAL):
        return
    click.echo("no plan found", err=True)
    ctx.exit(EXIT_UNSOLVABLE)


def _baseline_setup(model_path, target_text, z, alpha_text, config_path, actions_path,
                    cost_seed, beta_text, x_text, state_text):
    cfg = _load_config(config_path)
    z = _eff(z, cfg, "z", 0.5)
    alpha = _eff(_parse_alpha(alpha_text), cfg, "alpha", AUTO)
    cost_seed = _eff(cost_seed, cfg, "cost_seed", 0)
    beta_range = tuple(_eff(_parse_beta_range(beta_text), cfg, "beta_range", (1, 100)))
    forest = _load_forest(model_path)
    table = build_partitions(forest)
    library = _library(table, actions_path, cost_seed, beta_range)
    target = _resolve_class(forest, target_text)
    try:
        params = SearchParams(target=target, z=z, alpha=alpha)
    except SearchError as exc:
        raise CliError(str(exc)) from None
    s_init = _instance_state(table, x_text, state_text)
    return forest, table, library, target, params, s_init


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("-x", "--input", "x_text", default=None)
@click.option("--state", "state_text", default=None)
@click.option("--target", "target_text", required=True)
@click.option("--z", type=float, default=None)
@click.option("--alpha", "alpha_text", default=None)
@click.option("--rule", type=click.Choice(baselines.GREEDY_RULES), default="ratio",
              show_default=True)
@click.option("--actions", "actions_path", type=click.Path(), default=None)
@click.option("--cost-seed", type=int, default=None)
@click.option("--beta-range", "beta_text", default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.pass_context
def greedy(ctx, model_path, x_text, state_text, target_text, z, alpha_text, rule,
           actions_path, cost_seed, beta_text, as_json, config_path):
    """Hill-climb baseline: apply the best improving action until done."""
    forest, table, library, target, params, s_init = _baseline_setup(
        model_path, target_text, z, alpha_text, config_path, actions_path,
        cost_seed, beta_text, x_text, state_text)
    res = baselines.greedy_plan(s_init, library, forest, table, params, rule=rule)
    _baseline_render(ctx, res.status, res.plan, {"visited": len(res.visited)},
                     forest, table, target, s_init, as_json)


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("-x", "--input", "x_text", default=None)
@click.option("--state", "state_text", default=None)
@click.option("--target", "target_text", required=True)
@click.option("--z", type=float, default=None)
@click.option("--cap", type=int, default=1_000_000, show_default=True,
              help="Expansion limit before giving up.")
@click.option("--actions", "actions_path", type=click.Path(), default=None)
@click.option("--cost-seed", type=int, default=None)
@click.option("--beta-range", "beta_text", default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.pass_context
def oracle(ctx, model_path, x_text, state_text, target_text, z, cap, actions_path,
           cost_seed, beta_text, as_json, config_path):
    """Exhaustive cheapest-path baseline (exact but slow)."""
    forest, table, library, target, params, s_init = _baseline_setup(
        model_path, target_text, z, None, config_path, actions_path,
        cost_seed, beta_text, x_text, state_text)
    try:
        res = baselines.oracle_plan(s_init, library, forest, table, params, cap=cap)
    except baselines.OracleCapExceeded as exc:
        click.echo(f"gave up: {exc}", err=True)
        ctx.exit(EXIT_TIMEOUT)
        return
    _baseline_render(ctx, res.status, res.plan, {"expansions": res.expansions},
                     forest, table, target, s_init, as_json)


# ---------------------------------------------------------------------------
# export-wcnf


@cli.command("export-wcnf")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--db", "db_path", required=True, type=click.Path())
@click.option("-x", "--input", "x_text", default=None)
@click.option("--state", "state_text", default=None)
@click.option("--makespan", "-L", type=int, required=True, help="Number of parallel steps.")
@click.option("--k", type=int, default=None)
@click.option("--scale", type=int, default=DEFAULT_SCALE, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--map", "map_path", type=click.Path(), default=None,
              help="Also write a variable map for reading models back.")
@click.option("--actions", "actions_path", type=click.Path(), default=None)
@click.option("--cost-seed", type=int, default=None)
@click.option("--beta-range", "beta_text", default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.pass_context
def export_wcnf(ctx, model_path, db_path, x_text, state_text, makespan, k, scale,
                out_path, map_path, actions_path, cost_seed, beta_text, config_path):
    """Write one planning step bound as a weighted partial CNF file."""
    cfg = _load_config(config_path)
    k = _eff(k, cfg, "K", 3)
    cost_seed = _eff(cost_seed, cfg, "cost_seed", 0)
    beta_range = tuple(_eff(_parse_beta_range(beta_text), cfg, "beta_range", (1, 100)))
    forest = _load_forest(model_path)
    table = build_partitions(forest)
    library = _library(table, actions_path, cost_seed, beta_range)
    db = _load_db(db_path)
    try:
        check_pairing(db, forest)
    except SearchError as exc:
        raise CliError(str(exc)) from None
    s_init = _instance_state(table, x_text, state_text)
    sim = SimilarityWeights.from_forest(forest)
    try:
        sas = build_sas(s_init, db, k, sim, table, library, forest=forest)
        instance, varmap = encode(sas, makespan, scale)
    except NoGoalsError:
        click.echo("no goal states for this instance; nothing to encode", err=True)
        ctx.exit(EXIT_UNSOLVABLE)
    except PlanningError as exc:
        raise CliError(str(exc)) from None
    try:
        wcnf_write(instance, out_path)
        if map_path is not None:
            varmap.write_map(map_path)
    except OSError as exc:
        raise CliError(f"cannot write: {exc.strerror}") from None
    click.echo(f"wrote {out_path}: {instance.nvars} variables, "
               f"{len(instance.hard)} hard + {len(instance.soft)} soft clauses, "
               f"{len(sas.goals)} goal state(s)")
    if map_path is not None:
        click.echo(f"variable map written to {map_path}")


# ---------------------------------------------------------------------------
# bench


def _render_bench(report) -> None:
    click.echo(
        f"r={report.fraction}%  db={report.db_states} states "
        f"(goals {report.goals_found})  prep={report.prep_seconds:.2f}s  "
        f"peak={report.peak_gb:.3f}GB"
    )
    click.echo(f"  {'arm':<8} {'solved':>9} {'mean T(s)':>11} {'mean cost':>11} {'mean L':>8}")
    for arm in ("planner", "greedy", "oracle"):
        s = report.arm_summary(arm)
        if s["solved"]:
            click.echo(
                f"  {arm:<8} {s['solved']:>4}/{s['total']:<4} "
                f"{s['mean_seconds']:>11.4f} {s['mean_cost']:>11.3f} "
                f"{s['mean_length']:>8.2f}"
            )
        else:
            click.echo(f"  {arm:<8} {s['solved']:>4}/{s['total']:<4} {'-':>11} {'-':>11} {'-':>8}")


@cli.command("bench")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--target", "target_text", required=True)
@click.option("--data", "data_path", type=click.Path(), default=None,
              help="Draw test instances from this file instead of the state space.")
@click.option("--schema", "schema_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "libsvm"]), default="csv",
              show_default=True)
@click.option("--z", type=float, default=None)
@click.option("--alpha", "alpha_text", default=None)
@click.option("--delta", type=int, default=None)
@click.option("--node-budget", type=int, default=5_000_000, show_default=True)
@click.option("--k", type=int, default=None)
@click.option("--l-max", type=int, default=None)
@click.option("--sweep-makespan", is_flag=True, help="Planner tries every makespan per instance.")
@click.option("--instances", "n_instances", type=int, default=100, show_default=True)
@click.option("--timeout", type=float, default=None, help="Per-instance planner budget.")
@click.option("--cost-seed", type=int, default=None)
@click.option("--beta-range", "beta_text", default=None)
@click.option("--sample-seed", type=int, default=0, show_default=True)
@click.option("--state-cap", type=int, default=250_000, show_default=True)
@click.option("--oracle-cap", type=int, default=2_000_000, show_default=True)
@click.option("--workers", type=int, default=None)
@click.option("--sweep", "sweep_text", default="100", show_default=True,
              help="Preprocessing fractions, e.g. 'r=10,20,...,100'.")
@click.option("--backend", type=click.Choice(["pure", "compiled"]), default=None)
@click.option("--json-out", "json_path", type=click.Path(), default=None,
              help="Also write instance and summary records as JSON lines.")
@click.option("--config", "config_path", type=click.Path(), default=None)
def bench_cmd(model_path, target_text, data_path, schema_path, fmt, z, alpha_text, delta,
              node_budget, k, l_max, sweep_makespan, n_instances, timeout, cost_seed,
              beta_text, sample_seed, state_cap, oracle_cap, workers, sweep_text,
              backend, json_path, config_path):
    """Compare the planner against the baselines on many instances."""
    cfg = _load_config(config_path)
    forest = _load_forest(model_path)
    table = build_partitions(forest)
    target = _resolve_class(forest, target_text)
    try:
        fractions = parse_fractions(sweep_text)
        settings = BenchSettings(
            target=target,
            z=_eff(z, cfg, "z", 0.5),
            alpha=_eff(_parse_alpha(alpha_text), cfg, "alpha", AUTO),
            patience=_eff(delta, cfg, "delta", 10_000_000),
            node_budget=node_budget,
            k=_eff(k, cfg, "K", 3),
            l_max=_eff(l_max, cfg, "L_max", 4),
            sweep_makespan=sweep_makespan,
            n_instances=n_instances,
            cost_seed=_eff(cost_seed, cfg, "cost_seed", 0),
            beta_range=tuple(_eff(_parse_beta_range(beta_text), cfg, "beta_range", (1, 100))),
            sample_seed=sample_seed,
            state_cap=state_cap,
            oracle_cap=oracle_cap,
            workers=_eff(workers, cfg, "workers", 1),
            timeout=timeout,
            backend=backend,
        )
    except (BenchError, SearchError) as exc:
        raise CliError(str(exc)) from None

    candidates = None
    if data_path is not None:
        if schema_path is None:
            raise CliError("--data needs --schema")
        ds = _load_dataset(data_path, schema_path, fmt)
        try:
            candidates = [to_state(table, x) for x in ds.rows]
        except StateError as exc:
            raise CliError(str(exc)) from None

    try:
        reports = run_bench(
            forest, table, settings, fractions=fractions, candidates=candidates,
            on_event=lambda msg: click.echo(msg, err=True),
        )
    except (BenchError, SearchError, PlanningError) as exc:
        raise CliError(str(exc)) from None

    for report in reports:
        _render_bench(report)

    if json_path is not None:
        settings_doc = {
            "kind": "settings",
            "target": _jsonable(target),
            "z": settings.z,
            "alpha": settings.alpha,
            "delta": settings.patience,
            "k": settings.k,
            "l_max": settings.l_max,
            "sweep_makespan": settings.sweep_makespan,
            "n_instances": settings.n_instances,
            "cost_seed": settings.cost_seed,
            "beta_range": list(settings.beta_range),
            "sample_seed": settings.sample_seed,
            "fractions": list(fractions),
            "model_fingerprint": fingerprint(forest),
        }
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(settings_doc, sort_keys=True, default=_jsonable) + "\n")
                for report in reports:
                    for row in report.instances:
                        fh.write(json.dumps(row.to_dict(), sort_keys=True,
                                            default=_jsonable) + "\n")
                    fh.write(json.dumps(report.to_dict(), sort_keys=True,
                                        default=_jsonable) + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {json_path}: {exc.strerror}") from None
        click.echo(f"report written to {json_path}", err=True)


if __name__ == "__main__":
    sys.exit(main())
