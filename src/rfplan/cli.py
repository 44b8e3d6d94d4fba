"""Command line front end.

Every planning command is set up the same way:

- Shared keys (z, alpha, delta, K, L_max, cost_seed, beta_range, workers)
  take the flag when it is given, else the value in the JSON file passed
  as --config, else the flag's default.  Each key's value is checked when
  it is read, flag and config value alike, by the library's one rule for
  it, and a fault names where the value came from (`--k`, `<path>: K`).
- One loader reads the model and builds its partition table and action
  catalog: the --actions spec, or the default catalog costed by
  --cost-seed and --beta-range.
- One renderer prints the result of plan, greedy and oracle as text or,
  with --json, as one JSON object.
- preprocess and bench share their search options and set-up: they search
  (or draw instances from) the states of --data when it is given, else the grid.
- One boundary turns the library's input errors into `error: ...`, exit 3,
  and a file that cannot be opened, read or written (an output path's
  directory is checked before any work) into `error: <path>: <reason>`.
  Every input file is read by one reader (``forest.read_text``), so
  undecodable text reads `<path>:<line>: not UTF-8 text (...)` and bad
  JSON `<path>:<line>: not valid JSON (...)`.

Exit codes: 0 success, 2 no plan exists, 3 invalid input, 4 timed out.
"""

from __future__ import annotations

import collections
import dataclasses
import errno
import functools
import json
import os
import sys
import time

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from . import baselines
from . import encoder
from . import maxsat
from .bench import BenchError, BenchSettings, parse_fractions, run_bench
from .data import DataError, ingest, load_schema, train_test_split
from .discretize import (
    StateError,
    build_partitions,
    check_state,
    enumerate_states,
    state_proba,
    to_state,
)
from .encoder import NoGoalsError, PlanningError, build_sas, encode
from .forest import (
    ModelError,
    TrainParams,
    check_count,
    check_record,
    fingerprint,
    read_json,
    restore,
    persist,
    train_forest,
)
from .maxsat import BackendError, WcnfError, check_timeout, wcnf_write
from .offline import (
    AUTO,
    SearchError,
    SearchParams,
    check_alpha,
    check_z,
    db_persist,
    db_restore,
    preprocess,
)
from .sas_core import ActionError, CostModel, default_action_library, load_action_spec

EXIT_OK = 0
EXIT_UNSOLVABLE = 2
EXIT_INVALID = 3
EXIT_TIMEOUT = 4


class CliError(click.ClickException):
    """Invalid input of any kind; rendered as `error: ...`, exit code 3."""

    exit_code = EXIT_INVALID

    def format_message(self) -> str:
        return self.message


# the library's invalid-input errors; a program fault (EncodingBug) keeps its traceback
_INPUT_ERRORS = (ActionError, BackendError, BenchError, DataError, ModelError, PlanningError,
                 SearchError, StateError, WcnfError)


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


# ---------------------------------------------------------------------------
# shared keys: the flag, else --config, else the flag's default


def _beta_range(name, v):
    ok = (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(b, int) and not isinstance(b, bool) for b in v)
        and 1 <= v[0] <= v[1]
    )
    if not ok:
        raise CliError(f"{name} must be two integers LOW,HIGH with 1 <= LOW <= HIGH, got {v!r}")
    return tuple(v)


def _auto_or_float(text):
    return text if text == AUTO else float(text)


def _int_pair(text):
    return [int(p) for p in text.split(",")]


def _count(low):
    return functools.partial(check_count, low=low, error=CliError)


# key: (flag, how click reads the flag's text, the library's rule for the
# value, default); the rule takes the value's origin, as in `--k` or `c.json: K`
_KEYS = {
    "z": ("--z", float, functools.partial(check_z, error=CliError), 0.5),
    "alpha": ("--alpha", _auto_or_float, functools.partial(check_alpha, error=CliError), AUTO),
    "delta": ("--delta", int, _count(1), 10_000_000),
    "K": ("--k", int, _count(1), 3),
    "L_max": ("--l-max", int, _count(1), 8),
    "cost_seed": ("--cost-seed", int, _count(0), 0),
    "beta_range": ("--beta-range", _int_pair, _beta_range, "1,100"),
    "workers": ("--workers", int, _count(1), 1),
}


def _load_config(path) -> dict:
    if path is None:
        return {}
    doc = check_record(read_json(path, CliError), str(path), CliError, {},
                       dict.fromkeys(_KEYS, object))
    return {key: _KEYS[key][2](f"{path}: {key}", value) for key, value in doc.items()}


def _check_output(path) -> None:
    """Raise, naming ``path``, the OSError that writing it meets at its
    directory (missing, not a directory, not writable); creates no file."""
    folder = os.path.dirname(os.path.abspath(path))
    try:
        os.scandir(folder).close()
        if not os.access(folder, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


class _Command(click.Command):
    """A command whose shared-key parameters reach its body already resolved,
    whose output paths are checked before its body runs, and whose library
    input errors and file faults leave it as `error: <message>`, exit 3."""

    def invoke(self, ctx):
        try:
            config = _load_config(ctx.params.get("config_path"))
            for key, (flag, *_) in _KEYS.items():
                name = flag[2:].replace("-", "_")
                if name not in ctx.params:
                    continue
                if key in config and ctx.get_parameter_source(name) is ParameterSource.DEFAULT:
                    ctx.params[name] = config[key]
                else:
                    ctx.params[name] = _KEYS[key][2](flag, ctx.params[name])
            for name in ("out_path", "json_path", "map_path"):
                if ctx.params.get(name) is not None:
                    _check_output(ctx.params[name])
            return super().invoke(ctx)
        except _INPUT_ERRORS as exc:
            raise CliError(str(exc)) from None
        except OSError as exc:
            message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
            raise CliError(message) from None


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="rfplan")
def cli() -> None:
    """Action planning over random forest predictions."""


# ---------------------------------------------------------------------------
# shared options


def _key_option(key: str, help=None, default=None):
    """The flag of one shared key; ``default`` overrides the key's own."""
    flag, text_type, _, key_default = _KEYS[key]
    metavar = {"alpha": "auto|FLOAT", "beta_range": "LOW,HIGH"}.get(key)
    return click.option(flag, type=text_type, show_default=True, help=help, metavar=metavar,
                        default=key_default if default is None else default)


_WORKERS_HELP = "Worker processes, at most one per CPU this process may use."

_model_option = click.option("--model", "model_path", required=True, type=click.Path(),
                             help="Model file written by train.")


def _timeout_option(help: str):
    """--timeout, checked by the library's one rule for a time limit."""
    return click.option("--timeout", type=float, default=None, help=help,
                        callback=lambda ctx, param, v: check_timeout("--timeout", v, CliError))


def _options(*options):
    """One decorator that adds ``options`` in the order listed."""
    return lambda f: functools.reduce(lambda g, option: option(g), reversed(options), f)


_state_options = _options(
    click.option("-x", "--input", "x_text", default=None,
                 help="Raw feature values, comma separated."),
    click.option("--state", "state_text", default=None, help="Cell indices, comma separated."),
)


def _search_options(data_help: str):
    """The options of preprocess and bench: the search parameters, the data
    whose states stand in for the grid, the grid cap and the worker count."""
    return _options(
        click.option("--target", "target_text", required=True,
                     help="Class the plans must reach."),
        _key_option("z", help="Vote share that counts as reached."),
        _key_option("alpha", help="Heuristic scale, 'auto' or a number."),
        _key_option("delta", help="Patience: extra expansions after the last improvement."),
        click.option("--node-budget", type=int, default=5_000_000, show_default=True),
        click.option("--data", "data_path", type=click.Path(), default=None, help=data_help),
        click.option("--schema", "schema_path", type=click.Path(), default=None),
        click.option("--format", "fmt", type=click.Choice(["csv", "libsvm"]), default="csv",
                     show_default=True),
        click.option("--state-cap", type=int, default=250_000, show_default=True),
        _key_option("workers", help=_WORKERS_HELP),
    )


# --cost-seed, --beta-range and --config; _catalog_options adds --actions
_COST_OPTIONS = (
    _key_option("cost_seed", help="Seed for the default action costs."),
    _key_option("beta_range", help="Cost weight range LOW,HIGH."),
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON file of shared keys; flags win over it."),
)
_catalog_options = _options(
    click.option("--actions", "actions_path", type=click.Path(), default=None,
                 help="Action spec JSON (default: one action per cell pair)."),
    *_COST_OPTIONS,
)


# ---------------------------------------------------------------------------
# shared plumbing


def _catalog(model_path, actions_path, cost_seed, beta_range):
    """The model, its partition table and the action catalog to plan with."""
    forest = restore(model_path)
    table = build_partitions(forest)
    if actions_path is None:
        cost = CostModel.random(len(table.features), np.random.default_rng(cost_seed),
                                *beta_range)
        return forest, table, default_action_library(table, cost)
    return forest, table, load_action_spec(actions_path, table)


def _load_db(path):
    if not os.path.exists(path):
        raise CliError(
            f"goal database {path} not found; run `rfplan preprocess --out {path} ...` "
            "against this model first"
        )
    return db_restore(path)


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


def _parse_vector(text, features):
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != len(features):
        raise CliError(
            f"input has {len(tokens)} values but the model has {len(features)} features"
        )
    return tuple(meta.parse(token) for meta, token in zip(features, tokens))


def _parse_state(text, table):
    tokens = [t.strip() for t in text.split(",")]
    try:
        s = tuple(int(t) for t in tokens)
    except ValueError:
        raise CliError(f"--state must be comma-separated integers, got {text!r}") from None
    return check_state(table, s)


def _instance_state(table, x_text, state_text):
    if (x_text is None) == (state_text is None):
        raise CliError("pass exactly one of -x/--input (raw values) or --state (cell indices)")
    if x_text is not None:
        x = _parse_vector(x_text, table.features)
        return to_state(table, x)
    return _parse_state(state_text, table)


def _search_params(forest, target_text, z, alpha, delta, node_budget) -> SearchParams:
    return SearchParams(target=_resolve_class(forest, target_text), z=z, alpha=alpha,
                        patience=delta, node_budget=node_budget)


def _data_states(table, data_path, schema_path, fmt):
    """The states of the rows of --data, or None without --data."""
    if data_path is None:
        return None
    if schema_path is None:
        raise CliError("--data needs --schema")
    return [to_state(table, x) for x in ingest(data_path, fmt, load_schema(schema_path)).rows]


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True, default=_jsonable))


def _show_plan(res, s_init, forest, table, target, as_json, attempts=None, **extra) -> None:
    """Print a plan, greedy or oracle result; ``attempts`` are plan's makespans."""
    plan = res.plan
    if as_json:
        doc = {"status": res.status, "initial": list(s_init), "target": _jsonable(target),
               **extra}
        if attempts is not None:
            doc["attempts"] = [{"L": a.L, "status": a.status, "cost": a.cost, "units": a.units}
                               for a in attempts]
        if plan is not None:
            doc.update(
                cost=plan.cost,
                makespan=plan.makespan,
                n_actions=plan.n_actions,
                steps=plan.action_ids(),
                final=list(plan.goal),
                p_final=state_proba(forest, table, plan.goal, target),
            )
        _echo_json(doc)
        return
    p0 = state_proba(forest, table, s_init, target)
    click.echo(f"initial state {s_init}  p(target)={p0:.4f}")
    for a in attempts or ():
        cost = "-" if a.cost is None else f"{a.cost:g}"
        click.echo(f"  L={a.L}: {a.status} (cost {cost})")
    if plan is not None:
        unproven = " (time ran out: not proven cheapest)" if res.status == encoder.TIMEOUT else ""
        click.echo(
            f"plan: cost {plan.cost:g}, {plan.makespan} step(s), {plan.n_actions} action(s)"
            + unproven
        )
        for i, ids in enumerate(plan.action_ids(), start=1):
            click.echo(f"  step {i}: " + ", ".join(ids))
        p1 = state_proba(forest, table, plan.goal, target)
        click.echo(f"final state {plan.goal}  p(target)={p1:.4f}")
    click.echo(f"status: {res.status}")


def _exit_for_result(ctx, res, failure: str) -> None:
    if res.solved:
        return
    if res.status == encoder.TIMEOUT:
        if res.plan is None:
            click.echo("no plan within the time budget", err=True)
        else:
            click.echo("time budget ran out; the plan found is not proven cheapest", err=True)
        ctx.exit(EXIT_TIMEOUT)
    click.echo(failure, err=True)
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
    ds = ingest(data_path, fmt, load_schema(schema_path))
    ds_train, test = ds, None
    if test_fraction is not None:
        ds_train, test = train_test_split(ds, test_fraction, split_seed)
    params = TrainParams(
        n_trees=trees, sample_size=sample_size, mtry=mtry,
        max_depth=max_depth, min_leaf=min_leaf, rng_seed=seed,
    )
    forest = train_forest(ds_train.features, ds_train.rows, ds_train.labels, params,
                          classes=ds_train.classes)
    persist(forest, out_path)
    click.echo(f"trained {len(forest.trees)} trees on {len(ds_train)} rows "
               f"({len(forest.features)} features, classes {[str(c) for c in forest.classes]})")
    if test is not None:
        hits = sum(1 for x, y in zip(test.rows, test.labels) if forest.predict(x) == y)
        click.echo(f"holdout accuracy: {hits}/{len(test)} = {hits / len(test):.4f}")
    click.echo(f"model written to {out_path} (fingerprint {fingerprint(forest)[:16]})")


# ---------------------------------------------------------------------------
# partitions


@cli.command()
@_model_option
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def partitions(model_path, as_json):
    """Show the partition each feature is split into."""
    forest = restore(model_path)
    table = build_partitions(forest)
    if as_json:
        feats = []
        for meta, ths, size in zip(table.features, table.thresholds, table.sizes):
            rec = {**meta.to_dict(), "cells": size}
            if meta.is_numerical:
                rec["thresholds"] = list(ths)
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
@_model_option
@click.option("--out", "out_path", required=True, type=click.Path(), help="Goal database file.")
@_search_options("Search only the states of this file's rows (default: the whole grid).")
@_catalog_options
@click.option("--quiet", is_flag=True, help="No progress output.")
def preprocess_cmd(model_path, out_path, target_text, z, alpha, delta, node_budget,
                   data_path, schema_path, fmt, state_cap, actions_path,
                   cost_seed, beta_range, workers, config_path, quiet):
    """Search every start state offline and store the goals found."""
    forest, table, library = _catalog(model_path, actions_path, cost_seed, beta_range)
    params = _search_params(forest, target_text, z, alpha, delta, node_budget)
    states = _data_states(table, data_path, schema_path, fmt)
    if states is None:
        states = list(enumerate_states(table, state_cap))

    total = len(set(states))
    step = max(1, total // 20)

    def progress(done: int, n: int) -> None:
        if not quiet and (done % step == 0 or done == n):
            click.echo(f"  searched {done}/{n}", err=True)

    t0 = time.perf_counter()
    db = preprocess(states, library, forest, table, params, workers=workers,
                    on_progress=progress)
    elapsed = time.perf_counter() - t0
    db_persist(db, out_path)

    found = sum(1 for e in db.entries.values() if e.found)
    by_status = collections.Counter(e.status for e in db.entries.values())
    statuses = ", ".join(f"{k}={v}" for k, v in sorted(by_status.items()))
    click.echo(f"searched {len(db.entries)} states in {elapsed:.2f}s "
               f"({found} goals found; {statuses})")
    click.echo(f"goal database written to {out_path}")


# ---------------------------------------------------------------------------
# plan


@cli.command()
@_model_option
@click.option("--db", "db_path", required=True, type=click.Path(), help="Goal database from preprocess.")
@_state_options
@_key_option("K", help="Stored neighbors consulted for goals.")
@_key_option("L_max", help="Largest makespan tried.")
@click.option("--sweep", is_flag=True, help="Try every makespan and keep the cheapest plan.")
@_timeout_option("Total solver budget in seconds.")
@click.option("--external-solver", "external_cmd", default=None,
              help="Shell command solving a WCNF file passed as its last argument.")
@_catalog_options
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def plan(ctx, model_path, db_path, x_text, state_text, k, l_max, sweep, timeout,
         external_cmd, actions_path, cost_seed, beta_range, as_json, config_path):
    """Find a minimum-cost action sequence that flips the prediction."""
    forest, table, library = _catalog(model_path, actions_path, cost_seed, beta_range)
    db = _load_db(db_path)
    s_init = _instance_state(table, x_text, state_text)

    solver = None
    if external_cmd is not None:
        solver = functools.partial(maxsat.solve_external, command=external_cmd)
    try:
        outcome = encoder.plan_actions(
            forest, table, library, db, state=s_init, k=k, l_max=l_max,
            sweep=sweep, timeout=timeout, solver=solver,
        )
    except StateError as exc:
        raise CliError(f"goal database {db_path}: {exc}") from None

    _show_plan(outcome, s_init, forest, table, db.params.target, as_json,
               attempts=outcome.attempts, goal_pool=[list(g) for g in outcome.goals])
    _exit_for_result(ctx, outcome, "no plan exists for this instance")


# ---------------------------------------------------------------------------
# greedy / oracle


@cli.command()
@_model_option
@_state_options
@click.option("--target", "target_text", required=True)
@_key_option("z")
@click.option("--rule", type=click.Choice(baselines.GREEDY_RULES), default="ratio",
              show_default=True)
@_catalog_options
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def greedy(ctx, model_path, x_text, state_text, target_text, z, rule,
           actions_path, cost_seed, beta_range, as_json, config_path):
    """Hill-climb baseline: apply the best improving action until done."""
    forest, table, library = _catalog(model_path, actions_path, cost_seed, beta_range)
    params = SearchParams(target=_resolve_class(forest, target_text), z=z)
    s_init = _instance_state(table, x_text, state_text)
    res = baselines.greedy_plan(s_init, library, forest, table, params, rule=rule)
    _show_plan(res, s_init, forest, table, params.target, as_json, visited=len(res.visited))
    _exit_for_result(ctx, res, "no plan found")


@cli.command()
@_model_option
@_state_options
@click.option("--target", "target_text", required=True)
@_key_option("z")
@click.option("--cap", type=int, default=1_000_000, show_default=True,
              help="Expansion limit before giving up.")
@_catalog_options
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def oracle(ctx, model_path, x_text, state_text, target_text, z, cap, actions_path,
           cost_seed, beta_range, as_json, config_path):
    """Exhaustive cheapest-path baseline (exact but slow)."""
    forest, table, library = _catalog(model_path, actions_path, cost_seed, beta_range)
    params = SearchParams(target=_resolve_class(forest, target_text), z=z)
    s_init = _instance_state(table, x_text, state_text)
    try:
        res = baselines.oracle_plan(s_init, library, forest, table, params, cap=cap)
    except baselines.OracleCapExceeded as exc:
        click.echo(f"gave up: {exc}", err=True)
        ctx.exit(EXIT_TIMEOUT)
        return
    _show_plan(res, s_init, forest, table, params.target, as_json, expansions=res.expansions)
    _exit_for_result(ctx, res, "no plan found")


# ---------------------------------------------------------------------------
# export-wcnf


@cli.command("export-wcnf")
@_model_option
@click.option("--db", "db_path", required=True, type=click.Path())
@_state_options
@click.option("--makespan", "-L", type=int, required=True, help="Number of parallel steps.")
@_key_option("K")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--map", "map_path", type=click.Path(), default=None,
              help="Also write a variable map for reading models back.")
@_catalog_options
@click.pass_context
def export_wcnf(ctx, model_path, db_path, x_text, state_text, makespan, k,
                out_path, map_path, actions_path, cost_seed, beta_range, config_path):
    """Write the instance plan solves at one makespan as a weighted partial CNF file."""
    forest, table, library = _catalog(model_path, actions_path, cost_seed, beta_range)
    db = _load_db(db_path)
    s_init = _instance_state(table, x_text, state_text)
    try:
        sas = build_sas(s_init, db, k, forest, table, library)
        instance, varmap = encode(sas, makespan)
    except NoGoalsError:
        click.echo("no goal states for this instance; nothing to encode", err=True)
        ctx.exit(EXIT_UNSOLVABLE)
    except StateError as exc:
        raise CliError(f"goal database {db_path}: {exc}") from None
    wcnf_write(instance, out_path)
    if map_path is not None:
        varmap.write_map(map_path)
    click.echo(f"wrote {out_path}: {instance.nvars} variables, "
               f"{len(instance.hard)} hard + {len(instance.soft)} soft clauses, "
               f"{len(sas.goals)} goal state(s), {varmap.units} reachability unit(s)")
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
@_model_option
@_search_options("Draw test instances from this file instead of the state space.")
@_key_option("K")
@_key_option("L_max", default=4)
@click.option("--sweep-makespan", is_flag=True, help="Planner tries every makespan per instance.")
@click.option("--instances", "n_instances", type=int, default=100, show_default=True)
@_timeout_option("Per-instance planner budget.")
@click.option("--sample-seed", type=int, default=0, show_default=True)
@click.option("--oracle-cap", type=int, default=2_000_000, show_default=True)
@click.option("--sweep", "sweep_text", default="100", show_default=True,
              help="Preprocessing fractions, e.g. 'r=10,20,...,100'.")
@click.option("--json-out", "json_path", type=click.Path(), default=None,
              help="Also write instance and summary records as JSON lines.")
@_options(*_COST_OPTIONS)
def bench_cmd(model_path, target_text, data_path, schema_path, fmt, z, alpha, delta,
              node_budget, k, l_max, sweep_makespan, n_instances, timeout, cost_seed,
              beta_range, sample_seed, state_cap, oracle_cap, workers, sweep_text,
              json_path, config_path):
    """Compare the planner against the baselines on many instances."""
    forest, table, library = _catalog(model_path, None, cost_seed, beta_range)
    params = _search_params(forest, target_text, z, alpha, delta, node_budget)
    fractions = parse_fractions(sweep_text)
    settings = BenchSettings(
        params=params,
        k=k,
        l_max=l_max,
        sweep_makespan=sweep_makespan,
        n_instances=n_instances,
        sample_seed=sample_seed,
        state_cap=state_cap,
        oracle_cap=oracle_cap,
        workers=workers,
        timeout=timeout,
    )

    candidates = _data_states(table, data_path, schema_path, fmt)
    reports = run_bench(
        forest, table, library, settings, fractions=fractions, candidates=candidates,
        on_event=lambda msg: click.echo(msg, err=True),
    )

    for report in reports:
        _render_bench(report)

    if json_path is not None:
        # every BenchSettings field with params flattened in, patience under its key "delta"
        settings_doc = dataclasses.asdict(settings)
        settings_doc.update(settings_doc.pop("params"))
        settings_doc["delta"] = settings_doc.pop("patience")
        settings_doc.update({
            "kind": "settings",
            "cost_seed": cost_seed,
            "beta_range": list(beta_range),
            "fractions": list(fractions),
            "model_fingerprint": fingerprint(forest),
        })
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(settings_doc, sort_keys=True, default=_jsonable) + "\n")
            for report in reports:
                for row in report.instances:
                    fh.write(json.dumps(row.to_dict(), sort_keys=True,
                                        default=_jsonable) + "\n")
                fh.write(json.dumps(report.to_dict(), sort_keys=True,
                                    default=_jsonable) + "\n")
        click.echo(f"report written to {json_path}", err=True)


if __name__ == "__main__":
    sys.exit(main())
