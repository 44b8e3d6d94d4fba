"""Every JSON record reader against every field fault.

Each reader (model, schema, goal database, action catalog, ``--config``)
starts from a valid document. Each field of each record is replaced, in
turn, with each value of ``JUNK`` or deleted, each record gets an unknown
key, and each record is itself replaced with each junk value. The reader
must return or raise its own error class, never another exception; the
CLI must exit 0 or 3, with one ``error:`` line on a fault.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest

from conftest import DATA
from rfplan.cli import CliError, _load_config, main
from rfplan.data import DataError, load_schema
from rfplan.discretize import build_partitions
from rfplan.forest import ModelError, forest_from_dict, restore
from rfplan.offline import SearchError, db_restore
from rfplan.sas_core import ActionError, load_action_spec, parse_action_spec

JUNK = (None, True, 5, 2.5, "x", [], {}, [[0]])

# gender (hard, male/female) and visits (cut at 5): class 1 for a male with
# at least 5 visits, so state (0, 0) reaches it by one visits move
MODEL = {
    "format_version": 1,
    "classes": [0, 1],
    "features": [
        {"name": "gender", "kind": "categorical", "mutability": "hard",
         "categories": ["male", "female"]},
        {"name": "visits", "kind": "numerical", "mutability": "soft"},
    ],
    "trees": [{"weight": 1.0, "nodes": [
        {"kind": "split", "feature": 1, "threshold": 5.0, "left": 1, "right": 2},
        {"kind": "leaf", "label": 0},
        {"kind": "split", "feature": 0, "categories": ["male"], "left": 3, "right": 4},
        {"kind": "leaf", "label": 1},
        {"kind": "leaf", "label": 0},
    ]}],
}
SCHEMA = {**json.loads((DATA / "demo_schema.json").read_text()), "classes": [0, 1]}
CATALOG = [{"id": "more-visits", "cost": 1,
            "transitions": [{"feature": "visits", "from": 0, "to": 1}]}]
CONFIG = {"z": 0.5, "alpha": "auto", "delta": 100, "K": 3, "L_max": 2, "cost_seed": 0,
          "beta_range": [1, 5], "workers": 1}


def _paths(doc, path=()):
    """The path of every value inside ``doc``, ``doc`` included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _edit(doc, path, change):
    """A copy of ``doc`` with ``change`` applied to the value at ``path``."""
    doc = copy.deepcopy(doc)
    change(_at(doc, path))
    return doc


def _set(doc, path, value):
    if not path:
        return copy.deepcopy(value)
    return _edit(doc, path[:-1], lambda parent: parent.__setitem__(path[-1], copy.deepcopy(value)))


def _variants(doc):
    """(name, document) for every fault: each field of each record, and each
    record itself, replaced with each junk value; each field deleted; an
    unknown key added to each record."""
    for path in _paths(doc):
        is_field = bool(path) and isinstance(_at(doc, path[:-1]), dict)
        is_record = isinstance(_at(doc, path), dict)
        if is_field or is_record:
            for junk in JUNK:
                yield f"{path} = {junk!r}", _set(doc, path, junk)
        if is_field:
            yield f"{path} deleted", _edit(doc, path[:-1], lambda rec: rec.pop(path[-1]))
        if is_record:
            yield f"{path} + unknown key", _edit(doc, path, lambda rec: rec.__setitem__("zz", 0))


def _cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rv = main([str(a) for a in args])
    return rv, err.getvalue()


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "model.json"
    path.write_text(json.dumps(MODEL))
    return path


@pytest.fixture(scope="module")
def database(model):
    """The header and the (0, 0) entry of the model's goal database."""
    path = model.parent / "db.jsonl"
    rv, err = _cli(["preprocess", "--model", model, "--out", path, "--target", 1, "--quiet"])
    assert rv == 0, err
    header, *entries = map(json.loads, path.read_text().splitlines())
    return [header, next(e for e in entries if e["initial"] == [0, 0] and e["goal"])]


def _write_jsonl(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def _write_json(path, doc):
    path.write_text(json.dumps(doc))


def _readers(model, database):
    """Per reader: (valid document, writer, library call, its error class, CLI args)."""
    d = model.parent
    table = build_partitions(restore(model))
    return {
        "model": (MODEL, _write_json, restore, ModelError, ["partitions", "--model"]),
        "schema": (SCHEMA, _write_json, load_schema, DataError,
                   ["train", "--data", DATA / "demo.csv", "--out", d / "out.json", "--trees", 1,
                    "--schema"]),
        "database": (database, _write_jsonl, db_restore, SearchError,
                     ["plan", "--model", model, "--state", "0,0", "--l-max", 2, "--db"]),
        "catalog": (CATALOG, _write_json, lambda p: load_action_spec(p, table), ActionError,
                    ["preprocess", "--model", model, "--out", d / "out.jsonl", "--target", 1,
                     "--quiet", "--actions"]),
        "config": (CONFIG, _write_json, _load_config, CliError,
                   ["greedy", "--model", model, "--state", "0,0", "--target", 1, "--config"]),
    }


@pytest.mark.parametrize("reader", ["model", "schema", "database", "catalog", "config"])
def test_reader_raises_only_its_error(model, database, reader, tmp_path):
    doc, write, read, error, args = _readers(model, database)[reader]
    path = tmp_path / "input"
    write(path, doc)
    read(path)  # the valid document reads
    assert _cli([*args, path])[0] == 0
    faults = []
    for name, variant in _variants(doc):
        write(path, variant)
        try:
            read(path)
        except error:
            pass
        except Exception as exc:  # noqa: BLE001 - any other class is the fault
            faults.append(f"{name}: library raised {type(exc).__name__}: {exc}")
        try:
            rv, err = _cli([*args, path])
        except Exception as exc:  # noqa: BLE001
            faults.append(f"{name}: the CLI raised {type(exc).__name__}: {exc}")
            continue
        if not (rv == 0 or (rv == 3 and err.startswith("error: ") and err.count("\n") == 1)):
            faults.append(f"{name}: exit {rv}, stderr {err!r}")
    assert not faults, "\n".join(faults)


def test_variants_cover_every_field():
    names = [name for name, _ in _variants({"a": 1, "b": {"c": 2}})]
    assert "('a',) = None" in names and "('a',) deleted" in names
    assert "('b', 'c') = [[0]]" in names and "('b',) + unknown key" in names
    assert "() = 5" in names and "() + unknown key" in names
    assert len(names) == 3 * (len(JUNK) + 1) + 2 + len(JUNK)


@pytest.mark.parametrize("path", [("trees", 0, "nodes", 0, "threshold"), ("trees", 0, "weight")])
def test_a_number_field_takes_no_int_beyond_a_float(path):
    with pytest.raises(ModelError, match=rf"'{path[-1]}' must be a number, got 1000"):
        forest_from_dict(_set(MODEL, path, 10 ** 400))


def test_a_catalog_cost_takes_no_int_beyond_a_float(model):
    text = json.dumps([{**CATALOG[0], "cost": 10 ** 400}])
    with pytest.raises(ActionError, match=r"^<action spec>:1: 'cost' must be a number, got 1000"):
        parse_action_spec(text, build_partitions(restore(model)))


def test_model_record_faults_read_as_one_rule():
    doc = _set(MODEL, ("trees", 0, "nodes", 1, "label"), [1])
    with pytest.raises(ModelError, match=r"^trees\[0\]\.nodes\[1\]: 'label' must be a string "
                                         r"or a number, got \[1\]$"):
        forest_from_dict(doc)
    doc = {**MODEL, "extra": 1}
    with pytest.raises(ModelError, match=r"^unknown keys \['extra'\]; known: "
                                         r"\['format_version', 'classes', 'features', 'trees'\]$"):
        forest_from_dict(doc)
    doc = _set(MODEL, ("trees", 0, "nodes", 0, "feature"), 0.0)
    with pytest.raises(ModelError, match=r"'feature' must be an integer, got 0\.0$"):
        forest_from_dict(doc)
    doc = _edit(MODEL, ("trees", 0, "nodes", 0), lambda rec: rec.update(categories=["male"]))
    with pytest.raises(ModelError, match=r"^trees\[0\]\.nodes\[0\]: split needs exactly one of"):
        forest_from_dict(doc)
