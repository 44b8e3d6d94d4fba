from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rfplan.forest import (
    CATEGORICAL,
    HARD,
    NUMERICAL,
    SOFT,
    FeatureMeta,
    Leaf,
    ModelError,
    RandomForest,
    Split,
    TrainParams,
    fingerprint,
    forest_from_dict,
    forest_to_dict,
    persist,
    restore,
    train_forest,
)

from rfplan.baselines import oracle_plan
from rfplan.bench import BenchError, BenchSettings
from rfplan.discretize import StateError, enumerate_states
from rfplan.encoder import PlanningError, encode, plan_actions
from rfplan.knn import k_nearest
from rfplan.offline import NO_GOAL, PreferredGoalEntry, SearchError, SearchParams, preprocess

from helpers import benchmark_rows, encoder_tasks, random_soft_forest


def test_toy_forest_shape(toy_forest):
    assert toy_forest.classes == (0, 1)
    assert [f.name for f in toy_forest.features] == ["gender", "visits", "balance"]
    assert [f.mutability for f in toy_forest.features] == [HARD, SOFT, SOFT]
    assert len(toy_forest.trees) == 2


@pytest.mark.parametrize(
    "x,label",
    [
        (("male", 2, 500), 0),
        (("male", 2, 1200), 0),
        (("male", 6, 1200), 0),
        (("male", 6, 1600), 1),
        (("female", 7, 2000), 1),
        (("female", 4, 2000), 0),
    ],
)
def test_toy_predictions(toy_forest, x, label):
    assert toy_forest.predict(x) == label


def test_toy_distribution(toy_forest):
    assert toy_forest.class_distribution(("male", 6, 1600)) == {0: 0.0, 1: 1.0}
    assert toy_forest.class_proba(("male", 2, 500), 1) == 0.0
    # one tree votes 1, the other 0: visits high, balance in [1500, inf) fails tree 2?
    dist = toy_forest.class_distribution(("male", 6, 1400))
    assert dist[0] == 1.0 and dist[1] == 0.0


def test_split_convention_left_is_strictly_less(toy_forest):
    # balance threshold 1500: exactly 1500 goes right in both trees
    assert toy_forest.predict(("male", 6, 1500)) == 1
    assert toy_forest.predict(("male", 6, 1499.999)) == 0
    # visits threshold 5: exactly 5 goes right
    assert toy_forest.predict(("male", 5, 1600)) == 1
    assert toy_forest.predict(("male", 4.999, 1600)) == 0


def test_tie_breaks_to_first_class():
    meta = (FeatureMeta(name="x", kind=NUMERICAL),)
    forest = RandomForest(
        features=meta,
        classes=("no", "yes"),
        trees=(Leaf(label="yes"), Leaf(label="no")),
        weights=(1.0, 1.0),
    )
    # equal vote shares: the earlier entry of `classes` wins
    assert forest.predict((0.0,)) == "no"


def test_weighted_votes():
    meta = (FeatureMeta(name="x", kind=NUMERICAL),)
    forest = RandomForest(
        features=meta,
        classes=(0, 1),
        trees=(Leaf(label=1), Leaf(label=0)),
        weights=(3.0, 1.0),
    )
    assert forest.class_distribution((0.0,)) == {0: 0.25, 1: 0.75}
    assert forest.predict((0.0,)) == 1


def test_vector_validation(toy_forest):
    with pytest.raises(ModelError, match="3 features"):
        toy_forest.predict(("male", 2))
    with pytest.raises(ModelError, match="feature 'gender': unknown category 'robot'"):
        toy_forest.predict(("robot", 2, 500))
    with pytest.raises(ModelError, match="finite"):
        toy_forest.predict(("male", math.nan, 500))


def test_model_validation_rejects_bad_trees():
    meta = (FeatureMeta(name="x", kind=NUMERICAL),)
    with pytest.raises(ModelError, match="label"):
        RandomForest(features=meta, classes=(0, 1), trees=(Leaf(label=7),), weights=(1.0,))
    wide_then_same = Split(
        feature=0, threshold=2.0,
        left=Split(feature=0, threshold=2.0, left=Leaf(label=0), right=Leaf(label=1)),
        right=Leaf(label=1),
    )
    with pytest.raises(ModelError, match="narrow"):
        RandomForest(features=meta, classes=(0, 1), trees=(wide_then_same,), weights=(1.0,))
    with pytest.raises(ModelError, match="weight"):
        RandomForest(features=meta, classes=(0, 1), trees=(Leaf(label=0),), weights=(0.0,))
    with pytest.raises(ModelError, match="duplicate"):
        RandomForest(
            features=(FeatureMeta(name="x", kind=NUMERICAL),
                      FeatureMeta(name="x", kind=NUMERICAL)),
            classes=(0, 1), trees=(Leaf(label=0),), weights=(1.0,))


def test_categorical_split_needs_proper_subset():
    meta = (FeatureMeta(name="c", kind=CATEGORICAL, categories=("a", "b")),)
    everything = Split(feature=0, categories=("a", "b"),
                       left=Leaf(label=0), right=Leaf(label=1))
    with pytest.raises(ModelError, match="subset"):
        RandomForest(features=meta, classes=(0, 1), trees=(everything,), weights=(1.0,))


def test_roundtrip_dict_and_file(toy_forest, tmp_path):
    doc = forest_to_dict(toy_forest)
    again = forest_from_dict(doc)
    assert forest_to_dict(again) == doc
    path = tmp_path / "forest.json"
    persist(toy_forest, path)
    assert forest_to_dict(restore(path)) == doc
    assert fingerprint(restore(path)) == fingerprint(toy_forest)


def test_fingerprint_tracks_content(toy_forest):
    doc = forest_to_dict(toy_forest)
    doc["trees"][0]["weight"] = 2.0
    assert fingerprint(forest_from_dict(doc)) != fingerprint(toy_forest)


def test_fingerprint_is_computed_once_per_forest(toy_forest, tmp_path, monkeypatch):
    from rfplan import forest as forest_mod

    fresh = forest_from_dict(forest_to_dict(toy_forest))
    calls = []
    real = forest_mod.forest_to_dict
    monkeypatch.setattr(forest_mod, "forest_to_dict", lambda f: calls.append(f) or real(f))
    fp = fingerprint(fresh)
    assert fingerprint(fresh) == fp and len(calls) == 1
    monkeypatch.undo()
    # kept beside the fields: equality, hash and repr do not see it
    assert fresh == toy_forest and hash(fresh) == hash(toy_forest)
    assert repr(fresh) == repr(toy_forest)
    persist(fresh, tmp_path / "forest.json")
    assert fingerprint(restore(tmp_path / "forest.json")) == fp
    assert fingerprint(pickle.loads(pickle.dumps(fresh))) == fp


def test_from_dict_diagnostics(toy_forest):
    doc = forest_to_dict(toy_forest)
    doc["trees"][1]["nodes"][0]["left"] = 99
    with pytest.raises(ModelError, match=r"trees\[1\]"):
        forest_from_dict(doc)
    doc2 = forest_to_dict(toy_forest)
    doc2["format_version"] = 99
    with pytest.raises(ModelError, match="format_version"):
        forest_from_dict(doc2)
    # a model of another format fails on its version, whatever else it holds
    for other in ({"format_version": 99}, {**doc2, "extra": 0}):
        with pytest.raises(ModelError, match=r"^unsupported format_version 99 \(expected 1\)$"):
            forest_from_dict(other)
    # a misspelled optional key would otherwise fall back to its default
    doc3 = forest_to_dict(toy_forest)
    doc3["trees"][1]["wieght"] = doc3["trees"][1].pop("weight")
    with pytest.raises(ModelError, match=r"^trees\[1\]: unknown keys \['wieght'\]; "
                                         r"known: \['nodes', 'weight'\]$"):
        forest_from_dict(doc3)
    doc4 = forest_to_dict(toy_forest)
    doc4["features"][0]["mutabilty"] = doc4["features"][0].pop("mutability")
    with pytest.raises(ModelError, match=r"^features\[0\]: unknown keys \['mutabilty'\]; "
                                         r"known: \['name', 'kind', 'mutability', 'categories'\]$"):
        forest_from_dict(doc4)


@pytest.mark.parametrize("seed", range(8))
def test_random_forest_roundtrip(seed):
    forest, _ = random_soft_forest(seed)
    doc = forest_to_dict(forest)
    assert forest_to_dict(forest_from_dict(doc)) == doc


def _blob_dataset():
    # two clouds split cleanly at x=10, plus a categorical side channel
    rows, labels = [], []
    for i in range(40):
        rows.append((float(i % 10), "left"))
        labels.append(0)
        rows.append((float(10 + i % 10), "right"))
        labels.append(1)
    features = (
        FeatureMeta(name="x", kind=NUMERICAL),
        FeatureMeta(name="side", kind=CATEGORICAL, categories=("left", "right")),
    )
    return features, rows, labels


def test_training_learns_and_is_deterministic():
    features, rows, labels = _blob_dataset()
    params = TrainParams(n_trees=12, max_depth=4, rng_seed=5)
    forest = train_forest(features, rows, labels, params)
    hits = sum(1 for x, y in zip(rows, labels) if forest.predict(x) == y)
    assert hits / len(rows) >= 0.95
    again = train_forest(features, rows, labels, params)
    assert forest_to_dict(again) == forest_to_dict(forest)
    other = train_forest(features, rows, labels, TrainParams(n_trees=12, max_depth=4,
                                                             rng_seed=6))
    assert forest_to_dict(other) != forest_to_dict(forest)


def test_training_thresholds_are_midpoints():
    features = (FeatureMeta(name="x", kind=NUMERICAL),)
    rows = [(0.0,), (1.0,), (2.0,), (3.0,)]
    labels = [0, 0, 1, 1]
    params = TrainParams(n_trees=5, max_depth=2, rng_seed=1)
    forest = train_forest(features, rows, labels, params)

    def thresholds(node, out):
        if isinstance(node, Split):
            out.append(node.threshold)
            thresholds(node.left, out)
            thresholds(node.right, out)
        return out

    seen = []
    for tree in forest.trees:
        thresholds(tree, seen)
    assert seen, "expected at least one split"
    # midpoints of distinct values seen in a bootstrap sample of {0,1,2,3}
    assert all(t in (0.5, 1.0, 1.5, 2.0, 2.5) for t in seen)
    for x, y in zip(rows, labels):
        assert forest.predict(x) == y


@pytest.mark.parametrize("kwargs, message", [
    ({"n_trees": True}, "n_trees must be an int, got True"),
    ({"n_trees": 0}, "n_trees must be >= 1, got 0"),
    ({"sample_size": 2.0}, "sample_size must be an int, got 2.0"),
    ({"sample_size": 0}, "sample_size must be >= 1, got 0"),
    ({"mtry": 1.5}, "mtry must be an int, got 1.5"),
    ({"mtry": 0}, "mtry must be >= 1, got 0"),
    ({"max_depth": 2.5}, "max_depth must be an int, got 2.5"),
    ({"max_depth": None}, "max_depth must be an int, got None"),
    ({"min_leaf": "1"}, "min_leaf must be an int, got '1'"),
    ({"min_leaf": 0}, "min_leaf must be >= 1, got 0"),
    ({"rng_seed": False}, "rng_seed must be an int, got False"),
    ({"rng_seed": 0.0}, "rng_seed must be an int, got 0.0"),
    ({"rng_seed": -1}, "rng_seed must be >= 0, got -1"),
])
def test_train_params_reject(kwargs, message):
    with pytest.raises(ModelError) as exc:
        TrainParams(**kwargs)
    assert str(exc.value) == message


# every count the package takes: (entry, count name, least value, error class)
_COUNTS = [
    *[("TrainParams", name, 0 if name == "rng_seed" else 1, ModelError)
      for name in ("n_trees", "sample_size", "mtry", "max_depth", "min_leaf", "rng_seed")],
    *[("SearchParams", name, 1, SearchError) for name in ("patience", "node_budget")],
    *[("BenchSettings", name, 1, BenchError)
      for name in ("k", "l_max", "n_instances", "state_cap", "oracle_cap", "workers")],
    *[("plan_actions", name, 1, PlanningError) for name in ("k", "l_max")],
    ("preprocess", "workers", 1, SearchError),
    ("k_nearest", "k", 1, ModelError),
    ("oracle_plan", "cap", 1, SearchError),
    ("enumerate_states", "cap", 1, StateError),
    ("encode", "makespan", 1, PlanningError),
    ("PreferredGoalEntry", "expansions", 0, SearchError),
]


@pytest.mark.parametrize("bad", [True, 2.5, "low-1"])
@pytest.mark.parametrize("entry, name, low, error", _COUNTS,
                         ids=[f"{entry}.{name}" for entry, name, *_ in _COUNTS])
def test_every_count_takes_one_rule(entry, name, low, error, bad, toy_forest, toy_table,
                                    unit_library, toy_db, toy_params):
    # a bool, a float and a value below the least each raise the entry's own
    # error class with check_count's wording
    n = low - 1 if bad == "low-1" else bad
    s = (0, 0, 0)
    call = {
        "TrainParams": lambda: TrainParams(**{name: n}),
        "SearchParams": lambda: SearchParams(target=1, **{name: n}),
        "BenchSettings": lambda: BenchSettings(params=toy_params, **{name: n}),
        "plan_actions": lambda: plan_actions(toy_forest, toy_table, unit_library, toy_db,
                                             state=s, **{name: n}),
        "preprocess": lambda: preprocess([s], unit_library, toy_forest, toy_table, toy_params,
                                         workers=n),
        "k_nearest": lambda: k_nearest(s, toy_db, n, (0, 2, 3), toy_table),
        "oracle_plan": lambda: oracle_plan(s, unit_library, toy_forest, toy_table, toy_params,
                                           cap=n),
        "enumerate_states": lambda: list(enumerate_states(toy_table, n)),
        "encode": lambda: encode(encoder_tasks()[0], n),
        "PreferredGoalEntry": lambda: PreferredGoalEntry(initial=s, goal=None, cost=None,
                                                         expansions=n, status=NO_GOAL),
    }[entry]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    if bad == "low-1":
        assert str(exc.value) == f"{name} must be >= {low}, got {n}"
    else:
        assert str(exc.value) == f"{name} must be an int, got {n!r}"


def test_training_declared_classes_order():
    features, rows, labels = _blob_dataset()
    forest = train_forest(features, rows, labels, TrainParams(n_trees=3, rng_seed=0),
                          classes=(1, 0))
    assert forest.classes == (1, 0)
    with pytest.raises(ModelError, match="class"):
        train_forest(features, rows, labels, TrainParams(n_trees=3, rng_seed=0),
                     classes=(0,))


# ---------------------------------------------------------------------------
# training pins: every split of these forests is fixed by its fingerprint


def _three_class_rows():
    # continuous, integer and categorical features; labels from a noisy score
    rng = np.random.default_rng(3)
    n = 600
    u = rng.normal(0.0, 1.0, n)
    k = rng.integers(0, 7, n)
    colour = rng.integers(0, 4, n)
    score = u + 0.4 * k - 0.8 * (colour == 2) + rng.normal(0.0, 0.5, n)
    labels = ["low" if v < 0.8 else "mid" if v < 2.0 else "high" for v in score]
    features = [
        FeatureMeta("u", NUMERICAL),
        FeatureMeta("k", NUMERICAL),
        FeatureMeta("colour", CATEGORICAL, categories=("red", "green", "blue", "grey")),
        FeatureMeta("w", NUMERICAL),
    ]
    names = features[2].categories
    rows = [(float(a), int(b), names[c], round(float(d), 1))
            for a, b, c, d in zip(u, k, colour, rng.normal(0.0, 3.0, n))]
    return features, rows, labels


def _ten_feature_rows():
    # sum(first half) - sum(second half) + N(0, 2) > 0 over 0..9 integers
    rng = np.random.default_rng(0)
    x = rng.integers(0, 10, size=(1500, 10))
    y = x[:, :5].sum(axis=1) - x[:, 5:].sum(axis=1) + rng.normal(0.0, 2.0, 1500) > 0
    features = [FeatureMeta(f"x{i}", NUMERICAL) for i in range(10)]
    return features, [tuple(float(v) for v in row) for row in x], [int(v) for v in y]


TRAINING_PINS = {
    "benchmark_baseline": (benchmark_rows, TrainParams(n_trees=20, max_depth=3, rng_seed=0),
                           "31531efb437f3aae0101a03b036e646aaf91514e54a0ca7727461c660ceb37c4"),
    "benchmark_small": (benchmark_rows, TrainParams(n_trees=5, max_depth=2, rng_seed=0),
                        "a3f3315b4f20043d76ca3e2a6cb16a902366da6d537fb645ed9d82c1056efe1e"),
    "three_class": (_three_class_rows,
                    TrainParams(n_trees=10, max_depth=6, min_leaf=3, sample_size=500,
                                mtry=2, rng_seed=7),
                    "346b6331ca855b2f3c57f1c381e7c0ff60dafe124c76830b3b0836b344887ff1"),
    "ten_feature": (_ten_feature_rows, TrainParams(n_trees=5, max_depth=5, rng_seed=0),
                    "aeb4f70d857ce721ccaaf912faf90a8d2366fd67eb3c806b8cf0a2652633939e"),
}


@pytest.mark.parametrize("name", sorted(TRAINING_PINS))
def test_training_fingerprints_pinned(name):
    rows, params, pin = TRAINING_PINS[name]
    features, data, labels = rows()
    assert fingerprint(train_forest(features, data, labels, params)) == pin


def test_training_fingerprints_hold_on_a_blas_without_fused_multiply_add():
    """The pins hold with OpenBLAS's Nehalem kernels, which have no fused
    multiply-add: training calls no BLAS routine.  OpenBLAS reads
    ``OPENBLAS_CORETYPE`` when it loads, hence the child process.  A BLAS
    built without ``DYNAMIC_ARCH`` ignores the variable, and there this test
    repeats ``test_training_fingerprints_pinned``."""
    import rfplan

    child = (
        "import json\n"
        "from rfplan.forest import fingerprint, train_forest\n"
        "from test_forest import TRAINING_PINS\n"
        "out = {}\n"
        "for name, (rows, params, _) in TRAINING_PINS.items():\n"
        "    out[name] = fingerprint(train_forest(*rows(), params))\n"
        "print(json.dumps(out))\n"
    )
    paths = [str(Path(__file__).parent), str(Path(rfplan.__file__).parents[1])]
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: pin for name, (_, _, pin) in TRAINING_PINS.items()}


def _scan_gain(lc, counts):
    """One split's Gini gain, scalar: the formula ``forest._grow`` scores with."""
    n, ln = int(sum(counts)), int(sum(lc))
    rc = [int(c) - int(v) for c, v in zip(counts, lc)]
    child = n - sum(int(v) * int(v) for v in lc) / ln - sum(v * v for v in rc) / (n - ln)
    return 1.0 - sum(int(c) * int(c) for c in counts) / (n * n) - child / n


def _grow_scanning_every_position(cols, y, idx, features, classes, params, mtry, rng, depth):
    """The split search as a scan over every sorted position and every
    category: the reference ``forest._grow`` must agree with split for split."""
    n_classes = len(classes)
    counts = np.bincount(y[idx], minlength=n_classes)
    majority = classes[int(np.argmax(counts))]
    if depth >= params.max_depth or len(idx) < 2 * params.min_leaf or np.count_nonzero(counts) <= 1:
        return Leaf(majority)
    best = None
    for j in rng.permutation(len(features))[:mtry]:
        col = cols[j][idx]
        if features[j].is_numerical:
            order = np.argsort(col, kind="stable")
            sv = col[order]
            onehot = np.zeros((len(idx), n_classes), dtype=np.int64)
            onehot[np.arange(len(idx)), y[idx][order]] = 1
            prefix = np.cumsum(onehot, axis=0)
            for i in range(1, len(idx)):
                ln, rn = i, len(idx) - i
                if sv[i] == sv[i - 1] or ln < params.min_leaf or rn < params.min_leaf:
                    continue
                gain = _scan_gain(prefix[i - 1], counts)
                if gain > 1e-12 and (best is None or gain > best[0]):
                    th = (float(sv[i - 1]) + float(sv[i])) / 2.0
                    best = (gain, int(j), th, None, col < th)
        else:
            for code in np.unique(col):
                mask = col == code
                ln = int(mask.sum())
                rn = len(idx) - ln
                if ln < params.min_leaf or rn < params.min_leaf:
                    continue
                gain = _scan_gain(np.bincount(y[idx][mask], minlength=n_classes), counts)
                if gain > 1e-12 and (best is None or gain > best[0]):
                    cats = frozenset([features[j].categories[int(code)]])
                    best = (gain, int(j), None, cats, mask)
    if best is None:
        return Leaf(majority)
    _, j, th, cats, mask = best
    args = (features, classes, params, mtry, rng, depth + 1)
    return Split(feature=j, threshold=th, categories=cats,
                 left=_grow_scanning_every_position(cols, y, idx[mask], *args),
                 right=_grow_scanning_every_position(cols, y, idx[~mask], *args))


@pytest.mark.parametrize("seed", range(24))
def test_training_equals_a_scan_of_every_position(seed, monkeypatch):
    from rfplan import forest as forest_mod

    rng = np.random.default_rng(seed)
    n = int(rng.choice([6, 40, 150]))
    features, columns = [], []
    for j in range(int(rng.integers(1, 5))):
        kind = ("int", "float", "rounded", "cat")[int(rng.integers(0, 4))]
        if kind == "cat":
            cats = tuple(f"c{i}" for i in range(int(rng.integers(2, 5))))
            features.append(FeatureMeta(f"f{j}", CATEGORICAL, categories=cats))
            columns.append([cats[v] for v in rng.integers(0, len(cats), n)])
            continue
        features.append(FeatureMeta(f"f{j}", NUMERICAL))
        if kind == "int":
            columns.append([int(v) for v in rng.integers(0, 10, n)])
        elif kind == "float":
            columns.append([float(v) for v in rng.normal(0.0, 1.0, n)])
        else:
            columns.append([round(float(v), 1) for v in rng.normal(0.0, 1.0, n)])
    rows = list(zip(*columns))
    labels = [int(v) for v in rng.integers(0, int(rng.integers(2, 6)), n)]
    params = TrainParams(n_trees=3, max_depth=int(rng.integers(1, 7)),
                         min_leaf=int(rng.choice([1, 2, 5])), rng_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a constant label set is a valid input here
        forest = train_forest(features, rows, labels, params)
        monkeypatch.setattr(forest_mod, "_grow", _grow_scanning_every_position)
        reference = train_forest(features, rows, labels, params)
    assert forest_to_dict(forest) == forest_to_dict(reference)
