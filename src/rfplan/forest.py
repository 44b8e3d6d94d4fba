"""Random forest model: feature metadata, tree structure, voting, training, persistence.

A forest is an immutable value.  Trees vote with fixed positive weights;
the predicted label is the argmax of the weighted vote share, with ties
broken in favour of the label declared first in ``classes``.

Split conventions, fixed across the whole package:
  numerical  -- go left iff value <  threshold
  categorical -- go left iff value in the split's category subset

Training splits a node on the candidate of largest Gini gain (> 1e-12,
first one on ties) among ``mtry`` random features: a midpoint between
distinct sorted values, or one category against the rest.  Gains come from
integer class counts with no BLAS routine, so one data set and seed train
the same forest on any CPU or BLAS build.

``read_text`` and ``read_json`` read every input file of the package:
UTF-8 with or without a byte order mark, and each fault names its file
and line in the caller's error class.  ``check_record`` checks the keys
and field types of every JSON record the package reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import reprlib
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence, Union

import numpy as np

NUMERICAL = "numerical"
CATEGORICAL = "categorical"
SOFT = "soft"
HARD = "hard"

FORMAT_VERSION = 1

# plain ASCII decimal, as parse_number and parse_int read it: no '_' separators,
# no non-ASCII digits, no surrounding spaces
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)",
                     re.ASCII | re.IGNORECASE)
_INTEGER = re.compile(r"[+-]?[0-9]+")

Label = Any
LABEL = (str, float)  # the types of a class label: a string or a number
FeatureValue = Any
Vector = Sequence[FeatureValue]


class ModelError(ValueError):
    """Malformed model structure, file, or input vector."""


def parse_number(token: str) -> float:
    """The float that ``token`` writes in plain ASCII decimal, with an
    optional exponent; else ValueError ``'<token>' is not a number``.
    ``nan`` and ``inf`` read as numbers, so that the caller's range rule
    rejects them.  Python's ``float`` also reads '_' separators, non-ASCII
    digits and surrounding spaces; raw feature values and every number in
    the command line's text are read here or by ``parse_int``."""
    if not _NUMBER.fullmatch(token):
        raise ValueError(f"{token!r} is not a number")
    return float(token)


def parse_int(token: str) -> int:
    """The int that ``token`` writes as an optional sign and ASCII digits;
    else ValueError ``'<token>' is not an integer``."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def check_count(name: str, n: Any, low: int, error: type[Exception]) -> int:
    """``n`` when it is an int, not a bool, and at least ``low``; else
    ``error`` as ``<name> must be an int, got …`` or ``<name> must be >=
    <low>, got …``.  Every count the package takes is checked here."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise error(f"{name} must be an int, got {n!r}")
    if n < low:
        raise error(f"{name} must be >= {low}, got {n}")
    return n


# what a record names each type its fields may take; ``object`` takes any value
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _is_a(value: Any, types: tuple) -> bool:
    """Whether ``value`` has one of ``types``: a bool is never an int or a
    float, and an int is a float when a float can hold it."""
    if isinstance(value, bool):
        return bool in types or object in types
    return isinstance(value, types) or (
        float in types and isinstance(value, int) and abs(value) <= sys.float_info.max)


def _type_names(types: tuple) -> str:
    return " or ".join(_TYPE_NAMES.get(t, t.__name__) for t in types)


def check_record(rec: Any, where: str, error: type[Exception], required: dict,
                 optional: dict = {}, version: int | None = None) -> dict:
    """``rec`` when it is a dict with every key of ``required``, no key
    outside ``required`` and ``optional``, and each value of a type (or
    tuple of types) its key maps to; ``None`` passes only where listed.
    Else ``error`` after ``where``: ``expected a JSON object, got …``,
    ``unknown keys [...]; known: [...]``, ``missing keys [...]`` or
    ``'<key>' must be <type>, got …``.  With ``version``, ``rec`` also
    needs an int ``format_version``, compared before any other key, so a
    file of another format fails as ``unsupported format_version N``.
    Every JSON record the package reads is checked here."""
    at = f"{where}: " if where else ""
    if not isinstance(rec, dict):
        raise error(f"{at}expected a JSON object, got {_type_names((type(rec),))}")
    if version is not None:
        if "format_version" in rec and rec["format_version"] != version:
            raise error(f"{at}unsupported format_version {reprlib.repr(rec['format_version'])} "
                        f"(expected {version})")
        required = {"format_version": int, **required}
    known = {**required, **optional}
    unknown = sorted((k for k in rec if k not in known), key=str)
    if unknown:
        raise error(f"{at}unknown keys {unknown}; known: {list(known)}")
    missing = sorted(k for k in required if k not in rec)
    if missing:
        raise error(f"{at}missing keys {missing}")
    for key, value in rec.items():
        types = known[key] if isinstance(known[key], tuple) else (known[key],)
        if not _is_a(value, types):
            raise error(f"{at}{key!r} must be {_type_names(types)}, got {reprlib.repr(value)}")
    return rec


def check_label(label: Any, where: str, error: type[Exception]) -> Label:
    """``label`` when it is a string or a number, not a bool; else ``error``
    after ``where``.  Every class label the package takes is checked here."""
    if not _is_a(label, LABEL):
        raise error(f"{where}: class label must be a string or a number, "
                    f"got {reprlib.repr(label)}")
    return label


def class_order(labels: Iterable[Label], declared: Sequence[Label] | None = None) -> tuple:
    """The classes of ``labels``: ``declared``, which must hold every label,
    else the distinct labels sorted, by their text when they do not compare."""
    seen = set(labels)
    if declared is not None:
        missing = sorted(map(str, seen - set(declared)))
        if missing:
            raise ModelError(f"labels outside declared classes: {missing}")
        return tuple(declared)
    try:
        return tuple(sorted(seen))
    except TypeError:
        return tuple(sorted(seen, key=str))


@dataclass(frozen=True)
class FeatureMeta:
    """Declaration of one input feature.

    ``mutability`` marks whether planning actions may change the feature
    (``soft``) or must leave it fixed (``hard``).  ``categories`` is the
    ordered domain of a categorical feature and must be empty for a
    numerical one.
    """

    name: str
    kind: str
    mutability: str = SOFT
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ModelError(f"feature name must be a non-empty string, got {self.name!r}")
        if self.kind not in (NUMERICAL, CATEGORICAL):
            raise ModelError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.mutability not in (SOFT, HARD):
            raise ModelError(f"feature {self.name!r}: unknown mutability {self.mutability!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind == CATEGORICAL:
            if not self.categories:
                raise ModelError(f"feature {self.name!r}: categorical feature needs categories")
            if not all(isinstance(c, str) for c in self.categories):
                raise ModelError(f"feature {self.name!r}: categories must be strings")
            if len(set(self.categories)) != len(self.categories):
                raise ModelError(f"feature {self.name!r}: duplicate categories")
        elif self.categories:
            raise ModelError(f"feature {self.name!r}: numerical feature cannot list categories")

    def to_dict(self) -> dict:
        extra = {"categories": list(self.categories)} if self.is_categorical else {}
        return {"name": self.name, "kind": self.kind, "mutability": self.mutability, **extra}

    @classmethod
    def from_dict(cls, rec: Any, default_kind: str | None = None) -> "FeatureMeta":
        """Read a model or schema feature record (``check_record``): a
        ``name``, a ``kind`` (``default_kind`` when absent; required
        without one), a ``mutability`` (soft when absent) and ``categories``."""
        required = {"name": str} if default_kind else {"name": str, "kind": str}
        check_record(rec, "", ModelError, required,
                     {"kind": str, "mutability": str, "categories": list})
        return cls(
            name=rec["name"],
            kind=rec.get("kind", default_kind),
            mutability=rec.get("mutability", SOFT),
            categories=tuple(rec.get("categories", ())),
        )

    def check(self, value: FeatureValue) -> FeatureValue:
        """``value`` if it is a value of this feature: a finite int or float,
        not a bool, for a numerical feature, else one of its categories."""
        if self.kind == NUMERICAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ModelError(f"feature {self.name!r}: {value!r} is not a number")
            if not math.isfinite(value):
                raise ModelError(f"feature {self.name!r}: {value!r} is not finite")
        elif value not in self.categories:
            raise ModelError(f"feature {self.name!r}: unknown category {value!r}; "
                             f"choices: {list(self.categories)}")
        return value

    def parse(self, token: str) -> FeatureValue:
        """The checked value that the text ``token`` names: a float for a
        numerical feature, else the category itself.  A number is read by
        ``parse_number``, so ``check`` rejects ``nan`` and ``inf`` as not finite."""
        if self.kind == NUMERICAL:
            try:
                token = parse_number(token)
            except ValueError as exc:
                raise ModelError(f"feature {self.name!r}: {exc}") from None
        return self.check(token)

    @property
    def is_numerical(self) -> bool:
        return self.kind == NUMERICAL

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    @property
    def is_soft(self) -> bool:
        return self.mutability == SOFT


@dataclass(frozen=True)
class Leaf:
    label: Label


@dataclass(frozen=True)
class Split:
    """Internal decision node.

    Exactly one of ``threshold`` (numerical test) and ``categories``
    (categorical membership test) is set.
    """

    feature: int
    left: "TreeNode"
    right: "TreeNode"
    threshold: float | None = None
    categories: frozenset | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.categories is None):
            raise ModelError("split needs exactly one of threshold / categories")
        if self.categories is not None:
            if not all(isinstance(c, str) for c in self.categories):
                raise ModelError("split categories must be strings")
            object.__setattr__(self, "categories", frozenset(self.categories))


TreeNode = Union[Leaf, Split]


def splits(forest: RandomForest) -> Iterator[Split]:
    """Every split node of every tree of ``forest``."""
    for tree in forest.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, Split):
                yield node
                stack.append(node.left)
                stack.append(node.right)


def _check_vector(features: Sequence[FeatureMeta], x: Vector) -> None:
    if len(x) != len(features):
        raise ModelError(f"vector has {len(x)} values, model declares {len(features)} features")
    for meta, value in zip(features, x):
        meta.check(value)


@dataclass(frozen=True)
class RandomForest:
    """Weighted ensemble of decision trees over a fixed feature list."""

    features: tuple[FeatureMeta, ...]
    classes: tuple[Label, ...]
    trees: tuple[TreeNode, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        self._validate()

    def _validate(self) -> None:
        if not self.trees:
            raise ModelError("forest has no trees")
        if len(self.trees) != len(self.weights):
            raise ModelError("one weight per tree required")
        for i, c in enumerate(self.classes):
            check_label(c, f"classes[{i}]", ModelError)
        if len(set(self.classes)) != len(self.classes) or not self.classes:
            raise ModelError("classes must be non-empty and distinct")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ModelError("duplicate feature names")
        for w in self.weights:
            if not math.isfinite(w) or w <= 0:
                raise ModelError(f"tree weight must be positive and finite, got {w}")
        for d, tree in enumerate(self.trees):
            self._validate_tree(d, tree)

    def _validate_tree(self, d: int, tree: TreeNode) -> None:
        m = len(self.features)
        classes = set(self.classes)
        # stack holds (node, numeric windows)
        windows = {i: (-math.inf, math.inf) for i in range(m)}
        stack: list[tuple[TreeNode, dict]] = [(tree, windows)]
        while stack:
            node, win = stack.pop()
            where = f"trees[{d}]"
            if isinstance(node, Leaf):
                if check_label(node.label, where, ModelError) not in classes:
                    raise ModelError(f"{where}: leaf label {node.label!r} not in classes")
                continue
            if not 0 <= node.feature < m:
                raise ModelError(f"{where}: split feature index {node.feature} out of range")
            meta = self.features[node.feature]
            if node.threshold is not None:
                if not meta.is_numerical:
                    raise ModelError(f"{where}: threshold split on categorical {meta.name!r}")
                th = float(node.threshold)
                if not math.isfinite(th):
                    raise ModelError(f"{where}: non-finite threshold on {meta.name!r}")
                lo, hi = win[node.feature]
                if not lo < th < hi:
                    raise ModelError(
                        f"{where}: threshold {th} on {meta.name!r} does not narrow ({lo}, {hi})"
                    )
                lwin = dict(win)
                lwin[node.feature] = (lo, th)
                rwin = dict(win)
                rwin[node.feature] = (th, hi)
                stack.append((node.left, lwin))
                stack.append((node.right, rwin))
            else:
                if not meta.is_categorical:
                    raise ModelError(f"{where}: category split on numerical {meta.name!r}")
                subset = frozenset(node.categories)
                domain = set(meta.categories)
                if not subset or not subset < domain:
                    raise ModelError(
                        f"{where}: category subset on {meta.name!r} must be a non-empty proper subset"
                    )
                stack.append((node.left, win))
                stack.append((node.right, win))

    def class_distribution(self, x: Vector) -> dict:
        """Weighted vote share per class; shares sum to 1."""
        _check_vector(self.features, x)
        votes = {c: 0.0 for c in self.classes}
        for tree, w in zip(self.trees, self.weights):
            node = tree
            while isinstance(node, Split):
                value = x[node.feature]
                if node.threshold is not None:
                    node = node.left if value < node.threshold else node.right
                else:
                    node = node.left if value in node.categories else node.right
            votes[node.label] += w
        total = sum(self.weights)
        return {c: v / total for c, v in votes.items()}

    def class_proba(self, x: Vector, c: Label) -> float:
        if c not in self.classes:
            raise ModelError(f"unknown class {c!r}")
        return self.class_distribution(x)[c]

    def predict(self, x: Vector) -> Label:
        dist = self.class_distribution(x)
        best = self.classes[0]
        for c in self.classes[1:]:
            if dist[c] > dist[best]:
                best = c
        return best


@dataclass(frozen=True)
class TrainParams:
    """Knobs for bootstrap forest training."""

    n_trees: int = 100
    sample_size: int | None = None  # bootstrap draw per tree; None = len(dataset)
    mtry: int | None = None  # features tried per split; None = ceil(sqrt(M))
    max_depth: int = 64
    min_leaf: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_trees", "sample_size", "mtry", "max_depth", "min_leaf", "rng_seed"):
            if getattr(self, name) is not None or name not in ("sample_size", "mtry"):
                check_count(name, getattr(self, name), 0 if name == "rng_seed" else 1, ModelError)


def _split_gains(lc: np.ndarray, ln: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Gini gain of each candidate split, from its left class counts ``lc``
    (one int64 row per candidate) and left sizes ``ln``; both sides non-empty.

    The sums of squares are exact integers and the rest is one IEEE
    division or subtraction each, so no gain depends on the CPU, the BLAS
    build or a summation order.
    """
    rc = counts - lc
    # n times the size-weighted Gini of the two children
    child = n - (lc * lc).sum(axis=1) / ln - (rc * rc).sum(axis=1) / (n - ln)
    return 1.0 - (counts * counts).sum() / (n * n) - child / n


def _grow(
    cols: list[np.ndarray],
    y: np.ndarray,
    idx: np.ndarray,
    features: Sequence[FeatureMeta],
    classes: Sequence[Label],
    params: TrainParams,
    mtry: int,
    rng: np.random.Generator,
    depth: int,
) -> TreeNode:
    n_classes = len(classes)
    counts = np.bincount(y[idx], minlength=n_classes)
    majority = classes[int(np.argmax(counts))]
    if depth >= params.max_depth or len(idx) < 2 * params.min_leaf or np.count_nonzero(counts) <= 1:
        return Leaf(majority)

    n = len(idx)
    yi = y[idx]
    best = None  # (gain, feature, kind, payload, left_mask)
    tried = rng.permutation(len(features))[:mtry]
    for j in tried:
        col = cols[j][idx]
        if features[j].is_numerical:
            order = np.argsort(col, kind="stable")
            sv = col[order]
            # a threshold can fall only where the sorted values change
            ln = np.flatnonzero(sv[1:] != sv[:-1]) + 1
            onehot = np.zeros((n, n_classes), dtype=np.int64)
            onehot[np.arange(n), yi[order]] = 1
            lc = np.cumsum(onehot, axis=0)[ln - 1]
        else:
            # one candidate per category code: that code left, every other right
            n_codes = len(features[j].categories)
            lc = np.bincount(col * n_classes + yi, minlength=n_codes * n_classes)
            lc = lc.reshape(n_codes, n_classes)
            ln = lc.sum(axis=1)
        cand = np.flatnonzero((ln >= params.min_leaf) & (ln <= n - params.min_leaf))
        if not len(cand):
            continue
        gains = _split_gains(lc[cand], ln[cand], counts, n)
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain > 1e-12 and (best is None or gain > best[0]):
            c = int(cand[k])
            if features[j].is_numerical:
                th = (float(sv[ln[c] - 1]) + float(sv[ln[c]])) / 2.0
                best = (gain, int(j), NUMERICAL, th, col < th)
            else:
                label = features[j].categories[c]
                best = (gain, int(j), CATEGORICAL, frozenset([label]), col == c)

    if best is None:
        return Leaf(majority)
    _, j, kind, payload, left_mask = best
    left_idx = idx[left_mask]
    right_idx = idx[~left_mask]
    left = _grow(cols, y, left_idx, features, classes, params, mtry, rng, depth + 1)
    right = _grow(cols, y, right_idx, features, classes, params, mtry, rng, depth + 1)
    if kind == NUMERICAL:
        return Split(feature=j, left=left, right=right, threshold=payload)
    return Split(feature=j, left=left, right=right, categories=payload)


def train_forest(
    features: Sequence[FeatureMeta],
    rows: Sequence[Vector],
    labels: Sequence[Label],
    params: TrainParams,
    classes: Sequence[Label] | None = None,
) -> RandomForest:
    """Fit a bootstrap forest: Gini splits on ``mtry`` random features per node."""
    features = tuple(features)
    if len(rows) != len(labels):
        raise ModelError("rows and labels differ in length")
    if not rows:
        raise ModelError("empty training set")
    for r, row in enumerate(rows):
        try:
            _check_vector(features, row)
        except ModelError as exc:
            raise ModelError(f"row {r}: {exc}") from None
    classes = class_order(labels, classes)
    if len(set(labels)) == 1:
        warnings.warn("training labels are constant; forest degenerates to one leaf per tree")

    class_code = {c: i for i, c in enumerate(classes)}
    y = np.array([class_code[v] for v in labels], dtype=np.int64)
    cols: list[np.ndarray] = []
    for j, meta in enumerate(features):
        if meta.is_numerical:
            cols.append(np.array([float(row[j]) for row in rows], dtype=np.float64))
        else:
            code = {c: i for i, c in enumerate(meta.categories)}
            cols.append(np.array([code[row[j]] for row in rows], dtype=np.int64))

    n = len(rows)
    n_k = params.sample_size if params.sample_size is not None else n
    if n_k > n:
        raise ModelError(f"sample_size {n_k} exceeds dataset size {n}")
    mtry = params.mtry if params.mtry is not None else max(1, math.isqrt(len(features) - 1) + 1)
    mtry = min(mtry, len(features))

    rng = np.random.default_rng(params.rng_seed)
    trees = []
    for _ in range(params.n_trees):
        idx = rng.integers(0, n, size=n_k)
        trees.append(_grow(cols, y, idx, features, classes, params, mtry, rng, 0))
    return RandomForest(
        features=features,
        classes=classes,
        trees=tuple(trees),
        weights=tuple(1.0 for _ in trees),
    )


def _tree_to_nodes(tree: TreeNode) -> list[dict]:
    """Pre-order node array with explicit child indices (iterative, safe on deep trees)."""
    nodes: list[dict] = []
    stack: list[tuple[TreeNode, int | None, str | None]] = [(tree, None, None)]
    while stack:
        node, parent, side = stack.pop()
        slot = len(nodes)
        if parent is not None:
            nodes[parent][side] = slot
        if isinstance(node, Leaf):
            nodes.append({"kind": "leaf", "label": node.label})
        else:
            rec = {"kind": "split", "feature": node.feature, "left": -1, "right": -1}
            if node.threshold is not None:
                rec["threshold"] = node.threshold
            else:
                rec["categories"] = sorted(node.categories)
            nodes.append(rec)
            stack.append((node.right, slot, "right"))
            stack.append((node.left, slot, "left"))
    return nodes


# a tree node record's keys by its kind: (required, optional)
_NODE_KEYS = {
    "split": ({"kind": str, "feature": int, "left": int, "right": int},
              {"threshold": float, "categories": list}),
    "leaf": ({"kind": str, "label": LABEL}, {}),
}
# every key a node of some kind takes
_ANY_NODE_KEYS = {k: t for keys in _NODE_KEYS.values() for part in keys for k, t in part.items()}


def _nodes_to_tree(nodes: list, where: str) -> TreeNode:
    if not nodes:
        raise ModelError(f"{where}: 'nodes' must be a non-empty array")
    built: list[TreeNode | None] = [None] * len(nodes)
    seen: set[int] = set()
    # iterative post-order over the node array
    order: list[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        if not 0 <= i < len(nodes):
            raise ModelError(f"{where}: child index {i} out of range")
        if i in seen:
            raise ModelError(f"{where}.nodes[{i}]: node referenced twice")
        seen.add(i)
        order.append(i)
        at = f"{where}.nodes[{i}]"
        rec = check_record(nodes[i], at, ModelError, {"kind": str}, _ANY_NODE_KEYS)
        if rec["kind"] not in _NODE_KEYS:
            raise ModelError(f"{at}: unknown kind {rec['kind']!r}")
        check_record(rec, at, ModelError, *_NODE_KEYS[rec["kind"]])
        if rec["kind"] == "split":
            stack.append(rec["right"])
            stack.append(rec["left"])
    for i in reversed(order):
        rec = nodes[i]
        if rec["kind"] == "leaf":
            built[i] = Leaf(rec["label"])
            continue
        left = built[rec["left"]]
        right = built[rec["right"]]
        if left is None or right is None:
            raise ModelError(f"{where}.nodes[{i}]: children must come after the split")
        th = rec.get("threshold")
        try:
            built[i] = Split(feature=rec["feature"], left=left, right=right,
                             threshold=None if th is None else float(th),
                             categories=rec.get("categories"))
        except ModelError as exc:
            raise ModelError(f"{where}.nodes[{i}]: {exc}") from None
    if len(seen) != len(nodes):
        unused = sorted(set(range(len(nodes))) - seen)
        raise ModelError(f"{where}: unreachable nodes {unused}")
    return built[0]


def forest_to_dict(forest: RandomForest) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "classes": list(forest.classes),
        "features": [f.to_dict() for f in forest.features],
        "trees": [
            {"weight": w, "nodes": _tree_to_nodes(tree)}
            for tree, w in zip(forest.trees, forest.weights)
        ],
    }


def forest_from_dict(doc: Any) -> RandomForest:
    check_record(doc, "", ModelError, {"classes": list, "features": list, "trees": list},
                 version=FORMAT_VERSION)
    features = []
    for i, rec in enumerate(doc["features"]):
        try:
            features.append(FeatureMeta.from_dict(rec))
        except ModelError as exc:
            raise ModelError(f"features[{i}]: {exc}") from None
    if not doc["trees"]:
        raise ModelError("'trees' must be a non-empty array")
    trees = []
    for d, rec in enumerate(doc["trees"]):
        check_record(rec, f"trees[{d}]", ModelError, {"nodes": list}, {"weight": float})
        trees.append(_nodes_to_tree(rec["nodes"], f"trees[{d}]"))
    return RandomForest(
        features=tuple(features),
        classes=tuple(doc["classes"]),
        trees=tuple(trees),
        weights=tuple(rec.get("weight", 1.0) for rec in doc["trees"]),
    )


def persist(forest: RandomForest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(forest_to_dict(forest), fh, indent=1)
        fh.write("\n")


def read_text(path, error: type[Exception]) -> str:
    """The text of the file at ``path``, decoded as UTF-8 with or without a
    leading byte order mark.  A byte that is not UTF-8 raises ``error`` as
    ``path:line: not UTF-8 text (reason at byte N)``, N counted from 0; an
    ``OSError`` passes through."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text[1:] if text.startswith("\ufeff") else text


def read_json(path, error: type[Exception], text: str | None = None, line: int = 1):
    """The JSON document in the file at ``path`` (``read_text``), or in
    ``text``, the part of that file that starts on line ``line``.  Bad JSON
    raises ``error`` as ``path:line: not valid JSON (msg)``."""
    if text is None:
        text = read_text(path, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{line + exc.lineno - 1}: not valid JSON ({exc.msg})") from None


def restore(path) -> RandomForest:
    doc = read_json(path, ModelError)
    try:
        return forest_from_dict(doc)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None


def fingerprint(forest: RandomForest) -> str:
    """Stable content hash used to pair a goal database with its model.

    Computed once per forest object and kept beside its fields, out of
    equality, hash and repr; the forest is immutable, so it cannot go stale.
    """
    fp = forest.__dict__.get("_fingerprint")
    if fp is None:
        blob = json.dumps(forest_to_dict(forest), sort_keys=True, separators=(",", ":"))
        fp = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        object.__setattr__(forest, "_fingerprint", fp)
    return fp
