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
and line in the caller's error class.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, Union

import numpy as np

NUMERICAL = "numerical"
CATEGORICAL = "categorical"
SOFT = "soft"
HARD = "hard"

FORMAT_VERSION = 1

# what FeatureMeta.parse reads as a number: no '_' separators, no non-ASCII digits
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)",
                     re.ASCII | re.IGNORECASE)

Label = Any
FeatureValue = Any
Vector = Sequence[FeatureValue]


class ModelError(ValueError):
    """Malformed model structure, file, or input vector."""


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
        if not self.name:
            raise ModelError("feature name must be non-empty")
        if self.kind not in (NUMERICAL, CATEGORICAL):
            raise ModelError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.mutability not in (SOFT, HARD):
            raise ModelError(f"feature {self.name!r}: unknown mutability {self.mutability!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind == CATEGORICAL:
            if not self.categories:
                raise ModelError(f"feature {self.name!r}: categorical feature needs categories")
            if len(set(self.categories)) != len(self.categories):
                raise ModelError(f"feature {self.name!r}: duplicate categories")
        elif self.categories:
            raise ModelError(f"feature {self.name!r}: numerical feature cannot list categories")

    def to_dict(self) -> dict:
        extra = {"categories": list(self.categories)} if self.is_categorical else {}
        return {"name": self.name, "kind": self.kind, "mutability": self.mutability, **extra}

    @classmethod
    def from_dict(cls, rec: dict, default_kind: str = "") -> "FeatureMeta":
        """Read a model or schema feature record.  It takes exactly the keys
        ``name``, ``kind`` (``default_kind`` when absent), ``mutability``
        (soft when absent) and ``categories``; any other key is rejected."""
        unknown = set(rec) - {"name", "kind", "mutability", "categories"}
        if unknown:
            raise ModelError(f"unknown keys {sorted(unknown)}")
        return cls(
            name=rec.get("name", ""),
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
        numerical feature, else the category itself.  A number is written
        in plain ASCII decimal, with an optional exponent; ``nan`` and
        ``inf`` read as numbers, so that ``check`` rejects them as not finite."""
        if self.kind == NUMERICAL:
            if not _NUMBER.fullmatch(token):
                raise ModelError(f"feature {self.name!r}: {token!r} is not a number")
            token = float(token)
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


TreeNode = Union[Leaf, Split]


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
                if node.label not in classes:
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
            n = getattr(self, name)
            if n is None and name in ("sample_size", "mtry"):
                continue
            if isinstance(n, bool) or not isinstance(n, int):
                raise ModelError(f"{name} must be an int, got {n!r}")
            low = 0 if name == "rng_seed" else 1
            if n < low:
                raise ModelError(f"{name} must be >= {low}")


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
    if classes is None:
        seen = set(labels)
        try:
            classes = tuple(sorted(seen))
        except TypeError:
            classes = tuple(sorted(seen, key=str))
    else:
        classes = tuple(classes)
        missing = set(labels) - set(classes)
        if missing:
            raise ModelError(f"labels outside declared classes: {sorted(map(str, missing))}")
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


def _nodes_to_tree(nodes: list, where: str) -> TreeNode:
    if not isinstance(nodes, list) or not nodes:
        raise ModelError(f"{where}: nodes must be a non-empty array")
    built: list[TreeNode | None] = [None] * len(nodes)
    seen: set[int] = set()

    def link(slot: int) -> TreeNode:
        # iterative post-order over the node array
        order: list[int] = []
        stack = [slot]
        while stack:
            i = stack.pop()
            if not isinstance(i, int) or not 0 <= i < len(nodes):
                raise ModelError(f"{where}: child index {i!r} out of range")
            if i in seen:
                raise ModelError(f"{where}.nodes[{i}]: node referenced twice")
            seen.add(i)
            order.append(i)
            rec = nodes[i]
            if not isinstance(rec, dict) or "kind" not in rec:
                raise ModelError(f"{where}.nodes[{i}]: expected an object with a 'kind'")
            if rec["kind"] == "split":
                for key in ("feature", "left", "right"):
                    if key not in rec:
                        raise ModelError(f"{where}.nodes[{i}]: split missing {key!r}")
                stack.append(rec["right"])
                stack.append(rec["left"])
            elif rec["kind"] == "leaf":
                if "label" not in rec:
                    raise ModelError(f"{where}.nodes[{i}]: leaf missing 'label'")
            else:
                raise ModelError(f"{where}.nodes[{i}]: unknown kind {rec['kind']!r}")
        for i in reversed(order):
            rec = nodes[i]
            if rec["kind"] == "leaf":
                built[i] = Leaf(rec["label"])
            else:
                has_th = "threshold" in rec
                has_cat = "categories" in rec
                if has_th == has_cat:
                    raise ModelError(
                        f"{where}.nodes[{i}]: split needs exactly one of threshold / categories"
                    )
                left = built[rec["left"]]
                right = built[rec["right"]]
                if left is None or right is None:
                    raise ModelError(f"{where}.nodes[{i}]: children must come after the split")
                if has_th:
                    th = rec["threshold"]
                    if isinstance(th, bool) or not isinstance(th, (int, float)):
                        raise ModelError(f"{where}.nodes[{i}]: threshold must be a number")
                    built[i] = Split(
                        feature=rec["feature"], left=left, right=right, threshold=float(th)
                    )
                else:
                    cats = rec["categories"]
                    if not isinstance(cats, list):
                        raise ModelError(f"{where}.nodes[{i}]: categories must be an array")
                    built[i] = Split(
                        feature=rec["feature"], left=left, right=right,
                        categories=frozenset(cats),
                    )
        return built[slot]

    root = link(0)
    if len(seen) != len(nodes):
        unused = sorted(set(range(len(nodes))) - seen)
        raise ModelError(f"{where}: unreachable nodes {unused}")
    return root


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


def forest_from_dict(doc: dict) -> RandomForest:
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(f"unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    for key in ("classes", "features", "trees"):
        if key not in doc:
            raise ModelError(f"model document missing {key!r}")
    features = []
    for i, rec in enumerate(doc["features"]):
        if not isinstance(rec, dict):
            raise ModelError(f"features[{i}]: expected an object")
        try:
            features.append(FeatureMeta.from_dict(rec))
        except ModelError as exc:
            raise ModelError(f"features[{i}]: {exc}") from None
    trees = []
    weights = []
    if not isinstance(doc["trees"], list) or not doc["trees"]:
        raise ModelError("trees must be a non-empty array")
    for d, rec in enumerate(doc["trees"]):
        if not isinstance(rec, dict) or "nodes" not in rec:
            raise ModelError(f"trees[{d}]: expected an object with 'nodes'")
        unknown = set(rec) - {"weight", "nodes"}
        if unknown:
            raise ModelError(f"trees[{d}]: unknown keys {sorted(unknown)}")
        weight = rec.get("weight", 1.0)
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ModelError(f"trees[{d}]: weight must be a number")
        trees.append(_nodes_to_tree(rec["nodes"], f"trees[{d}]"))
        weights.append(float(weight))
    return RandomForest(
        features=tuple(features),
        classes=tuple(doc["classes"]),
        trees=tuple(trees),
        weights=tuple(weights),
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
