"""Dataset ingestion: CSV and libsvm files validated against a JSON schema.

The schema declares the feature columns in vector order, their kind and
mutability, and the label column; optionally a fixed ordered class list.
A schema takes no other key (``forest.check_record``); a feature record
is read as a model's is (``FeatureMeta.from_dict``), but ``kind``
defaults to numerical.  Each feature value of a row is read by
``FeatureMeta.parse``, as ``-x`` values are, so a fault reads
``path:line: feature 'name': ...``.  A libsvm row names each feature
index at most once; an index it leaves out reads 0.0.  All diagnostics
carry file and line numbers.  Every file is read by
``forest.read_text``: UTF-8, with or without a byte order mark.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

from .forest import (
    NUMERICAL, FeatureMeta, Label, ModelError, Vector, check_label, check_record, class_order,
    read_json, read_text,
)


class DataError(ValueError):
    """Malformed schema or data file."""


@dataclass(frozen=True)
class Schema:
    features: tuple[FeatureMeta, ...]
    label: str | int
    classes: tuple[Label, ...] | None = None


@dataclass(frozen=True)
class Dataset:
    features: tuple[FeatureMeta, ...]
    rows: tuple[Vector, ...]
    labels: tuple[Label, ...]
    classes: tuple[Label, ...]

    def __len__(self) -> int:
        return len(self.rows)


def _coerce_label(token: str, where: str):
    """Labels: int when possible, then float, else the raw string.

    A token that parses to a non-finite float (``nan``, ``inf``) is
    rejected: nan equals no label, not even itself, so each such row would
    become its own class.
    """
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        return token
    if not math.isfinite(value):
        raise DataError(f"{where}: label {token!r} is not finite")
    return value


def schema_from_dict(doc: dict, source: str = "<schema>") -> Schema:
    check_record(doc, source, DataError, {"label": (str, int), "features": list},
                 {"classes": (list, type(None))})
    if not doc["features"]:
        raise DataError(f"{source}: 'features' must be a non-empty array")
    features = []
    for i, rec in enumerate(doc["features"]):
        try:
            features.append(FeatureMeta.from_dict(rec, default_kind=NUMERICAL))
        except ModelError as exc:
            raise DataError(f"{source}: features[{i}]: {exc}") from None
    classes = doc.get("classes")
    if classes is not None:
        if not classes:
            raise DataError(f"{source}: 'classes' must be a non-empty array")
        for i, c in enumerate(classes):
            check_label(c, f"{source}: classes[{i}]", DataError)
        if len(set(map(str, classes))) != len(classes):
            raise DataError(f"{source}: duplicate classes")
        classes = tuple(classes)
    return Schema(features=tuple(features), label=doc["label"], classes=classes)


def load_schema(path) -> Schema:
    return schema_from_dict(read_json(path, DataError), source=str(path))


def _finish(schema: Schema, rows: list, labels: list, source: str) -> Dataset:
    if not rows:
        raise DataError(f"{source}: no data rows")
    try:
        classes = class_order(labels, schema.classes)
    except ModelError as exc:
        raise DataError(f"{source}: {exc}") from None
    return Dataset(
        features=schema.features, rows=tuple(rows), labels=tuple(labels), classes=classes
    )


def _ingest_csv(path, schema: Schema) -> Dataset:
    reader = csv.reader(io.StringIO(read_text(path, DataError), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}:1: empty file") from None
    header = [h.strip() for h in header]
    col_of: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in col_of:
            raise DataError(f"{path}:1: duplicate column {name!r}")
        col_of[name] = i
    feat_cols = []
    for meta in schema.features:
        if meta.name not in col_of:
            raise DataError(f"{path}:1: missing feature column {meta.name!r}")
        feat_cols.append(col_of[meta.name])
    if isinstance(schema.label, int):
        if not 0 <= schema.label < len(header):
            raise DataError(f"{path}:1: label column index {schema.label} out of range")
        label_col = schema.label
    else:
        if schema.label not in col_of:
            raise DataError(f"{path}:1: missing label column {schema.label!r}")
        label_col = col_of[schema.label]

    rows: list[Vector] = []
    labels: list[Label] = []
    for rec in reader:
        lineno = reader.line_num
        if not rec or (len(rec) == 1 and not rec[0].strip()):
            continue
        if len(rec) != len(header):
            raise DataError(
                f"{path}:{lineno}: row has {len(rec)} fields, header has {len(header)}"
            )
        try:
            rows.append(tuple(
                meta.parse(rec[col].strip()) for meta, col in zip(schema.features, feat_cols)
            ))
        except ModelError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        labels.append(_coerce_label(rec[label_col].strip(), f"{path}:{lineno}"))
    return _finish(schema, rows, labels, str(path))


def _ingest_libsvm(path, schema: Schema) -> Dataset:
    for meta in schema.features:
        if meta.is_categorical:
            raise DataError(
                f"{path}: libsvm files carry numbers only; categorical feature "
                f"{meta.name!r} is not representable"
            )
    m = len(schema.features)
    rows: list[Vector] = []
    labels: list[Label] = []
    lines = io.StringIO(read_text(path, DataError), newline=None)
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        labels.append(_coerce_label(parts[0], f"{path}:{lineno}"))
        values: dict[int, float] = {}
        for part in parts[1:]:
            if ":" not in part:
                raise DataError(f"{path}:{lineno}: expected index:value, got {part!r}")
            idx_s, val_s = part.split(":", 1)
            try:
                idx = int(idx_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad feature index {idx_s!r}") from None
            if not 1 <= idx <= m:
                raise DataError(f"{path}:{lineno}: feature index {idx} outside 1..{m}")
            if idx - 1 in values:
                raise DataError(f"{path}:{lineno}: feature index {idx} given twice")
            try:
                values[idx - 1] = schema.features[idx - 1].parse(val_s)
            except ModelError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
        rows.append(tuple(values.get(i, 0.0) for i in range(m)))
    return _finish(schema, rows, labels, str(path))


def ingest(path, fmt: str, schema: Schema) -> Dataset:
    """Load and validate a dataset file; ``fmt`` is 'csv' or 'libsvm'."""
    if fmt == "csv":
        return _ingest_csv(path, schema)
    if fmt == "libsvm":
        return _ingest_libsvm(path, schema)
    raise DataError(f"unknown format {fmt!r}; expected 'csv' or 'libsvm'")


def train_test_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; the same seed always gives the same split."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    idx = list(range(len(ds)))
    random.Random(seed).shuffle(idx)
    n_test = max(1, round(len(ds) * test_fraction))
    if n_test >= len(ds):
        raise DataError("split leaves no training rows")
    test_idx = set(idx[:n_test])
    tr_rows, tr_labels, te_rows, te_labels = [], [], [], []
    for i in range(len(ds)):
        if i in test_idx:
            te_rows.append(ds.rows[i])
            te_labels.append(ds.labels[i])
        else:
            tr_rows.append(ds.rows[i])
            tr_labels.append(ds.labels[i])
    train = Dataset(
        features=ds.features, rows=tuple(tr_rows), labels=tuple(tr_labels), classes=ds.classes
    )
    test = Dataset(
        features=ds.features, rows=tuple(te_rows), labels=tuple(te_labels), classes=ds.classes
    )
    return train, test
