from __future__ import annotations

import pytest

from conftest import DATA
from rfplan.data import (
    DataError,
    Dataset,
    Schema,
    ingest,
    load_schema,
    schema_from_dict,
    train_test_split,
)
from rfplan.forest import FeatureMeta


@pytest.fixture(scope="module")
def demo_schema():
    return load_schema(DATA / "demo_schema.json")


@pytest.fixture(scope="module")
def demo_ds(demo_schema):
    return ingest(DATA / "demo.csv", "csv", demo_schema)


NUM2 = Schema(
    features=(
        FeatureMeta(name="a", kind="numerical"),
        FeatureMeta(name="b", kind="numerical"),
    ),
    label="y",
)


# ---------------------------------------------------------------------------
# schema


def test_load_schema(demo_schema):
    assert [f.name for f in demo_schema.features] == ["gender", "visits", "balance"]
    assert demo_schema.features[0].is_categorical
    assert demo_schema.features[0].mutability == "hard"
    assert demo_schema.features[1].is_soft
    assert demo_schema.label == "churn"
    assert demo_schema.classes is None


@pytest.mark.parametrize(
    "doc,needle",
    # an explicit id keeps the name a case had before the record rule's wording
    [
        pytest.param({"features": [{"name": "a"}]}, r"^<schema>: missing keys \['label'\]$",
                     id="doc0-missing 'label'"),
        pytest.param({"label": "y"}, r"^<schema>: missing keys \['features'\]$",
                     id="doc1-missing 'features'"),
        ({"label": "y", "features": []}, "non-empty array"),
        pytest.param({"label": "y", "features": ["a"]},
                     r"^<schema>: features\[0\]: expected a JSON object, got a string$",
                     id=r"doc3-features\[0\] must be an object"),
        ({"label": "y", "features": [{"name": "a", "kind": "text"}]}, r"features\[0\]"),
        pytest.param({"label": True, "features": [{"name": "a"}]},
                     r"^<schema>: 'label' must be a string or an integer, got True$",
                     id="doc5-label must be"),
        ({"label": "y", "features": [{"name": "a"}], "classes": []}, "classes"),
        ({"label": "y", "features": [{"name": "a"}], "classes": [0, 0]}, "duplicate classes"),
        # a misspelled optional key would otherwise fall back to its default
        ({"label": "y", "features": [{"name": "age", "kind": "numerical", "mutabilty": "hard"}]},
         r"^<schema>: features\[0\]: unknown keys \['mutabilty'\]; "
         r"known: \['name', 'kind', 'mutability', 'categories'\]$"),
        pytest.param({"label": "y", "features": [{"name": "a"}], "clases": [0, 1]},
                     r"^<schema>: unknown keys \['clases'\]; "
                     r"known: \['label', 'features', 'classes'\]$",
                     id=r"doc9-^<schema>: schema has unknown keys \['clases'\]$"),
    ],
)
def test_schema_rejects(doc, needle):
    with pytest.raises(DataError, match=needle):
        schema_from_dict(doc)


def test_schema_defaults():
    s = schema_from_dict({"label": 0, "features": [{"name": "a"}]})
    assert s.features[0].is_numerical and s.features[0].is_soft
    assert s.label == 0


def test_load_schema_bad_json(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"label": "y",\n broken', encoding="utf-8")
    with pytest.raises(DataError, match=r"schema\.json:2: not valid JSON"):
        load_schema(path)


# ---------------------------------------------------------------------------
# csv


def test_csv_happy_path(demo_ds):
    assert len(demo_ds) == 24
    assert demo_ds.rows[0] == ("male", 6.0, 2000.0)
    assert demo_ds.labels[:2] == (1, 1)
    assert demo_ds.classes == (0, 1), "classes inferred from labels, sorted"


def test_csv_label_by_index(demo_schema):
    by_index = Schema(features=demo_schema.features, label=3)
    ds = ingest(DATA / "demo.csv", "csv", by_index)
    assert ds.labels[:2] == (1, 1)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_csv_skips_blank_lines(tmp_path):
    path = _write(tmp_path, "a,b,y\n1,2,0\n\n3,4,1\n\n")
    ds = ingest(path, "csv", NUM2)
    assert len(ds) == 2


def test_csv_column_order_free(tmp_path):
    # columns are matched by name, not position
    path = _write(tmp_path, "y,b,a\n0,2,1\n")
    ds = ingest(path, "csv", NUM2)
    assert ds.rows == ((1.0, 2.0),)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("", r":1: empty file"),
        ("a,a,y\n1,2,0\n", "duplicate column 'a'"),
        ("a,y\n1,0\n", "missing feature column 'b'"),
        ("a,b\n1,2\n", "missing label column 'y'"),
        ("a,b,y\n1,2\n", r":2: row has 2 fields, header has 3"),
        ("a,b,y\n1,2,0\n1,x,0\n", r":3: feature 'b': 'x' is not a number"),
        ("a,b,y\n1,2,0\n1_000,2,0\n", r":3: feature 'a': '1_000' is not a number"),
        ("a,b,y\n1,2,0\n1,\u0661\u0660,0\n", r":3: feature 'b': '\u0661\u0660' is not a number"),
        ("a,b,y\n1,2,0\nnan,2,0\n", r":3: feature 'a': nan is not finite"),
        ("a,b,y\n1,2,0\n1,2,nan\n", r":3: label 'nan' is not finite"),
        ("a,b,y\n", "no data rows"),
    ],
)
def test_csv_rejects(tmp_path, text, needle):
    with pytest.raises(DataError, match=needle):
        ingest(_write(tmp_path, text), "csv", NUM2)


def test_csv_unknown_category(tmp_path, demo_schema):
    path = _write(tmp_path, "gender,visits,balance,churn\nrobot,1,2,0\n")
    with pytest.raises(DataError, match=r":2: feature 'gender': unknown category 'robot'"):
        ingest(path, "csv", demo_schema)


def test_csv_label_index_out_of_range(tmp_path):
    schema = Schema(features=NUM2.features, label=7)
    with pytest.raises(DataError, match="label column index 7 out of range"):
        ingest(_write(tmp_path, "a,b,y\n1,2,0\n"), "csv", schema)


def test_declared_classes_checked(tmp_path):
    schema = Schema(features=NUM2.features, label="y", classes=(1, 0))
    ds = ingest(_write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n"), "csv", schema)
    assert ds.classes == (1, 0), "declared order wins over sorting"
    bad = Schema(features=NUM2.features, label="y", classes=(0, 1))
    with pytest.raises(DataError, match="outside declared classes"):
        ingest(_write(tmp_path, "a,b,y\n1,2,5\n"), "csv", bad)


def test_label_coercion(tmp_path):
    path = _write(tmp_path, "a,b,y\n1,2,no\n3,4,1.5\n5,6,2\n")
    ds = ingest(path, "csv", NUM2)
    assert ds.labels == ("no", 1.5, 2)
    assert ds.classes == (1.5, 2, "no"), "mixed labels sort by string"


# ---------------------------------------------------------------------------
# libsvm


def test_libsvm_happy_path():
    ds = ingest(DATA / "demo.libsvm", "libsvm", NUM2)
    assert len(ds) == 4
    assert ds.rows == ((2.5, 1.0), (0.5, 0.0), (0.0, 3.0), (0.0, 0.0))
    assert ds.labels == (1, -1, 1, -1)
    assert ds.classes == (-1, 1)


def test_libsvm_rejects_categorical(demo_schema):
    with pytest.raises(DataError, match="not representable"):
        ingest(DATA / "demo.libsvm", "libsvm", demo_schema)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("+1 1=2.5\n", r":1: expected index:value"),
        ("+1 1:x\n", r":1: feature 'a': 'x' is not a number"),
        ("+1 1:0.5\n-1 2:inf\n", r":2: feature 'b': inf is not finite"),
        ("+1 1:0.5\n-inf 2:1\n", r":2: label '-inf' is not finite"),
        ("+1 3:1.0\n", r":1: feature index 3 outside 1\.\.2"),
        ("+1 0:1.0\n", "outside"),
        ("# nothing\n", "no data rows"),
        ("+1 x:1\n", r":1: bad feature index 'x'"),
        ("+1 1:0.5\n-1 1:2.0 1:7.0\n", r":2: feature index 1 given twice"),
    ],
)
def test_libsvm_rejects(tmp_path, text, needle):
    with pytest.raises(DataError, match=needle):
        ingest(_write(tmp_path, text, name="data.libsvm"), "libsvm", NUM2)


def test_files_may_start_with_a_byte_order_mark(tmp_path, demo_schema, demo_ds):
    # as Excel's "CSV UTF-8" and many Windows editors write them
    def with_bom(name):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        return path

    assert load_schema(with_bom("demo_schema.json")) == demo_schema
    assert ingest(with_bom("demo.csv"), "csv", demo_schema) == demo_ds
    assert (ingest(with_bom("demo.libsvm"), "libsvm", NUM2)
            == ingest(DATA / "demo.libsvm", "libsvm", NUM2))


def test_unknown_format(tmp_path):
    with pytest.raises(DataError, match="unknown format"):
        ingest(_write(tmp_path, "a,b,y\n1,2,0\n"), "parquet", NUM2)


# ---------------------------------------------------------------------------
# splitting


def test_split_deterministic(demo_ds):
    a_train, a_test = train_test_split(demo_ds, 0.25, seed=11)
    b_train, b_test = train_test_split(demo_ds, 0.25, seed=11)
    assert a_train.rows == b_train.rows and a_test.rows == b_test.rows
    c_train, _ = train_test_split(demo_ds, 0.25, seed=12)
    assert c_train.rows != a_train.rows


def test_split_partitions_the_rows(demo_ds):
    train, test = train_test_split(demo_ds, 0.25, seed=0)
    assert len(test) == 6 and len(train) == 18
    assert train.classes == test.classes == demo_ds.classes
    combined = sorted(train.rows + test.rows)
    assert combined == sorted(demo_ds.rows)


def test_split_minimum_one_test_row(demo_ds):
    _, test = train_test_split(demo_ds, 0.01, seed=0)
    assert len(test) == 1


def test_split_bounds(demo_ds):
    with pytest.raises(DataError, match="test_fraction"):
        train_test_split(demo_ds, 0.0, seed=0)
    with pytest.raises(DataError, match="test_fraction"):
        train_test_split(demo_ds, 1.0, seed=0)
    tiny = Dataset(
        features=demo_ds.features,
        rows=demo_ds.rows[:2],
        labels=demo_ds.labels[:2],
        classes=demo_ds.classes,
    )
    with pytest.raises(DataError, match="no training rows"):
        train_test_split(tiny, 0.9, seed=0)
