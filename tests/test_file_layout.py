"""The key layout of pipeline.json, of each kind's model file, of report.json and of
dataset.json.

Each file is written from its dataclasses, and field order is file
order, so a reordered or renamed field would change the bytes of every
file. The golden lists below were written by the hand-written writers
that the dataclasses replaced. Every key path, at every depth, must stay
where it was, and so must every column of a dataset.json row.
"""

import dataclasses
import datetime
import json

import numpy as np
import pytest

from bnbprice import cli, ingest, serialize, transform
from bnbprice.models import fit_model, model_to_doc
from test_transform import fitted_small


def key_paths(doc, prefix=""):
    """Every object key as a /-joined path in file order; list items that are
    objects are entered by index."""
    paths = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = "%s/%s" % (prefix, key)
        if isinstance(doc, dict):
            paths.append(path)
        if isinstance(value, dict) or (isinstance(value, list)
                                       and any(isinstance(v, dict) for v in value)):
            paths += key_paths(value, path)
    return paths


def on_disk(doc):
    return json.loads(serialize.dumps(doc))


PIPELINE = [
    "/schema_version", "/lexicon", "/lexicon/entries", "/lexicon/entries/great",
    "/lexicon/entries/dirty", "/lexicon/entries/good", "/lexicon/max_abs", "/vocab",
    "/vocab/terms", "/vocab/idf", "/vocab/doc_count", "/direction", "/direction/weights",
    "/direction/norm", "/clusters", "/clusters/centroids", "/clusters/metric", "/clusters/k",
    "/clusters/seed", "/clusters/iterations_run", "/neighbourhoods", "/neighbourhoods/categories",
    "/neighbourhoods/counts", "/neighbourhoods/counts/Mission", "/neighbourhoods/counts/Alamo",
    "/neighbourhoods/counts/Soma", "/scalers", "/scalers/accommodates",
    "/scalers/accommodates/kind", "/scalers/accommodates/a", "/scalers/accommodates/b",
    "/scalers/availability_365", "/scalers/availability_365/kind", "/scalers/availability_365/a",
    "/scalers/availability_365/b", "/scalers/reviews_per_month", "/scalers/reviews_per_month/kind",
    "/scalers/reviews_per_month/a", "/scalers/reviews_per_month/b", "/scalers/bedrooms",
    "/scalers/bedrooms/kind", "/scalers/bedrooms/a", "/scalers/bedrooms/b",
    "/scalers/host_experience_months", "/scalers/host_experience_months/kind",
    "/scalers/host_experience_months/a", "/scalers/host_experience_months/b", "/medians",
    "/medians/accommodates", "/medians/availability_365", "/medians/reviews_per_month",
    "/medians/bedrooms", "/room_type_levels", "/snapshot_date",
]

RIDGE = [
    "/schema_version", "/kind", "/pipeline_sha256", "/params", "/params/lambda", "/coefficients",
    "/intercept",
]

GBDT = [
    "/schema_version", "/kind", "/pipeline_sha256", "/params", "/params/n_estimators",
    "/params/learning_rate", "/params/growth", "/params/max_depth", "/params/num_leaves",
    "/params/min_samples_leaf", "/params/alpha", "/params/lambda", "/params/min_gain",
    "/n_features", "/base_score", "/feature_gain", "/trees", "/trees/0/feature",
    "/trees/0/threshold", "/trees/0/left", "/trees/0/right", "/trees/0/value", "/trees/1/feature",
    "/trees/1/threshold", "/trees/1/left", "/trees/1/right", "/trees/1/value",
]

MLP = [
    "/schema_version", "/kind", "/pipeline_sha256", "/params", "/params/layer_sizes", "/weights",
    "/biases",
]

REPORT = [
    "/schema_version", "/dataset_summary", "/dataset_summary/n_listings",
    "/dataset_summary/n_reviews", "/dataset_summary/cities", "/dataset_summary/n_features",
    "/split", "/split/seed", "/split/sizes", "/split/sizes/train", "/split/sizes/val",
    "/split/sizes/test", "/models", "/models/0/kind", "/models/0/params",
    "/models/0/params/lambda", "/models/0/train", "/models/0/train/mse", "/models/0/train/mae",
    "/models/0/train/r2", "/models/0/train/n", "/models/0/train/space", "/models/0/val",
    "/models/0/val/mse", "/models/0/val/mae", "/models/0/val/r2", "/models/0/val/n",
    "/models/0/val/space", "/models/0/test", "/models/0/test/mse", "/models/0/test/mae",
    "/models/0/test/r2", "/models/0/test/n", "/models/0/test/space", "/models/1/kind",
    "/models/1/params", "/models/1/params/n_estimators", "/models/1/params/learning_rate",
    "/models/1/params/growth", "/models/1/params/max_depth", "/models/1/params/num_leaves",
    "/models/1/params/min_samples_leaf", "/models/1/params/alpha", "/models/1/params/lambda",
    "/models/1/params/min_gain", "/models/1/train", "/models/1/train/mse",
    "/models/1/train/mae", "/models/1/train/r2", "/models/1/train/n", "/models/1/train/space",
    "/models/1/val", "/models/1/val/mse", "/models/1/val/mae", "/models/1/val/r2",
    "/models/1/val/n", "/models/1/val/space", "/models/1/test", "/models/1/test/mse",
    "/models/1/test/mae", "/models/1/test/r2", "/models/1/test/n", "/models/1/test/space",
    "/models/2/kind", "/models/2/params", "/models/2/params/hidden_sizes",
    "/models/2/params/epochs", "/models/2/params/batch_size", "/models/2/params/step_size",
    "/models/2/train", "/models/2/train/mse", "/models/2/train/mae", "/models/2/train/r2",
    "/models/2/train/n", "/models/2/train/space", "/models/2/val", "/models/2/val/mse",
    "/models/2/val/mae", "/models/2/val/r2", "/models/2/val/n", "/models/2/val/space",
    "/models/2/test", "/models/2/test/mse", "/models/2/test/mae", "/models/2/test/r2",
    "/models/2/test/n", "/models/2/test/space", "/grid", "/grid/0/model_index", "/grid/0/kind",
    "/grid/0/best_params", "/grid/0/best_params/lambda", "/grid/0/cells",
    "/grid/0/cells/0/params", "/grid/0/cells/0/params/lambda", "/grid/0/cells/0/val_mse",
    "/grid/0/cells/0/status", "/grid/0/cells/1/params", "/grid/0/cells/1/params/lambda",
    "/grid/0/cells/1/val_mse", "/grid/0/cells/1/status", "/config", "/config/cities",
    "/config/cities/a", "/config/cities/a/listings", "/config/cities/a/reviews",
    "/config/dataset", "/config/lexicon", "/config/stopwords", "/config/snapshot_date",
    "/config/k_clusters", "/config/geo_metric", "/config/kmeans_max_iter",
    "/config/kmeans_tol", "/config/top_n_neighbourhoods", "/config/min_df",
    "/config/max_terms", "/config/scaler_map", "/config/scaler_map/accommodates",
    "/config/scaler_map/availability_365", "/config/scaler_map/bedrooms",
    "/config/scaler_map/reviews_per_month", "/config/scaler_map/host_experience_months",
    "/config/room_type_levels", "/config/split_ratios", "/config/seed", "/config/models",
    "/config/models/0/kind", "/config/models/1/kind", "/config/models/1/n_estimators",
    "/config/models/2/kind", "/config/models/2/hidden_sizes", "/config/models/2/epochs",
    "/config/grid", "/config/grid/model", "/config/grid/params", "/config/grid/params/lambda",
    "/config/importance_top_n", "/config/cluster_svg", "/config/out",
]


def test_pipeline_keys_keep_their_order_at_every_depth():
    doc = on_disk(transform.pipeline_to_doc(fitted_small()[2]))
    assert key_paths(doc) == PIPELINE


@pytest.mark.parametrize("kind,params,golden", [
    ("ridge", {}, RIDGE),
    ("gbdt", {"n_estimators": 2, "max_depth": 2, "min_samples_leaf": 3}, GBDT),
    ("mlp", {"hidden_sizes": [4], "epochs": 1}, MLP),
])
def test_model_keys_keep_their_order_at_every_depth(kind, params, golden):
    rng = np.random.RandomState(4)
    X = rng.randn(30, 3)
    y = X @ np.array([1.0, -0.5, 0.25]) + 0.1 * rng.randn(30)
    assert key_paths(on_disk(model_to_doc(fit_model(kind, params, X, y), "0" * 64))) == golden


def train_report(tmp_path):
    """report.json of a train run with a ridge, a GBDT and an MLP entry and a grid over
    the ridge's lambda."""
    data = tmp_path / "data"
    assert cli.main(["synth", "--n", "120", "--cities", "2", "--seed", "3",
                     "--out", str(data)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cities": {"a": {"listings": str(data / "listings.csv"),
                         "reviews": str(data / "reviews.csv")}},
        "out": str(tmp_path / "out"), "k_clusters": 2, "min_df": 1, "cluster_svg": False,
        "models": [{"kind": "ridge"}, {"kind": "gbdt", "n_estimators": 2},
                   {"kind": "mlp", "hidden_sizes": [2], "epochs": 1}],
        "grid": {"model": 0, "params": {"lambda": [0.1, 1.0]}}}))
    for command in ("ingest", "train"):
        assert cli.main([command, "--config", str(config)]) == 0
    return serialize.load_file(tmp_path / "out" / "report.json")


def test_report_keys_keep_their_order_at_every_depth(tmp_path):
    assert key_paths(train_report(tmp_path)) == REPORT


def small_dataset():
    """Two listings, one with every optional field set to a distinct value and one with
    none, and two reviews of the first."""
    full = ingest.ListingRecord(
        id=7, city="Austin", latitude=30.25, longitude=-97.75, price_usd=120.5, accommodates=3,
        availability_365=200, reviews_per_month=1.25, host_is_superhost=True,
        host_since=datetime.date(2015, 6, 1), neighbourhood="Zilker", room_type="Private room",
        bedrooms=2.0, description="two\nlines")
    bare = ingest.ListingRecord(
        id=9, city="Austin", latitude=30.5, longitude=-97.5, price_usd=80.0, accommodates=1,
        availability_365=None, reviews_per_month=None, host_is_superhost=None, host_since=None,
        neighbourhood=None, room_type=None, bedrooms=None, description="")
    reviews = [ingest.ReviewRecord(listing_id=7, review_id=31, date=datetime.date(2021, 3, 14),
                                   comments="great"),
               ingest.ReviewRecord(listing_id=7, review_id=32, date=datetime.date(2021, 4, 1),
                                   comments="")]
    return ingest.join_dataset([full, bare], reviews, {"bad price": 2})


# written by the hand-listed dataset row writer that the record fields replaced
DATASET_KEYS = ["schema_version", "listings", "reviews", "drop_log"]
# id, city, latitude, longitude, price_usd, accommodates, availability_365,
# reviews_per_month, host_is_superhost, host_since, neighbourhood, room_type,
# bedrooms, description
LISTING_ROW = [7, "Austin", 30.25, -97.75, 120.5, 3, 200, 1.25, True, "2015-06-01", "Zilker",
               "Private room", 2.0, "two\nlines"]
# review_id, date, comments; the listing id is the key the rows are stored under
REVIEW_ROW = [31, "2021-03-14", "great"]
DATASET_BYTES = (
    b'{"schema_version":1,"listings":[[7,"Austin",30.25,-97.75,120.5,3,200,1.25,true,'
    b'"2015-06-01","Zilker","Private room",2.0,"two\\nlines"],[9,"Austin",30.5,-97.5,80.0,1,'
    b'null,null,null,null,null,null,null,""]],"reviews":{"7":[[31,"2021-03-14","great"],'
    b'[32,"2021-04-01",""]],"9":[]},"drop_log":{"bad price":2}}\n')


def test_dataset_rows_keep_their_columns_in_order():
    doc = on_disk(ingest.dataset_to_doc(small_dataset()))
    assert list(doc) == DATASET_KEYS
    assert doc["listings"][0] == LISTING_ROW
    assert doc["reviews"]["7"][0] == REVIEW_ROW


def test_dataset_bytes_round_trip(tmp_path):
    dataset = small_dataset()
    path = tmp_path / "dataset.json"
    assert serialize.dump_file(ingest.dataset_to_doc(dataset), path) == DATASET_BYTES
    back = ingest.dataset_from_doc(serialize.load_file(path))
    assert back == dataset
    assert [r.host_since for r in back.listings] == [datetime.date(2015, 6, 1), None]
    again = tmp_path / "again.json"
    assert serialize.dump_file(ingest.dataset_to_doc(back), again) == DATASET_BYTES


# The CSV columns each record field reads, in field order, and the columns a header must
# hold, as the csv.DictReader parsers that the tables replaced read them: their row.get
# calls on a full row (id, latitude, longitude, price, accommodates, availability_365, ...,
# description; neighbourhood when neighbourhood_cleansed is blank), with the coordinate
# pair read and range-checked together, and their LISTING_REQUIRED and REVIEW_REQUIRED
# put in field order.
LISTING_CSV_COLUMNS = [
    ("id", ["id"]), ("city", []), ("latitude", ["latitude", "longitude"]),
    ("longitude", ["longitude"]), ("price_usd", ["price"]), ("accommodates", ["accommodates"]),
    ("availability_365", ["availability_365"]), ("reviews_per_month", ["reviews_per_month"]),
    ("host_is_superhost", ["host_is_superhost"]), ("host_since", ["host_since"]),
    ("neighbourhood", ["neighbourhood_cleansed", "neighbourhood"]), ("room_type", ["room_type"]),
    ("bedrooms", ["bedrooms"]), ("description", ["description"]),
]
LISTING_HEADER_REQUIRED = ["id", "latitude", "longitude", "price", "accommodates", "description"]
REVIEW_CSV_COLUMNS = [("listing_id", ["listing_id"]), ("review_id", ["id"]), ("date", ["date"]),
                      ("comments", ["comments"])]
REVIEW_HEADER_REQUIRED = ["listing_id", "id", "date", "comments"]


@pytest.mark.parametrize("record,table,columns,required", [
    (ingest.ListingRecord, ingest.LISTING_CSV, LISTING_CSV_COLUMNS, LISTING_HEADER_REQUIRED),
    (ingest.ReviewRecord, ingest.REVIEW_CSV, REVIEW_CSV_COLUMNS, REVIEW_HEADER_REQUIRED),
], ids=["listings", "reviews"])
def test_csv_tables_read_their_columns_in_field_order(record, table, columns, required):
    assert [name for name, _ in columns] == [f.name for f in dataclasses.fields(record)]
    assert [(f.field, list(f.columns)) for f in table] == columns
    assert list(dict.fromkeys(name for f in table if f.required for name in f.columns)) == required
