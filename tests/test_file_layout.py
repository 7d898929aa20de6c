"""The key layout of pipeline.json, of each kind's model file and of dataset.json.

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

from bnbprice import ingest, serialize, transform
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
