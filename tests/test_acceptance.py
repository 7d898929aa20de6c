"""End-to-end acceptance checks, one test per criterion.

Criteria 5-7 share one full synthetic pipeline run (5000 listings,
8 cities, leaf-wise GBDT with 1000 trees) through the real CLI; the
fixture records the training wall time so the runtime budget is part of
the assertion. Criterion 8 only runs when BNBPRICE_REAL_DATA_DIR points
at real per-city CSV snapshots.
"""

import csv
import io
import json
import math
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bnbprice import evalreport, geofeat, ingest, serialize, synth, transform
from bnbprice.cli import main
from bnbprice.models import gbdt, grid, mlp, registry, ridge
from bnbprice.textfeat import (build_vocab, fit_description_direction,
                               lexicon_from_entries, listing_sentiment,
                               score_review, tfidf_vector)
from conftest import make_listing
from test_geofeat import haversine_km
from test_models_gbdt import brute_force_split, hand_params
from test_models_mlp import max_relative_error, numeric_grads, random_network


REAL_DATA_DIR = os.environ.get("BNBPRICE_REAL_DATA_DIR")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Synth -> ingest -> train through the CLI, single-threaded."""
    tmp = tmp_path_factory.mktemp("acceptance")
    data = tmp / "data"
    out = tmp / "out"
    assert main(["synth", "--n", "5000", "--cities", "8",
                 "--noise-sigma", "0.15", "--seed", "1",
                 "--out", str(data)]) == 0
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "cities": {"synth": {"listings": str(data / "listings.csv"),
                             "reviews": str(data / "reviews.csv")}},
        "out": str(out),
        "seed": 1,
        "k_clusters": 20,
        "models": [{"kind": "gbdt", "growth": "leaf_wise"},
                   {"kind": "ridge", "lambda": 1.0}],
    }))
    assert main(["ingest", "--config", str(config)]) == 0
    started = time.monotonic()
    assert main(["train", "--config", str(config)]) == 0
    elapsed = time.monotonic() - started
    return SimpleNamespace(tmp=tmp, data=data, out=out, config=config,
                           train_seconds=elapsed)


def test_criterion_1_formula_oracles():
    # haversine: LA<->SF against an independently computed distance,
    # antipodal arc = half the sphere circumference
    la_sf = haversine_km((34.0522, -118.2437), (37.7749, -122.4194))
    assert abs(la_sf - 559.0) <= 1.0
    assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
        math.pi * 6371.0, abs=1e-6)
    assert math.pi * 6371.0 == pytest.approx(20015.1, abs=0.1)

    # review scoring by hand: (3-2)/2/3 and saturation at 1
    lex = lexicon_from_entries({"great": 3, "dirty": -2, "good": 3})
    assert score_review("great place but dirty bathroom", lex) == pytest.approx(
        1.0 / 6.0, abs=1e-12)
    assert abs(score_review("great place but dirty bathroom", lex) - 0.1667) < 1e-4
    assert score_review("good good good", lex) == 1.0
    mean, count = listing_sentiment(
        ["great place but dirty bathroom", "good good good"], lex)
    assert count == 2
    assert mean == pytest.approx(7.0 / 12.0, abs=1e-12)
    assert abs(mean - 0.58335) < 1e-4

    # tf-idf chain on the two-document corpus, hand numbers to 1e-5
    vocab = build_vocab(["cozy beach house", "beach condo"], 1, 10, frozenset())
    assert tuple(vocab.terms) == ("beach", "condo", "cozy", "house")
    idf = dict(zip(vocab.terms, vocab.idf))
    assert idf["beach"] == pytest.approx(1.0, abs=1e-12)
    assert idf["cozy"] == pytest.approx(1.405465, abs=1e-5)
    assert idf["cozy"] == pytest.approx(math.log(1.5) + 1.0, abs=1e-12)
    vec = tfidf_vector("cozy beach house", vocab)
    pre_norm = np.array([1.0, 0.0, math.log(1.5) + 1.0, math.log(1.5) + 1.0])
    length = float(np.linalg.norm(pre_norm))
    assert length == pytest.approx(2.22501, abs=1e-5)
    assert vec[0] == pytest.approx(0.44944, abs=1e-5)
    assert np.allclose(vec, pre_norm / length, atol=1e-12)
    assert tuple(build_vocab(["cozy beach house", "beach condo"], 2, 10,
                             frozenset()).terms) == ("beach",)
    single = tfidf_vector("beach beach", vocab)
    assert single[0] == 1.0 and float(np.abs(single[1:]).sum()) == 0.0

    # price direction: dearer beach doc pulls beach positive, condo negative
    direction = fit_description_direction(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([math.log(400.0), math.log(100.0)]))
    w = np.asarray(direction.weights, dtype=float)
    assert w[0] > 0.0 > w[1]
    assert abs(w[0]) == pytest.approx(abs(w[1]), rel=1e-12)

    # k-means determinism: same seed twice is bit-identical
    pts = np.random.RandomState(0).rand(1000, 2) * 10.0
    km_a = geofeat.kmeans_fit(pts, 10, "euclidean", seed=5)
    km_b = geofeat.kmeans_fit(pts, 10, "euclidean", seed=5)
    assert np.array_equal(km_a.centroids, km_b.centroids)

    # neighbourhood popularity ln(1 + 50)
    stats = geofeat.NeighbourhoodStats(categories=("Mission", "other"),
                                       counts={"Mission": 50})
    pop = geofeat.neighbourhood_popularity(make_listing(1, neighbourhood="Mission"),
                                           stats)
    assert pop == pytest.approx(math.log(51.0), abs=1e-12)
    assert pop == pytest.approx(3.93183, abs=1e-5)

    # scalers: population std, interpolated quartiles, robust application
    st = transform.fit_scaler([2.0, 4.0, 6.0], "standard")
    assert st.b == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
    assert st.b == pytest.approx(1.63299, abs=1e-5)
    rb = transform.fit_scaler([1.0, 2.0, 3.0, 4.0, 100.0], "robust")
    assert (rb.a, rb.b) == (3.0, 2.0)
    assert transform.apply_scaler(100.0, rb) == 48.5

    # host experience months, day-of-month rule
    import datetime
    since = datetime.date(2019, 1, 15)
    assert transform.host_experience_months(since, datetime.date(2021, 1, 15)) == (24, 0)
    assert transform.host_experience_months(since, datetime.date(2021, 1, 14)) == (23, 0)

    # log price
    assert transform.log_price(100.0) == pytest.approx(4.60517, abs=1e-5)

    # ridge closed form at lambda 1: w = Sxy/(Sxx+1) = 4/3, c = 4 - (4/3)*2
    model = ridge.ridge_fit([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], 1.0)
    assert model.coefficients[0] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert model.intercept == pytest.approx(4.0 / 3.0, abs=1e-9)

    # gbdt single-round hand trace, exact arithmetic
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    hand = gbdt.gbdt_fit(X, y, hand_params())
    assert hand.base_score == 5.0
    assert hand.feature_gain[0] == 100.0
    assert np.array_equal(gbdt.gbdt_predict(hand, X), y)
    assert gbdt.gbdt_predict(hand, np.array([[1.0]]))[0] == 10.0
    slow = gbdt.gbdt_fit(X, y, hand_params(learning_rate=0.1))
    assert np.array_equal(gbdt.gbdt_predict(slow, X),
                          np.array([4.5, 4.5, 5.5, 5.5]))
    assert gbdt.find_best_split([0, 1, 2, 3], X, y - 5.0, hand_params()) == (
        0, 0.5, 100.0)

    # gbdt importance when only feature 0 can split
    X2 = np.column_stack([X[:, 0], np.full(4, 3.0)])
    only = gbdt.gbdt_fit(X2, y, hand_params(n_estimators=2))
    entries = evalreport.feature_importance(only, ["a", "b"])
    assert entries[0].feature == "a" and entries[0].score == 1.0
    assert entries[1].score == 0.0

    # mlp: finite-difference gradient oracle on a 3-2-1 network
    rng = np.random.RandomState(42)
    weights = [rng.randn(3, 2) * 0.7, rng.randn(2, 1) * 0.7]
    biases = [rng.randn(2) * 0.3, rng.randn(1) * 0.3]
    Xn = rng.randn(5, 3)
    yn = rng.randn(5)
    _, gw, gb = mlp.loss_and_grads(weights, biases, Xn, yn)
    assert max_relative_error((gw, gb), numeric_grads(weights, biases, Xn, yn)) < 1e-4

    # mlp convergence on y = 2x
    Xc = np.random.RandomState(42).uniform(-1.0, 1.0, size=(200, 1))
    yc = 2.0 * Xc[:, 0]
    net = mlp.mlp_fit(Xc, yc, layer_sizes=(1, 8, 1), epochs=500,
                      batch_size=256, step_size=0.01, seed=0)
    assert float(np.mean((mlp.mlp_predict(net, Xc) - yc) ** 2)) < 1e-2

    # grid search prefers lambda 0 on exactly-linear data
    lin_rng = np.random.RandomState(1)
    XL = lin_rng.uniform(-2.0, 2.0, size=(80, 1))
    yL = 3.0 * XL[:, 0] + 1.0
    train = transform.FeatureMatrix(XL[:60], [], yL[:60], list(range(60)))
    val = transform.FeatureMatrix(XL[60:], [], yL[60:], list(range(60, 80)))
    best, _, _ = grid.grid_search("ridge", {"lambda": [0.0, 1e9]}, train, val)
    assert best == {"lambda": 0.0}


def test_criterion_2_split_oracle_equivalence():
    rng = np.random.RandomState(7)
    started = time.monotonic()
    trials = 0
    for _ in range(60):
        n = rng.randint(2, 200)
        m = rng.randint(1, 6)
        X = rng.randn(n, m)
        for j in range(m):
            if rng.rand() < 0.5:
                X[:, j] = rng.randint(0, rng.choice([2, 3, 5]), size=n).astype(float)
        r = rng.randn(n)
        if rng.rand() < 0.3:
            r = np.round(r, 3)
        params = gbdt.GbdtParams(
            n_estimators=1, learning_rate=1.0, growth="depth_wise", max_depth=1,
            min_samples_leaf=int(rng.choice([1, 2, 5, 20])),
            alpha=0.0,
            lam=float(rng.choice([0.0, 0.5, 1.0, 3.0])),
            min_gain=float(rng.choice([0.0, 0.1])))
        rows = list(range(n))
        assert gbdt.find_best_split(rows, X, r, params) == \
            brute_force_split(rows, X, r, params)
        trials += 1
    assert trials >= 50
    assert time.monotonic() - started < 30.0


def test_criterion_3_boosting_monotonicity():
    rng = np.random.RandomState(11)
    started = time.monotonic()
    for trial in range(10):
        n = rng.randint(150, 400)
        m = rng.randint(3, 9)
        X = rng.randn(n, m)
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.2 * rng.randn(n)
        for growth in ("depth_wise", "leaf_wise"):
            params = gbdt.GbdtParams(
                n_estimators=100, learning_rate=0.3, growth=growth,
                max_depth=3, num_leaves=8, min_samples_leaf=5,
                alpha=0.1, lam=1.0)
            model = gbdt.gbdt_fit(X, y, params)
            assert len(model.train_mse) == 100
            for before, after in zip(model.train_mse, model.train_mse[1:]):
                assert after <= before * (1.0 + 1e-9) + 1e-12
    assert time.monotonic() - started < 60.0


def test_criterion_4_mlp_gradient_check():
    for seed in range(20):
        weights, biases, X, y = random_network(seed)
        _, gw, gb = mlp.loss_and_grads(weights, biases, X, y)
        numeric = numeric_grads(weights, biases, X, y)
        assert max_relative_error((gw, gb), numeric) < 1e-4, "network %d" % seed


def _test_split_scores(e2e):
    """Observed log prices, truth values and model r2 scores on the test split."""
    report = serialize.load_file(e2e.out / "report.json")
    dataset = ingest.dataset_from_doc(serialize.load_file(e2e.out / "dataset.json"))
    with open(e2e.data / "truth.csv", encoding="utf-8") as fh:
        truth = {int(row["id"]): float(row["ln_price_true"])
                 for row in csv.DictReader(fh)}
    split = evalreport.split_dataset(len(dataset.listings), (0.8, 0.1, 0.1),
                                     report["config"]["seed"])
    y_obs = np.array([math.log(dataset.listings[i].price_usd) for i in split.test])
    y_true = np.array([truth[dataset.listings[i].id] for i in split.test])
    return report, y_obs, y_true


def test_criterion_5_synthetic_end_to_end(e2e):
    report, y_obs, y_true = _test_split_scores(e2e)
    # attainable ceiling: score the noiseless truth as if it were a model
    sse = float(np.sum((y_obs - y_true) ** 2))
    sst = float(np.sum((y_obs - y_obs.mean()) ** 2))
    ceiling = 1.0 - sse / sst
    by_kind = {m["kind"]: m for m in report["models"]}
    r2_gbdt = by_kind["gbdt"]["test"]["r2"]
    r2_ridge = by_kind["ridge"]["test"]["r2"]
    assert by_kind["gbdt"]["params"]["growth"] == "leaf_wise"
    assert by_kind["gbdt"]["params"]["n_estimators"] == 1000
    assert by_kind["gbdt"]["params"]["learning_rate"] == 0.1
    assert by_kind["gbdt"]["params"]["alpha"] == 0.5
    assert 0.0 < ceiling <= 1.0
    assert r2_gbdt >= 0.9 * ceiling, (r2_gbdt, ceiling)
    assert r2_gbdt > r2_ridge, (r2_gbdt, r2_ridge)
    assert e2e.train_seconds < 300.0, e2e.train_seconds


def test_criterion_6_engineered_feature_importance(e2e):
    pipeline = transform.pipeline_from_doc(
        serialize.load_file(e2e.out / "pipeline.json"))
    model = registry.model_from_doc(
        serialize.load_file(e2e.out / "model_0_gbdt.json"))
    names = pipeline.columns
    gain = {name: g for name, g in zip(names, model.feature_gain)}
    cluster_total = sum(g for name, g in gain.items()
                        if name.startswith("cluster_"))
    assert cluster_total > 0.0
    assert gain["sentiment_mean"] > 0.0
    assert gain["description_score"] > 0.0


def test_criterion_7_thread_count_determinism(e2e):
    watched = ["report.json", "importance.csv", "pipeline.json",
               "model_0_gbdt.json", "model_1_ridge.json", "dataset.json"]
    before = {name: (e2e.out / name).read_bytes() for name in watched}
    assert main(["ingest", "--config", str(e2e.config), "--threads", "4"]) == 0
    assert main(["train", "--config", str(e2e.config), "--threads", "4"]) == 0
    for name in watched:
        assert (e2e.out / name).read_bytes() == before[name], name


@pytest.mark.skipif(not REAL_DATA_DIR,
                    reason="BNBPRICE_REAL_DATA_DIR not set; optional real-data run")
def test_criterion_8_real_data_ballpark(tmp_path):
    """Informational run against user-supplied InsideAirbnb snapshots.

    Expects <BNBPRICE_REAL_DATA_DIR>/<city>/listings.csv plus reviews.csv
    per city directory. The leaf-wise model should reach test r2 >= 0.5
    in log space.
    """
    root = Path(REAL_DATA_DIR)
    cities = {}
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        listings = sub / "listings.csv"
        reviews = sub / "reviews.csv"
        if listings.exists() and reviews.exists():
            cities[sub.name] = {"listings": str(listings),
                                "reviews": str(reviews)}
    assert cities, "no <city>/listings.csv + reviews.csv pairs under %s" % root
    out = tmp_path / "real_out"
    config = tmp_path / "real_config.json"
    config.write_text(json.dumps({
        "cities": cities,
        "out": str(out),
        "seed": 1,
        "models": [{"kind": "gbdt", "growth": "leaf_wise"}],
    }))
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    report = serialize.load_file(out / "report.json")
    assert report["models"][0]["test"]["r2"] >= 0.5
