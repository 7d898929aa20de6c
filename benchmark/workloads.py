"""Workload definitions and input set-up.

Every input comes from `bnbprice synth` with a seed derived from the
benchmark's --seed; the program only ever sees the generated files.
"""

import csv
import json
import math
from dataclasses import dataclass, field

CITIES = 8
NOISE_SIGMA = 0.15
# the fresh listings that predict scores come from their own synth run,
# so train never sees them
FRESH_SEED_OFFSET = 100000
# ingest commands per round: one ingest is about a second or less, so each
# round takes two samples of it
INGEST_REPEATS = 2
# synth's city grid: centre i sits at origin + (i // 3, i % 3) * step
CITY_GRID_ORIGIN = (33.5, -122.5)
CITY_GRID_STEP = 1.2


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int          # listings in the training snapshot
    n_fresh: int          # fresh listings sent to predict
    city_files: bool      # split the snapshot into one file pair per city
    threads: int          # ingest --threads; above 1, the first round also ingests at
                          # --threads 1 and requires byte-identical output
    blank_every: int      # blank the price of every n-th fresh listing (0: none)
    predict_model: str    # model file predict loads
    config: dict = field(default_factory=dict)


WORKLOADS = {
    # gbdt_fit's node scan and partition dominate; ingest and features are small
    "boost": Workload(
        name="boost", n_train=5000, n_fresh=10000, city_files=False, threads=1,
        blank_every=0, predict_model="model_0_gbdt.json",
        config={"k_clusters": 20,
                "models": [{"kind": "gbdt", "growth": "leaf_wise", "n_estimators": 35},
                           {"kind": "ridge", "lambda": 1.0}]}),
    # CSV parsing, the dataset JSON, k-means, text features and assembly; no GBDT
    "featurize": Workload(
        name="featurize", n_train=12000, n_fresh=8000, city_files=True, threads=2,
        blank_every=0, predict_model="model_0_ridge.json",
        config={"kmeans_max_iter": 25,
                "models": [{"kind": "ridge", "lambda": 1.0},
                           {"kind": "mlp", "hidden_sizes": [32], "epochs": 4}],
                "grid": {"model": 0, "params": {"lambda": [0.1, 1.0, 10.0]}}}),
    # forest predict, model load and apply-time assembly; many small nodes in train
    "score": Workload(
        name="score", n_train=2000, n_fresh=12000, city_files=False, threads=1,
        blank_every=20, predict_model="model_0_gbdt.json",
        config={"k_clusters": 20,
                "models": [{"kind": "gbdt", "growth": "depth_wise", "max_depth": 4,
                            "min_samples_leaf": 5, "n_estimators": 150}]}),
}


def synth_commands(w, seed):
    """CLI argument lists that make the training snapshot and the fresh listings."""
    common = ["--cities", str(CITIES), "--noise-sigma", repr(NOISE_SIGMA)]
    return [["synth", "--n", str(w.n_train), "--seed", str(seed), "--out", "data", *common],
            ["synth", "--n", str(w.n_fresh), "--seed", str(seed + FRESH_SEED_OFFSET),
             "--out", "fresh", *common]]


def _city_of(lat, lon):
    best, best_d = 0, math.inf
    for i in range(CITIES):
        clat = CITY_GRID_ORIGIN[0] + (i // 3) * CITY_GRID_STEP
        clon = CITY_GRID_ORIGIN[1] + (i % 3) * CITY_GRID_STEP
        d = (lat - clat) ** 2 + (lon - clon) ** 2
        if d < best_d:
            best, best_d = i, d
    return best


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def split_by_city(data_dir):
    """Rewrite one listings/reviews pair as one pair per city; returns the cities map."""
    lhead, listings = _read_rows(data_dir / "listings.csv")
    rhead, reviews = _read_rows(data_dir / "reviews.csv")
    lat, lon, lid = lhead.index("latitude"), lhead.index("longitude"), lhead.index("id")
    city = {}
    by_city = [[] for _ in range(CITIES)]
    for row in listings:
        c = _city_of(float(row[lat]), float(row[lon]))
        city[row[lid]] = c
        by_city[c].append(row)
    reviews_by_city = [[] for _ in range(CITIES)]
    rlid = rhead.index("listing_id")
    for row in reviews:
        reviews_by_city[city[row[rlid]]].append(row)
    cities = {}
    for c in range(CITIES):
        d = data_dir / ("city%d" % c)
        d.mkdir()
        _write_rows(d / "listings.csv", lhead, by_city[c])
        _write_rows(d / "reviews.csv", rhead, reviews_by_city[c])
        cities["city%d" % c] = {"listings": "data/city%d/listings.csv" % c,
                                "reviews": "data/city%d/reviews.csv" % c}
    return cities


def blank_prices(path, every):
    """Empty the price of every `every`-th listing."""
    header, rows = _read_rows(path)
    price = header.index("price")
    for i in range(every - 1, len(rows), every):
        rows[i][price] = ""
    _write_rows(path, header, rows)


def write_inputs(w, seed, round_dir):
    """Per-city files, blanked prices and config, after synth has run in round_dir."""
    data = round_dir / "data"
    if w.city_files:
        cities = split_by_city(data)
    else:
        cities = {"synth": {"listings": "data/listings.csv", "reviews": "data/reviews.csv"}}
    if w.blank_every:
        blank_prices(round_dir / "fresh" / "listings.csv", w.blank_every)
    config = {"cities": cities, "out": "out", "seed": seed, **w.config}
    with open(round_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
