import csv
import io
import math

import numpy as np
import pytest

from bnbprice import geofeat, ingest, synth
from bnbprice.textfeat import load_lexicon, score_review, tokenize


SMALL = synth.SynthSpec(n_listings=600, n_cities=8, seed=3, noise_sigma=0.15)


def rows_of(blob):
    return list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))


def test_generation_is_deterministic():
    a = synth.generate(SMALL)
    b = synth.generate(SMALL)
    assert a == b
    c = synth.generate(synth.SynthSpec(n_listings=600, n_cities=8, seed=4,
                                       noise_sigma=0.15))
    assert c != a


def test_spec_validation():
    with pytest.raises(ValueError, match="at least 100"):
        synth.generate(synth.SynthSpec(n_listings=50))
    with pytest.raises(ValueError):
        synth.generate(synth.SynthSpec(n_cities=0))
    with pytest.raises(ValueError):
        synth.generate(synth.SynthSpec(noise_sigma=-0.1))


def test_output_survives_ingest_with_zero_drops():
    listings_csv, reviews_csv, _ = synth.generate(SMALL)
    listings, ldrops = ingest.parse_listings(
        io.StringIO(listings_csv.decode("utf-8")), "synth")
    reviews, rdrops = ingest.parse_reviews(io.StringIO(reviews_csv.decode("utf-8")))
    assert ldrops == []
    assert rdrops == []
    assert len(listings) == 600
    dataset = ingest.join_dataset(listings, reviews)
    assert sum(len(v) for v in dataset.reviews_by_listing.values()) == len(reviews)


def test_review_templates_only_use_lexicon_tokens():
    lexicon = load_lexicon(synth.default_lexicon_path())
    pools = (synth._POSITIVE_REVIEWS, synth._NEGATIVE_REVIEWS,
             synth._MIXED_REVIEWS)
    for pool in pools:
        for template in pool:
            for token in tokenize(template):
                assert token in lexicon.entries, token


def test_truth_table_recomputed_exactly_from_csv():
    """Re-derive every listing's noiseless log price from the CSVs alone."""
    listings_csv, reviews_csv, truth_csv = synth.generate(SMALL)
    lexicon = load_lexicon(synth.default_lexicon_path())
    centers = synth.city_centers(SMALL.n_cities)
    offsets = synth.city_offsets(SMALL.n_cities)

    texts_by_listing = {}
    for row in rows_of(reviews_csv):
        texts_by_listing.setdefault(row["listing_id"], []).append(row["comments"])

    truth = {row["id"]: float(row["ln_price_true"]) for row in rows_of(truth_csv)}
    assert len(truth) == 600

    checked = 0
    for row in rows_of(listings_csv):
        lat, lon = float(row["latitude"]), float(row["longitude"])
        city = min(range(len(centers)),
                   key=lambda i: (lat - centers[i][0]) ** 2 + (lon - centers[i][1]) ** 2)
        tokens = tokenize(row["description"])
        if "luxury" in tokens:
            desc_signal = 1
        elif "budget" in tokens:
            desc_signal = -1
        else:
            desc_signal = 0
        texts = texts_by_listing.get(row["id"], [])
        if texts:
            sentiment = sum(score_review(t, lexicon) for t in texts) / len(texts)
        else:
            sentiment = 0.0
        ln_true = (synth.BASE_LOG_PRICE
                   + synth.ACCOMMODATES_COEF * math.log(int(row["accommodates"]))
                   + offsets[city]
                   + synth.SENTIMENT_COEF * sentiment
                   + synth.DESCRIPTION_COEF * desc_signal)
        assert ln_true == truth[row["id"]], "listing %s" % row["id"]
        checked += 1
    assert checked == 600


def test_noise_matches_declared_sigma():
    listings_csv, _, truth_csv = synth.generate(SMALL)
    truth = {row["id"]: float(row["ln_price_true"]) for row in rows_of(truth_csv)}
    eps = []
    for row in rows_of(listings_csv):
        price = float(row["price"].lstrip("$").replace(",", ""))
        eps.append(math.log(price) - truth[row["id"]])
    eps = np.asarray(eps)
    n = eps.size
    assert abs(eps.mean()) < 4.0 * SMALL.noise_sigma / math.sqrt(n) + 1e-3
    assert 0.12 < eps.std() < 0.18


def test_city_blobs_recoverable_by_clustering():
    listings_csv, _, _ = synth.generate(SMALL)
    pts = np.array([[float(r["latitude"]), float(r["longitude"])]
                    for r in rows_of(listings_csv)])
    model = geofeat.kmeans_fit(pts, 8, "euclidean", seed=0)
    for center in synth.city_centers(8):
        gap = np.min(np.hypot(model.centroids[:, 0] - center[0],
                              model.centroids[:, 1] - center[1]))
        assert gap < 0.1


def test_optional_fields_sometimes_absent_but_core_never():
    listings_csv, _, _ = synth.generate(SMALL)
    rows = rows_of(listings_csv)
    for field in ("bedrooms", "availability_365", "reviews_per_month",
                  "host_is_superhost", "host_since", "neighbourhood_cleansed",
                  "room_type"):
        blanks = sum(1 for r in rows if r[field] == "")
        assert 0 < blanks < len(rows) * 0.15, field
    for field in ("id", "price", "latitude", "longitude", "accommodates",
                  "description"):
        assert all(r[field] != "" for r in rows), field


def test_multiline_description_round_trips_through_csv():
    listings_csv, _, _ = synth.generate(SMALL)
    rows = rows_of(listings_csv)
    assert any("\n" in r["description"] for r in rows)
