import datetime
import math

import numpy as np
import pytest

from bnbprice import transform
from bnbprice.config import PipelineConfig
from bnbprice.textfeat import lexicon_from_entries
from conftest import make_dataset, make_listing, make_review
from reference_assembly import label_encode, one_hot, reference_matrix


LEXICON = lexicon_from_entries({"great": 3, "dirty": -2, "good": 1})


def small_config(**kw):
    base = dict(k_clusters=2, min_df=1, max_terms=20, top_n_neighbourhoods=3,
                seed=0)
    base.update(kw)
    return PipelineConfig(**base)


def fitted_small():
    listings = [
        make_listing(1, latitude=34.0, longitude=-118.0, price_usd=100.0,
                     neighbourhood="Mission", description="cozy beach house"),
        make_listing(2, latitude=34.01, longitude=-118.01, price_usd=220.0,
                     neighbourhood="Mission", description="beach condo"),
        make_listing(3, latitude=37.7, longitude=-122.4, price_usd=90.0,
                     neighbourhood="Alamo", description="quiet garden flat"),
        make_listing(4, latitude=37.71, longitude=-122.41, price_usd=150.0,
                     neighbourhood="Soma", description="sunny loft beach"),
    ]
    reviews = [make_review(1, 10, "great and good"),
               make_review(1, 11, "dirty"),
               make_review(3, 12, "good good")]
    dataset = make_dataset(listings, reviews)
    cfg = small_config()
    fitted = transform.fit_pipeline(dataset, range(4), cfg, LEXICON, frozenset())
    return dataset, cfg, fitted


def test_scaler_fit_hand_examples():
    mm = transform.fit_scaler([0.0, 5.0, 10.0], "minmax")
    assert (mm.a, mm.b) == (0.0, 10.0)
    st = transform.fit_scaler([2.0, 4.0, 6.0], "standard")
    assert st.a == 4.0
    assert st.b == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-9)
    assert st.b == pytest.approx(1.63299, abs=1e-5)
    rb = transform.fit_scaler([1.0, 2.0, 3.0, 4.0, 100.0], "robust")
    assert (rb.a, rb.b) == (3.0, 2.0)


def test_scaler_apply_hand_examples():
    mm = transform.ScalerParams("minmax", 0.0, 10.0)
    assert transform.apply_scaler(5.0, mm) == 0.5
    rb = transform.ScalerParams("robust", 3.0, 2.0)
    assert transform.apply_scaler(100.0, rb) == 48.5


def test_scaler_zero_spread_and_empty():
    flat = transform.fit_scaler([7.0, 7.0, 7.0], "standard")
    assert transform.apply_scaler(9.0, flat) == 0.0
    flat_mm = transform.fit_scaler([7.0, 7.0], "minmax")
    assert transform.apply_scaler(9.0, flat_mm) == 0.0
    with pytest.raises(ValueError, match="empty column"):
        transform.fit_scaler([], "standard")
    with pytest.raises(ValueError):
        transform.fit_scaler([1.0], "nope")


def test_robust_quantiles_interpolate():
    # quartiles of [1,2,3,4] sit at positions 0.75 and 2.25
    rb = transform.fit_scaler([1.0, 2.0, 3.0, 4.0], "robust")
    assert rb.a == pytest.approx(2.5)
    assert rb.b == pytest.approx((3.0 + 0.25) - (1.0 + 0.75))


def test_one_hot_and_unseen_goes_to_other():
    cats = ("Mission", "Alamo", "other")
    assert one_hot("Alamo", cats) == [0.0, 1.0, 0.0]
    assert one_hot("Nowhere", cats) == [0.0, 0.0, 1.0]
    dataset, cfg, fitted = fitted_small()
    rows = make_dataset([make_listing(7, neighbourhood="Alamo"),
                         make_listing(8, neighbourhood="Nowhere")])
    matrix = transform.assemble_matrix(rows, range(2), fitted)
    block = [i for i, n in enumerate(matrix.columns) if n.startswith("neighbourhood=")]
    names = [matrix.columns[block[j]] for j in matrix.values[:, block].argmax(axis=1)]
    assert names == ["neighbourhood=Alamo", "neighbourhood=other"]
    assert np.array_equal(matrix.values[:, block].sum(axis=1), [1.0, 1.0])


def test_label_encode_rank_and_missing():
    levels = ("Shared room", "Private room", "Entire home/apt")
    assert label_encode("Private room", levels) == (1, 0)
    assert label_encode(None, levels) == (-1, 1)
    assert label_encode("Castle", levels) == (-1, 1)
    dataset, cfg, fitted = fitted_small()
    rows = make_dataset([make_listing(7, room_type=level)
                         for level in ("Private room", None, "Castle")])
    matrix = transform.assemble_matrix(rows, range(3), fitted)
    rank = matrix.columns.index("room_type_rank")
    assert matrix.values[:, rank:rank + 2].tolist() == [
        [float(fitted.room_type_levels.index("Private room")), 0.0], [-1.0, 1.0], [-1.0, 1.0]]


def test_host_experience_day_of_month_rule():
    snap_hit = datetime.date(2021, 1, 15)
    snap_miss = datetime.date(2021, 1, 14)
    since = datetime.date(2019, 1, 15)
    assert transform.host_experience_months(since, snap_hit) == (24, 0)
    assert transform.host_experience_months(since, snap_miss) == (23, 0)
    assert transform.host_experience_months(None, snap_hit) == (0, 1)
    future = datetime.date(2022, 6, 1)
    assert transform.host_experience_months(future, snap_hit) == (0, 1)


def test_log_price_round_trip():
    assert transform.log_price(100.0) == pytest.approx(4.60517, abs=1e-5)
    for p in (0.5, 1.0, 99.99, 12345.0):
        y = transform.log_price(p)
        assert math.exp(y) == pytest.approx(p, rel=1e-12)


def test_resolve_snapshot_date_priority():
    listings = [make_listing(1, host_since=datetime.date(2018, 5, 1))]
    with_reviews = make_dataset(listings, [make_review(1, 5, "x", datetime.date(2021, 9, 9))])
    assert transform.resolve_snapshot_date(with_reviews, datetime.date(2020, 1, 1)) == datetime.date(2020, 1, 1)
    assert transform.resolve_snapshot_date(with_reviews, None) == datetime.date(2021, 9, 9)
    no_reviews = make_dataset(listings)
    assert transform.resolve_snapshot_date(no_reviews, None) == datetime.date(2018, 5, 1)
    bare = make_dataset([make_listing(1, host_since=None)])
    assert transform.resolve_snapshot_date(bare, None) == datetime.date(1970, 1, 1)


def test_assembled_matrix_shape_and_column_order():
    dataset, cfg, fitted = fitted_small()
    matrix = transform.assemble_matrix(dataset, range(4), fitted)
    names = matrix.columns
    assert matrix.values.shape == (4, len(names))
    assert names[0] == "accommodates"
    assert names[1] == "availability_365"
    assert "accommodates_missing" not in names
    assert "sentiment_mean" in names
    assert "cluster_0" in names and "cluster_1" in names
    assert names.index("sentiment_mean") < names.index("description_score")
    assert names.index("description_score") < names.index("cluster_0")
    assert any(n.startswith("neighbourhood=") for n in names)
    assert names[-1] == "room_type_missing"
    assert np.isfinite(matrix.values).all()


def test_sentiment_columns_match_lexicon_math():
    dataset, cfg, fitted = fitted_small()
    matrix = transform.assemble_matrix(dataset, range(4), fitted)
    names = matrix.columns
    s = names.index("sentiment_mean")
    c = names.index("review_count")
    # listing 1: reviews score (3+1)/2/3 and -2/1/3 -> mean of the pair
    expected = ((4 / 2) / 3 + (-2 / 1) / 3) / 2
    assert matrix.values[0, s] == pytest.approx(expected, abs=1e-12)
    assert matrix.values[0, c] == 2.0
    assert matrix.values[1, s] == 0.0
    assert matrix.values[1, c] == 0.0


def test_cluster_one_hot_is_exactly_one():
    dataset, cfg, fitted = fitted_small()
    matrix = transform.assemble_matrix(dataset, range(4), fitted)
    names = matrix.columns
    block = [i for i, n in enumerate(names) if n.startswith("cluster_")]
    sums = matrix.values[:, block].sum(axis=1)
    assert np.array_equal(sums, np.ones(4))
    # the two southern listings share a cluster, the two northern share the other
    labels = matrix.values[:, block].argmax(axis=1)
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_imputation_uses_train_median_and_flags():
    listings = [make_listing(1, bedrooms=1.0), make_listing(2, bedrooms=2.0),
                make_listing(3, bedrooms=4.0), make_listing(4, bedrooms=None)]
    dataset = make_dataset(listings)
    cfg = small_config()
    fitted = transform.fit_pipeline(dataset, range(3), cfg, LEXICON, frozenset())
    assert fitted.medians["bedrooms"] == 2.0
    matrix = transform.assemble_matrix(dataset, [3], fitted)
    names = matrix.columns
    b = names.index("bedrooms")
    f = names.index("bedrooms_missing")
    scaled_median = transform.apply_scaler(2.0, fitted.scalers["bedrooms"])
    assert matrix.values[0, b] == scaled_median
    assert matrix.values[0, f] == 1.0


def test_fit_apply_separation_unseen_neighbourhood():
    dataset, cfg, fitted = fitted_small()
    extra = make_listing(99, latitude=34.0, longitude=-118.0,
                         neighbourhood="Brand New Area")
    bigger = make_dataset(list(dataset.listings) + [extra])
    matrix = transform.assemble_matrix(bigger, [4], fitted)
    names = matrix.columns
    other = names.index("neighbourhood=other")
    pop = names.index("neighbourhood_popularity")
    assert matrix.values[0, other] == 1.0
    assert matrix.values[0, pop] == 0.0  # unseen name has zero training count


def test_pipeline_doc_round_trip_preserves_features():
    dataset, cfg, fitted = fitted_small()
    doc = transform.pipeline_to_doc(fitted)
    back = transform.pipeline_from_doc(doc)
    a = transform.assemble_matrix(dataset, range(4), fitted)
    b = transform.assemble_matrix(dataset, range(4), back)
    assert np.array_equal(a.values, b.values)
    assert a.columns == b.columns
    assert "columns" not in doc
    with pytest.raises(ValueError):
        transform.pipeline_from_doc({**doc, "schema_version": 99})
    with pytest.raises(ValueError, match="schema_version 1"):
        transform.pipeline_from_doc({**doc, "schema_version": 1})


def test_fit_pipeline_fits_on_train_rows_only():
    dataset, cfg, _ = fitted_small()
    fitted = transform.fit_pipeline(dataset, [0, 1], cfg, LEXICON, frozenset())
    # neighbourhood stats must only know the two train rows
    assert set(fitted.neighbourhoods.counts) == {"Mission"}
    assert fitted.neighbourhoods.counts["Mission"] == 2


def assert_matches_reference(dataset, indices, fitted):
    matrix = transform.assemble_matrix(dataset, indices, fitted)
    values, target, columns = reference_matrix(dataset, indices, fitted)
    assert matrix.columns == columns == list(fitted.columns)
    assert matrix.values.shape == values.shape
    assert matrix.values.tobytes() == values.tobytes()
    if target is None:
        assert matrix.target is None
    else:
        assert matrix.target.tobytes() == target.tobytes()
    assert matrix.ids == [dataset.listings[i].id for i in indices]
    return matrix


def branch_dataset():
    """Training rows plus rows that reach every branch of every block."""
    train = [make_listing(i, latitude=34.0 + 0.3 * (i % 3), longitude=-118.0 - 0.2 * (i % 4),
                          price_usd=50.0 + 17.0 * i, bedrooms=float(i % 3),
                          availability_365=30 * i, reviews_per_month=0.25 * i,
                          host_is_superhost=i % 2 == 0,
                          host_since=datetime.date(2010 + i % 7, 1 + i % 12, 1 + i % 28),
                          neighbourhood=("Mission", "Alamo", "Soma", None)[i % 4],
                          room_type=("Private room", "Entire home/apt", "Shared room")[i % 3],
                          description="sunny beach loft %d" % (i % 5))
             for i in range(1, 13)]
    unusual = [
        make_listing(101, availability_365=None, reviews_per_month=None, bedrooms=None,
                     host_is_superhost=None, host_since=None, neighbourhood=None,
                     room_type=None, description=""),
        make_listing(102, neighbourhood="Nowhere Heights", room_type="Castle"),
        make_listing(103, host_since=datetime.date(2099, 1, 1)),
        make_listing(104, description="beach beach beach unseenword"),
        make_listing(105, price_usd=None),
    ]
    reviews = [make_review(i, 1000 + i, ("great good", "dirty", "")[i % 3])
               for i in range(1, 13) if i % 4]
    reviews.append(make_review(104, 2000, "great and dirty"))
    return make_dataset(train + unusual, reviews)


@pytest.mark.parametrize("metric", ["euclidean", "haversine"])
def test_blocks_match_reference_bit_for_bit(metric):
    dataset = branch_dataset()
    cfg = small_config(k_clusters=3, geo_metric=metric, top_n_neighbourhoods=2,
                       snapshot_date=datetime.date(2021, 6, 30))
    fitted = transform.fit_pipeline(dataset, range(12), cfg, LEXICON, frozenset())
    assert_matches_reference(dataset, range(12), fitted)
    n = len(dataset.listings)
    matrix = assert_matches_reference(dataset, range(12, n - 1), fitted)
    flags = [name for name in matrix.columns if name.endswith("_missing")]
    assert flags == ["availability_365_missing", "reviews_per_month_missing",
                     "bedrooms_missing", "host_since_missing", "room_type_missing"]
    assert matrix.values[0, [matrix.columns.index(f) for f in flags]].tolist() == [1.0] * 5
    unpriced = assert_matches_reference(dataset, range(n), fitted)
    assert unpriced.target is None
    empty = assert_matches_reference(dataset, [], fitted)
    assert empty.values.shape == (0, len(fitted.columns))
    assert empty.target.shape == (0,)


def test_zero_spread_scaler_matches_reference():
    listings = [make_listing(i, bedrooms=2.0, availability_365=90, price_usd=80.0 + i)
                for i in range(1, 7)]
    dataset = make_dataset(listings + [make_listing(50, bedrooms=None, availability_365=5)])
    cfg = small_config(scaler_map={"bedrooms": "minmax", "availability_365": "robust"})
    fitted = transform.fit_pipeline(dataset, range(6), cfg, LEXICON, frozenset())
    assert fitted.scalers["bedrooms"].a == fitted.scalers["bedrooms"].b
    assert fitted.scalers["availability_365"].b == 0.0
    matrix = assert_matches_reference(dataset, range(7), fitted)
    for name in ("bedrooms", "availability_365"):
        assert not matrix.values[:, matrix.columns.index(name)].any()
