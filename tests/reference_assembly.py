"""Test oracle: the per-row feature assembler that the declared blocks replaced.

It builds each row value by value with Python floats, in the column
order spelled out below, so `transform.assemble_matrix` can be checked
against it bit for bit.
"""

import math

import numpy as np

from bnbprice import geofeat, textfeat
from bnbprice.transform import apply_scaler, host_experience_months


def one_hot(label, categories):
    """0/1 vector with a single 1; unseen or absent labels hit "other"."""
    vec = [0.0] * len(categories)
    if label is None or label not in categories:
        idx = categories.index("other")
    else:
        idx = categories.index(label)
    vec[idx] = 1.0
    return vec


def label_encode(label, ordered_levels):
    """Rank of label in the configured level order; unseen or absent gives (-1, 1)."""
    if label is not None and label in ordered_levels:
        return ordered_levels.index(label), 0
    return -1, 1


def reference_columns(fitted):
    cols = ["accommodates"]
    for name in ("availability_365", "reviews_per_month", "bedrooms"):
        cols += [name, name + "_missing"]
    cols += ["sentiment_mean", "review_count", "description_score"]
    cols += ["cluster_%d" % j for j in range(fitted.clusters.k)]
    cols += ["neighbourhood=%s" % cat for cat in fitted.neighbourhoods.categories]
    cols += ["neighbourhood_popularity", "host_is_superhost", "host_experience_months",
             "host_since_missing", "room_type_rank", "room_type_missing"]
    return cols


def reference_matrix(dataset, indices, fitted):
    """(values, target, column names) row by row; target is None if a row is unpriced."""
    listings = [dataset.listings[i] for i in indices]
    columns = reference_columns(fitted)
    if listings:
        points = np.array([[r.latitude, r.longitude] for r in listings])
        cluster_labels = geofeat.assign_all(points, fitted.clusters)
    rows = []
    for pos, rec in enumerate(listings):
        row = [float(apply_scaler(float(rec.accommodates), fitted.scalers["accommodates"]))]
        for name in ("availability_365", "reviews_per_month", "bedrooms"):
            raw = getattr(rec, name)
            if raw is None:
                value, flag = fitted.medians[name], 1.0
            else:
                value, flag = float(raw), 0.0
            row.append(float(apply_scaler(value, fitted.scalers[name])))
            row.append(flag)
        texts = [rv.comments for rv in dataset.reviews_by_listing.get(rec.id, ())]
        mean_score, count = textfeat.listing_sentiment(texts, fitted.lexicon)
        row.append(mean_score)
        row.append(float(count))
        vector = textfeat.tfidf_vector(rec.description, fitted.vocab)
        row.append(textfeat.description_score(vector, fitted.direction))
        block = [0.0] * fitted.clusters.k
        block[int(cluster_labels[pos])] = 1.0
        row.extend(block)
        neigh = rec.neighbourhood if rec.neighbourhood is not None else geofeat.MISSING_NEIGHBOURHOOD
        row.extend(one_hot(neigh, fitted.neighbourhoods.categories))
        row.append(geofeat.neighbourhood_popularity(rec, fitted.neighbourhoods))
        row.append(1.0 if rec.host_is_superhost else 0.0)
        months, month_flag = host_experience_months(rec.host_since, fitted.snapshot_date)
        row.append(float(apply_scaler(float(months), fitted.scalers["host_experience_months"])))
        row.append(float(month_flag))
        rank, rank_flag = label_encode(rec.room_type, fitted.room_type_levels)
        row.append(float(rank))
        row.append(float(rank_flag))
        assert len(row) == len(columns)
        rows.append(row)
    values = np.array(rows, dtype=float) if rows else np.zeros((0, len(columns)))
    priced = all(r.price_usd is not None for r in listings)
    target = np.array([math.log(r.price_usd) for r in listings], dtype=float) if priced else None
    return values, target, columns
