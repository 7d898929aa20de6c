"""Numeric scaling, categorical encoding, temporal features, matrix assembly.

Everything learned here (scaler parameters, vocabulary, direction,
centroids, neighbourhood stats, imputation medians) is fitted on the
training split only and frozen inside a FittedPipeline, which is then
applied unchanged to validation, test and prediction rows.
"""

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import geofeat, textfeat
from .serialize import field


class AssemblyError(ValueError):
    """Feature matrix construction failed its own consistency checks."""


PIPELINE_SCHEMA_VERSION = 1

# the four raw numeric listing fields, in matrix order
NUMERIC_COLUMNS = ("accommodates", "availability_365", "reviews_per_month", "bedrooms")


@dataclass(frozen=True)
class ScalerParams:
    kind: str  # minmax | standard | robust
    a: float   # min | mean | median
    b: float   # max | population std | IQR


def _interp_quantile(sorted_values, q):
    # linear interpolation at position (n - 1) * q on the sorted sample
    pos = (len(sorted_values) - 1) * q
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(sorted_values[lo])
    frac = pos - lo
    return float(sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac)


def fit_scaler(train_values, kind):
    """Fit scaler parameters on the present training values of one column."""
    vals = np.asarray([v for v in train_values if v is not None], dtype=float)
    if vals.size == 0:
        raise ValueError("empty column")
    if kind == "minmax":
        return ScalerParams("minmax", float(vals.min()), float(vals.max()))
    if kind == "standard":
        mean = float(vals.mean())
        std = math.sqrt(float(np.mean((vals - mean) ** 2)))  # population, ddof 0
        return ScalerParams("standard", mean, std)
    if kind == "robust":
        s = np.sort(vals)
        median = _interp_quantile(s, 0.5)
        iqr = _interp_quantile(s, 0.75) - _interp_quantile(s, 0.25)
        return ScalerParams("robust", median, iqr)
    raise ValueError("unknown scaler kind %r" % kind)


def apply_scaler(value, params):
    """(v - a) / spread, where spread is b-a for minmax and b otherwise.

    A degenerate (zero) spread maps every value to 0, the constant-column
    rule. Accepts a scalar or an ndarray.
    """
    spread = params.b - params.a if params.kind == "minmax" else params.b
    if spread == 0.0:
        if np.isscalar(value):
            return 0.0
        return np.zeros_like(np.asarray(value, dtype=float))
    return (value - params.a) / spread


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
    """Rank of label in the configured level order.

    Returns (rank, missing_flag); unseen or absent labels give (-1, 1).
    """
    if label is not None and label in ordered_levels:
        return ordered_levels.index(label), 0
    return -1, 1


def host_experience_months(host_since, snapshot):
    """Whole calendar months from host_since to snapshot.

    The count increments when the day-of-month of host_since is reached.
    Absent or future host_since is tolerated as (0, flag=1).
    """
    if host_since is None or host_since > snapshot:
        return 0, 1
    months = (snapshot.year - host_since.year) * 12 + (snapshot.month - host_since.month)
    if snapshot.day < host_since.day:
        months -= 1
    return months, 0


def log_price(price_usd):
    return math.log(price_usd)


def inverse_log_price(y):
    return math.exp(y)


@dataclass(frozen=True)
class ColumnMeta:
    name: str
    source: str  # numeric | one_hot | sentiment | tfidf_score | geo_cluster | neighbourhood | temporal | missing_flag


class FeatureMatrix:
    """Dense (n, m) feature values with ordered column metadata."""

    def __init__(self, values, columns, target, ids):
        self.values = values
        self.columns = list(columns)
        self.target = target
        self.ids = list(ids)

    @property
    def rows(self):
        return self.values.shape[0]


@dataclass
class FittedPipeline:
    schema_version: int
    lexicon: textfeat.SentimentLexicon
    vocab: textfeat.Vocabulary
    direction: textfeat.DescriptionDirection
    clusters: geofeat.ClusterModel
    neighbourhoods: geofeat.NeighbourhoodStats
    scalers: dict     # column name -> ScalerParams
    medians: dict     # column name -> train median used for imputation
    room_type_levels: tuple
    snapshot_date: date
    columns: tuple    # ColumnMeta in assembly order


def resolve_snapshot_date(dataset, configured):
    """Configured date, else max review date, else max host_since, else epoch."""
    if configured:
        return configured if isinstance(configured, date) else date.fromisoformat(configured)
    review_dates = [rv.date for rvs in dataset.reviews_by_listing.values() for rv in rvs]
    if review_dates:
        return max(review_dates)
    host_dates = [r.host_since for r in dataset.listings if r.host_since is not None]
    if host_dates:
        return max(host_dates)
    return date(1970, 1, 1)


def build_columns(k_clusters, neigh_categories):
    cols = []
    for name in NUMERIC_COLUMNS:
        cols.append(ColumnMeta(name, "numeric"))
        cols.append(ColumnMeta(name + "_missing", "missing_flag"))
    cols.append(ColumnMeta("sentiment_mean", "sentiment"))
    cols.append(ColumnMeta("review_count", "sentiment"))
    cols.append(ColumnMeta("description_score", "tfidf_score"))
    for j in range(k_clusters):
        cols.append(ColumnMeta("cluster_%d" % j, "geo_cluster"))
    for cat in neigh_categories:
        cols.append(ColumnMeta("neighbourhood=%s" % cat, "neighbourhood"))
    cols.append(ColumnMeta("neighbourhood_popularity", "neighbourhood"))
    cols.append(ColumnMeta("host_is_superhost", "numeric"))
    cols.append(ColumnMeta("host_experience_months", "temporal"))
    cols.append(ColumnMeta("host_since_missing", "missing_flag"))
    cols.append(ColumnMeta("room_type_rank", "numeric"))
    cols.append(ColumnMeta("room_type_missing", "missing_flag"))
    names = [c.name for c in cols]
    if len(set(names)) != len(names):
        raise AssemblyError("duplicate column names in matrix layout")
    return tuple(cols)


def fit_pipeline(dataset, train_indices, cfg, lexicon, stopwords):
    """Learn all apply-time state from the training rows only."""
    train = [dataset.listings[i] for i in train_indices]
    if not train:
        raise ValueError("empty training split")

    vocab = textfeat.build_vocab([r.description for r in train],
                                 cfg.min_df, cfg.max_terms, stopwords)
    y = np.array([log_price(r.price_usd) for r in train])
    vectors = np.array([textfeat.tfidf_vector(r.description, vocab) for r in train])
    direction = textfeat.fit_description_direction(vectors, y)

    points = np.array([[r.latitude, r.longitude] for r in train])
    clusters = geofeat.kmeans_fit(points, cfg.k_clusters, cfg.geo_metric,
                                  cfg.seed, cfg.kmeans_max_iter, cfg.kmeans_tol)
    neighbourhoods = geofeat.fit_neighbourhood_stats(train, cfg.top_n_neighbourhoods)
    snapshot = resolve_snapshot_date(dataset, cfg.snapshot_date)

    scalers = {}
    medians = {}
    for name in NUMERIC_COLUMNS:
        present = [getattr(r, name) for r in train if getattr(r, name) is not None]
        if not present:
            raise ValueError("empty column %s" % name)
        kind = cfg.scaler_map.get(name, "standard")
        scalers[name] = fit_scaler(present, kind)
        medians[name] = _interp_quantile(np.sort(np.asarray(present, dtype=float)), 0.5)
    months = [float(host_experience_months(r.host_since, snapshot)[0]) for r in train]
    scalers["host_experience_months"] = fit_scaler(
        months, cfg.scaler_map.get("host_experience_months", "robust"))

    return FittedPipeline(
        schema_version=PIPELINE_SCHEMA_VERSION,
        lexicon=lexicon,
        vocab=vocab,
        direction=direction,
        clusters=clusters,
        neighbourhoods=neighbourhoods,
        scalers=scalers,
        medians=medians,
        room_type_levels=tuple(cfg.room_type_levels),
        snapshot_date=snapshot,
        columns=build_columns(cfg.k_clusters, neighbourhoods.categories),
    )


def assemble_matrix(dataset, indices, fitted):
    """Build the feature matrix for the given listing rows.

    Column order is fixed by the pipeline: scaled numerics with paired
    missing flags, sentiment mean and review count, description score,
    cluster one-hot, neighbourhood one-hot plus popularity, superhost,
    scaled host experience with its flag, then the room_type ordinal.
    """
    listings = [dataset.listings[i] for i in indices]
    n = len(listings)
    m = len(fitted.columns)
    k = fitted.clusters.k

    if n:
        points = np.array([[r.latitude, r.longitude] for r in listings])
        cluster_labels = geofeat.assign_all(points, fitted.clusters)
    else:
        cluster_labels = np.zeros(0, dtype=int)

    rows = []
    target = []
    for pos, rec in enumerate(listings):
        row = []
        for name in NUMERIC_COLUMNS:
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
        block = [0.0] * k
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
        if len(row) != m:
            raise AssemblyError("row has %d values, expected %d columns" % (len(row), m))
        rows.append(row)
        target.append(log_price(rec.price_usd))

    values = np.array(rows, dtype=float) if rows else np.zeros((0, m))
    if not np.all(np.isfinite(values)):
        raise AssemblyError("non-finite value in assembled matrix")
    return FeatureMatrix(values=values, columns=fitted.columns,
                         target=np.array(target, dtype=float), ids=[r.id for r in listings])


def pipeline_to_doc(fp):
    return {
        "schema_version": fp.schema_version,
        "lexicon": {"entries": dict(fp.lexicon.entries), "max_abs": fp.lexicon.max_abs},
        "vocab": {"terms": list(fp.vocab.terms),
                  "idf": [float(x) for x in fp.vocab.idf],
                  "doc_count": fp.vocab.doc_count},
        "direction": {"weights": [float(x) for x in fp.direction.weights],
                      "norm": fp.direction.norm},
        "clusters": {"centroids": [[float(lat), float(lon)] for lat, lon in fp.clusters.centroids],
                     "metric": fp.clusters.metric, "k": fp.clusters.k,
                     "seed": fp.clusters.seed,
                     "iterations_run": fp.clusters.iterations_run},
        "neighbourhoods": {"categories": list(fp.neighbourhoods.categories),
                           "counts": dict(fp.neighbourhoods.counts)},
        "scalers": {name: {"kind": p.kind, "a": p.a, "b": p.b}
                    for name, p in fp.scalers.items()},
        "medians": {name: float(v) for name, v in fp.medians.items()},
        "room_type_levels": list(fp.room_type_levels),
        "snapshot_date": fp.snapshot_date.isoformat(),
        "columns": [{"name": c.name, "source": c.source} for c in fp.columns],
    }


def pipeline_from_doc(doc):
    def part(key, annotation=dict):
        return field(doc, key, annotation, "pipeline")

    version = part("schema_version", int)
    if version != PIPELINE_SCHEMA_VERSION:
        raise ValueError("unsupported pipeline schema_version %r" % version)
    vocab, direction, clusters = part("vocab"), part("direction"), part("clusters")
    neighbourhoods = part("neighbourhoods")
    return FittedPipeline(
        schema_version=version,
        lexicon=textfeat.lexicon_from_entries(part("lexicon")["entries"]),
        vocab=textfeat.Vocabulary(vocab["terms"], vocab["idf"], vocab["doc_count"]),
        direction=textfeat.DescriptionDirection(direction["weights"], direction["norm"]),
        clusters=geofeat.ClusterModel(
            centroids=np.asarray(clusters["centroids"], dtype=float),
            metric=clusters["metric"], k=clusters["k"], seed=clusters["seed"],
            iterations_run=clusters["iterations_run"]),
        neighbourhoods=geofeat.NeighbourhoodStats(
            categories=tuple(neighbourhoods["categories"]),
            counts=dict(neighbourhoods["counts"])),
        scalers={name: ScalerParams(p["kind"], p["a"], p["b"])
                 for name, p in part("scalers").items()},
        medians=dict(part("medians")),
        room_type_levels=tuple(part("room_type_levels", list)),
        snapshot_date=date.fromisoformat(part("snapshot_date", str)),
        columns=tuple(ColumnMeta(c["name"], c["source"]) for c in part("columns", list)),
    )
