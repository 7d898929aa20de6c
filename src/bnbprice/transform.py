"""Numeric scaling, categorical encoding, temporal features, matrix assembly.

Everything learned here (scaler parameters, vocabulary, direction,
centroids, neighbourhood stats, imputation medians) is fitted on the
training split only and frozen inside a FittedPipeline, which is then
applied unchanged to validation, test and prediction rows.
"""

import math
from dataclasses import dataclass
from datetime import date

from . import geofeat, np, textfeat
from .serialize import dataclass_from_doc, dataclass_to_doc, field


class AssemblyError(ValueError):
    """Feature matrix construction failed its own consistency checks."""


PIPELINE_SCHEMA_VERSION = 2

# the four raw numeric listing fields, in matrix order
NUMERIC_COLUMNS = ("accommodates", "availability_365", "reviews_per_month", "bedrooms")
# accommodates is required at ingest; only these may be absent and get a missing flag
OPTIONAL_NUMERIC = NUMERIC_COLUMNS[1:]
# the columns _numeric and _host scale
SCALED_COLUMNS = NUMERIC_COLUMNS + ("host_experience_months",)
# each scaled column's scaler kind; a config's scaler_map is laid over it
DEFAULT_SCALER_MAP = {
    "accommodates": "standard",
    "availability_365": "standard",
    "bedrooms": "standard",
    "reviews_per_month": "robust",
    "host_experience_months": "robust",
}
SCALER_KINDS = ("minmax", "standard", "robust")


@dataclass(frozen=True)
class ScalerParams:
    kind: str  # minmax | standard | robust
    a: float   # min | mean | median
    b: float   # max | population std | IQR

    def __post_init__(self):
        if self.kind not in SCALER_KINDS:
            raise ValueError("unknown scaler kind %r" % self.kind)


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
        return np.zeros(np.shape(value))
    return (value - params.a) / spread


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


@dataclass
class FeatureMatrix:
    """(n, m) feature values, column names, ln(price) if every row is priced (else None), ids."""
    values: "np.ndarray"
    columns: list
    target: "np.ndarray | None"
    ids: list


@dataclass
class FittedPipeline:
    lexicon: textfeat.SentimentLexicon
    vocab: textfeat.Vocabulary
    direction: textfeat.DescriptionDirection
    clusters: geofeat.ClusterModel
    neighbourhoods: geofeat.NeighbourhoodStats
    scalers: dict[str, ScalerParams]
    medians: dict[str, float]    # train medians that impute the optional columns
    room_type_levels: list[str]  # a tuple
    snapshot_date: date

    def __post_init__(self):
        self.room_type_levels = tuple(self.room_type_levels)
        if self.direction.weights.shape != self.vocab.idf.shape:
            raise ValueError("direction has %d weights for %d vocab terms"
                             % (self.direction.weights.size, self.vocab.idf.size))
        for table, names in (("scalers", SCALED_COLUMNS), ("medians", OPTIONAL_NUMERIC)):
            missing = [name for name in names if name not in getattr(self, table)]
            if missing:
                raise ValueError("%s has no entry for %r" % (table, missing[0]))

    @property
    def columns(self):
        """Column names in assembly order, block by block; distinct, because the
        neighbourhood categories are."""
        return tuple(name for block_names, _ in BLOCKS for name in block_names(self))


def resolve_snapshot_date(dataset, configured):
    """Configured date, else max review date, else max host_since, else epoch."""
    if configured:
        return configured
    review_dates = [rv.date for rvs in dataset.reviews_by_listing.values() for rv in rvs]
    if review_dates:
        return max(review_dates)
    host_dates = [r.host_since for r in dataset.listings if r.host_since is not None]
    if host_dates:
        return max(host_dates)
    return date(1970, 1, 1)


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
    try:
        clusters = geofeat.kmeans_fit(points, cfg.k_clusters, cfg.geo_metric,
                                      cfg.seed, cfg.kmeans_max_iter, cfg.kmeans_tol)
    except ValueError as exc:  # the config is checked, so only k_clusters can be too large
        raise ValueError("k_clusters: %s among the training locations" % exc) from None
    neighbourhoods = geofeat.fit_neighbourhood_stats(train, cfg.top_n_neighbourhoods)
    snapshot = resolve_snapshot_date(dataset, cfg.snapshot_date)

    kinds = {**DEFAULT_SCALER_MAP, **cfg.scaler_map}
    scalers = {}
    medians = {}
    for name in NUMERIC_COLUMNS:
        present = [getattr(r, name) for r in train if getattr(r, name) is not None]
        if not present:
            raise ValueError("empty column %s" % name)
        scalers[name] = fit_scaler(present, kinds[name])
        medians[name] = _interp_quantile(np.sort(np.asarray(present, dtype=float)), 0.5)
    months = [float(host_experience_months(r.host_since, snapshot)[0]) for r in train]
    scalers["host_experience_months"] = fit_scaler(months, kinds["host_experience_months"])

    return FittedPipeline(
        lexicon=lexicon,
        vocab=vocab,
        direction=direction,
        clusters=clusters,
        neighbourhoods=neighbourhoods,
        scalers=scalers,
        medians=medians,
        room_type_levels=tuple(cfg.room_type_levels),
        snapshot_date=snapshot,
    )


def _numeric(out, listings, dataset, fp):
    accommodates = np.array([r.accommodates for r in listings], dtype=float)
    out[:, 0] = apply_scaler(accommodates, fp.scalers["accommodates"])
    for j, name in enumerate(OPTIONAL_NUMERIC):
        raw = [getattr(r, name) for r in listings]
        present = np.array([fp.medians[name] if v is None else v for v in raw], dtype=float)
        out[:, 2 * j + 1] = apply_scaler(present, fp.scalers[name])
        out[:, 2 * j + 2] = [v is None for v in raw]


def _text(out, listings, dataset, fp):
    reviews = dataset.reviews_by_listing
    out[:, 0:2] = [textfeat.listing_sentiment([rv.comments for rv in reviews.get(r.id, ())],
                                              fp.lexicon)
                   for r in listings]
    out[:, 2] = [textfeat.description_score(textfeat.tfidf_vector(r.description, fp.vocab),
                                            fp.direction)
                 for r in listings]


def _clusters(out, listings, dataset, fp):
    labels = geofeat.assign_all([[r.latitude, r.longitude] for r in listings], fp.clusters)
    out[np.arange(len(listings)), labels] = 1.0


def _neighbourhoods(out, listings, dataset, fp):
    # one-hot over the categories; an unseen or absent name hits "other"
    index = _first_index(fp.neighbourhoods.categories)
    names = [geofeat.MISSING_NEIGHBOURHOOD if r.neighbourhood is None else r.neighbourhood
             for r in listings]
    out[np.arange(len(listings)), [index.get(name, index["other"]) for name in names]] = 1.0
    out[:, -1] = [geofeat.neighbourhood_popularity(r, fp.neighbourhoods) for r in listings]


def _host(out, listings, dataset, fp):
    out[:, 0] = [bool(r.host_is_superhost) for r in listings]
    out[:, 1:3] = [host_experience_months(r.host_since, fp.snapshot_date) for r in listings]
    out[:, 1] = apply_scaler(out[:, 1], fp.scalers["host_experience_months"])
    # rank in the configured level order; an unseen or absent room type is -1, flagged
    rank = _first_index(fp.room_type_levels)
    out[:, 3] = [rank.get(r.room_type, -1) for r in listings]
    out[:, 4] = [r.room_type not in rank for r in listings]


def _first_index(labels):
    """label -> the index of its first occurrence."""
    return {label: i for i, label in reversed(list(enumerate(labels)))}


# The feature blocks in matrix order: each block's column names, from the
# fitted pipeline, beside the builder that fills the block's (n, width)
# slice of the matrix for all n listings at once.
BLOCKS = (
    (lambda fp: ["accommodates"] + [c for name in OPTIONAL_NUMERIC
                                    for c in (name, name + "_missing")], _numeric),
    (lambda fp: ["sentiment_mean", "review_count", "description_score"], _text),
    (lambda fp: ["cluster_%d" % j for j in range(fp.clusters.k)], _clusters),
    (lambda fp: (["neighbourhood=%s" % cat for cat in fp.neighbourhoods.categories]
                 + ["neighbourhood_popularity"]), _neighbourhoods),
    (lambda fp: ["host_is_superhost", "host_experience_months", "host_since_missing",
                 "room_type_rank", "room_type_missing"], _host),
)


def assemble_matrix(dataset, indices, fitted):
    """Build the feature matrix for the given listing rows, one block at a time."""
    listings = [dataset.listings[i] for i in indices]
    columns = fitted.columns
    values = np.zeros((len(listings), len(columns)))
    start = 0
    for block_names, fill in BLOCKS:
        stop = start + len(block_names(fitted))
        if listings:
            fill(values[:, start:stop], listings, dataset, fitted)
        start = stop
    if not np.all(np.isfinite(values)):
        raise AssemblyError("non-finite value in assembled matrix")
    priced = all(r.price_usd is not None for r in listings)
    target = np.array([log_price(r.price_usd) for r in listings]) if priced else None
    return FeatureMatrix(values=values, columns=list(columns), target=target,
                         ids=[r.id for r in listings])


def pipeline_to_doc(fp):
    return {"schema_version": PIPELINE_SCHEMA_VERSION, **dataclass_to_doc(fp)}


def pipeline_from_doc(doc):
    version = field(doc, "schema_version", int, "pipeline")
    if version != PIPELINE_SCHEMA_VERSION:
        raise ValueError("unsupported pipeline schema_version %r" % version)
    body = {key: value for key, value in doc.items() if key != "schema_version"}
    return dataclass_from_doc(FittedPipeline, body, "pipeline", required=True)
