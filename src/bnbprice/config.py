"""Run configuration: defaults, JSON file loading, flag overrides.

Precedence is flag > file > default. The effective config is echoed into
report.json so a run can be reproduced from its own report.
"""

from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .geofeat import GEO_METRICS
from .models.registry import params_from_entry
from .serialize import dataclass_from_doc, load_file
from .transform import DEFAULT_SCALER_MAP, SCALED_COLUMNS, SCALER_KINDS


@dataclass(frozen=True)
class CityFiles:
    listings: str
    reviews: str


@dataclass(frozen=True)
class GridConfig:
    model: int = 0                                         # index into models
    params: dict[str, list] = field(default_factory=dict)  # name -> values to try


@dataclass
class PipelineConfig:
    cities: dict[str, CityFiles] = field(default_factory=dict)  # label -> its CSV files
    dataset: str | None = None                  # defaults to <out>/dataset.json
    lexicon: str | None = None                  # defaults to the packaged data file
    stopwords: str | None = None
    snapshot_date: date | None = None           # defaults to the max review date
    k_clusters: int = 100
    geo_metric: str = "euclidean"
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-6
    top_n_neighbourhoods: int = 25
    min_df: int = 5
    max_terms: int = 500
    scaler_map: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_SCALER_MAP))
    room_type_levels: list[str] = field(default_factory=lambda: [
        "Shared room", "Private room", "Hotel room", "Entire home/apt"])
    split_ratios: list[float] = field(default_factory=lambda: [0.8, 0.1, 0.1])
    seed: int = 0
    models: list[dict] = field(default_factory=lambda: [{"kind": "gbdt", "growth": "leaf_wise"}])
    grid: GridConfig | None = None
    importance_top_n: int = 60
    cluster_svg: bool = True
    out: str = "out"

    @property
    def dataset_path(self):
        """Where ingest writes the dataset and train reads it: dataset, else <out>/dataset.json."""
        return Path(self.dataset) if self.dataset else Path(self.out) / "dataset.json"

    def __post_init__(self):
        if self.geo_metric not in GEO_METRICS:
            raise ValueError("geo_metric must be one of %s" % (GEO_METRICS,))
        for name in ("k_clusters", "top_n_neighbourhoods", "min_df", "max_terms",
                     "importance_top_n", "kmeans_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if not self.kmeans_tol > 0.0:  # move < tol could never stop the loop
            raise ValueError("kmeans_tol must be > 0")
        if len(self.split_ratios) != 3 or min(self.split_ratios) < 0:
            raise ValueError("split_ratios must be three non-negative numbers")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ValueError("split_ratios must sum to 1")
        for column, kind in self.scaler_map.items():
            if column not in SCALED_COLUMNS:
                raise ValueError("scaler_map column %r is not one of %s"
                                 % (column, ", ".join(SCALED_COLUMNS)))
            if kind not in SCALER_KINDS:
                raise ValueError("unknown scaler kind %r for column %r" % (kind, column))
        if not self.models or not all("kind" in entry for entry in self.models):
            raise ValueError("models must be a non-empty list of entries with a 'kind'")
        for entry in self.models:
            params_from_entry(entry["kind"], {k: v for k, v in entry.items() if k != "kind"})
        if self.grid is None:
            return
        if not 0 <= self.grid.model < len(self.models):
            raise ValueError("grid.model must index into models")
        if not self.grid.params:
            raise ValueError("grid.params must be a non-empty mapping")
        for name, values in self.grid.params.items():
            if not values:
                raise ValueError("grid parameter %r needs a non-empty value list" % name)
            for value in values:
                params_from_entry(self.models[self.grid.model]["kind"], {name: value})


def load_config(path=None, overrides=None):
    """Build a validated PipelineConfig from an optional JSON file plus overrides.

    Override values of None mean "flag not given" and are ignored.
    """
    try:
        doc = load_file(path) if path is not None else {}
    except (OSError, ValueError) as exc:
        raise ValueError("cannot read config %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    return dataclass_from_doc(PipelineConfig, {**doc, **flags}, "config")
