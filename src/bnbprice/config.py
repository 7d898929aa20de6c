"""Run configuration: defaults, JSON file loading, flag overrides.

Precedence is flag > file > default. The effective config is echoed into
report.json so a run can be reproduced from its own report.
"""

import json
from dataclasses import dataclass, field

from .models.registry import params_from_entry
from .serialize import dataclass_from_doc


class ConfigError(ValueError):
    """Invalid or unreadable configuration."""


DEFAULT_SCALER_MAP = {
    "accommodates": "standard",
    "availability_365": "standard",
    "bedrooms": "standard",
    "reviews_per_month": "robust",
    "host_experience_months": "robust",
}

DEFAULT_ROOM_TYPES = ["Shared room", "Private room", "Hotel room", "Entire home/apt"]

SCALER_KINDS = ("minmax", "standard", "robust")
GEO_METRICS = ("euclidean", "haversine")


@dataclass
class PipelineConfig:
    cities: dict = field(default_factory=dict)  # label -> {"listings": path, "reviews": path}
    dataset: str | None = None                  # defaults to <out>/dataset.json
    lexicon: str | None = None                  # defaults to the packaged data file
    stopwords: str | None = None
    snapshot_date: str | None = None            # defaults to the max review date
    k_clusters: int = 100
    geo_metric: str = "euclidean"
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-6
    top_n_neighbourhoods: int = 25
    min_df: int = 5
    max_terms: int = 500
    scaler_map: dict = field(default_factory=lambda: dict(DEFAULT_SCALER_MAP))
    room_type_levels: list = field(default_factory=lambda: list(DEFAULT_ROOM_TYPES))
    split_ratios: list[float] = field(default_factory=lambda: [0.8, 0.1, 0.1])
    seed: int = 0
    models: list = field(default_factory=lambda: [{"kind": "gbdt", "growth": "leaf_wise"}])
    grid: dict | None = None                    # {"model": index, "params": {name: [values]}}
    importance_top_n: int = 60
    cluster_svg: bool = True
    out: str = "out"

    def validate(self):
        if self.geo_metric not in GEO_METRICS:
            raise ConfigError("geo_metric must be one of %s" % (GEO_METRICS,))
        if self.k_clusters < 1:
            raise ConfigError("k_clusters must be >= 1")
        if self.top_n_neighbourhoods < 1:
            raise ConfigError("top_n_neighbourhoods must be >= 1")
        if self.min_df < 1 or self.max_terms < 1:
            raise ConfigError("min_df and max_terms must be >= 1")
        if len(self.split_ratios) != 3 or min(self.split_ratios) < 0:
            raise ConfigError("split_ratios must be three non-negative numbers")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ConfigError("split_ratios must sum to 1")
        for column, kind in self.scaler_map.items():
            if kind not in SCALER_KINDS:
                raise ConfigError("unknown scaler kind %r for column %r" % (kind, column))
        if not isinstance(self.models, list) or not self.models:
            raise ConfigError("models must be a non-empty list")
        for entry in self.models:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ConfigError("each models entry needs a 'kind'")
            params_from_entry(entry["kind"], {k: v for k, v in entry.items() if k != "kind"})
        if self.grid is not None:
            self._validate_grid()
        if self.importance_top_n < 1:
            raise ConfigError("importance_top_n must be >= 1")

    def _validate_grid(self):
        if not isinstance(self.grid, dict) or "params" not in self.grid:
            raise ConfigError("grid needs a 'params' mapping")
        index = self.grid.get("model", 0)
        if not isinstance(index, int) or not (0 <= index < len(self.models)):
            raise ConfigError("grid.model must index into models")
        kind = self.models[index]["kind"]
        params = self.grid["params"]
        if not isinstance(params, dict) or not params:
            raise ConfigError("grid.params must be a non-empty mapping")
        for name, values in params.items():
            if not isinstance(values, list) or not values:
                raise ConfigError("grid parameter %r needs a non-empty value list" % name)
            for value in values:
                params_from_entry(kind, {name: value})


def load_config(path=None, overrides=None):
    """Build a validated PipelineConfig from an optional JSON file plus overrides.

    Override values of None mean "flag not given" and are ignored.
    """
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    merged = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    try:
        cfg = dataclass_from_doc(PipelineConfig, merged, "config")
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg
