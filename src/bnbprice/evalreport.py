"""Deterministic splits, metrics, importance ranking and report files.

Everything here is a pure function of its inputs, so two runs with the
same config write byte-identical artifacts.
"""

import csv
import html
import math
import random
from dataclasses import dataclass

from . import InvariantError, np, serialize
from .models import KINDS, kind_of, model_to_doc

REPORT_SCHEMA_VERSION = 1

SVG_WIDTH = 1000
SVG_ROW_HEIGHT = 20
_BAR_X = 380
_BAR_SPAN = 540.0


@dataclass(frozen=True)
class SplitAssignment:
    train: tuple
    val: tuple
    test: tuple
    seed: int
    ratios: tuple

    @property
    def sizes(self):
        return {"train": len(self.train), "val": len(self.val),
                "test": len(self.test)}


def split_dataset(n, ratios, seed):
    """Shuffle 0..n-1 with a seeded Fisher-Yates, slice train/val/test.

    Validation and test get round(n*r) rows each; train absorbs the
    remainder. Index tuples come back sorted for stable downstream use.
    """
    if n < 3:
        raise ValueError("need at least 3 rows to split, got %d" % n)
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError("ratios must be three non-negative reals")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1, got %r" % (ratios,))
    idx = list(range(n))
    rng = random.Random(seed)
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    n_val = math.floor(n * ratios[1] + 0.5)
    n_test = math.floor(n * ratios[2] + 0.5)
    n_train = n - n_val - n_test
    if n_train <= 0 or n_val <= 0 or n_test <= 0:
        raise ValueError("split produces an empty part: %d/%d/%d"
                         % (n_train, n_val, n_test))
    return SplitAssignment(
        train=tuple(sorted(idx[:n_train])),
        val=tuple(sorted(idx[n_train:n_train + n_val])),
        test=tuple(sorted(idx[n_train + n_val:])),
        seed=int(seed), ratios=ratios)


@dataclass(frozen=True)
class MetricsReport:
    mse: float
    mae: float
    r2: float
    n: int
    space: str = "log_price"

    def to_doc(self):
        r2 = "undefined" if self.r2 == float("-inf") else self.r2
        return {"mse": self.mse, "mae": self.mae, "r2": r2,
                "n": self.n, "space": self.space}


def metrics(y_true, y_pred):
    y = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    if y.ndim != 1 or y.shape != p.shape:
        raise ValueError("y_true and y_pred must be 1-d of equal length")
    if y.size == 0:
        raise ValueError("cannot score zero rows")
    resid = y - p
    mse = float(np.mean(resid * resid))
    mae = float(np.mean(np.abs(resid)))
    sse = float(np.sum(resid * resid))
    sst = float(np.sum((y - np.mean(y)) ** 2))
    if sst == 0.0:
        r2 = 0.0 if sse == 0.0 else float("-inf")
    else:
        r2 = 1.0 - sse / sst
    if not mae * mae <= mse * (1.0 + 1e-12) + 1e-12:
        raise InvariantError("MAE^2 %r exceeds MSE %r" % (mae * mae, mse))
    return MetricsReport(mse=mse, mae=mae, r2=r2, n=int(y.size))


@dataclass(frozen=True)
class ImportanceEntry:
    feature: str
    score: float
    rank: int


def feature_importance(model, columns):
    """Per-feature scores normalized to sum 1, sorted descending.

    gbdt: accumulated split gain. ridge: |coefficient| (inputs are
    scaled, so magnitudes are comparable). mlp: sum of |first-layer
    weight| feeding each input. Ties keep column order.
    """
    columns = list(columns)
    scores = KINDS[kind_of(model)].importance(model)
    if scores.shape[0] != len(columns):
        raise ValueError("model has %d features, got %d column names"
                         % (scores.shape[0], len(columns)))
    total = float(scores.sum())
    if total > 0.0:
        scores = scores / total
    order = sorted(range(len(columns)), key=lambda j: (-scores[j], j))
    return [ImportanceEntry(feature=columns[j], score=float(scores[j]),
                            rank=pos + 1)
            for pos, j in enumerate(order)]


@dataclass(frozen=True)
class ModelResult:
    kind: str
    params: dict
    model: object
    train: MetricsReport
    val: MetricsReport
    test: MetricsReport


@dataclass(frozen=True)
class RunResults:
    config_doc: dict
    dataset_summary: dict
    split: SplitAssignment
    columns: tuple
    models: tuple
    grid: tuple
    pipeline_doc: dict


def importance_svg(entries):
    """Horizontal bar chart, one 20px row per entry on a 1000px canvas."""
    rows = list(entries)
    height = SVG_ROW_HEIGHT * max(len(rows), 1)
    top = max((e.score for e in rows), default=0.0)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d" font-family="monospace" font-size="11">'
             % (SVG_WIDTH, height, SVG_WIDTH, height)]
    parts.append('<rect width="%d" height="%d" fill="white"/>' % (SVG_WIDTH, height))
    for i, e in enumerate(rows):
        y = i * SVG_ROW_HEIGHT
        width = _BAR_SPAN * (e.score / top) if top > 0.0 else 0.0
        parts.append('<text x="4" y="%d" fill="#333">%d. %s</text>'
                     % (y + 14, e.rank, html.escape(e.feature)))
        parts.append('<rect x="%d" y="%d" width="%.2f" height="14" fill="#4c78a8"/>'
                     % (_BAR_X, y + 3, width))
        parts.append('<text x="%d" y="%d" text-anchor="end" fill="#333">%.4f</text>'
                     % (SVG_WIDTH - 4, y + 14, e.score))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(run_results, out_dir, top_n=60):
    """Write report.json, importance files, pipeline and model files into out_dir.

    Each model file records the sha256 of the pipeline.json bytes. The
    importance chart ranks the model with the lowest validation MSE.
    """
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dataset_summary": run_results.dataset_summary,
        "split": {"seed": run_results.split.seed,
                  "sizes": run_results.split.sizes},
        "models": [{"kind": m.kind, "params": m.params,
                    "train": m.train.to_doc(), "val": m.val.to_doc(),
                    "test": m.test.to_doc()}
                   for m in run_results.models],
        "grid": list(run_results.grid),
        "config": run_results.config_doc,
    }
    serialize.dump_file(report, out_dir / "report.json")

    # the first of equal lowest validation MSEs
    best = min(run_results.models, key=lambda m: m.val.mse)
    entries = feature_importance(best.model, run_results.columns)
    with open(out_dir / "importance.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "feature", "score"])
        for e in entries:
            writer.writerow([e.rank, e.feature, serialize.format_float(e.score)])

    shown = entries[:top_n] if top_n is not None else entries
    with open(out_dir / "importance.svg", "w", encoding="utf-8") as fh:
        fh.write(importance_svg(shown))
    pipeline_sha256 = serialize.sha256_hex(
        serialize.dump_file(run_results.pipeline_doc, out_dir / "pipeline.json"))
    for i, m in enumerate(run_results.models):
        serialize.dump_file(model_to_doc(m.model, pipeline_sha256),
                            out_dir / ("model_%d_%s.json" % (i, m.kind)))
