"""What the benchmark relies on in the program.

The tracer wraps public functions by (module, attribute), and run.py's
oracles read from loaded files: a GBDT's first root split and tree
count, a ridge model's lam, coefficients and intercept, and the
pipeline's k-means centroids and iteration count. A renamed target or a
changed model layout would only fail the benchmark's own runs, so these
check them here.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from bnbprice import serialize, transform
from bnbprice.models import (GbdtParams, find_best_split, fit_model, gbdt_fit, model_from_doc,
                             model_to_doc)
from test_transform import fitted_small

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCHMARK / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def through_file(doc):
    return json.loads(serialize.dumps(doc))


def test_every_tracer_target_resolves():
    tracer = load_benchmark_module("tracer")
    assert len(tracer.TARGETS) > 20
    missing = [name for name, module, attr, _ in tracer.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_loaded_gbdt_exposes_root_split_and_tree_count():
    rng = np.random.RandomState(2)
    X = rng.randn(60, 3)
    y = X[:, 1] + 0.1 * rng.randn(60)
    params = GbdtParams(n_estimators=3, max_depth=2, min_samples_leaf=5)
    model = model_from_doc(model_to_doc(gbdt_fit(X, y, params), "0" * 64))
    tree = model.trees[0]
    feature, threshold, _ = find_best_split(np.arange(60), X, y - y.mean(), params)
    assert (int(tree.feature[0]), float(tree.threshold[0])) == (feature, threshold)
    assert len(model.trees) == 3
    assert sum(int((t.feature >= 0).sum()) for t in model.trees) > 0


def test_loaded_ridge_exposes_lam_coefficients_and_intercept():
    rng = np.random.RandomState(3)
    X = rng.randn(40, 3)
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.1 * rng.randn(40)
    model = model_from_doc(through_file(model_to_doc(fit_model("ridge", {"lambda": 0.5}, X, y),
                                                     "0" * 64)))
    assert model.lam == 0.5
    assert model.coefficients.shape == (3,) and isinstance(model.intercept, float)
    oracles = load_benchmark_module("oracles")
    assert oracles.ridge_errors(X, y, model.lam, model.coefficients, model.intercept) == []


def test_loaded_pipeline_exposes_centroids_and_iterations():
    dataset, cfg, fitted = fitted_small()
    loaded = transform.pipeline_from_doc(through_file(transform.pipeline_to_doc(fitted)))
    assert loaded.clusters.centroids.shape == (cfg.k_clusters, 2)
    assert loaded.clusters.iterations_run == fitted.clusters.iterations_run
    points = [[r.latitude, r.longitude] for r in dataset.listings]
    oracles = load_benchmark_module("oracles")
    assert oracles.kmeans_errors(points, loaded.clusters.centroids, loaded.clusters.iterations_run,
                                 cfg.kmeans_max_iter, cfg.kmeans_tol) == []
