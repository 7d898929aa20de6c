"""What the benchmark relies on in the program.

The tracer wraps public functions by (module, attribute), and run.py's
oracles read a GBDT's first root split and tree count from a loaded
model. A renamed target or a changed model layout would only fail the
benchmark's own runs, so these check both here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from bnbprice.models import GbdtParams, find_best_split, gbdt_fit, model_from_doc, model_to_doc

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
