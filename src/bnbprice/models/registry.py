"""Model registry: kind dispatch for fitting, prediction and persistence.

Model files are versioned JSON documents; a file read back predicts
byte-identically because every float survives the round trip exactly.
"""

import numpy as np

from ..config import MODEL_KINDS
from .gbdt import GbdtModel, GbdtParams, Tree, gbdt_fit, gbdt_predict
from .mlp import MlpModel, mlp_fit, mlp_predict
from .ridge import RidgeModel, ridge_fit, ridge_predict

MODEL_SCHEMA_VERSION = 1
_NUMBER = (int, float)


def _field(doc, key, kind, where="model"):
    """doc[key] if it is a kind; otherwise a ValueError naming the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError("%s: missing key %r" % (where, key))
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        names = " or ".join(t.__name__ for t in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError("%s: key %r must be %s, got %s"
                         % (where, key, names, type(value).__name__))
    return value


def _gbdt_params(params):
    return GbdtParams(
        n_estimators=int(params.get("n_estimators", 1000)),
        learning_rate=float(params.get("learning_rate", 0.1)),
        growth=params.get("growth", "depth_wise"),
        max_depth=int(params.get("max_depth", 6)),
        num_leaves=int(params.get("num_leaves", 31)),
        min_samples_leaf=int(params.get("min_samples_leaf", 20)),
        alpha=float(params.get("alpha", 0.5)),
        lam=float(params.get("lambda", 1.0)),
        min_gain=float(params.get("min_gain", 0.0)),
    )


def _gbdt_params_doc(p):
    return {"n_estimators": p.n_estimators, "learning_rate": p.learning_rate,
            "growth": p.growth, "max_depth": p.max_depth,
            "num_leaves": p.num_leaves, "min_samples_leaf": p.min_samples_leaf,
            "alpha": p.alpha, "lambda": p.lam, "min_gain": p.min_gain}


def resolve_params(kind, params):
    """Full effective parameter dict for a model entry, defaults filled in."""
    params = dict(params or {})
    if kind == "ridge":
        return {"lambda": float(params.get("lambda", 1.0))}
    if kind == "gbdt":
        return _gbdt_params_doc(_gbdt_params(params))
    if kind == "mlp":
        return {"hidden_sizes": [int(h) for h in params.get("hidden_sizes", [64, 32])],
                "epochs": int(params.get("epochs", 200)),
                "batch_size": int(params.get("batch_size", 256)),
                "step_size": float(params.get("step_size", 1e-3))}
    raise ValueError("unknown model kind %r" % kind)


def fit_model(kind, params, X, y, seed=0):
    params = dict(params or {})
    if kind == "ridge":
        return ridge_fit(X, y, float(params.get("lambda", 1.0)))
    if kind == "gbdt":
        return gbdt_fit(X, y, _gbdt_params(params))
    if kind == "mlp":
        X = np.asarray(X, dtype=float)
        hidden = [int(h) for h in params.get("hidden_sizes", [64, 32])]
        return mlp_fit(X, y, layer_sizes=(X.shape[1], *hidden, 1),
                       epochs=int(params.get("epochs", 200)),
                       batch_size=int(params.get("batch_size", 256)),
                       step_size=float(params.get("step_size", 1e-3)),
                       seed=seed)
    raise ValueError("unknown model kind %r" % kind)


def predict_model(model, X):
    if isinstance(model, RidgeModel):
        return ridge_predict(model, X)
    if isinstance(model, GbdtModel):
        return gbdt_predict(model, X)
    if isinstance(model, MlpModel):
        return mlp_predict(model, X)
    raise ValueError("cannot predict with %r" % type(model))


def _tree_to_doc(tree):
    n = tree.feature.shape[0]
    docs = [None] * n
    # children always sit after their parent in the flat arrays
    for i in range(n - 1, -1, -1):
        if tree.feature[i] < 0:
            docs[i] = {"value": float(tree.value[i])}
        else:
            docs[i] = {"feature_index": int(tree.feature[i]),
                       "threshold": float(tree.threshold[i]),
                       "left": docs[tree.left[i]],
                       "right": docs[tree.right[i]]}
    return docs[0]


def _tree_from_doc(doc):
    feature = []
    threshold = []
    left = []
    right = []
    value = []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(doc, -1, "L")]
    while stack:
        node_doc, parent, side = stack.pop()
        node_id = new_node()
        if parent >= 0:
            if side == "L":
                left[parent] = node_id
            else:
                right[parent] = node_id
        if isinstance(node_doc, dict) and "value" in node_doc:
            value[node_id] = _field(node_doc, "value", _NUMBER, "tree node")
        else:
            feature[node_id] = _field(node_doc, "feature_index", int, "tree node")
            threshold[node_id] = _field(node_doc, "threshold", _NUMBER, "tree node")
            stack.append((_field(node_doc, "right", dict, "tree node"), node_id, "R"))
            stack.append((_field(node_doc, "left", dict, "tree node"), node_id, "L"))
    return Tree(feature, threshold, left, right, value)


def model_to_doc(model):
    if isinstance(model, RidgeModel):
        return {"schema_version": MODEL_SCHEMA_VERSION, "kind": "ridge",
                "params": {"lambda": model.lam},
                "coefficients": [float(v) for v in model.coefficients],
                "intercept": model.intercept}
    if isinstance(model, GbdtModel):
        return {"schema_version": MODEL_SCHEMA_VERSION, "kind": "gbdt",
                "params": _gbdt_params_doc(model.params),
                "n_features": model.n_features,
                "base_score": model.base_score,
                "feature_gain": [float(v) for v in model.feature_gain],
                "trees": [_tree_to_doc(t) for t in model.trees]}
    if isinstance(model, MlpModel):
        return {"schema_version": MODEL_SCHEMA_VERSION, "kind": "mlp",
                "params": {"layer_sizes": list(model.layer_sizes)},
                "weights": [W.tolist() for W in model.weights],
                "biases": [b.tolist() for b in model.biases]}
    raise ValueError("cannot serialize %r" % type(model))


def model_from_doc(doc):
    """Model object from its document; a missing or mistyped key is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("model doc must be a JSON object")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError("unsupported model schema_version %r" % version)
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise ValueError("unknown model kind %r" % kind)
    p = _field(doc, "params", dict)

    def param(key, param_kind=_NUMBER):
        return _field(p, key, param_kind, "model params")

    if kind == "ridge":
        return RidgeModel(_field(doc, "coefficients", list),
                          _field(doc, "intercept", _NUMBER), param("lambda"))
    if kind == "gbdt":
        params = GbdtParams(
            n_estimators=param("n_estimators", int), learning_rate=param("learning_rate"),
            growth=param("growth", str), max_depth=param("max_depth", int),
            num_leaves=param("num_leaves", int),
            min_samples_leaf=param("min_samples_leaf", int), alpha=param("alpha"),
            lam=param("lambda"), min_gain=param("min_gain"))
        trees = [_tree_from_doc(t) for t in _field(doc, "trees", list)]
        return GbdtModel(_field(doc, "base_score", _NUMBER), trees, params,
                         _field(doc, "feature_gain", list), _field(doc, "n_features", int))
    return MlpModel(param("layer_sizes", list), _field(doc, "weights", list),
                    _field(doc, "biases", list))
