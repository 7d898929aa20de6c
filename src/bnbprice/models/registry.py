"""Model registry: KINDS, one class per model kind, and the code that goes through it.

The kind classes look this module's fit and predict functions up by name
at call time, so replacing one here (as benchmark/tracer.py does) takes
effect for its kind. Model files are versioned JSON documents; a file
read back predicts byte-identically because every float survives the
round trip exactly. A GBDT file stores each tree as its Tree arrays, and
every model file names the sha256 of the pipeline.json written with it.
"""

import numpy as np

from ..serialize import dataclass_from_doc, dataclass_to_doc, field
from .gbdt import GbdtModel, GbdtParams, Tree, gbdt_fit, gbdt_predict
from .mlp import MlpModel, MlpParams, mlp_fit, mlp_predict
from .ridge import RidgeModel, RidgeParams, ridge_fit, ridge_predict

MODEL_SCHEMA_VERSION = 2


def params_from_entry(kind, entry):
    """The kind's params dataclass from config keys (a models entry without
    its "kind", or a grid cell), checked as serialize.dataclass_from_doc does."""
    if kind not in MODEL_KINDS:
        raise ValueError("unknown model kind %r" % kind)
    return dataclass_from_doc(KINDS[kind].params, entry, "%s params" % kind)


def _doc_params(cls, doc):
    return dataclass_from_doc(cls, field(doc, "params", dict, "model"), "model params",
                              required=True)


def _tree_from_doc(doc, n_features, where):
    """Tree from its node arrays, checked so that predict_rows always ends at a leaf."""
    tree = Tree(*(field(doc, name, list[t], where) for name, t in Tree.ARRAYS.items()))
    n = len(tree.feature)
    if n == 0 or any(len(getattr(tree, name)) != n for name in Tree.__slots__):
        raise ValueError("%s: node arrays must be non-empty and of equal length" % where)
    if tree.feature.min() < -1 or tree.feature.max() >= n_features:
        raise ValueError("%s: feature ids must lie in [-1, %d)" % (where, n_features))
    if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
        raise ValueError("%s: thresholds and values must be finite" % where)
    inner = np.flatnonzero(tree.feature >= 0)
    # every step down moves to a later node, so no walk can cycle
    for child in (tree.left[inner], tree.right[inner]):
        if not ((inner < child) & (child < n)).all():
            raise ValueError("%s: children must lie after their node and inside the tree"
                             % where)
    return tree


class Ridge:
    params = RidgeParams
    model = RidgeModel

    def fit(self, p, X, y, seed):
        return ridge_fit(X, y, p.lam)

    def predict(self, model, X):
        return ridge_predict(model, X)

    def importance(self, model):
        return np.abs(model.coefficients)

    def to_doc(self, model):
        return {"params": dataclass_to_doc(RidgeParams(model.lam)),
                "coefficients": [float(v) for v in model.coefficients],
                "intercept": model.intercept}

    def from_doc(self, doc):
        lam = _doc_params(RidgeParams, doc).lam
        return RidgeModel(field(doc, "coefficients", list, "model"),
                          field(doc, "intercept", float, "model"), lam)


class Gbdt:
    params = GbdtParams
    model = GbdtModel

    def fit(self, p, X, y, seed):
        return gbdt_fit(X, y, p)

    def predict(self, model, X):
        return gbdt_predict(model, X)

    def importance(self, model):
        return model.feature_gain

    def to_doc(self, model):
        return {"params": dataclass_to_doc(model.params),
                "n_features": model.n_features,
                "base_score": model.base_score,
                "feature_gain": [float(v) for v in model.feature_gain],
                "trees": [{name: getattr(t, name).tolist() for name in Tree.__slots__}
                          for t in model.trees]}

    def from_doc(self, doc):
        params = _doc_params(GbdtParams, doc)
        n_features = field(doc, "n_features", int, "model")
        trees = [_tree_from_doc(t, n_features, "model tree %d" % i)
                 for i, t in enumerate(field(doc, "trees", list, "model"))]
        return GbdtModel(field(doc, "base_score", float, "model"), trees, params,
                         field(doc, "feature_gain", list, "model"), n_features)


class Mlp:
    params = MlpParams
    model = MlpModel

    def fit(self, p, X, y, seed):
        return mlp_fit(X, y, layer_sizes=(np.shape(X)[1], *p.hidden_sizes, 1), epochs=p.epochs,
                       batch_size=p.batch_size, step_size=p.step_size, seed=seed)

    def predict(self, model, X):
        return mlp_predict(model, X)

    def importance(self, model):
        return np.sum(np.abs(model.weights[0]), axis=1)

    # the file records the network's shape, not the training params
    def to_doc(self, model):
        return {"params": {"layer_sizes": list(model.layer_sizes)},
                "weights": [W.tolist() for W in model.weights],
                "biases": [b.tolist() for b in model.biases]}

    def from_doc(self, doc):
        p = field(doc, "params", dict, "model")
        return MlpModel(field(p, "layer_sizes", list[int], "model params"),
                        field(doc, "weights", list, "model"), field(doc, "biases", list, "model"))


KINDS = {"ridge": Ridge(), "gbdt": Gbdt(), "mlp": Mlp()}
MODEL_KINDS = tuple(KINDS)
_KIND_OF_MODEL = {spec.model: kind for kind, spec in KINDS.items()}


def kind_of(model):
    """The KINDS key of a model object."""
    return _KIND_OF_MODEL[type(model)]


def fit_model(kind, params, X, y, seed=0):
    """Fit a kind on (X, y); params maps config keys to values (see params_from_entry)."""
    p = params_from_entry(kind, params)
    return KINDS[kind].fit(p, X, y, seed)


def predict_model(model, X):
    return KINDS[kind_of(model)].predict(model, X)


def model_to_doc(model, pipeline_sha256):
    """The model's file document, naming the hex sha256 of the pipeline.json bytes
    written beside it, which predict checks."""
    kind = kind_of(model)
    return {"schema_version": MODEL_SCHEMA_VERSION, "kind": kind,
            "pipeline_sha256": pipeline_sha256, **KINDS[kind].to_doc(model)}


def model_from_doc(doc):
    """Model object from its document; a missing or mistyped key is a ValueError."""
    version = field(doc, "schema_version", int, "model")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError("unsupported model schema_version %r" % version)
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise ValueError("unknown model kind %r" % kind)
    field(doc, "pipeline_sha256", str, "model")
    return KINDS[kind].from_doc(doc)
