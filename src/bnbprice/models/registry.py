"""Model registry: KINDS, one class per model kind, and the code that goes through it.

The kind classes look this module's fit and predict functions up by name
at call time, so replacing one here (as benchmark/tracer.py does) takes
effect for its kind. Model files are versioned JSON documents; a file
read back predicts byte-identically because every float survives the
round trip exactly. Past its schema version, kind and the sha256 of the
pipeline.json written with it, a model file is the kind's model
dataclass, as serialize's checked pair writes and reads it.
"""

from .. import np
from ..serialize import dataclass_from_doc, dataclass_to_doc, field
from .gbdt import GbdtModel, GbdtParams, gbdt_fit, gbdt_predict
from .mlp import MlpModel, MlpParams, mlp_fit, mlp_predict
from .ridge import RidgeModel, RidgeParams, ridge_fit, ridge_predict

MODEL_SCHEMA_VERSION = 2


def params_from_entry(kind, entry):
    """The kind's params dataclass from config keys (a models entry without
    its "kind", or a grid cell), checked as serialize.dataclass_from_doc does."""
    if kind not in MODEL_KINDS:
        raise ValueError("unknown model kind %r" % kind)
    return dataclass_from_doc(KINDS[kind].params, entry, "%s params" % kind)


class Ridge:
    params = RidgeParams
    model = RidgeModel

    def fit(self, p, X, y, seed):
        return ridge_fit(X, y, p.lam)

    def predict(self, model, X):
        return ridge_predict(model, X)

    def importance(self, model):
        return np.abs(model.coefficients)


class Gbdt:
    params = GbdtParams
    model = GbdtModel

    def fit(self, p, X, y, seed):
        return gbdt_fit(X, y, p)

    def predict(self, model, X):
        return gbdt_predict(model, X)

    def importance(self, model):
        return model.feature_gain


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
    return {"schema_version": MODEL_SCHEMA_VERSION, "kind": kind_of(model),
            "pipeline_sha256": pipeline_sha256, **dataclass_to_doc(model)}


def model_from_doc(doc):
    """Model object from its document; a malformed document is a ValueError."""
    version = field(doc, "schema_version", int, "model")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError("unsupported model schema_version %r" % version)
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        raise ValueError("unknown model kind %r" % kind)
    field(doc, "pipeline_sha256", str, "model")
    body = {key: value for key, value in doc.items()
            if key not in ("schema_version", "kind", "pipeline_sha256")}
    return dataclass_from_doc(KINDS[kind].model, body, "model", required=True)
