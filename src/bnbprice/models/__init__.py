"""Regressors trained on log price, plus grid search and persistence."""

from .gbdt import (GbdtModel, GbdtParams, Tree, find_best_split, gbdt_fit,
                   gbdt_predict)
from .grid import grid_search
from .mlp import MlpModel, MlpParams, loss_and_grads, mlp_fit, mlp_predict
from .registry import (KINDS, MODEL_KINDS, MODEL_SCHEMA_VERSION, fit_model, kind_of,
                       model_from_doc, model_to_doc, params_from_entry, predict_model)
from .ridge import RidgeModel, RidgeParams, ridge_fit, ridge_predict

__all__ = [
    "GbdtModel", "GbdtParams", "Tree", "find_best_split", "gbdt_fit",
    "gbdt_predict", "grid_search", "MlpModel", "MlpParams", "loss_and_grads", "mlp_fit",
    "mlp_predict", "KINDS", "MODEL_KINDS", "MODEL_SCHEMA_VERSION", "fit_model", "kind_of",
    "model_from_doc", "model_to_doc", "params_from_entry", "predict_model",
    "RidgeModel", "RidgeParams", "ridge_fit", "ridge_predict",
]
