"""Cartesian grid search scored by validation MSE."""

import itertools
import logging

from .. import np
from . import registry

log = logging.getLogger(__name__)


def grid_search(model_kind, param_grid, train_matrix, val_matrix,
                base_params=None, seed=0):
    """Fit one model per grid cell and keep the lowest validation MSE.

    Cells are visited in row-major order over the declared value lists,
    and a tie keeps the earlier cell. A cell whose fit raises is logged,
    recorded with val_mse None, and skipped; if every cell fails there
    is nothing to return and the search raises ValueError.

    Returns (best_params, cells, best_model) where cells is the full
    score table in visit order.
    """
    if not param_grid:
        raise ValueError("empty grid")
    names = list(param_grid)
    cells = []
    best = None
    for combo in itertools.product(*(param_grid[name] for name in names)):
        cell = dict(zip(names, combo))
        merged = dict(base_params or {})
        merged.update(cell)
        try:
            model = registry.fit_model(model_kind, merged, train_matrix.values,
                                       train_matrix.target, seed=seed)
            pred = registry.predict_model(model, val_matrix.values)
            val_mse = float(np.mean((np.asarray(val_matrix.target, dtype=float) - pred) ** 2))
        except (ValueError, FloatingPointError, RuntimeError) as exc:  # LinAlgError too
            log.warning("grid cell %r failed: %s", cell, exc)
            cells.append({"params": cell, "val_mse": None, "status": "failed"})
            continue
        cells.append({"params": cell, "val_mse": val_mse, "status": "ok"})
        if best is None or val_mse < best[0]:
            best = (val_mse, cell, model)
    if best is None:
        raise ValueError("every grid cell failed to train")
    return best[1], cells, best[2]
