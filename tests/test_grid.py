import logging

import numpy as np
import pytest

from bnbprice.models.grid import grid_search
from bnbprice.transform import FeatureMatrix


def matrix(X, y):
    X = np.asarray(X, dtype=float)
    return FeatureMatrix(values=X, columns=[], target=np.asarray(y, dtype=float),
                         ids=list(range(X.shape[0])))


def linear_split():
    rng = np.random.RandomState(0)
    X = rng.uniform(-2.0, 2.0, size=(80, 1))
    y = 3.0 * X[:, 0] + 1.0
    return matrix(X[:60], y[:60]), matrix(X[60:], y[60:])


def test_single_cell_grid_returns_that_cell():
    train, val = linear_split()
    best, cells, model = grid_search("ridge", {"lambda": [0.5]}, train, val)
    assert best == {"lambda": 0.5}
    assert len(cells) == 1
    assert cells[0]["status"] == "ok"
    assert model.lam == 0.5


def test_huge_lambda_loses_on_linear_data():
    train, val = linear_split()
    best, cells, _ = grid_search("ridge", {"lambda": [0.0, 1e9]}, train, val)
    assert best == {"lambda": 0.0}
    assert cells[0]["val_mse"] < cells[1]["val_mse"]
    assert cells[0]["val_mse"] == pytest.approx(0.0, abs=1e-16)


def test_tie_keeps_first_declared_cell():
    # a constant target makes every lambda fit the same flat model
    X = np.arange(10, dtype=float)[:, None]
    y = np.full(10, 4.0)
    train, val = matrix(X[:7], y[:7]), matrix(X[7:], y[7:])
    best, cells, _ = grid_search("ridge", {"lambda": [2.0, 1.0]}, train, val)
    assert [c["val_mse"] for c in cells] == [0.0, 0.0]
    assert best == {"lambda": 2.0}


def test_cells_visit_row_major_declaration_order():
    train, val = linear_split()
    best, cells, _ = grid_search(
        "gbdt",
        {"learning_rate": [0.5, 1.0], "max_depth": [1, 2]},
        train, val,
        base_params={"n_estimators": 5, "min_samples_leaf": 5, "alpha": 0.0})
    seen = [(c["params"]["learning_rate"], c["params"]["max_depth"]) for c in cells]
    assert seen == [(0.5, 1), (0.5, 2), (1.0, 1), (1.0, 2)]
    assert all(c["status"] == "ok" for c in cells)


def test_failed_cell_recorded_and_skipped(caplog):
    train, val = linear_split()
    with caplog.at_level(logging.WARNING, logger="bnbprice.models.grid"):
        best, cells, _ = grid_search(
            "gbdt", {"n_estimators": [-1, 3]}, train, val,
            base_params={"min_samples_leaf": 5, "alpha": 0.0})
    assert best == {"n_estimators": 3}
    assert cells[0] == {"params": {"n_estimators": -1}, "val_mse": None,
                        "status": "failed"}
    assert cells[1]["status"] == "ok"
    assert any("failed" in rec.message for rec in caplog.records)


def test_all_cells_failing_raises():
    train, val = linear_split()
    with pytest.raises(ValueError, match="every grid cell failed"):
        grid_search("gbdt", {"n_estimators": [-1, -2]}, train, val)


def test_empty_grid_raises():
    train, val = linear_split()
    with pytest.raises(ValueError, match="empty grid"):
        grid_search("ridge", {}, train, val)


def test_base_params_do_not_leak_into_best():
    train, val = linear_split()
    best, cells, model = grid_search(
        "gbdt", {"max_depth": [2]}, train, val,
        base_params={"n_estimators": 4, "min_samples_leaf": 5, "alpha": 0.0})
    assert best == {"max_depth": 2}
    assert model.params.n_estimators == 4


def test_mistyped_cell_is_recorded_as_failed():
    train, val = linear_split()
    best, cells, _ = grid_search("ridge", {"lambda": ["2", 1.0]}, train, val)
    assert best == {"lambda": 1.0}
    assert cells[0] == {"params": {"lambda": "2"}, "val_mse": None, "status": "failed"}
