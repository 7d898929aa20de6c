import logging

import numpy as np
import pytest

from bnbprice.models import ridge


X1 = [[1.0], [2.0], [3.0]]
Y1 = [2.0, 4.0, 6.0]


def penalized_objective(X, y, w, c, lam):
    resid = np.asarray(y) - np.asarray(X) @ w - c
    return float(resid @ resid + lam * (w @ w))


def test_exact_linear_data_lambda_zero():
    model = ridge.ridge_fit(X1, Y1, 0.0)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    assert model.intercept == pytest.approx(0.0, abs=1e-12)


def test_lambda_one_closed_form_hand_value():
    # centered data: Sxx = 2, Sxy = 4, so w = 4/(2+1) = 4/3 and c = 4 - (4/3)*2
    model = ridge.ridge_fit(X1, Y1, 1.0)
    assert model.coefficients[0] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert model.intercept == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_huge_lambda_shrinks_to_mean():
    model = ridge.ridge_fit(X1, Y1, 1e9)
    assert abs(model.coefficients[0]) < 1e-6
    assert model.intercept == pytest.approx(4.0, abs=1e-6)


def test_predict_examples():
    model = ridge.RidgeModel(params=ridge.RidgeParams(0.0), coefficients=[2.0], intercept=0.0)
    assert ridge.ridge_predict(model, [[5.0]])[0] == 10.0
    zero = ridge.RidgeModel(params=ridge.RidgeParams(0.0), coefficients=[0.0, 0.0],
                            intercept=3.5)
    assert ridge.ridge_predict(zero, [[9.0, -2.0]])[0] == 3.5


def test_prediction_at_train_mean_equals_target_mean():
    rng = np.random.RandomState(3)
    X = rng.randn(40, 5)
    y = rng.randn(40)
    for lam in (0.0, 0.7, 10.0):
        model = ridge.ridge_fit(X, y, lam)
        at_mean = ridge.ridge_predict(model, X.mean(axis=0)[None, :])[0]
        assert at_mean == pytest.approx(y.mean(), rel=1e-12, abs=1e-12)


def test_matches_direct_normal_equation_solve():
    rng = np.random.RandomState(11)
    X = rng.randn(60, 4)
    y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.3 * rng.randn(60) + 7.0
    lam = 0.9
    model = ridge.ridge_fit(X, y, lam)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    w_ref = np.linalg.solve(Xc.T @ Xc + lam * np.eye(4), Xc.T @ yc)
    assert np.allclose(model.coefficients, w_ref, rtol=1e-10, atol=1e-12)
    assert model.intercept == pytest.approx(
        y.mean() - float(X.mean(axis=0) @ w_ref), rel=1e-10)


def test_collinear_columns_fall_back_with_warning(caplog):
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    with caplog.at_level(logging.WARNING, logger="bnbprice.models.ridge"):
        model = ridge.ridge_fit(X, y, 0.0)
    assert any("singular" in rec.message for rec in caplog.records)
    preds = ridge.ridge_predict(model, X)
    assert np.allclose(preds, y, atol=1e-4)


def test_local_optimality_probe():
    rng = np.random.RandomState(5)
    X = rng.randn(30, 3)
    y = rng.randn(30)
    lam = 0.4
    model = ridge.ridge_fit(X, y, lam)
    base = penalized_objective(X, y, model.coefficients, model.intercept, lam)
    for j in range(3):
        for delta in (1e-3, -1e-3):
            w = model.coefficients.copy()
            w[j] += delta
            assert penalized_objective(X, y, w, model.intercept, lam) >= base
    for delta in (1e-3, -1e-3):
        nudged = penalized_objective(X, y, model.coefficients,
                                     model.intercept + delta, lam)
        assert nudged >= base


def test_coefficient_norm_shrinks_as_lambda_grows():
    rng = np.random.RandomState(9)
    for trial in range(5):
        X = rng.randn(50, 4)
        y = rng.randn(50)
        lams = [0.0, 0.1, 1.0, 10.0, 1000.0]
        norms = [float(np.linalg.norm(ridge.ridge_fit(X, y, lam).coefficients))
                 for lam in lams]
        for small, big in zip(norms, norms[1:]):
            assert small >= big - 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        ridge.ridge_fit([[1.0]], [1.0], -0.5)
    with pytest.raises(ValueError):
        ridge.ridge_fit(np.zeros((0, 2)), np.zeros(0), 1.0)
    model = ridge.ridge_fit(X1, Y1, 1.0)
    with pytest.raises(ValueError):
        ridge.ridge_predict(model, [[1.0, 2.0]])


def test_fit_is_deterministic():
    rng = np.random.RandomState(21)
    X = rng.randn(25, 3)
    y = rng.randn(25)
    a = ridge.ridge_fit(X, y, 0.3)
    b = ridge.ridge_fit(X, y, 0.3)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.intercept == b.intercept
