import warnings

import numpy as np
import pytest

from bnbprice.models import mlp


def random_network(seed):
    """Small random network plus a batch, for gradient checking."""
    rng = np.random.RandomState(1000 + seed)
    sizes = [rng.randint(1, 5), rng.randint(2, 6), 1]
    if rng.rand() < 0.5:
        sizes.insert(2, rng.randint(2, 5))
    n = rng.randint(3, 8)
    X = rng.randn(n, sizes[0])
    y = rng.randn(n)
    weights = [rng.randn(a, b) * 0.7 for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.randn(b) * 0.3 for b in sizes[1:]]
    return weights, biases, X, y


def numeric_grads(weights, biases, X, y, h=1e-5):
    def loss_at():
        return mlp.loss_and_grads(weights, biases, X, y)[0]

    grad_w = [np.zeros_like(W) for W in weights]
    grad_b = [np.zeros_like(b) for b in biases]
    for arrs, grads in ((weights, grad_w), (biases, grad_b)):
        for arr, grad in zip(arrs, grads):
            flat = arr.reshape(-1)
            out = grad.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss_at()
                flat[i] = keep - h
                down = loss_at()
                flat[i] = keep
                out[i] = (up - down) / (2.0 * h)
    return grad_w, grad_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a_arrs, n_arrs in ((analytic[0], numeric[0]), (analytic[1], numeric[1])):
        for a, f in zip(a_arrs, n_arrs):
            rel = np.abs(a - f) / (np.abs(a) + np.abs(f) + 1e-8)
            worst = max(worst, float(rel.max()))
    return worst


def test_zero_network_outputs_zero():
    sizes = (3, 2, 1)
    weights = [np.zeros((3, 2)), np.zeros((2, 1))]
    biases = [np.zeros(2), np.zeros(1)]
    model = mlp.MlpModel(params=mlp.MlpShape(sizes), weights=weights, biases=biases)
    X = np.random.RandomState(0).randn(6, 3)
    assert np.array_equal(mlp.mlp_predict(model, X), np.zeros(6))


def test_single_affine_layer():
    model = mlp.MlpModel(params=mlp.MlpShape((1, 1)), weights=[np.array([[2.0]])],
                         biases=[np.array([1.0])])
    assert mlp.mlp_predict(model, np.array([[3.0]]))[0] == 7.0


def test_predictions_are_deterministic():
    rng = np.random.RandomState(12)
    X = rng.randn(50, 2)
    y = rng.randn(50)
    a = mlp.mlp_fit(X, y, layer_sizes=(2, 4, 1), epochs=5, seed=3)
    b = mlp.mlp_fit(X, y, layer_sizes=(2, 4, 1), epochs=5, seed=3)
    assert all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights))
    X2 = np.array(X, copy=True)
    assert np.array_equal(mlp.mlp_predict(a, X), mlp.mlp_predict(a, X2))


def test_gradients_match_finite_differences_3_2_1():
    rng = np.random.RandomState(42)
    weights = [rng.randn(3, 2) * 0.7, rng.randn(2, 1) * 0.7]
    biases = [rng.randn(2) * 0.3, rng.randn(1) * 0.3]
    X = rng.randn(5, 3)
    y = rng.randn(5)
    _, gw, gb = mlp.loss_and_grads(weights, biases, X, y)
    numeric = numeric_grads(weights, biases, X, y)
    assert max_relative_error((gw, gb), numeric) < 1e-4


def test_gradients_match_on_random_networks():
    for seed in range(6):
        weights, biases, X, y = random_network(seed)
        _, gw, gb = mlp.loss_and_grads(weights, biases, X, y)
        numeric = numeric_grads(weights, biases, X, y)
        assert max_relative_error((gw, gb), numeric) < 1e-4, "seed %d" % seed


def test_convergence_on_linear_target():
    rng = np.random.RandomState(42)
    X = rng.uniform(-1.0, 1.0, size=(200, 1))
    y = 2.0 * X[:, 0]
    model = mlp.mlp_fit(X, y, layer_sizes=(1, 8, 1), epochs=500,
                        batch_size=256, step_size=0.01, seed=0)
    mse = float(np.mean((mlp.mlp_predict(model, X) - y) ** 2))
    assert mse < 1e-2


def test_divergence_raises_with_diagnostics():
    rng = np.random.RandomState(5)
    X = rng.randn(100, 2) * 10.0
    y = rng.randn(100) * 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error, not a numpy warning, reports it
        with pytest.raises(RuntimeError, match="non-finite training loss at epoch .*step_size"):
            mlp.mlp_fit(X, y, layer_sizes=(2, 8, 1), epochs=200,
                        batch_size=16, step_size=10.0, seed=0)


def test_non_finite_weights_after_the_last_update_raise():
    # one batch: its loss is finite, and no later loss sees the overflowed update
    X = np.array([[100.0, -50.0], [30.0, 80.0], [-70.0, 20.0]])
    y = np.array([1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"^non-finite weights at epoch 0; step_size 1e\+306"):
            mlp.mlp_fit(X, y, layer_sizes=(2, 3, 1), epochs=1, batch_size=3, step_size=1e306)


def test_a_loss_that_rose_without_overflow_raises():
    rng = np.random.RandomState(5)
    X = rng.randn(100, 2)
    y = rng.randn(100)
    fit = dict(layer_sizes=(2, 8, 1), batch_size=100, step_size=1.0, seed=0)
    with pytest.raises(RuntimeError, match=r"^mean training loss rose from 0\.9\d+ in epoch 0 "
                                           r"to 0\.97\d+ in epoch 1; step_size 1 is too large$"):
        mlp.mlp_fit(X, y, epochs=2, **fit)
    # the rule compares the first and the last epoch; one epoch is not checked
    mlp.mlp_fit(X, y, epochs=1, **fit)
    mlp.mlp_fit(X, y, epochs=3, **fit)


def test_validation_errors():
    X = np.zeros((4, 2))
    y = np.zeros(4)
    with pytest.raises(ValueError):
        mlp.mlp_fit(X, y, layer_sizes=(3, 4, 1))
    with pytest.raises(ValueError):
        mlp.mlp_fit(X, y, layer_sizes=(2, 4, 2))
    with pytest.raises(ValueError):
        mlp.mlp_fit(X, y, layer_sizes=(2,))
    with pytest.raises(ValueError):
        mlp.mlp_fit(X, y, layer_sizes=(2, 4, 1), epochs=0)
    with pytest.raises(ValueError):
        mlp.mlp_fit(X, y, layer_sizes=(2, 4, 1), step_size=0.0)
    model = mlp.mlp_fit(X, y, layer_sizes=(2, 3, 1), epochs=1)
    with pytest.raises(ValueError):
        mlp.mlp_predict(model, np.zeros((2, 5)))
