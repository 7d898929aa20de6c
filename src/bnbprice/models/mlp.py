"""Small dense feed-forward network trained with momentum SGD.

Rectifier activations on hidden layers, identity output, mean squared
error loss. Weights start uniform in [-1, 1] scaled by 1/sqrt(fan_in)
from a seeded generator, biases at zero; the epoch shuffle comes from
the same generator, so a seed fixes the whole run.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MlpParams:
    hidden_sizes: list[int] = field(default_factory=lambda: [64, 32])
    epochs: int = 200
    batch_size: int = 256
    step_size: float = 1e-3


class MlpModel:
    def __init__(self, layer_sizes, weights, biases):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]


def _forward(weights, biases, X):
    """All layer activations, input first, network output last."""
    activations = [X]
    h = X
    last = len(weights) - 1
    for layer, (W, b) in enumerate(zip(weights, biases)):
        z = h @ W + b
        h = z if layer == last else np.maximum(z, 0.0)
        activations.append(h)
    return activations


def loss_and_grads(weights, biases, X, y):
    """Batch MSE and its gradients for every weight matrix and bias.

    Exposed separately so the analytic gradients can be checked against
    finite differences.
    """
    activations = _forward(weights, biases, X)
    pred = activations[-1][:, 0]
    err = pred - y
    n = X.shape[0]
    loss = float(np.mean(err ** 2))
    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    delta = (2.0 / n) * err[:, None]
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            # rectifier derivative: 1 where the activation is positive
            delta = (delta @ weights[layer].T) * (activations[layer] > 0.0)
    return loss, grad_w, grad_b


def mlp_fit(X, y, layer_sizes, epochs=MlpParams.epochs, batch_size=MlpParams.batch_size,
            step_size=MlpParams.step_size, seed=0, momentum=0.9):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError("X must be (n, m) with one target per row")
    layer_sizes = tuple(int(s) for s in layer_sizes)
    if len(layer_sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if layer_sizes[0] != X.shape[1]:
        raise ValueError("layer_sizes[0] must equal the feature count")
    if layer_sizes[-1] != 1:
        raise ValueError("the output layer must have size 1")
    if epochs < 1 or batch_size < 1 or step_size <= 0.0:
        raise ValueError("epochs and batch_size must be >= 1, step_size > 0")

    rng = np.random.RandomState(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.uniform(-1.0, 1.0, size=(fan_in, fan_out)) / math.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    vel_w = [np.zeros_like(W) for W in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    n = X.shape[0]
    for epoch in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = perm[start:start + batch_size]
            loss, grad_w, grad_b = loss_and_grads(weights, biases, X[batch], y[batch])
            if not math.isfinite(loss):
                raise RuntimeError(
                    "non-finite training loss at epoch %d; step_size %g is too large"
                    % (epoch, step_size))
            for layer in range(len(weights)):
                vel_w[layer] = momentum * vel_w[layer] - step_size * grad_w[layer]
                weights[layer] = weights[layer] + vel_w[layer]
                vel_b[layer] = momentum * vel_b[layer] - step_size * grad_b[layer]
                biases[layer] = biases[layer] + vel_b[layer]
    return MlpModel(layer_sizes, weights, biases)


def mlp_predict(model, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise ValueError("expected %d features, got %s" % (model.layer_sizes[0], X.shape))
    return _forward(model.weights, model.biases, X)[-1][:, 0]
