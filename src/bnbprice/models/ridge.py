"""Closed-form ridge regression on centered data.

Minimizes ||y - Xw - c||^2 + lambda ||w||^2 with an unpenalized
intercept: center X and y, solve the normal equations through a
Cholesky factorization, then c = ybar - xbar . w.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

LAMBDA_FLOOR = 1e-10


@dataclass(frozen=True)
class RidgeParams:
    lam: float = field(default=1.0, metadata={"json": "lambda"})


class RidgeModel:
    def __init__(self, coefficients, intercept, lam):
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.intercept = float(intercept)
        self.lam = float(lam)


def _spd_solve(A, b):
    """Solve A x = b for symmetric positive definite A via Cholesky."""
    L = np.linalg.cholesky(A)
    n = L.shape[0]
    z = np.zeros(n)
    for i in range(n):
        z[i] = (b[i] - L[i, :i] @ z[:i]) / L[i, i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (z[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


def ridge_fit(X, y, lam):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError("X must be (n, m) with one target per row")
    if lam < 0.0:
        raise ValueError("lambda must be >= 0")
    xbar = X.mean(axis=0)
    ybar = float(y.mean())
    Xc = X - xbar
    yc = y - ybar
    m = X.shape[1]
    rhs = Xc.T @ yc
    try:
        w = _spd_solve(Xc.T @ Xc + lam * np.eye(m), rhs)
    except np.linalg.LinAlgError:
        # collinear columns at lambda 0 leave the system singular
        log.warning("singular normal equations at lambda=%g, refitting with floor %g",
                    lam, LAMBDA_FLOOR)
        w = _spd_solve(Xc.T @ Xc + LAMBDA_FLOOR * np.eye(m), rhs)
    intercept = ybar - float(xbar @ w)
    return RidgeModel(w, intercept, lam)


def ridge_predict(model, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.coefficients.shape[0]:
        raise ValueError("expected %d features, got %s"
                         % (model.coefficients.shape[0], X.shape))
    return X @ model.coefficients + model.intercept
