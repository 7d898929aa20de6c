"""Correctness oracles for the benchmark, written independently of the program.

Each check takes plain values (arrays, parsed documents, file text) and
returns a list of error strings; an empty list means the output passed.
None of them calls the code path it checks: the GBDT root split is
rescanned left to right in plain Python, ridge is re-solved with
numpy.linalg.solve, k-means centroids are recomputed from the points,
and r2 is recomputed from the truth table.
"""

import csv
import hashlib
import io
import math

import numpy as np


def brute_force_root_split(X, r, min_samples_leaf, lam, min_gain):
    """Best (feature, threshold, gain) over all rows, or None.

    Rows are ordered per feature by value with ties in row order, node
    sums accumulate left to right, and the candidate at each boundary
    between distinct values is priced by
    S_L^2/(n_L+lam) + S_R^2/(n_R+lam) - S^2/(n+lam). Ties go to the lower
    feature, then the lower threshold.
    """
    n, m = X.shape
    cols = X.T.tolist()
    res = r.tolist()
    best = None
    for f in range(m):
        col = cols[f]
        ordered = sorted(range(n), key=col.__getitem__)
        total = 0.0
        for i in ordered:
            total += res[i]
        parent = total * total / (n + lam)
        left = 0.0
        for pos in range(n - 1):
            i = ordered[pos]
            left += res[i]
            nl = pos + 1
            nr = n - nl
            a, b = col[i], col[ordered[pos + 1]]
            if a == b or nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            right = total - left
            gain = left * left / (nl + lam) + right * right / (nr + lam) - parent
            if best is None or gain > best[2]:
                best = (f, (a + b) / 2.0, gain)
    if best is None or not best[2] > min_gain:
        return None
    return best


def root_split_errors(expected, engine, model_root):
    """Compare the brute-force root split with the engine's and the model's.

    expected and engine are (feature, threshold, gain) or None; model_root
    is the first tree's root as (feature, threshold), or None for a leaf.
    """
    errors = []
    if expected is None:
        if engine is not None:
            errors.append("find_best_split found %r where no split clears min_gain" % (engine,))
        if model_root is not None:
            errors.append("first tree splits at the root where no split clears min_gain")
        return errors
    f, thr, gain = expected
    if engine is None or engine[0] != f or engine[1] != thr:
        errors.append("find_best_split gave %r, brute force gives feature %d at %r"
                      % (engine, f, thr))
    elif not math.isclose(engine[2], gain, rel_tol=1e-12, abs_tol=1e-12):
        errors.append("root gain %r differs from brute force %r" % (engine[2], gain))
    if model_root != (f, thr):
        errors.append("first tree's root splits %r, brute force gives feature %d at %r"
                      % (model_root, f, thr))
    return errors


def ridge_errors(X, y, lam, coefficients, intercept, rtol=1e-6):
    """Check ridge weights against the centered normal equations.

    (Xc'Xc + lam I) w = Xc'yc, solved by LU; the intercept is
    ybar - xbar.w. Fitted values are compared on the training rows, which
    stays meaningful when one-hot blocks make the system ill-conditioned.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w_file = np.asarray(coefficients, dtype=float)
    if w_file.shape != (X.shape[1],):
        return ["ridge has %d coefficients for %d columns" % (w_file.size, X.shape[1])]
    xbar = X.mean(axis=0)
    ybar = float(y.mean())
    Xc = X - xbar
    A = Xc.T @ Xc + lam * np.eye(X.shape[1])
    w = np.linalg.solve(A, Xc.T @ (y - ybar))
    c = ybar - float(xbar @ w)
    scale = max(1.0, float(np.abs(y).max()))
    fitted_file = X @ w_file + float(intercept)
    fitted = X @ w + c
    worst = float(np.abs(fitted_file - fitted).max())
    if worst > rtol * scale:
        return ["ridge fitted values differ from the normal equations by %.3g" % worst]
    residual = float(np.abs(A @ w_file - Xc.T @ (y - ybar)).max())
    if residual > rtol * max(1.0, float(np.abs(A).max())) * max(1.0, float(np.abs(w).max())):
        return ["ridge coefficients leave a normal-equation residual of %.3g" % residual]
    return []


def kmeans_errors(points, centroids, iterations_run, max_iter, tol):
    """No empty cluster, iterations within the cap, converged centroids at their means."""
    pts = np.asarray(points, dtype=float)
    cen = np.asarray(centroids, dtype=float)
    k = cen.shape[0]
    errors = []
    if not 1 <= iterations_run <= max_iter:
        errors.append("k-means ran %d iterations, cap %d" % (iterations_run, max_iter))
    d2 = ((pts[:, None, :] - cen[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    counts = np.bincount(labels, minlength=k)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        errors.append("%d empty k-means clusters, first %d" % (empty.size, int(empty[0])))
    elif iterations_run < max_iter:
        # stopped early: the last update moved every centroid by < tol
        for j in range(k):
            mean = pts[labels == j].mean(axis=0)
            gap = math.hypot(*(mean - cen[j]))
            if gap > tol * (1.0 + 1e-9) + 1e-12:
                errors.append("centroid %d is %.3g from its points' mean, tol %g" % (j, gap, tol))
                break
    return errors


def r2(pred, truth):
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    sst = float(((truth - truth.mean()) ** 2).sum())
    return 1.0 - float(((truth - pred) ** 2).sum()) / sst


def read_truth(text):
    return {int(row["id"]): float(row["ln_price_true"])
            for row in csv.DictReader(io.StringIO(text))}


def read_listing_prices(text):
    """(id, price text) per listings row, in file order."""
    return [(int(row["id"]), row["price"]) for row in csv.DictReader(io.StringIO(text))]


def prediction_errors(text, input_ids, required_ids):
    """Check predictions.csv against the listings sent to predict.

    Lines must follow input order with no unknown or repeated id, every
    required (priced) id must have one, and price_pred == exp(ln_price_pred)
    exactly. Returns (errors, ln_pred) where ln_pred maps id -> log
    prediction.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["id", "ln_price_pred", "price_pred"]:
        return ["predictions.csv has header %r" % (rows[0] if rows else None,)], {}
    errors = []
    ln_pred = {}
    ids = []
    for row in rows[1:]:
        if len(row) != 3:
            errors.append("prediction line %r does not have 3 fields" % (row,))
            continue
        lid, ln, price = int(row[0]), float(row[1]), float(row[2])
        if not math.isfinite(ln) or price != math.exp(ln):
            errors.append("listing %d: price_pred %r != exp(%r)" % (lid, price, ln))
        ids.append(lid)
        ln_pred[lid] = ln
    if ids != [lid for lid in input_ids if lid in ln_pred]:
        errors.append("prediction ids are repeated, unknown or out of input order")
    missing = [lid for lid in required_ids if lid not in ln_pred]
    if missing:
        errors.append("%d priced listings have no prediction, first id %d"
                      % (len(missing), missing[0]))
    return errors, ln_pred


def report_errors(report):
    """MAE^2 <= MSE for every model and split in report.json."""
    errors = []
    for i, model in enumerate(report["models"]):
        for part in ("train", "val", "test"):
            mse, mae = model[part]["mse"], model[part]["mae"]
            if not mae * mae <= mse * (1.0 + 1e-12) + 1e-15:
                errors.append("model %d %s: mae^2 %r > mse %r" % (i, part, mae * mae, mse))
    return errors


def file_hashes(directory):
    """sha256 of every regular file under directory, keyed by relative path."""
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def identical_errors(reference, hashes, what):
    if reference == hashes:
        return []
    differ = sorted(k for k in set(reference) | set(hashes)
                    if reference.get(k) != hashes.get(k))
    return ["%s differ: %s" % (what, ", ".join(differ))]
