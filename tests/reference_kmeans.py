"""Test oracle: the plain Lloyd loop that the pruned k-means replaced.

`kmeans_fit` below computes every point's full distance row in every
round and builds each centroid through its own boolean mask.
`_repair_empty` reads the full distance matrix. `geofeat.kmeans_fit`
must return the same centroid bytes and `iterations_run`.
"""

import math
import random

import numpy as np

from bnbprice import InvariantError
from bnbprice.geofeat import EARTH_RADIUS_KM, ClusterModel


def _haversine_matrix(points, centroids):
    """Pairwise haversine distances, inputs in degrees, shape (n, k)."""
    p = np.radians(points)
    c = np.radians(centroids)
    dlat = p[:, None, 0] - c[None, :, 0]
    dlon = p[:, None, 1] - c[None, :, 1]
    h = (np.sin(dlat / 2.0) ** 2
         + np.cos(p[:, None, 0]) * np.cos(c[None, :, 0]) * np.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _distance_matrix(points, centroids, metric):
    if metric == "euclidean":
        # (n, k) planes instead of an (n, k, 2) difference tensor; the
        # arithmetic, dx*dx + dy*dy then sqrt, is the same bit for bit
        dx = points[:, 0:1] - centroids[None, :, 0]
        dy = points[:, 1:2] - centroids[None, :, 1]
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)
    if metric == "haversine":
        return _haversine_matrix(points, centroids)
    raise ValueError("unknown metric %r" % metric)


def kmeans_fit(points, k, metric="euclidean", seed=0, max_iter=100, tol=1e-6):
    """Lloyd's algorithm from a seeded farthest-point-spread start.

    The first centroid is a seeded random point; each next one is the
    point farthest from the already chosen set (ties: lowest index).
    Iterations stop when every centroid moves less than tol (measured in
    euclidean degrees for either metric) or after max_iter rounds. Empty
    clusters are repaired by stealing the worst-fit point, so exactly k
    centroids always come back. Fully deterministic given (points order,
    k, seed).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    n = pts.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    if k < 1:
        raise ValueError("k must be >= 1")
    n_distinct = np.unique(pts, axis=0).shape[0]
    if k > n_distinct:
        raise ValueError("k=%d exceeds the %d distinct points" % (k, n_distinct))

    rng = random.Random(seed)
    centroids = np.empty((k, 2))
    centroids[0] = pts[rng.randrange(n)]
    if k > 1:
        dmin = _distance_matrix(pts, centroids[0:1], metric)[:, 0]
        for j in range(1, k):
            centroids[j] = pts[int(np.argmax(dmin))]
            if j + 1 < k:
                dj = _distance_matrix(pts, centroids[j:j + 1], metric)[:, 0]
                dmin = np.minimum(dmin, dj)

    iterations = 0
    prev_objective = math.inf
    for _ in range(max_iter):
        dist = _distance_matrix(pts, centroids, metric)
        assign = np.argmin(dist, axis=1)
        if metric == "euclidean":
            # mean updates cannot worsen the summed squared assignment
            # distance; a violation would mean the engine is broken
            own = dist[np.arange(n), assign]
            objective = float(np.sum(own * own))
            if not objective <= prev_objective * (1.0 + 1e-12) + 1e-12:
                raise InvariantError("k-means objective increased from %r to %r"
                                     % (prev_objective, objective))
            prev_objective = objective
        assign = _repair_empty(assign, dist, k)
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            new_centroids[j] = pts[assign == j].mean(axis=0)
        move = np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1))
        centroids = new_centroids
        iterations += 1
        if np.all(move < tol):
            break
    return ClusterModel(centroids=centroids, metric=metric, k=k,
                        seed=seed, iterations_run=iterations)


def _repair_empty(assign, dist, k):
    """Hand each empty cluster the point farthest from its assigned centroid.

    Only clusters keeping at least one other member may donate; ties go
    to the lowest point index. Since n >= k a donor always exists.
    """
    counts = np.bincount(assign, minlength=k)
    empties = np.nonzero(counts == 0)[0]
    if empties.size == 0:
        return assign
    assign = assign.copy()
    own = dist[np.arange(len(assign)), assign].copy()
    for j in empties:
        donors = counts[assign] >= 2
        if not donors.any():
            raise InvariantError("no donor cluster for empty cluster %d" % j)
        cand = np.where(donors, own, -np.inf)
        p = int(np.argmax(cand))
        counts[assign[p]] -= 1
        assign[p] = j
        counts[j] = 1
        own[p] = 0.0  # the reseeded centroid lands on this point
    return assign
