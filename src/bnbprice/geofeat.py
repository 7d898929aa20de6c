"""Geospatial features: k-means cluster labels and neighbourhood statistics."""

import math
import random
import reprlib
from dataclasses import dataclass

import numpy as np

from . import InvariantError

EARTH_RADIUS_KM = 6371.0

# reserved category for listings whose neighbourhood field is absent
MISSING_NEIGHBOURHOOD = "(missing)"

GEO_METRICS = ("euclidean", "haversine")


def haversine_km(a, b):
    """Great-circle distance in kilometres between two (lat, lon) points.

    Coordinates are degrees; the sphere radius is pinned to 6371.0 km.
    """
    lat1 = math.radians(a[0])
    lat2 = math.radians(b[0])
    dlat = lat2 - lat1
    dlon = math.radians(b[1]) - math.radians(a[1])
    h = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


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


@dataclass(frozen=True)
class ClusterModel:
    centroids: list[list[float]]  # (k, 2) latitude/longitude in degrees, an ndarray
    metric: str
    k: int
    seed: int
    iterations_run: int

    def __post_init__(self):
        object.__setattr__(self, "centroids", np.asarray(self.centroids, dtype=float))
        if self.k < 1 or self.centroids.shape != (self.k, 2):
            raise ValueError("centroids must have shape (k, 2) = (%d, 2), got %s"
                             % (self.k, self.centroids.shape))
        if self.metric not in GEO_METRICS:
            raise ValueError("metric must be one of %s, got %r" % (GEO_METRICS, self.metric))


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


def assign_all(points, model):
    """Vectorized nearest-centroid labels for an (n, 2) array."""
    pts = np.asarray(points, dtype=float)
    dist = _distance_matrix(pts, model.centroids, model.metric)
    return np.argmin(dist, axis=1)


@dataclass(frozen=True)
class NeighbourhoodStats:
    categories: list[str]   # top-N names plus a trailing "other", a tuple
    counts: dict[str, int]  # every observed training value -> listing count

    def __post_init__(self):
        names = tuple(self.categories)
        object.__setattr__(self, "categories", names)
        if names[-1:] != ("other",) or len(set(names)) != len(names):
            raise ValueError("categories must be distinct and end with 'other', got %s"
                             % reprlib.repr(names))


def fit_neighbourhood_stats(train_listings, top_n=25):
    """Count training neighbourhoods and keep the top_n as categories.

    Absent values are tallied under the reserved "(missing)" name. Count
    ties rank lexicographically. The category list always ends with the
    catch-all "other"; a neighbourhood really named "other" is never
    ranked, so its listings fall to the catch-all.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    counts = {}
    for rec in train_listings:
        name = rec.neighbourhood if rec.neighbourhood is not None else MISSING_NEIGHBOURHOOD
        counts[name] = counts.get(name, 0) + 1
    ranked = sorted(counts.keys() - {"other"}, key=lambda name: (-counts[name], name))
    return NeighbourhoodStats(categories=tuple(ranked[:top_n]) + ("other",),
                              counts=counts)


def neighbourhood_popularity(listing, stats):
    """ln(1 + training count of the listing's neighbourhood), 0 if unseen or absent."""
    if listing.neighbourhood is None:
        return 0.0
    return math.log1p(stats.counts.get(listing.neighbourhood, 0))


_SVG_PALETTE = ("#4878a8", "#d1605e", "#6aa56e", "#e8a33d", "#8a6fb0",
                "#56939c", "#c26fa8", "#97843c")


def clusters_svg(points, labels, model, width=1000, height=800):
    """Plain scatter of points coloured by cluster with centroid markers."""
    pts = np.asarray(points, dtype=float)
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (width, height, width, height),
           '<rect width="%d" height="%d" fill="white"/>' % (width, height)]
    if pts.shape[0]:
        pad = 40.0
        lat_lo, lat_hi = float(pts[:, 0].min()), float(pts[:, 0].max())
        lon_lo, lon_hi = float(pts[:, 1].min()), float(pts[:, 1].max())
        lat_span = (lat_hi - lat_lo) or 1.0
        lon_span = (lon_hi - lon_lo) or 1.0

        def place(lat, lon):
            x = pad + (lon - lon_lo) / lon_span * (width - 2 * pad)
            y = height - pad - (lat - lat_lo) / lat_span * (height - 2 * pad)
            return x, y

        for i in range(pts.shape[0]):
            x, y = place(pts[i, 0], pts[i, 1])
            colour = _SVG_PALETTE[int(labels[i]) % len(_SVG_PALETTE)]
            out.append('<circle cx="%.2f" cy="%.2f" r="2" fill="%s" fill-opacity="0.5"/>'
                       % (x, y, colour))
        for j in range(model.k):
            x, y = place(float(model.centroids[j, 0]), float(model.centroids[j, 1]))
            out.append('<circle cx="%.2f" cy="%.2f" r="6" fill="none" '
                       'stroke="black" stroke-width="2"/>' % (x, y))
    out.append("</svg>")
    return "\n".join(out) + "\n"
