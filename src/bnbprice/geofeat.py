"""Geospatial features: k-means cluster labels and neighbourhood statistics.

The clusters come from Lloyd's algorithm with exact pruning. A point
whose centroid provably stays its nearest keeps it without a distance
row: its distance to that centroid, plus a rounding margin, is below
half the gap to the centroid's nearest neighbour (Elkan, ICML 2003), or
below a lower bound on its other distances carried from its last full
row (Hamerly, SDM 2010), minus the margin. Every other point gets its
full row and argmin, so the result is the plain loop's, bit for bit;
`kmeans_fit` gives the margin argument.
"""

import math
import random
import reprlib
from dataclasses import dataclass

from . import InvariantError, np

EARTH_RADIUS_KM = 6371.0

# reserved category for listings whose neighbourhood field is absent
MISSING_NEIGHBOURHOOD = "(missing)"

GEO_METRICS = ("euclidean", "haversine")

# distance entries kmeans_fit computes at a time: its rows come in blocks whose temporaries
# stay in cache: 1.3x faster than one matrix of 2500 rows at k = 100 on a 2-core x86-64 host
_BLOCK_ENTRIES = 2**15


def _distance(p, c, metric):
    """Distances between broadcasting (..., 2) arrays of (lat, lon) degrees; haversine in
    km on a sphere of radius 6371.0. An entry has the bits of the matrix entry of the same
    pair, since both take the same elementwise steps."""
    if metric == "euclidean":
        # planes of lat and lon instead of a difference tensor; the arithmetic,
        # dx*dx + dy*dy then sqrt, is the same bit for bit
        dx = p[..., 0] - c[..., 0]
        dy = p[..., 1] - c[..., 1]
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)
    if metric == "haversine":
        p = np.radians(p)
        c = np.radians(c)
        dlat = p[..., 0] - c[..., 0]
        dlon = p[..., 1] - c[..., 1]
        h = (np.sin(dlat / 2.0) ** 2
             + np.cos(p[..., 0]) * np.cos(c[..., 0]) * np.sin(dlon / 2.0) ** 2)
        return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    raise ValueError("unknown metric %r" % metric)


def _distance_matrix(points, centroids, metric):
    """Pairwise distances of (n, 2) points and (k, 2) centroids, shape (n, k)."""
    return _distance(points[:, None], centroids[None], metric)


def _rounding_bound(pts, metric):
    """A bound on |computed - exact| of every distance kmeans_fit computes on pts."""
    eps = np.finfo(float).eps  # twice the unit roundoff u
    if metric == "euclidean":
        # a distance is within 3.01u of its exact value, relative; a centroid lies within
        # (n + 1)u * max|coordinate| of the points' bounding box
        diagonal = float(np.hypot(*np.ptp(pts, axis=0)))
        return 4.0 * eps * (diagonal + 4.0 * len(pts) * eps * float(np.abs(pts).max()))
    # h is within 64u(1 + max|coordinate| in radians) of its exact value, with sin, cos and
    # arcsin within 4 ulp; 2R asin(sqrt(h)) moves at most pi R sqrt(dh) as h moves dh
    size = math.radians(float(np.abs(pts).max()))
    return math.pi * EARTH_RADIUS_KM * (math.sqrt(32.0 * eps * (1.0 + size)) + 8.0 * eps)


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

    Each round, every point's distance to its current centroid a (own)
    is computed. The point keeps a without a full distance row when
    own + m < max(l, h) - m, a bound that is finite and positive. h is
    half the distance from a to the nearest other centroid; l is the
    second-smallest entry of the point's last full row, less, each round
    since, the largest move of a centroid other than a, plus m. Every
    other point gets its full row and argmin (ties: lowest index), and
    the row's second-smallest entry becomes its l. A point that
    _repair_empty moves loses its l. The result is the plain loop's:

    Let e bound |computed - exact| of any distance of the fit
    (`_rounding_bound`), and m = 2e. The exact distances D are a metric.
    A kept point's own has the bits of its matrix entry, and for every
    other centroid j the entry exceeds it, so argmin picks a as the
    plain loop does. Under the h test,
    D(x, c_j) >= D(c_a, c_j) - D(x, c_a) >= (2h - e) - (own + e), so
    the entry is at least 2h - own - 3e > own + 4m - 3e > own. Under the
    l test, D(x, c_j) is at least the row entry less e, less each exact
    move since, which is the computed move plus e; the m subtracted per
    round covers that e and the rounding of the subtraction, so
    D(x, c_j) >= l - e and the entry is at least l - 2e > own + 2m - 2e.
    m also covers the rounding of own + m and of the bound less m. A
    bound that is NaN or infinite never passes.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    n = pts.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    if k < 1:
        raise ValueError("k must be >= 1")
    # rows that compare equal sort next to each other, so ±0.0 count once
    # as under np.unique(pts, axis=0), in under half its time
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    n_distinct = 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))
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

    margin = 2.0 * _rounding_bound(pts, metric)
    assign = np.zeros(n, dtype=np.intp)  # any start is sound: the h test needs no history
    lower = np.full(n, -math.inf)        # l, a lower bound on the other centroids' distances
    step = max(1, _BLOCK_ENTRIES // k)
    iterations = 0
    prev_objective = math.inf
    for _ in range(max_iter):
        own = _distance(pts, centroids[assign], metric)
        gaps = _distance_matrix(centroids, centroids, metric)
        np.fill_diagonal(gaps, math.inf)
        bound = np.maximum(lower, 0.5 * gaps.min(axis=1)[assign])
        keep = (own + margin < bound - margin) & (bound > 0.0) & np.isfinite(bound)
        redo = np.flatnonzero(~keep)
        for block in (redo[i:i + step] for i in range(0, redo.size, step)):
            dist = _distance_matrix(pts[block], centroids, metric)
            nearest = np.argmin(dist, axis=1)
            rows = np.arange(block.size)
            assign[block] = nearest
            own[block] = dist[rows, nearest]
            dist[rows, nearest] = math.inf  # the second minimum, in place
            lower[block] = dist.min(axis=1)
        if metric == "euclidean":
            # mean updates cannot worsen the summed squared assignment
            # distance; a violation would mean the engine is broken
            objective = float(np.sum(own * own))
            if not objective <= prev_objective * (1.0 + 1e-12) + 1e-12:
                raise InvariantError("k-means objective increased from %r to %r"
                                     % (prev_objective, objective))
            prev_objective = objective
        repaired = _repair_empty(assign, own, k)
        lower[repaired != assign] = -math.inf
        assign = repaired
        # sums in index order, as the mean over each cluster's boolean mask adds them
        counts = np.bincount(assign, minlength=k)
        new_centroids = np.column_stack([np.bincount(assign, weights=pts[:, c], minlength=k)
                                         for c in (0, 1)]) / counts[:, None]
        move = _distance(centroids, new_centroids, "euclidean")
        shift = move if metric == "euclidean" else _distance(centroids, new_centroids, metric)
        largest = np.argmax(shift)
        second = np.max(np.delete(shift, largest), initial=0.0)
        lower -= np.where(assign == largest, second, shift[largest]) + margin
        centroids = new_centroids
        iterations += 1
        if np.all(move < tol):
            break
    return ClusterModel(centroids=centroids, metric=metric, k=k,
                        seed=seed, iterations_run=iterations)


def _repair_empty(assign, own, k):
    """Hand each empty cluster the point farthest from its assigned centroid, own being
    each point's distance to it.

    Only clusters keeping at least one other member may donate; ties go
    to the lowest point index. Since n >= k a donor always exists.
    """
    counts = np.bincount(assign, minlength=k)
    empties = np.nonzero(counts == 0)[0]
    if empties.size == 0:
        return assign
    assign = assign.copy()
    own = own.copy()
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
