import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnbprice import InvariantError, geofeat
from conftest import make_listing
import reference_kmeans


def haversine_km(a, b):
    """Great-circle distance in kilometres between two (lat, lon) points, one at a time:
    the oracle of geofeat._distance_matrix under haversine.

    Coordinates are degrees; the sphere radius is pinned to 6371.0 km.
    """
    lat1 = math.radians(a[0])
    lat2 = math.radians(b[0])
    dlat = lat2 - lat1
    dlon = math.radians(b[1]) - math.radians(a[1])
    h = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * geofeat.EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def test_haversine_identity_and_known_distances():
    san_diego = (32.7157, -117.1611)
    assert haversine_km(san_diego, san_diego) == 0.0
    la, sf = (34.0522, -118.2437), (37.7749, -122.4194)
    assert abs(haversine_km(la, sf) - 559.0) <= 1.0
    antipodal = haversine_km((0.0, 0.0), (0.0, 180.0))
    assert antipodal == pytest.approx(math.pi * 6371.0, abs=1e-6)


def test_haversine_matrix_matches_scalar():
    rng = np.random.RandomState(3)
    pts = np.column_stack([rng.uniform(-80, 80, 20), rng.uniform(-179, 179, 20)])
    cents = np.column_stack([rng.uniform(-80, 80, 4), rng.uniform(-179, 179, 4)])
    mat = geofeat._distance_matrix(pts, cents, "haversine")
    for i in range(20):
        for j in range(4):
            assert mat[i, j] == pytest.approx(
                haversine_km(pts[i], cents[j]), rel=1e-12, abs=1e-9)


def test_kmeans_symmetric_example():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    model = geofeat.kmeans_fit(pts, 2, seed=0)
    got = sorted(map(tuple, model.centroids))
    assert got == [(0.0, 0.5), (10.0, 0.5)]


def test_kmeans_k_equals_n_is_degenerate():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    model = geofeat.kmeans_fit(pts, 3, seed=4)
    assert sorted(map(tuple, model.centroids)) == sorted(map(tuple, pts))
    labels = geofeat.assign_all(pts, model)
    assert sorted(labels.tolist()) == [0, 1, 2]


def test_kmeans_deterministic_across_runs():
    rng = np.random.RandomState(8)
    pts = rng.uniform(low=(30, -120), high=(40, -110), size=(1000, 2))
    a = geofeat.kmeans_fit(pts, 10, seed=13)
    b = geofeat.kmeans_fit(pts, 10, seed=13)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.iterations_run == b.iterations_run
    c = geofeat.kmeans_fit(pts, 10, seed=14)
    assert not np.array_equal(a.centroids, c.centroids)


def test_kmeans_haversine_metric_runs_and_differs():
    # three tight blobs at latitude 70. In raw degrees blob A is nearer
    # blob C (2.0 vs 2.5), but on the sphere 2.5 deg of longitude is only
    # ~95 km while 2.0 deg of latitude is ~222 km, so with k=2 the two
    # metrics must merge different pairs.
    rng = np.random.RandomState(9)
    blobs = [(70.0, 0.0), (70.0, 2.5), (72.0, 0.0)]
    pts = np.vstack([
        np.column_stack([rng.normal(lat, 0.03, 50), rng.normal(lon, 0.03, 50)])
        for lat, lon in blobs])
    e = geofeat.kmeans_fit(pts, 2, metric="euclidean", seed=2)
    h = geofeat.kmeans_fit(pts, 2, metric="haversine", seed=2)
    assert e.metric == "euclidean" and h.metric == "haversine"
    a, b, c = range(0, 50), range(50, 100), range(100, 150)
    e_assign = geofeat.assign_all(pts, e)
    h_assign = geofeat.assign_all(pts, h)
    for assign in (e_assign, h_assign):
        for blob in (a, b, c):
            assert len({assign[i] for i in blob}) == 1  # blobs stay whole
    assert e_assign[a[0]] == e_assign[c[0]] != e_assign[b[0]]
    assert h_assign[a[0]] == h_assign[b[0]] != h_assign[c[0]]


@st.composite
def kmeans_case(draw):
    """(points, k, metric, seed, max_iter): random, duplicate-heavy, integer-grid (exact
    ties), tiny-spread or antimeridian points, with k from 1 to the number of distinct
    points."""
    shape = draw(st.sampled_from(("random", "duplicates", "grid", "tiny", "antimeridian")))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "random":
        scale = draw(st.sampled_from((0.01, 1.0, 30.0)))
        pts = rng.normal(0.0, scale, (n, 2)) + rng.uniform(-60.0, 60.0, 2)
    elif shape == "duplicates":
        sites = rng.uniform(-5.0, 5.0, (n // 8 + 1, 2)) + rng.uniform(-60.0, 60.0, 2)
        pts = sites[rng.integers(0, len(sites), n)]
    elif shape == "grid":
        pts = rng.integers(0, draw(st.integers(2, 5)), (n, 2)).astype(float)
    elif shape == "tiny":
        spread = draw(st.sampled_from((1e-13, 1e-9, 1e-5)))
        pts = np.array([33.5, -122.5]) + rng.uniform(-spread, spread, (n, 2))
    else:
        # near the pole, on both sides of longitude 180: a mean of degrees lies far from
        # its points on the sphere, so under haversine clusters empty and get repaired
        lon = rng.uniform(170.0, 180.0, n) * rng.choice((-1.0, 1.0), n)
        pts = np.round(np.column_stack([rng.uniform(80.0, 90.0, n), lon]), 1)
    distinct = np.unique(pts, axis=0).shape[0]
    k = draw(st.sampled_from((1, distinct)) | st.integers(1, distinct))
    return (pts, k, draw(st.sampled_from(geofeat.GEO_METRICS)), draw(st.integers(0, 99)),
            draw(st.integers(1, 100)))


@settings(max_examples=400, deadline=None)
@given(case=kmeans_case())
# two centroids 1e-200 apart are both at distance 0, so the second starts empty and
# _repair_empty fires
@example(case=(np.array([[0.0, 0.0], [0.0, 1e-200], [1.0, 1.0]]), 3, "euclidean", 0, 100))
# a grid point midway between two centroids: its distance equals half their gap, which
# skips the point only without a margin, though rounding puts the other centroid nearer
@example(case=(np.array([[2.0, 1.0], [3.0, 0.0], [3.0, 3.0], [2.0, 0.0], [1.0, 0.0], [0.0, 2.0]]),
               4, "haversine", 21, 93))
# a point that _repair_empty moves must lose its carried bound, which covers every centroid
# but the one it leaves
@example(case=(np.array([[83.7, 170.1], [81.6, 172.3], [88.2, -171.8], [80.5, -170.6],
                         [85.7, 170.6], [89.3, -174.8], [88.9, -177.2], [85.9, 178.1],
                         [89.4, 178.8]]), 2, "haversine", 64, 100))
def test_pruned_kmeans_matches_the_plain_loop(case):
    pts, k, metric, seed, max_iter = case
    want = reference_kmeans.kmeans_fit(pts, k, metric, seed, max_iter)
    got = geofeat.kmeans_fit(pts, k, metric, seed, max_iter)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.iterations_run == want.iterations_run


def test_kmeans_validation_errors():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="distinct"):
        geofeat.kmeans_fit(pts, 3)  # only two distinct locations
    with pytest.raises(ValueError):
        geofeat.kmeans_fit(np.zeros((0, 2)), 1)
    with pytest.raises(ValueError):
        geofeat.kmeans_fit(np.zeros((4, 3)), 1)
    with pytest.raises(ValueError):
        geofeat.kmeans_fit(np.zeros((4, 2)), 0)


def test_kmeans_counts_distinct_points_as_np_unique_does():
    # duplicate rows, and rows that differ only in the sign of zero, count once
    pts = np.array([[1.0, 2.0], [0.0, -0.0], [1.0, 2.0], [-0.0, 0.0],
                    [0.0, 2.0], [1.0, 0.0], [-0.0, 2.0], [0.0, 0.0]])
    assert np.unique(pts, axis=0).shape[0] == 4
    rng = np.random.default_rng(0)
    for _ in range(5):
        shuffled = pts[rng.permutation(len(pts))]
        assert geofeat.kmeans_fit(shuffled, 4).centroids.shape == (4, 2)
        with pytest.raises(ValueError, match=r"^k=5 exceeds the 4 distinct points$"):
            geofeat.kmeans_fit(shuffled, 5)


def test_repair_empty_steals_worst_fit_point():
    # cluster 2 is empty; cluster 0 has three members, cluster 1 only one
    assign = np.array([0, 0, 0, 1])
    dist = np.array([
        [1.0, 9.0, 9.0],
        [5.0, 9.0, 9.0],   # farthest donor-cluster point
        [2.0, 9.0, 9.0],
        [9.0, 8.0, 9.0],   # cluster 1 cannot donate its only member
    ])
    own = dist[np.arange(4), assign]
    fixed = geofeat._repair_empty(assign, own, 3)
    assert fixed.tolist() == [0, 2, 0, 1]
    assert np.bincount(fixed, minlength=3).min() >= 1


def test_repair_empty_tie_goes_to_lowest_index():
    assign = np.array([0, 0, 0, 0])
    dist = np.array([[3.0, 9.0], [3.0, 9.0], [1.0, 9.0], [0.5, 9.0]])
    fixed = geofeat._repair_empty(assign, dist[np.arange(4), assign], 2)
    assert fixed.tolist() == [1, 0, 0, 0]


def test_repair_empty_without_donor_raises():
    # one point for two clusters: the only member cannot be handed over
    with pytest.raises(InvariantError, match="no donor"):
        geofeat._repair_empty(np.array([0]), np.array([1.0]), 2)


def test_euclidean_distance_matches_difference_tensor_bit_for_bit():
    def tensor_formula(points, centroids):
        d = points[:, None, :] - centroids[None, :, :]
        return np.sqrt(np.sum(d * d, axis=2))

    rng = np.random.RandomState(5)
    random_pts = rng.uniform(low=(30, -120), high=(34, -116), size=(500, 2))
    grid = np.round(rng.uniform(0, 3, size=(300, 2)))  # many ties and duplicates
    cases = [(random_pts, random_pts[rng.choice(500, 40, replace=False)]),
             (random_pts, rng.randn(7, 2) * 1e-9 + 32.0),
             (grid, grid[:25]),
             (grid, np.array([[1.0, 1.0], [1.0, 1.0], [-0.0, 0.0]])),
             (np.array([[1.5, -2.5]]), np.array([[1.5, -2.5]]))]
    for points, centroids in cases:
        got = geofeat._distance_matrix(points, centroids, "euclidean")
        want = tensor_formula(points, centroids)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_neighbourhood_stats_ranking_and_other():
    listings = ([make_listing(i, neighbourhood="Mission") for i in range(5)]
                + [make_listing(10 + i, neighbourhood="Alamo") for i in range(3)]
                + [make_listing(20 + i, neighbourhood="Bayview") for i in range(3)]
                + [make_listing(30, neighbourhood=None)])
    stats = geofeat.fit_neighbourhood_stats(listings, top_n=2)
    # Alamo beats Bayview lexicographically on the 3-3 tie
    assert stats.categories == ("Mission", "Alamo", "other")
    assert stats.counts["(missing)"] == 1

    all_cats = geofeat.fit_neighbourhood_stats(listings, top_n=25)
    assert all_cats.categories[-1] == "other"
    assert "(missing)" in all_cats.categories


def test_neighbourhood_popularity_formula():
    listings = [make_listing(i, neighbourhood="Mission") for i in range(50)]
    stats = geofeat.fit_neighbourhood_stats(listings, top_n=5)
    inside = make_listing(100, neighbourhood="Mission")
    assert geofeat.neighbourhood_popularity(inside, stats) == pytest.approx(
        math.log(51), abs=1e-9)
    unseen = make_listing(101, neighbourhood="Nowhere")
    assert geofeat.neighbourhood_popularity(unseen, stats) == 0.0
    absent = make_listing(102, neighbourhood=None)
    assert geofeat.neighbourhood_popularity(absent, stats) == 0.0


def test_clusters_svg_is_self_contained():
    rng = np.random.RandomState(2)
    pts = rng.uniform(low=(30, -120), high=(34, -116), size=(50, 2))
    model = geofeat.kmeans_fit(pts, 3, seed=0)
    labels = geofeat.assign_all(pts, model)
    svg = geofeat.clusters_svg(pts, labels, model)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert "http://www.w3.org/2000/svg" in svg
    assert "href" not in svg  # no external references
    assert svg.count("<circle") == 50 + 3
