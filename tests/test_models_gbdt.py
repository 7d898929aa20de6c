import hashlib
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbprice import InvariantError
from bnbprice.models import gbdt
from bnbprice.models.registry import model_from_doc, model_to_doc
from bnbprice.serialize import dumps

# model files name the pipeline they were trained with; these models have none
PIPELINE_SHA256 = "0" * 64

HAND_X = np.array([[0.0], [0.0], [1.0], [1.0]])
HAND_Y = np.array([0.0, 0.0, 10.0, 10.0])


def hand_params(**kw):
    base = dict(n_estimators=1, learning_rate=1.0, growth="depth_wise",
                max_depth=1, min_samples_leaf=1, alpha=0.0, lam=0.0)
    base.update(kw)
    return gbdt.GbdtParams(**base)


def brute_force_split(rows, X, r, params):
    """Left-to-right rescan of every (feature, midpoint) candidate.

    Accumulates node sums sequentially in sorted order so the arithmetic
    matches the engine's prefix-sum scan bit for bit.
    """
    lam = params.lam
    best = None
    for f in range(X.shape[1]):
        ordered = sorted(rows, key=lambda i: X[i, f])
        n = len(ordered)
        total = 0.0
        for i in ordered:
            total += r[i]
        parent = total * total / (n + lam)
        sl = 0.0
        for pos in range(n - 1):
            sl += r[ordered[pos]]
            nl = pos + 1
            nr = n - nl
            if X[ordered[pos], f] == X[ordered[pos + 1], f]:
                continue
            if nl < params.min_samples_leaf or nr < params.min_samples_leaf:
                continue
            sr = total - sl
            gain = sl * sl / (nl + lam) + sr * sr / (nr + lam) - parent
            a, b = X[ordered[pos], f], X[ordered[pos + 1], f]
            thr = (a + b) / 2.0
            if not thr < b:
                thr = a
            if best is None or gain > best[2] or (gain == best[2] and (f, thr) < best[:2]):
                best = (f, thr, gain)
    if best is None or not best[2] > params.min_gain:
        return None
    return best


def reference_fit(X, y, params):
    """Boosting by brute_force_split on explicit row lists, no engine code.

    Row lists stay in ascending row order, so rows tied on a feature sum
    in the same order as the engine's stable presort. Leaf sums are
    np.sum over the leaf's rows in feature-0 order, like the engine's.
    """
    n, m = X.shape
    base = float(y.mean())
    pred = np.full(n, base)
    feature_gain = np.zeros(m)
    trees = []
    for _ in range(params.n_estimators):
        r = y - pred
        nodes = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}
        leaves = []

        def new_node():
            for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1),
                               ("right", -1), ("value", 0.0)):
                nodes[key].append(blank)
            return len(nodes["feature"]) - 1

        def split(node_id, rows, hit):
            f, thr, gain = hit
            feature_gain[f] += gain
            nodes["feature"][node_id] = f
            nodes["threshold"][node_id] = thr
            left_id, right_id = new_node(), new_node()
            nodes["left"][node_id] = left_id
            nodes["right"][node_id] = right_id
            return ((left_id, [i for i in rows if X[i, f] <= thr]),
                    (right_id, [i for i in rows if X[i, f] > thr]))

        root = (new_node(), list(range(n)))
        if params.growth == "depth_wise":
            level = [root]
            for _ in range(params.max_depth):
                next_level = []
                for node_id, rows in level:
                    hit = brute_force_split(rows, X, r, params)
                    if hit is None:
                        leaves.append((node_id, rows))
                    else:
                        next_level.extend(split(node_id, rows, hit))
                level = next_level
            leaves.extend(level)
        else:
            heap = []
            tick = 0
            pending = [root]
            n_leaves = 1
            while True:
                for node_id, rows in pending:
                    hit = brute_force_split(rows, X, r, params)
                    if hit is None:
                        leaves.append((node_id, rows))
                    else:
                        heapq.heappush(heap, (-hit[2], tick, node_id, rows, hit))
                        tick += 1
                if not heap or n_leaves >= params.num_leaves:
                    break
                _, _, node_id, rows, hit = heapq.heappop(heap)
                pending = split(node_id, rows, hit)
                n_leaves += 1
            leaves.extend((node_id, rows) for _, _, node_id, rows, _ in heap)

        update = np.zeros(n)
        for node_id, rows in leaves:
            total = float(np.sum(r[sorted(rows, key=lambda i: X[i, 0])]))
            magnitude = abs(total) - params.alpha
            value = 0.0 if magnitude <= 0.0 else \
                math.copysign(magnitude, total) / (len(rows) + params.lam)
            nodes["value"][node_id] = value
            update[rows] = value
        trees.append(gbdt.Tree(**nodes))
        pred = pred + params.learning_rate * update
    return gbdt.GbdtModel(params=params, n_features=m, base_score=base,
                          feature_gain=feature_gain, trees=trees)


def duplicate_heavy(rng, n, m):
    """Columns of 1-5 distinct values, some rounded normals, some copies.

    A copied column prices every split exactly like its source, so the
    tie-break to the lower feature index is exercised.
    """
    X = np.empty((n, m))
    for j in range(m):
        if j and rng.rand() < 0.25:
            X[:, j] = X[:, rng.randint(j)]
        elif rng.rand() < 0.25:
            X[:, j] = np.round(rng.randn(n), 1)
        else:
            X[:, j] = rng.randint(0, rng.randint(1, 6), size=n).astype(float)
    return X


def one_hot_heavy(rng, n, m):
    """m columns that are mostly 0/1: the engine carries those in its bool block.

    One-hot groups, rare flags and all-zero columns, with some zeros
    stored as -0.0; column 0 is often binary, though the engine keeps it
    sorted. A twin pair puts a 0/1 flag next to twice itself, a {0, 2}
    column that prices every split exactly like the flag, in either
    order, so ties between the sorted and the binary group are exercised.
    """
    X = np.empty((n, m))
    j = 0
    while j < m:
        kind = rng.randint(5)
        flag = (rng.rand(n) < rng.choice([0.01, 0.05, 0.2, 0.5])).astype(float)
        if kind == 0:
            k = min(int(rng.randint(2, 6)), m - j)
            X[:, j:j + k] = np.eye(k)[rng.randint(k, size=n)]
            j += k
            continue
        if kind == 1:
            X[:, j] = flag
        elif kind == 2:
            X[:, j] = 0.0
        elif kind == 3:
            X[:, j] = np.round(rng.randn(n), 1)
        else:
            pair = (flag, 2.0 * flag) if rng.rand() < 0.5 else (2.0 * flag, flag)
            X[:, j:j + 2] = np.column_stack(pair)[:, :m - j]
            j += 1
        j += 1
    X[(X == 0.0) & (rng.rand(n, m) < 0.3)] = -0.0
    return X


def golden_matrix():
    """600 rows: two one-hot groups, three flags and four rounded normals."""
    rng = np.random.RandomState(2021)
    n = 600
    cont = np.round(rng.randn(n, 4), 2)
    cont[:, 3] = rng.randint(1, 9, size=n)
    groups = [np.eye(k)[rng.randint(k, size=n)] for k in (6, 9)]
    flags = (rng.rand(n, 3) < [[0.5, 0.1, 0.02]]).astype(float)
    X = np.hstack([cont[:, :2], groups[0], cont[:, 2:], groups[1], flags])
    effects = np.round(rng.randn(X.shape[1]), 1)
    y = X @ effects + 0.3 * rng.randn(n)
    return X, y


def test_single_round_hand_trace():
    model = gbdt.gbdt_fit(HAND_X, HAND_Y, hand_params())
    assert model.base_score == 5.0
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5
    assert model.feature_gain[0] == 100.0
    leaf_values = sorted(tree.value[tree.feature == -1])
    assert leaf_values == [-5.0, 5.0]
    preds = gbdt.gbdt_predict(model, HAND_X)
    assert np.array_equal(preds, HAND_Y)


def test_hand_trace_with_learning_rate():
    model = gbdt.gbdt_fit(HAND_X, HAND_Y, hand_params(learning_rate=0.1))
    preds = gbdt.gbdt_predict(model, HAND_X)
    assert np.array_equal(preds, np.array([4.5, 4.5, 5.5, 5.5]))


def test_predict_routes_by_hand():
    model = gbdt.gbdt_fit(HAND_X, HAND_Y, hand_params())
    assert gbdt.gbdt_predict(model, np.array([[1.0]]))[0] == 10.0
    # a point exactly on the threshold goes left
    assert gbdt.gbdt_predict(model, np.array([[0.5]]))[0] == 0.0
    assert gbdt.gbdt_predict(model, np.array([[0.4999]]))[0] == 0.0
    assert gbdt.gbdt_predict(model, np.array([[0.5001]]))[0] == 10.0


def test_constant_target_stays_at_base():
    y = np.full(8, 3.25)
    X = np.arange(8, dtype=float)[:, None]
    model = gbdt.gbdt_fit(X, y, hand_params(n_estimators=3))
    preds = gbdt.gbdt_predict(model, X)
    assert np.array_equal(preds, y)
    assert all(int((t.feature >= 0).sum()) == 0 for t in model.trees)


def test_find_best_split_hand_example():
    params = hand_params()
    r = HAND_Y - HAND_Y.mean()
    got = gbdt.find_best_split([0, 1, 2, 3], HAND_X, r, params)
    assert got == (0, 0.5, 100.0)


def test_find_best_split_none_cases():
    params = hand_params()
    r = np.zeros(4)
    assert gbdt.find_best_split([0, 1, 2, 3], HAND_X, r, params) is None
    with pytest.raises(ValueError):
        gbdt.find_best_split([], HAND_X, r, params)
    single = gbdt.find_best_split([2], HAND_X, HAND_Y - 5.0, params)
    assert single is None


def test_tie_prefers_lower_feature_index():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    r = np.array([-5.0, -5.0, 5.0, 5.0])
    f, thr, gain = gbdt.find_best_split([0, 1, 2, 3], X, r, hand_params())
    assert (f, thr, gain) == (0, 0.5, 100.0)


def test_min_samples_leaf_blocks_split():
    params = hand_params(min_samples_leaf=3)
    r = HAND_Y - 5.0
    assert gbdt.find_best_split([0, 1, 2, 3], HAND_X, r, params) is None


def test_large_alpha_zeroes_leaves():
    model = gbdt.gbdt_fit(HAND_X, HAND_Y, hand_params(alpha=1e6))
    preds = gbdt.gbdt_predict(model, HAND_X)
    assert np.array_equal(preds, np.full(4, 5.0))


def test_depth_budget_limits_leaf_count():
    rng = np.random.RandomState(0)
    X = rng.randn(200, 3)
    y = rng.randn(200)
    model = gbdt.gbdt_fit(X, y, hand_params(max_depth=2, min_samples_leaf=1))
    tree = model.trees[0]
    assert int((tree.feature == -1).sum()) <= 4


def test_leaf_budget_limits_leaf_count():
    rng = np.random.RandomState(1)
    X = rng.randn(200, 3)
    y = rng.randn(200)
    params = hand_params(growth="leaf_wise", num_leaves=5, min_samples_leaf=1)
    model = gbdt.gbdt_fit(X, y, params)
    assert int((model.trees[0].feature == -1).sum()) == 5


def test_leaf_wise_matches_depth_wise_budget_bound():
    rng = np.random.RandomState(4)
    for trial in range(5):
        X = rng.randn(150, 4)
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.randn(150)
        depth = gbdt.gbdt_fit(X, y, hand_params(max_depth=3, min_samples_leaf=5))
        leaf = gbdt.gbdt_fit(X, y, hand_params(growth="leaf_wise", num_leaves=8,
                                               min_samples_leaf=5))
        mse_depth = float(np.mean((y - gbdt.gbdt_predict(depth, X)) ** 2))
        mse_leaf = float(np.mean((y - gbdt.gbdt_predict(leaf, X)) ** 2))
        assert mse_leaf <= mse_depth + 1e-12


def test_training_mse_history_non_increasing():
    rng = np.random.RandomState(2)
    X = rng.randn(300, 5)
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.randn(300)
    for growth in ("depth_wise", "leaf_wise"):
        params = gbdt.GbdtParams(n_estimators=60, learning_rate=0.3,
                                 growth=growth, max_depth=3, num_leaves=8,
                                 min_samples_leaf=5, alpha=0.1, lam=1.0)
        model = gbdt.gbdt_fit(X, y, params)
        history = model.train_mse
        assert len(history) == 60
        for before, after in zip(history, history[1:]):
            assert after <= before * (1.0 + 1e-9) + 1e-12


def test_split_matches_brute_force_oracle():
    rng = np.random.RandomState(7)
    mismatches = 0
    for trial in range(60):
        n = rng.randint(2, 200)
        m = rng.randint(1, 6)
        X = rng.randn(n, m)
        for j in range(m):
            if rng.rand() < 0.5:
                X[:, j] = rng.randint(0, rng.choice([2, 3, 5]), size=n).astype(float)
        r = rng.randn(n)
        if rng.rand() < 0.3:
            r = np.round(r, 3)
        params = gbdt.GbdtParams(
            n_estimators=1, learning_rate=1.0, growth="depth_wise",
            max_depth=1,
            min_samples_leaf=int(rng.choice([1, 2, 5, 20])),
            alpha=0.0,
            lam=float(rng.choice([0.0, 0.5, 1.0, 3.0])),
            min_gain=float(rng.choice([0.0, 0.1])))
        rows = list(range(n))
        got = gbdt.find_best_split(rows, X, r, params)
        want = brute_force_split(rows, X, r, params)
        if got != want:
            mismatches += 1
    assert mismatches == 0


def test_feature_gain_accumulates_and_non_negative():
    rng = np.random.RandomState(3)
    X = rng.randn(120, 4)
    y = X[:, 2] * 3.0 + 0.1 * rng.randn(120)
    model = gbdt.gbdt_fit(X, y, hand_params(n_estimators=5, max_depth=3,
                                            min_samples_leaf=5))
    assert np.all(model.feature_gain >= 0.0)
    assert model.feature_gain[2] == model.feature_gain.max()


def test_param_validation():
    bad = [dict(n_estimators=0), dict(learning_rate=0.0), dict(learning_rate=1.5),
           dict(growth="sideways"), dict(max_depth=0), dict(num_leaves=0),
           dict(min_samples_leaf=0), dict(alpha=-1.0), dict(lam=-0.1),
           dict(min_gain=-1.0)]
    for kw in bad:
        with pytest.raises(ValueError):
            gbdt.GbdtParams(**kw)
    with pytest.raises(ValueError):
        gbdt.gbdt_fit(np.zeros((0, 1)), np.zeros(0), hand_params())
    with pytest.raises(ValueError):
        gbdt.gbdt_fit(np.array([[np.inf]]), np.array([1.0]), hand_params())
    model = gbdt.gbdt_fit(HAND_X, HAND_Y, hand_params())
    with pytest.raises(ValueError):
        gbdt.gbdt_predict(model, np.zeros((2, 3)))


def test_persistence_round_trip_is_byte_identical():
    rng = np.random.RandomState(6)
    X = rng.randn(100, 3)
    y = np.sin(X[:, 0]) + 0.2 * rng.randn(100)
    params = gbdt.GbdtParams(n_estimators=10, learning_rate=0.2, growth="leaf_wise",
                             num_leaves=6, min_samples_leaf=4, alpha=0.2, lam=0.5)
    model = gbdt.gbdt_fit(X, y, params)
    doc = model_to_doc(model, PIPELINE_SHA256)
    clone = model_from_doc(doc)
    assert dumps(model_to_doc(clone, PIPELINE_SHA256)) == dumps(doc)
    assert np.array_equal(gbdt.gbdt_predict(clone, X), gbdt.gbdt_predict(model, X))


def test_fit_twice_same_serialized_bytes():
    rng = np.random.RandomState(8)
    X = rng.randn(80, 2)
    y = rng.randn(80)
    params = hand_params(n_estimators=4, max_depth=3, min_samples_leaf=2)
    a = gbdt.gbdt_fit(X, y, params)
    b = gbdt.gbdt_fit(X, y, params)
    assert dumps(model_to_doc(a, PIPELINE_SHA256)) == dumps(model_to_doc(b, PIPELINE_SHA256))


def tree_depth(tree):
    # children lie after their node, so one pass in id order sees every parent first
    depth = [0] * len(tree.feature)
    for i in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return max(depth)


@pytest.mark.parametrize("growth", ["depth_wise", "leaf_wise"])
@pytest.mark.parametrize("min_samples_leaf", [1, 5, 20])
def test_whole_trees_match_reference_grower(growth, min_samples_leaf):
    leaf_counts = []
    depths = []
    for columns, widths in ((duplicate_heavy, (1, 5)), (one_hot_heavy, (3, 12))):
        rng = np.random.RandomState(11 + min_samples_leaf)
        for trial in range(3):
            n = int(rng.randint(40, 140))
            X = columns(rng, n, int(rng.randint(*widths)))
            y = X @ rng.randn(X.shape[1]) + 0.3 * rng.randn(n)
            if trial == 2:
                y = np.round(y, 1)
            params = gbdt.GbdtParams(
                n_estimators=4, learning_rate=0.3, growth=growth, max_depth=3,
                num_leaves=6, min_samples_leaf=min_samples_leaf,
                alpha=float(rng.choice([0.0, 0.2])), lam=float(rng.choice([0.0, 1.0])),
                min_gain=float(rng.choice([0.0, 0.05])))
            want = dumps(model_to_doc(reference_fit(X, y, params), PIPELINE_SHA256))
            got = gbdt.gbdt_fit(X, y, params)
            got_doc = model_to_doc(got, PIPELINE_SHA256)
            assert dumps(got_doc) == want, (columns.__name__, growth, min_samples_leaf, trial)
            leaf_counts += [int(np.count_nonzero(tree.feature < 0)) for tree in got.trees]
            depths += [tree_depth(tree) for tree in got.trees]
    # each policy ignores the other's limit: depth-wise trees get more than
    # num_leaves leaves and leaf-wise trees grow deeper than max_depth, except
    # that under 160 rows cannot fill depth 3 at min_samples_leaf 20
    if growth == "leaf_wise":
        assert max(depths) > 3
    elif min_samples_leaf < 20:
        assert max(leaf_counts) > 6


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), m=st.integers(1, 5),
       min_samples_leaf=st.sampled_from([1, 2, 5, 20, 200]),
       lam=st.sampled_from([0.0, 0.5, 1.0]), min_gain=st.sampled_from([0.0, 0.1]),
       rounded=st.booleans(), one_hot=st.booleans())
def test_split_matches_brute_force_on_duplicate_heavy_columns(
        seed, n, m, min_samples_leaf, lam, min_gain, rounded, one_hot):
    rng = np.random.RandomState(seed)
    X = one_hot_heavy(rng, n, 2 * m + 1) if one_hot else duplicate_heavy(rng, n, m)
    r = rng.randn(n)
    if rounded:
        r = np.round(r, 2)
    params = gbdt.GbdtParams(n_estimators=1, learning_rate=1.0, max_depth=1,
                             min_samples_leaf=min_samples_leaf, alpha=0.0,
                             lam=lam, min_gain=min_gain)
    rows = sorted(rng.choice(n, size=int(rng.randint(1, n + 1)), replace=False).tolist())
    assert gbdt.find_best_split(rows, X, r, params) == brute_force_split(rows, X, r, params)


def test_training_mse_check_survives_python_O(monkeypatch):
    # a leaf that overshoots by a million must trip the check, which is
    # a raise, not an assert, so it also runs under python -O
    monkeypatch.setattr(gbdt, "_leaf_value", lambda I, r, params: 1e6)
    with pytest.raises(InvariantError, match="training MSE increased"):
        gbdt.gbdt_fit(HAND_X, HAND_Y, hand_params())
    assert issubclass(InvariantError, RuntimeError)


def test_threshold_between_adjacent_doubles_routes_like_training():
    # (a + b) / 2 of adjacent doubles rounds up to b; the threshold must stay
    # below b so that predict sends the b rows right, as training did
    a = math.nextafter(1.0, 0.0)
    X = np.array([[a], [a], [1.0], [1.0]])
    model = gbdt.gbdt_fit(X, HAND_Y, hand_params())
    assert model.train_mse == [0.0]
    assert model.trees[0].threshold[0] == a
    assert np.array_equal(gbdt.gbdt_predict(model, X), HAND_Y)
    assert gbdt.find_best_split([0, 1, 2, 3], X, HAND_Y - 5.0, hand_params()) == \
        brute_force_split([0, 1, 2, 3], X, HAND_Y - 5.0, hand_params())


@pytest.mark.parametrize("n0, allowed", [(2, False), (3, True), (7, True), (8, False)])
def test_binary_candidate_window_edges(n0, allowed):
    # column 1 has its n0 zeros first, and column 2 is a flag too, so both
    # go to the bool block; with n = 10 and min_samples_leaf = 3 the split
    # after the zeros needs min_samples_leaf <= n0 <= n - min_samples_leaf
    X = np.zeros((10, 3))
    X[:, 0] = 7.0  # constant: no candidate in the sorted group
    X[n0:, 1] = 1.0
    X[::2, 2] = 1.0
    r = np.where(X[:, 1] == 1.0, 1.0, -1.0) * np.linspace(1.0, 2.0, 10)
    params = hand_params(min_samples_leaf=3)
    got = gbdt.find_best_split(range(10), X, r, params)
    assert got == brute_force_split(list(range(10)), X, r, params)
    assert (got is not None and got[:2] == (1, 0.5)) == allowed


@pytest.mark.parametrize("twin_first", [True, False])
def test_ties_across_the_sorted_and_binary_group_go_to_the_lower_feature(twin_first):
    # a {0, 2} column and its 0/1 half price every split alike; only their
    # thresholds (1.0 against 0.5) tell the winner apart
    flag = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    pair = [2.0 * flag, flag] if twin_first else [flag, 2.0 * flag]
    X = np.column_stack([np.full(6, 3.0), *pair, 1.0 - flag])
    r = np.array([-1.0, -2.0, 1.5, 1.0, -0.5, 2.0])
    got = gbdt.find_best_split(range(6), X, r, hand_params())
    assert got[:2] == ((1, 1.0) if twin_first else (1, 0.5))
    assert got == brute_force_split(list(range(6)), X, r, hand_params())


def test_all_binary_matrix_matches_reference_grower():
    rng = np.random.RandomState(5)
    X = (rng.rand(90, 6) < [[0.5, 0.3, 0.1, 0.5, 0.05, 0.7]]).astype(float)
    X[(X == 0.0) & (rng.rand(90, 6) < 0.5)] = -0.0
    y = X @ rng.randn(6) + 0.2 * rng.randn(90)
    for growth in ("depth_wise", "leaf_wise"):
        params = gbdt.GbdtParams(n_estimators=4, learning_rate=0.5, growth=growth,
                                 max_depth=4, num_leaves=9, min_samples_leaf=3,
                                 alpha=0.1, lam=1.0)
        want = dumps(model_to_doc(reference_fit(X, y, params), PIPELINE_SHA256))
        assert dumps(model_to_doc(gbdt.gbdt_fit(X, y, params), PIPELINE_SHA256)) == want


# sha256 of the model files written by the engine that carried every
# feature in its sorted block; any later engine must write the same bytes
GOLDEN_MODEL_SHA256 = {
    "depth_wise": "a8b2b1d3832f6298b21b9a15184960c0890a7a46743df5dd81d797b67c53bc0a",
    "leaf_wise": "cd0c5d62ff4e347d03d929b1073fbd7746c492ab119f7437924e99549646c30b",
}


@pytest.mark.parametrize("growth", sorted(GOLDEN_MODEL_SHA256))
def test_model_bytes_match_golden_sha256(growth):
    X, y = golden_matrix()
    params = gbdt.GbdtParams(n_estimators=5, learning_rate=0.2, growth=growth,
                             max_depth=5, num_leaves=12, min_samples_leaf=8,
                             alpha=0.1, lam=1.0)
    text = dumps(model_to_doc(gbdt.gbdt_fit(X, y, params), PIPELINE_SHA256))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MODEL_SHA256[growth]


def spread_residuals(rng, n):
    """Residuals of both signs from 1e-6 to 1e6 in size: adding them in any
    order but left to right (pairwise, in blocks, from zero and then onto
    another sum) changes low bits."""
    return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-6.0, 6.0, size=n)


@pytest.mark.parametrize("n", [9, 300, 5000])
@pytest.mark.parametrize("width", [1, 2, 3, 52])
def test_binary_column_sums_add_left_to_right(monkeypatch, width, n):
    # a stable sort puts a 0/1 column's zero rows first in row order, then its
    # one rows, so its left sum adds r over the zeros from left to right and
    # its total adds the ones onto that sum; every gain the node prices must
    # be the one that plain loop gives. Column 0 is constant, so every
    # candidate is a 0/1 column's; width 1 is the lone column that stays sorted.
    rng = np.random.RandomState(1000 * width + n)
    X = np.zeros((n, width + 1))
    X[:, 1:] = rng.rand(n, width) < rng.uniform(0.2, 0.8, size=width)
    r = spread_residuals(rng, n)
    lam = 1.0
    want = ([], [], [], [])
    values = r.tolist()
    for c in range(1, width + 1):
        zeros = [v for v, x in zip(values, X[:, c]) if x == 0.0]
        if not 0 < len(zeros) < n:
            continue
        left = 0.0
        for v in zeros:
            left += v
        total = left
        for v, x in zip(values, X[:, c]):
            if x == 1.0:
                total += v
        right, n_left = total - left, float(len(zeros))
        gain = (left * left / (n_left + lam) + right * right / (n - n_left + lam)
                - total * total / (n + lam))
        for got, value in zip(want, (left, total, n_left, gain)):
            got.append(value)
    assert want[0]
    seen = []
    gains = gbdt._gains

    def spy(left_S, totals, left_n, *rest):
        gain = gains(left_S, totals, left_n, *rest)
        seen.append((left_S.tolist(), totals.tolist(), left_n.tolist(), gain.tolist()))
        return gain

    monkeypatch.setattr(gbdt, "_gains", spy)
    gbdt.find_best_split(range(n), X, r, hand_params(lam=lam))
    assert seen == [want]


def test_split_matches_brute_force_at_benchmark_size():
    # the benchmark's training matrix is about 4000 rows of 52 0/1 and 10
    # other columns at min_samples_leaf 20; price its root and a child-sized
    # subset of rows against the left-to-right oracle
    rng = np.random.RandomState(3)
    n = 4000
    X = one_hot_heavy(rng, n, 62)
    cols = gbdt._Columns(X.T)
    assert (cols.binary_ids.size, cols.sorted_ids.size) == (51, 11)
    r = X @ rng.randn(62) + rng.randn(n)
    r -= r.mean()
    params = gbdt.GbdtParams(min_samples_leaf=20, lam=1.0)
    subset = np.flatnonzero(rng.rand(n) < 0.4).tolist()
    for rows in (list(range(n)), subset):
        got = gbdt.find_best_split(rows, X, r, params)
        assert got is not None
        assert got == brute_force_split(rows, X, r, params)
