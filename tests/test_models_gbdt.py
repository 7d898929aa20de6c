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
    return gbdt.GbdtModel(base, trees, params, feature_gain, m)


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
            gbdt.GbdtParams(**kw).validate()
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
    doc = model_to_doc(model)
    clone = model_from_doc(doc)
    assert dumps(model_to_doc(clone)) == dumps(doc)
    assert np.array_equal(gbdt.gbdt_predict(clone, X), gbdt.gbdt_predict(model, X))


def test_fit_twice_same_serialized_bytes():
    rng = np.random.RandomState(8)
    X = rng.randn(80, 2)
    y = rng.randn(80)
    params = hand_params(n_estimators=4, max_depth=3, min_samples_leaf=2)
    a = gbdt.gbdt_fit(X, y, params)
    b = gbdt.gbdt_fit(X, y, params)
    assert dumps(model_to_doc(a)) == dumps(model_to_doc(b))


@pytest.mark.parametrize("growth", ["depth_wise", "leaf_wise"])
@pytest.mark.parametrize("min_samples_leaf", [1, 5, 20])
def test_whole_trees_match_reference_grower(growth, min_samples_leaf):
    rng = np.random.RandomState(11 + min_samples_leaf)
    for trial in range(3):
        n = int(rng.randint(40, 140))
        X = duplicate_heavy(rng, n, int(rng.randint(1, 5)))
        y = X @ rng.randn(X.shape[1]) + 0.3 * rng.randn(n)
        if trial == 2:
            y = np.round(y, 1)
        params = gbdt.GbdtParams(
            n_estimators=4, learning_rate=0.3, growth=growth, max_depth=3,
            num_leaves=6, min_samples_leaf=min_samples_leaf,
            alpha=float(rng.choice([0.0, 0.2])), lam=float(rng.choice([0.0, 1.0])),
            min_gain=float(rng.choice([0.0, 0.05])))
        want = dumps(model_to_doc(reference_fit(X, y, params)))
        got = gbdt.gbdt_fit(X, y, params)
        assert dumps(model_to_doc(got)) == want, (growth, min_samples_leaf, trial)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), m=st.integers(1, 5),
       min_samples_leaf=st.sampled_from([1, 2, 5, 20, 200]),
       lam=st.sampled_from([0.0, 0.5, 1.0]), min_gain=st.sampled_from([0.0, 0.1]),
       rounded=st.booleans())
def test_split_matches_brute_force_on_duplicate_heavy_columns(
        seed, n, m, min_samples_leaf, lam, min_gain, rounded):
    rng = np.random.RandomState(seed)
    X = duplicate_heavy(rng, n, m)
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
