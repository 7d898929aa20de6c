"""Gradient boosted regression trees with exact greedy splits.

Each tree fits the residuals of the running prediction. A candidate
split is priced by

    gain = S_L^2/(n_L + lambda) + S_R^2/(n_R + lambda) - S_P^2/(n_P + lambda)

with S the residual sum inside a node, and leaf values are the
soft-thresholded node sums soft(S, alpha)/(n + lambda), which is how the
alpha (L1) and lambda (L2) penalties enter. Growth is either depth_wise
(expand whole levels to max_depth) or leaf_wise (always split the leaf
with the globally largest gain until num_leaves).

Splits are found by the exact greedy algorithm over presorted column
blocks (Chen & Guestrin, KDD 2016). One stable argsort per fit orders
every feature. Each node keeps a feature-major (m, n_node) index block
whose row j lists the node's rows sorted by feature j, so gathers,
prefix sums and the partition's boolean compress all run along
contiguous rows. A node is priced in two steps:

- candidates: the sorted positions where adjacent values differ, inside
  the min_samples_leaf window. One-hot columns have at most one each, so
  a 4000 x 63 root has about 1.2k candidates among its 252k positions;
- gains at those (feature, position) pairs only, from one sequential
  prefix sum of the residuals along each row. The left sums and the
  per-feature node totals both come from it, which keeps every gain
  bit-identical to a plain left-to-right scan.

The root block, and so its candidates, is the same for every tree and is
built once per fit. Nodes that can never split again (the depth cap, the
leaf budget, too few rows) are not scanned, and final leaves keep only
row 0 of their block, the feature-0 order their leaf sums use.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .. import InvariantError


@dataclass(frozen=True)
class GbdtParams:
    n_estimators: int = 1000
    learning_rate: float = 0.1
    growth: str = "depth_wise"
    max_depth: int = 6
    num_leaves: int = 31
    min_samples_leaf: int = 20
    alpha: float = 0.5
    lam: float = field(default=1.0, metadata={"json": "lambda"})
    min_gain: float = 0.0

    def validate(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if self.growth not in ("depth_wise", "leaf_wise"):
            raise ValueError("growth must be depth_wise or leaf_wise")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.num_leaves < 1:
            raise ValueError("num_leaves must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.alpha < 0.0 or self.lam < 0.0 or self.min_gain < 0.0:
            raise ValueError("alpha, lambda and min_gain must be >= 0")


@dataclass(eq=False)
class Tree:
    """Flat node arrays; feature[i] == -1 marks a leaf whose output is value[i]."""

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=float)
        n = len(self.feature)
        if n == 0 or {len(a) for a in (self.threshold, self.left, self.right, self.value)} != {n}:
            raise ValueError("node arrays must be non-empty and of equal length")
        if not (np.isfinite(self.threshold).all() and np.isfinite(self.value).all()):
            raise ValueError("thresholds and values must be finite")
        inner = np.flatnonzero(self.feature >= 0)
        # every step down moves to a later node, so no walk can cycle
        for child in (self.left[inner], self.right[inner]):
            if not ((inner < child) & (child < n)).all():
                raise ValueError("children must lie after their node and inside the tree")

    def predict_rows(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            inner = self.feature[node] >= 0
            if not inner.any():
                break
            rows = np.nonzero(inner)[0]
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return self.value[node]


@dataclass(eq=False)
class GbdtModel:
    params: GbdtParams
    n_features: int
    base_score: float
    feature_gain: list[float]  # an ndarray, one total split gain per feature
    trees: list[Tree]
    train_mse: list = field(default_factory=list, init=False)  # per round, diagnostic only

    def __post_init__(self):
        self.feature_gain = np.asarray(self.feature_gain, dtype=float)
        if self.feature_gain.shape != (self.n_features,):
            raise ValueError("feature_gain has %d entries for %d features"
                             % (self.feature_gain.size, self.n_features))
        for i, tree in enumerate(self.trees):
            if tree.feature.min() < -1 or tree.feature.max() >= self.n_features:
                raise ValueError("tree %d: feature ids must lie in [-1, %d)" % (i, self.n_features))


def _candidates(I, XT, min_samples_leaf):
    """(features, positions) of a node's allowed splits, in that order.

    A split after sorted position i sends i + 1 rows left and n - i - 1
    right. It is allowed when both sides keep min_samples_leaf rows, a
    window taken as a slice, and the sorted values at i and i + 1 differ.
    The node must hold at least 2 * min_samples_leaf rows.
    """
    lo = min_samples_leaf - 1
    hi = I.shape[1] - min_samples_leaf
    # one flat take: row j of the window reads row j of XT
    xs = XT.ravel().take(I[:, lo:hi + 1] + np.arange(0, XT.size, XT.shape[1])[:, None])
    features, positions = np.divmod(np.flatnonzero(xs[:, :-1] != xs[:, 1:]), hi - lo)
    return features, positions + lo


def _eval_node(I, XT, r, params, candidates=None):
    """Best split of the node whose per-feature sorted rows are I's rows.

    Returns (gain, feature, threshold, left_count) or None when no
    candidate clears min_samples_leaf and min_gain. Gains are priced only
    at the candidates; left sums and per-feature node totals both come
    from one sequential prefix sum along each row, so an independent
    left-to-right oracle reproduces every gain bit for bit. Ties break to
    the lower feature index, then the lower threshold.
    """
    n = I.shape[1]
    if n < 2 * params.min_samples_leaf:
        return None
    if candidates is None:
        candidates = _candidates(I, XT, params.min_samples_leaf)
    features, positions = candidates
    if features.size == 0:
        return None
    cum = r[I]
    np.cumsum(cum, axis=1, out=cum)
    totals = cum[features, n - 1]
    left_S = cum[features, positions]
    lam = params.lam
    left_n = (positions + 1).astype(float)
    right_n = float(n) - left_n
    right_S = totals - left_S
    parent = (totals * totals) / (n + lam)
    gain = left_S * left_S / (left_n + lam) + right_S * right_S / (right_n + lam) - parent
    k = int(np.argmax(gain))  # first maximum: lowest feature, then lowest position
    best = float(gain[k])
    if not best > params.min_gain:
        return None
    f = int(features[k])
    i = int(positions[k])
    a, b = XT[f, I[f, i]], XT[f, I[f, i + 1]]
    threshold = (a + b) / 2.0
    if not threshold < b:  # the midpoint of adjacent doubles can round up to b
        threshold = a
    return best, f, threshold, i + 1


def _partition(I, left_rows, n_rows_total):
    """Split a node's index block, keeping each row's sorted order."""
    member = np.zeros(n_rows_total, dtype=bool)
    member[left_rows] = True
    flat = I.ravel()
    keep = member.take(flat)
    m, n = I.shape
    n_left = left_rows.shape[0]
    # compress over the flat block is several times faster than I[keep], same order
    return (np.compress(keep, flat).reshape(m, n_left),
            np.compress(~keep, flat).reshape(m, n - n_left))


def _leaf_value(I, r, params):
    total = float(r[I[0]].sum())
    magnitude = abs(total) - params.alpha
    if magnitude <= 0.0:
        return 0.0
    return math.copysign(magnitude, total) / (I.shape[1] + params.lam)


class _Builder:
    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def split(self, node_id, I, hit, feature_gain, n_rows, final=False):
        """Make node_id an inner node; returns its (node_id, I) children.

        Children that are final leaves only need row 0 of their blocks.
        """
        gain, f, threshold, left_count = hit
        feature_gain[f] += gain
        self.feature[node_id] = f
        self.threshold[node_id] = threshold
        left_id = self.new_node()
        right_id = self.new_node()
        self.left[node_id] = left_id
        self.right[node_id] = right_id
        I_left, I_right = _partition(I[:1] if final else I, I[f, :left_count], n_rows)
        return (left_id, I_left), (right_id, I_right)

    def finish(self, leaves, r, params, update):
        for node_id, I in leaves:
            v = _leaf_value(I, r, params)
            self.value[node_id] = v
            update[I[0]] = v
        return Tree(self.feature, self.threshold, self.left, self.right, self.value)


def _grow_depth_wise(scan, I_root, params, feature_gain, n_rows):
    b = _Builder()
    leaves = []
    level = [(b.new_node(), I_root)]
    for depth in range(1, params.max_depth + 1):
        next_level = []
        for node_id, I in level:
            hit = scan(I)
            if hit is None:
                leaves.append((node_id, I))
            else:
                next_level.extend(b.split(node_id, I, hit, feature_gain, n_rows,
                                          final=depth == params.max_depth))
        level = next_level
        if not level:
            break
    leaves.extend(level)  # depth cap reached
    return b, leaves


def _grow_leaf_wise(scan, I_root, params, feature_gain, n_rows):
    b = _Builder()
    leaves = []
    heap = []
    tick = 0  # creation order, the deterministic tie-break for equal gains
    n_leaves = 1

    def consider(node_id, I):
        nonlocal tick
        # once the leaf budget is spent no node splits again, so skip the scan
        hit = scan(I) if n_leaves < params.num_leaves else None
        if hit is None:
            leaves.append((node_id, I))
        else:
            heapq.heappush(heap, (-hit[0], tick, node_id, I, hit))
            tick += 1

    consider(b.new_node(), I_root)
    while heap and n_leaves < params.num_leaves:
        _, _, node_id, I, hit = heapq.heappop(heap)
        n_leaves += 1
        children = b.split(node_id, I, hit, feature_gain, n_rows,
                           final=n_leaves == params.num_leaves)
        for child in children:
            consider(*child)
    while heap:
        _, _, node_id, I, _ = heapq.heappop(heap)
        leaves.append((node_id, I))
    return b, leaves


def gbdt_fit(X, y, params):
    """Boost params.n_estimators trees against squared-error residuals."""
    params.validate()
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, m) with one target per row")
    n, m = X.shape
    if n < 1:
        raise ValueError("need at least one row")
    if m < 1:
        raise ValueError("X must have at least one feature")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("X and y must be finite")

    XT = np.ascontiguousarray(X.T)
    I_root = np.argsort(XT, axis=1, kind="stable")
    # every tree starts from the same root block, so its candidates are fixed
    root_candidates = None
    if n >= 2 * params.min_samples_leaf:
        root_candidates = _candidates(I_root, XT, params.min_samples_leaf)

    def scan(I, r):
        return _eval_node(I, XT, r, params, root_candidates if I is I_root else None)

    base = float(y.mean())
    pred = np.full(n, base)
    feature_gain = np.zeros(m)
    trees = []
    history = []
    grow = _grow_depth_wise if params.growth == "depth_wise" else _grow_leaf_wise
    prev_mse = float(np.mean((y - pred) ** 2))
    update = np.empty(n)
    for _ in range(params.n_estimators):
        r = y - pred
        update.fill(0.0)
        builder, leaves = grow(lambda I, r=r: scan(I, r), I_root, params, feature_gain, n)
        trees.append(builder.finish(leaves, r, params, update))
        pred = pred + params.learning_rate * update
        mse = float(np.mean((y - pred) ** 2))
        # squared loss with learning_rate <= 1 cannot get worse on the
        # training rows; a violation means the leaf math is wrong
        if not mse <= prev_mse * (1.0 + 1e-9) + 1e-12:
            raise InvariantError("training MSE increased from %r to %r" % (prev_mse, mse))
        history.append(mse)
        prev_mse = mse
    model = GbdtModel(params, m, base, feature_gain, trees)
    model.train_mse = history
    return model


def gbdt_predict(model, X):
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError("expected %d features, got %s" % (model.n_features, X.shape))
    out = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        out += model.params.learning_rate * tree.predict_rows(X)
    return out


def find_best_split(node_rows, X, residuals, params):
    """Best (feature, threshold, gain) over an arbitrary row subset, or None.

    Candidate thresholds are midpoints between adjacent distinct sorted
    feature values a < b (a where the midpoint rounds up to b); splits
    must satisfy min_samples_leaf on both sides and exceed min_gain strictly.
    """
    rows = np.asarray(node_rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("node_rows must be non-empty")
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    r = np.asarray(residuals, dtype=float)
    I = rows[np.argsort(XT[:, rows], axis=1, kind="stable")]
    hit = _eval_node(I, XT, r, params)
    if hit is None:
        return None
    gain, f, threshold, _ = hit
    return f, threshold, gain
