"""Gradient boosted regression trees with exact greedy splits.

Each tree fits the residuals of the running prediction. A candidate
split is priced by

    gain = S_L^2/(n_L + lambda) + S_R^2/(n_R + lambda) - S_P^2/(n_P + lambda)

with S the residual sum inside a node, and leaf values are the
soft-thresholded node sums soft(S, alpha)/(n + lambda), which is how the
alpha (L1) and lambda (L2) penalties enter.

One grower serves both policies; a policy is the key that picks the next
open node to split and the one limit that stops growth:

- depth_wise (level-wise, as in XGBoost) splits by (depth, creation
  order), so whole levels in turn, and max_depth bounds the depth; a tree
  can have more than num_leaves leaves;
- leaf_wise (best-first, as in LightGBM) splits the open node with the
  largest gain first, and num_leaves bounds the leaf count; a tree can be
  deeper than max_depth.

Splits are found by the exact greedy algorithm over presorted column
blocks (Chen & Guestrin, KDD 2016). A feature whose every training value
is 0 or 1 needs no sort order, so a node is three aligned parts:

- A, its rows in ascending id order;
- B, an (n_node, b) row-major bool block of the binary features, row i
  holding row A[i];
- I, a feature-major (s, n_node) index block for the other features,
  whose row j lists the node's rows sorted by that feature. One stable
  argsort per fit orders them, and gathers, prefix sums and the
  partition's boolean compress all run along contiguous rows.

A node is priced in two steps:

- candidates: in I, the sorted positions where adjacent values differ,
  inside the min_samples_leaf window; a binary feature with n0 zeros in
  the node has one, at position n0 - 1, when both sides keep
  min_samples_leaf rows. On a 4000 x 62 root with 52 binary features
  that is about 1.2k candidates instead of 248k positions;
- gains at those candidates only. In I, one sequential prefix sum of the
  residuals along each row gives the left sums and the node totals. For
  B, a stable sort would put the zeros first in id order and then the
  ones, so the left sum adds r over the zero rows down the block, and
  the total adds the one rows after it. Both are one einsum pass each,
  w = [1, r[A]] against an (n + 1, b) float block: [0; ~B] gives the
  left sums, then [left; B] the totals. A plain einsum keeps the column
  axis inner and adds row after row, and each product r * 0 or r * 1 is
  exact, so a fused multiply-add rounds as an add would: the same values
  in the same order as the prefix sum, and every gain is bit-identical to
  a plain left-to-right scan. Sums along a contiguous axis (a one-column
  block), einsum's optimize=True and BLAS products add pairwise or in
  blocks, which would not be. Ties break to the lowest feature over
  both parts, then the lowest position.

The root, and so its candidates, is the same for every tree and is
built once per fit. A split compresses A and B with one row mask and I
row by row. A node is scanned only while the tree is inside the
policy's limit, and the children of a split that reaches it are final
leaves: they keep only row 0 of I, the feature-0 order their leaf sums
use; feature 0 stays in I for that reason even when it is binary.
"""

import heapq
import math
from dataclasses import dataclass, field

from .. import InvariantError, np


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

    def __post_init__(self):
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


class _Columns:
    """The per-fit split of the features into a sorted and a binary group.

    A feature is binary when every training value is 0.0 or 1.0 (-0.0
    compares equal to 0.0). Feature 0 stays sorted, because leaf sums read
    its order, and a lone binary feature does too: einsum sums a
    one-column block pairwise instead of row after row.

    The binary sums of every node run in scratch allocated here once: an
    (n + 1, b) float block, n + 1 weights whose entry 0 is 1.0, and n + 1
    ones; a node of n_node rows uses their first n_node + 1 entries.
    """

    def __init__(self, XT):
        binary = ((XT == 0.0) | (XT == 1.0)).all(axis=1)
        binary[0] = False
        if np.count_nonzero(binary) < 2:
            binary[:] = False
        self.sorted_ids = np.flatnonzero(~binary)
        self.binary_ids = np.flatnonzero(binary)
        self.XS = np.ascontiguousarray(XT[self.sorted_ids])  # row j: values of sorted_ids[j]
        self.XB = XT[self.binary_ids] == 1.0
        n = XT.shape[1]
        self.block = np.empty((n + 1, self.binary_ids.size))
        self.weights = np.empty(n + 1)
        self.weights[0] = 1.0
        self.ones = np.ones(n + 1)

    def node(self, rows):
        """(A, B, I) of the node holding rows; ties in I keep the order of rows."""
        A = np.asarray(rows, dtype=np.int64)
        B = np.ascontiguousarray(self.XB[:, A].T)
        I = A[np.argsort(self.XS[:, A], axis=1, kind="stable")]
        return A, B, I

    def zeros(self, B):
        """The scratch block's first n + 1 rows, set to [0; ~B] as floats."""
        block = self.block[:B.shape[0] + 1]
        block[0] = 0.0
        np.logical_not(B, out=block[1:])
        return block


def _candidates(node, cols, zeros, min_samples_leaf):
    """A node's allowed splits: (rows of I, positions) and (columns of B, zero counts).

    A split after sorted position i sends i + 1 rows left and n - i - 1
    right. It is allowed when both sides keep min_samples_leaf rows, a
    window taken as a slice, and the sorted values at i and i + 1 differ.
    A binary column's only split sends its n0 zeros left, at position
    n0 - 1. zeros is cols.zeros(B); n0 is its column sums, one
    matrix-vector product, exact in any order since they are whole
    numbers. The node must hold at least 2 * min_samples_leaf rows.
    """
    A, B, I = node
    n = A.shape[0]
    XS = cols.XS
    lo = min_samples_leaf - 1
    hi = n - min_samples_leaf
    # one flat take: row j of the window reads row j of XS
    xs = XS.ravel().take(I[:, lo:hi + 1] + np.arange(0, XS.size, XS.shape[1])[:, None])
    features, positions = np.divmod(np.flatnonzero(xs[:, :-1] != xs[:, 1:]), hi - lo)
    n0 = cols.ones[:n + 1] @ zeros
    columns = np.flatnonzero((min_samples_leaf <= n0) & (n0 <= hi))
    return features, positions + lo, columns, n0[columns]


def _gains(left_S, totals, left_n, n, lam):
    right_S = totals - left_S
    right_n = float(n) - left_n
    parent = (totals * totals) / (n + lam)
    return left_S * left_S / (left_n + lam) + right_S * right_S / (right_n + lam) - parent


def _eval_node(node, cols, r, params, candidates=None):
    """Best split of the node (A, B, I), or None.

    Returns (gain, feature, threshold, left_rows) or None when no
    candidate clears min_samples_leaf and min_gain. Gains are priced only
    at the candidates, and every node sum is sequential, so an
    independent left-to-right oracle reproduces every gain bit for bit.
    Ties break to the lower feature index, then the lower threshold.
    """
    A, B, I = node
    n = A.shape[0]
    if n < 2 * params.min_samples_leaf:
        return None
    block = cols.zeros(B)
    if candidates is None:
        candidates = _candidates(node, cols, block, params.min_samples_leaf)
    features, positions, columns, n0 = candidates
    best = None
    if features.size:
        cum = r[I]
        np.cumsum(cum, axis=1, out=cum)
        gain = _gains(cum[features, positions], cum[features, n - 1],
                      (positions + 1).astype(float), n, params.lam)
        k = int(np.argmax(gain))  # first maximum: lowest feature, then lowest position
        j, i = int(features[k]), int(positions[k])
        a, b = cols.XS[j, I[j, i]], cols.XS[j, I[j, i + 1]]
        threshold = (a + b) / 2.0
        if not threshold < b:  # the midpoint of adjacent doubles can round up to b
            threshold = a
        best = (float(gain[k]), int(cols.sorted_ids[j]), threshold, I[j, :i + 1])
    if columns.size:
        # zeros in row order, then ones: the order of a stable sort by value.
        # w = [1, r[A]] against [0; ~B] adds r over the zero rows; against
        # [left; B] it adds the one rows after left. einsum adds row after
        # row down a row-major block, and each product is exact, so each
        # column's sum is sequential, as a prefix sum would be.
        w = cols.weights[:n + 1]
        r.take(A, out=w[1:])
        left = np.einsum("i,ij->j", w, block)
        block[0] = left
        np.copyto(block[1:], B)
        totals = np.einsum("i,ij->j", w, block)
        gain = _gains(left[columns], totals[columns], n0, n, params.lam)
        k = int(np.argmax(gain))
        c = int(columns[k])
        f = int(cols.binary_ids[c])
        if best is None or gain[k] > best[0] or (gain[k] == best[0] and f < best[1]):
            # the midpoint of 0 and 1; the zeros go left
            best = (float(gain[k]), f, 0.5, A[~B[:, c]])
    if best is None or not best[0] > params.min_gain:
        return None
    return best


def _partition(node, left_rows, n_rows_total, final=False):
    """Split a node into its (A, B, I) children, keeping every order.

    Final leaves need only row 0 of I, the feature-0 order their leaf
    sums use.
    """
    A, B, I = node
    member = np.zeros(n_rows_total, dtype=bool)
    member[left_rows] = True
    if final:
        I = I[:1]
    flat = I.ravel()
    keep = member.take(flat)
    m, n = I.shape
    n_left = left_rows.shape[0]
    # compress over the flat block is several times faster than I[keep], same order
    I_left = np.compress(keep, flat).reshape(m, n_left)
    I_right = np.compress(~keep, flat).reshape(m, n - n_left)
    if final:
        return (None, None, I_left), (None, None, I_right)
    keep = member.take(A)
    drop = ~keep
    return ((np.compress(keep, A), np.compress(keep, B, axis=0), I_left),
            (np.compress(drop, A), np.compress(drop, B, axis=0), I_right))


def _leaf_value(I, r, params):
    total = float(r[I[0]].sum())
    magnitude = abs(total) - params.alpha
    if magnitude <= 0.0:
        return 0.0
    return math.copysign(magnitude, total) / (I.shape[1] + params.lam)


def _grow(cols, root, root_candidates, r, params, feature_gain, update):
    """One tree on the residuals r; also writes each row's leaf value into update.

    Scanned nodes with a split wait in one heap. depth_wise pops by
    (depth, node id), so whole levels split in creation order, and only
    max_depth limits it; leaf_wise pops by (-gain, node id), the best
    split first, and only num_leaves limits it. Node ids count up in
    creation order, so the id is the tie-break.
    """
    depth_wise = params.growth == "depth_wise"
    max_depth = params.max_depth if depth_wise else math.inf
    max_leaves = math.inf if depth_wise else params.num_leaves
    n_leaves = 1

    def inside(depth):
        """Whether a node at depth is scanned; a split's children are final leaves if not."""
        return depth < max_depth and n_leaves < max_leaves

    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    leaves = []
    heap = []
    fresh = [(0, 0, root)]  # (node id, depth, node) not yet scanned
    while True:
        for node_id, depth, node in fresh:
            hit = None
            if inside(depth):
                hit = _eval_node(node, cols, r, params, None if node_id else root_candidates)
            if hit is None:
                leaves.append((node_id, node))
            else:
                key = depth if depth_wise else -hit[0]
                heapq.heappush(heap, (key, node_id, depth, node, hit))
        if not heap or n_leaves >= max_leaves:
            break
        _, node_id, depth, node, (gain, f, t, left_rows) = heapq.heappop(heap)
        n_leaves += 1
        feature_gain[f] += gain
        feature[node_id], threshold[node_id] = f, t
        left[node_id], right[node_id] = len(feature), len(feature) + 1
        children = _partition(node, left_rows, r.shape[0], final=not inside(depth + 1))
        fresh = [(len(feature) + i, depth + 1, child) for i, child in enumerate(children)]
        for array, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
            array += [blank, blank]
    leaves += [(node_id, node) for _, node_id, _, node, _ in heap]
    value = [0.0] * len(feature)
    for node_id, (_, _, I) in leaves:
        value[node_id] = _leaf_value(I, r, params)
        update[I[0]] = value[node_id]
    return Tree(feature, threshold, left, right, value)


def gbdt_fit(X, y, params):
    """Boost params.n_estimators trees against squared-error residuals."""
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

    cols = _Columns(X.T)
    root = cols.node(np.arange(n))
    # every tree starts from the same root, so its candidates are fixed
    root_candidates = None
    if n >= 2 * params.min_samples_leaf:
        root_candidates = _candidates(root, cols, cols.zeros(root[1]), params.min_samples_leaf)

    base = float(y.mean())
    pred = np.full(n, base)
    feature_gain = np.zeros(m)
    trees = []
    history = []
    prev_mse = float(np.mean((y - pred) ** 2))
    update = np.empty(n)  # _grow sets every row: the leaves partition them
    for _ in range(params.n_estimators):
        r = y - pred
        trees.append(_grow(cols, root, root_candidates, r, params, feature_gain, update))
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
    cols = _Columns(np.asarray(X, dtype=float).T)
    r = np.asarray(residuals, dtype=float)
    hit = _eval_node(cols.node(rows), cols, r, params)
    if hit is None:
        return None
    gain, f, threshold, _ = hit
    return f, threshold, gain
