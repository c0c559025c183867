"""Histogram-based gradient-boosted decision trees, grown leaf-wise.

Multiclass softmax objective with second-order (Newton) leaf weights,
L1 soft-thresholding and L2 shrinkage on the gradient sums, quantile
feature binning, per-node learned missing direction, feature and row
subsampling, and deterministic tie-breaking throughout so identical
seed + params + data reproduce a bit-identical model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidParamsError

_NEG_INF = -np.inf


@dataclass(frozen=True)
class HyperParams:
    """Training knobs; ranges checked by validate()."""

    learning_rate: float = 0.1
    max_bin: int = 255
    num_leaves: int = 31
    min_data_in_leaf: int = 20
    feature_fraction: float = 1.0
    bagging_fraction: float = 1.0
    bagging_freq: int = 0
    min_gain_to_split: float = 0.0
    lambda_l1: float = 0.0
    lambda_l2: float = 0.0
    n_rounds: int = 200
    seed: int = 0
    max_depth: int | None = None

    def validate(self) -> None:
        if not self.learning_rate > 0:
            raise InvalidParamsError(f"learning_rate must be > 0: {self.learning_rate}")
        if self.max_bin < 2:
            raise InvalidParamsError(f"max_bin must be >= 2: {self.max_bin}")
        if self.num_leaves < 2:
            raise InvalidParamsError(f"num_leaves must be >= 2: {self.num_leaves}")
        if self.min_data_in_leaf < 1:
            raise InvalidParamsError(
                f"min_data_in_leaf must be >= 1: {self.min_data_in_leaf}")
        if not 0 < self.feature_fraction <= 1:
            raise InvalidParamsError(
                f"feature_fraction must be in (0, 1]: {self.feature_fraction}")
        if not 0 < self.bagging_fraction <= 1:
            raise InvalidParamsError(
                f"bagging_fraction must be in (0, 1]: {self.bagging_fraction}")
        if self.bagging_freq < 0:
            raise InvalidParamsError(f"bagging_freq must be >= 0: {self.bagging_freq}")
        if self.min_gain_to_split < 0:
            raise InvalidParamsError(
                f"min_gain_to_split must be >= 0: {self.min_gain_to_split}")
        if self.lambda_l1 < 0 or self.lambda_l2 < 0:
            raise InvalidParamsError("lambda_l1 and lambda_l2 must be >= 0")
        if self.n_rounds < 1:
            raise InvalidParamsError(f"n_rounds must be >= 1: {self.n_rounds}")
        if self.max_depth is not None and self.max_depth < 1:
            raise InvalidParamsError(f"max_depth must be >= 1: {self.max_depth}")

    def to_record(self) -> dict:
        """Every field as JSON holds it, floats as plain float."""
        return {k: float(v) if isinstance(v, float) else v
                for k, v in vars(self).items()}


@dataclass
class BinnedMatrix:
    """Quantile-binned feature codes with frozen edges.

    codes[i, f] is the bin index of sample i on feature f; the last slot
    (bins_total - 1) is reserved for missing values on every feature.
    """

    codes: np.ndarray
    bin_edges: list
    n_bins: np.ndarray
    bins_total: int

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    def map_new(self, x) -> "BinnedMatrix":
        """Bin new rows with the training-time edges.

        x is the matrix of new rows, or its SortedColumns (sort_columns)
        when the same rows are binned under several sets of edges.
        """
        cols = x if isinstance(x, SortedColumns) else sort_columns(x)
        if cols.sorted.shape[0] != self.n_features:
            raise DimensionMismatchError(
                f"expected {self.n_features} features, got {cols.sorted.shape[0]}")
        codes = _sorted_codes(cols, self.bin_edges, self.bins_total, self.codes.dtype)
        return BinnedMatrix(codes, self.bin_edges, self.n_bins, self.bins_total)


@dataclass(frozen=True)
class SortedColumns:
    """Rows to bin, with each column sorted once.

    order[f] is the stable argsort of column f and sorted[f] the column in
    that order: -inf values first, then the n_finite[f] finite ones from
    position first_finite[f], then +inf, then NaN. bin_features reads every
    max_bin's quantile edges and the rows' codes from it, so binning the
    same rows at several max_bin sorts them only once.
    """

    order: np.ndarray
    sorted: np.ndarray
    first_finite: np.ndarray
    n_finite: np.ndarray


def sort_columns(x: np.ndarray) -> SortedColumns:
    """SortedColumns of a matrix of rows to bin."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={x.ndim}")
    order = np.argsort(x.T, axis=1, kind="stable")
    s = np.take_along_axis(x.T, order, axis=1)
    return SortedColumns(order, s, (s == -np.inf).sum(axis=1),
                         np.isfinite(s).sum(axis=1))


def _quantile_edges(cols: SortedColumns, max_bin: int) -> list:
    """Per column, the distinct k/max_bin quantiles of the finite values
    below their maximum.

    The quantiles follow np.quantile's linear rule step for step (virtual
    index (n - 1) q, its floor and the next index, both clamped to the last
    value at or past it, and the two-sided lerp), so the edges are the ones
    np.quantile gives on each column's finite values.
    """
    probs = np.arange(1, max_bin) / max_bin
    live = np.flatnonzero(cols.n_finite)
    rows = cols.sorted[live]
    n = cols.n_finite[live, None]
    first = cols.first_finite[live, None]
    virtual = (n - 1) * probs
    prev = np.floor(virtual)
    nxt = prev + 1
    # np.quantile marks neighbours at or past the last value with -1 (the
    # last value) and takes gamma against that mark
    above = virtual >= n - 1
    prev[above] = nxt[above] = -1
    gamma = virtual - prev

    def value(index):
        at = first + np.where(index < 0, n - 1, index).astype(np.intp)
        return np.take_along_axis(rows, at, axis=1)

    a, b = value(prev), value(nxt)
    diff = b - a
    q = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=q, where=gamma >= 0.5)

    bin_edges = [np.empty(0) for _ in cols.n_finite]
    for i, f in enumerate(live):
        edges = np.unique(q[i])
        bin_edges[f] = edges[edges < rows[i, first[i, 0] + n[i, 0] - 1]]
    return bin_edges


def bin_features(x, max_bin: int) -> BinnedMatrix:
    """Quantile-based binning fitted on training rows.

    x is the matrix of training rows, or its SortedColumns (sort_columns)
    when the same rows are binned at several max_bin. Per feature, up to
    max_bin - 1 edges at the k/max_bin quantiles of the finite training
    values; duplicate or non-separating edges collapse, so a constant
    feature gets a single bin with every code 0.
    """
    if max_bin < 2:
        raise InvalidParamsError(f"max_bin must be >= 2: {max_bin}")
    cols = x if isinstance(x, SortedColumns) else sort_columns(x)
    bin_edges = _quantile_edges(cols, max_bin)
    n_bins = np.array([len(edges) + 1 for edges in bin_edges], dtype=np.int64)
    bins_total = max_bin + 1
    dtype = np.uint8 if bins_total <= 256 else np.uint16
    codes = _sorted_codes(cols, bin_edges, bins_total, dtype)
    return BinnedMatrix(codes, bin_edges, n_bins, bins_total)


def _sorted_codes(cols: SortedColumns, bin_edges, bins_total, dtype):
    """Bin codes of the rows cols holds, read from their sort order: the
    number of edges below each value, and bins_total - 1 for NaN.

    Down a sorted column the code steps up by one just past each edge, at
    the edge's right insertion point, so the codes in sorted order are the
    running count of those steps; NaN, sorted last, takes the missing code.
    """
    d, n = cols.sorted.shape
    steps = np.zeros((d, n + 1), dtype=np.intp)
    for f, edges in enumerate(bin_edges):
        # two edges with no value between them step at the same position
        at = np.searchsorted(cols.sorted[f], edges, side="right")
        np.add.at(steps[f], at, 1)
    in_order = np.cumsum(steps[:, :n], axis=1).astype(dtype)
    in_order[np.isnan(cols.sorted)] = bins_total - 1
    codes = np.empty((n, d), dtype=dtype)
    np.put_along_axis(codes.T, cols.order, in_order, axis=1)
    return codes


def _soft_threshold(g, l1):
    return np.sign(g) * np.maximum(np.abs(g) - l1, 0.0)


def _leaf_objective(g, h, l1, l2):
    """soft_threshold(g, l1)^2 / (h + l2), and 0 where h + l2 <= 0."""
    t = np.maximum(np.abs(g) - l1, 0.0)
    denom = h + l2
    return np.divide(t * t, denom, out=np.zeros_like(denom), where=denom > 0)


def _leaf_weight(g: float, h: float, l1: float, l2: float) -> float:
    denom = h + l2
    # a vanishing curvature sum means the leaf is already saturated
    if denom <= 1e-150:
        return 0.0
    return float(-_soft_threshold(g, l1) / denom)


@dataclass
class Tree:
    """One fitted tree; parallel node arrays, children by index."""

    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    default_left: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)
    gain: list = field(default_factory=list)
    is_leaf: list = field(default_factory=list)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(-1)
        self.default_left.append(False)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.gain.append(0.0)
        self.is_leaf.append(True)
        return len(self.feature) - 1

    def predict(self, codes: np.ndarray, miss_code: int) -> np.ndarray:
        out = np.empty(codes.shape[0])
        stack = [(0, np.arange(codes.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if self.is_leaf[node]:
                out[rows] = self.value[node]
                continue
            c = codes[rows, self.feature[node]]
            go_left = c <= self.threshold[node]
            if self.default_left[node]:
                go_left |= c == miss_code
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out


@dataclass
class GbdtModel:
    """Per-class tree ensembles plus base scores and importance tallies.

    fit also hands back what it computed on its own rows, none of which
    to_text writes: the raw scores of the returned trees on the training
    rows (train_scores) and validation rows (valid_scores), and the
    validation log-loss at best_round (best_valid_loss).
    """

    n_classes: int
    n_features: int
    miss_code: int
    base_score: np.ndarray
    trees: list
    params: HyperParams
    best_round: int | None = None
    train_scores: np.ndarray | None = None
    valid_scores: np.ndarray | None = None
    best_valid_loss: float | None = None

    @property
    def n_rounds_fitted(self) -> int:
        return len(self.trees)


def _flat_index(codes: np.ndarray, width: int) -> np.ndarray:
    """Flat bincount slot of every cell: code + feature position * width."""
    index = codes.astype(np.intp)
    index += np.arange(codes.shape[1]) * width
    return index


def _bin_sums(flat: np.ndarray, weights: np.ndarray, f: int, width: int):
    """Per-feature sums of one per-row weight over a raveled _flat_index."""
    return np.bincount(flat, weights=np.repeat(weights, f),
                       minlength=f * width).reshape(f, width)


def _histograms(index: np.ndarray, g: np.ndarray, h: np.ndarray, width: int):
    """Stacked per-feature (gradient, hessian, count) histograms, shape
    (3, f, width), over rows of _flat_index."""
    f = index.shape[1]
    flat = index.ravel()
    cnt = np.bincount(flat, minlength=f * width).reshape(f, width)
    return np.stack([_bin_sums(flat, g, f, width), _bin_sums(flat, h, f, width),
                     cnt])


def _left_sums(hist, n_dirs: int, stop: int):
    """Left-child sums of every split candidate below bin `stop`.

    hist is (..., f, width) with the missing values in the last bin. The
    result is (..., f, stop, n_dirs): prefix sums over the bins (missing
    values right), then, when n_dirs is 2, the same plus the missing bin
    (missing values left).
    """
    left = np.cumsum(hist[..., :stop], axis=-1)[..., None]
    if n_dirs == 2:
        left = np.concatenate([left, left + hist[..., -1][..., None, None]],
                              axis=-1)
    return left


def _valid_candidates(cl, c_tot, n_bins, min_data_in_leaf: int):
    """Candidates, from their left-child row counts cl (f, stop, n_dirs),
    whose children both keep min_data_in_leaf rows and whose bin is not
    past the feature's last one."""
    in_range = np.arange(cl.shape[-2]) <= (n_bins - 2)[:, None]
    return ((cl >= min_data_in_leaf) & (c_tot - cl >= min_data_in_leaf)
            & in_range[..., None])


def _gains(left, totals, valid, params: HyperParams):
    """Gain of every split candidate of b nodes, evaluated only where valid.

    left (b, 2, f, stop, n_dirs) holds the left-child gradient and hessian
    sums, totals (b, 2) the nodes' sums; valid (f, stop, n_dirs) is shared
    by the b nodes. The result is (b, f, stop, n_dirs), -inf where not
    valid or not finite. Candidates run (feature, bin, missing-right before
    missing-left).
    """
    b = left.shape[0]
    cells = np.flatnonzero(valid)
    gl, hl = left.reshape(b, 2, -1)[:, :, cells].transpose(1, 0, 2)
    g_tot = totals[:, :1]
    h_tot = totals[:, 1:2]
    l1, l2 = params.lambda_l1, params.lambda_l2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        found = (_leaf_objective(gl, hl, l1, l2)
                 + _leaf_objective(g_tot - gl, h_tot - hl, l1, l2)
                 - _leaf_objective(g_tot, h_tot, l1, l2))
    found[~np.isfinite(found)] = _NEG_INF
    gains = np.full((b,) + valid.shape, _NEG_INF)
    gains.reshape(b, -1)[:, cells] = found
    return gains


def _pick(gains, min_gain_to_split: float):
    """Best (gain, feature position, bin threshold, default_left) of one
    node's _gains, or None when it does not clear min_gain_to_split.

    np.argmax keeps the first of equal gains, which pins the tie-break to
    the candidate order deterministically.
    """
    flat = int(np.argmax(gains))
    best_gain = float(gains.flat[flat])
    if not best_gain > min_gain_to_split:
        return None
    _, stop, n_dirs = gains.shape
    f_local, rem = divmod(flat, stop * n_dirs)
    t, direction = divmod(rem, n_dirs)
    return best_gain, f_local, t, bool(direction == 1)


def _best_split(hist, n_bins, params: HyperParams, totals):
    """Best split of one node from its stacked (gradient, hessian, count)
    histograms (3, f, width) and sums, or None.

    Missing-left candidates are built only when the missing bin holds rows
    or a nonzero gradient or hessian sum on some feature. Otherwise each
    equals the missing-right candidate just before it, which argmax
    already picks.
    """
    miss = hist.shape[-1] - 1
    left = _left_sums(hist, 2 if hist[:, :, miss].any() else 1, miss)
    valid = _valid_candidates(left[2], totals[2], n_bins, params.min_data_in_leaf)
    return _pick(_gains(left[None, :2], np.array([totals[:2]]), valid, params)[0],
                 params.min_gain_to_split)


class _Bag:
    """The rows every tree of a round grows on, shared by all classes.

    Built once per bag draw: the rows' codes, their raveled flat code
    index and count histogram over every feature, the root's valid split
    candidates (which depend on counts alone) and the rows left out, whose
    scores come from Tree.predict. roots caches the last root pass, valid
    while the gradients stay the same.
    """

    def __init__(self, codes: np.ndarray, rows: np.ndarray, width: int,
                 n_bins: np.ndarray, min_data_in_leaf: int):
        d = codes.shape[1]
        self.rows = rows
        self.codes = codes[rows]
        self.flat = _flat_index(self.codes, width).ravel()
        self.counts = np.bincount(self.flat, minlength=d * width).reshape(d, width)
        # a bin without rows sums to exactly 0, so counts alone tell
        # whether a missing-left candidate can differ from missing-right
        self.n_dirs = 2 if self.counts[:, -1].any() else 1
        valid = _valid_candidates(_left_sums(self.counts, self.n_dirs, width - 1),
                                  len(rows), n_bins, min_data_in_leaf)
        # prefix sums past the last valid bin are never read
        used = np.flatnonzero(valid.any(axis=(0, 2)))
        self.valid = valid[:, :used[-1] + 1 if len(used) else 0]
        left_out = np.ones(codes.shape[0], dtype=bool)
        left_out[rows] = False
        self.out_rows = np.flatnonzero(left_out)
        self.out_codes = codes[self.out_rows]
        self.roots = None


class _RootPass:
    """Every class's root histograms, sums and split gains over every
    feature, for one bag and one set of gradients."""

    def __init__(self, bag: _Bag, grad, hess, params: HyperParams):
        k = grad.shape[1]
        d, width = bag.counts.shape
        self.g = [grad[bag.rows, c] for c in range(k)]
        self.h = [hess[bag.rows, c] for c in range(k)]
        self.hist = np.empty((k, 3, d, width))
        self.totals = np.empty((k, 2))
        for c in range(k):
            self.hist[c, 0] = _bin_sums(bag.flat, self.g[c], d, width)
            self.hist[c, 1] = _bin_sums(bag.flat, self.h[c], d, width)
            self.totals[c] = self.g[c].sum(), self.h[c].sum()
        self.hist[:, 2] = bag.counts
        left = _left_sums(self.hist[:, :2], bag.n_dirs, bag.valid.shape[1])
        self.gains = _gains(left, self.totals, bag.valid, params)


class _LeafState:
    __slots__ = ("node_id", "rows", "hist", "g", "h", "depth", "best")

    def __init__(self, node_id, rows, hist, g, h, depth, best):
        self.node_id = node_id
        self.rows = rows
        self.hist = hist
        self.g = g
        self.h = h
        self.depth = depth
        self.best = best


def _grow_tree(index, width, n_bins_f, g, h, root_leaf: _LeafState,
               params: HyperParams):
    """Grow one tree best-first on the bagged rows from its root, node 0,
    whose best split root_leaf already holds.

    index is the bag's _flat_index over the tree's features, g and h the
    bagged gradients and hessians. Each step splits the first leaf of
    highest gain and puts its children at the end of the leaf list. Returns
    the tree, with feature positions local to index, and each bagged row's
    leaf value. Leaf values are the learning-rate-scaled Newton weights.
    """
    tree = Tree()
    tree.add_node()
    leaves = [root_leaf]
    while len(leaves) < params.num_leaves:
        pick = max((leaf for leaf in leaves if leaf.best is not None),
                   key=lambda leaf: leaf.best[0], default=None)
        if pick is None:
            break
        leaves.remove(pick)
        leaves.extend(_split_leaf(tree, pick, index, width, n_bins_f, g, h, params))

    in_bag = np.empty(len(g))
    for leaf in leaves:
        value = params.learning_rate * _leaf_weight(
            leaf.g, leaf.h, params.lambda_l1, params.lambda_l2)
        tree.value[leaf.node_id] = value
        in_bag[leaf.rows] = value
    return tree, in_bag


def _split_leaf(tree, leaf, index, width, n_bins_f, g, h, params: HyperParams):
    """Materialize a leaf's best split; return its left and right children,
    each holding its own best split or None."""
    gain, f_local, t, default_left = leaf.best
    tree.is_leaf[leaf.node_id] = False
    tree.feature[leaf.node_id] = f_local
    tree.threshold[leaf.node_id] = t
    tree.default_left[leaf.node_id] = default_left
    tree.gain[leaf.node_id] = gain

    offset = f_local * width
    c = index[leaf.rows, f_local]
    go_left = c <= offset + t
    if default_left:
        go_left |= c == offset + width - 1
    rows_l = leaf.rows[go_left]
    rows_r = leaf.rows[~go_left]

    depth = leaf.depth + 1
    # each child of a split keeps min_data_in_leaf rows, so a smaller node
    # cannot split and needs neither a histogram nor a split search
    min_split = 2 * params.min_data_in_leaf
    if ((params.max_depth is not None and depth >= params.max_depth)
            or max(len(rows_l), len(rows_r)) < min_split):
        hist_l = hist_r = None
    # direct histogram for the smaller child, subtraction for the sibling
    elif len(rows_l) <= len(rows_r):
        hist_l = _histograms(index[rows_l], g[rows_l], h[rows_l], width)
        hist_r = leaf.hist - hist_l
    else:
        hist_r = _histograms(index[rows_r], g[rows_r], h[rows_r], width)
        hist_l = leaf.hist - hist_r

    gl, hl = float(g[rows_l].sum()), float(h[rows_l].sum())
    gr, hr = leaf.g - gl, leaf.h - hl

    def child(rows, hist, g_sum, h_sum):
        best = None
        if hist is not None and len(rows) >= min_split:
            best = _best_split(hist, n_bins_f, params, (g_sum, h_sum, len(rows)))
        return _LeafState(tree.add_node(), rows, hist, g_sum, h_sum, depth, best)

    child_l = child(rows_l, hist_l, gl, hl)
    child_r = child(rows_r, hist_r, gr, hr)
    tree.left[leaf.node_id] = child_l.node_id
    tree.right[leaf.node_id] = child_r.node_id
    return child_l, child_r


def softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_loss(scores: np.ndarray, y: np.ndarray) -> float:
    p = softmax(scores)
    picked = np.clip(p[np.arange(len(y)), y], 1e-15, None)
    return float(-np.mean(np.log(picked)))


def _extract_labels(labels, n_classes):
    values = np.asarray(labels)
    if values.dtype.kind == "f" and np.isnan(values).any():
        raise ValueError("labels contain missing values; filter them first")
    values = values.astype(np.int64)
    k = n_classes or int(values.max()) + 1
    if values.min() < 0 or values.max() >= k:
        raise ValueError(f"labels outside 0..{k - 1}")
    return values, k


def fit(binned: BinnedMatrix, labels, params: HyperParams, *,
        n_classes: int | None = None, valid=None,
        early_stopping_rounds: int | None = None) -> GbdtModel:
    """Train the multiclass ensemble.

    Per round and class, gradients are p - y and hessians p(1 - p) from the
    softmax over accumulated scores; each tree grows best-first until
    num_leaves is reached or no split clears min_gain_to_split with both
    children holding min_data_in_leaf rows. bagging_fraction rows are drawn
    every bagging_freq rounds (no resampling in between); feature_fraction
    features are drawn per tree. valid=(binned, labels) enables early
    stopping on validation log-loss with patience early_stopping_rounds.

    Work whose result is already known is skipped: no tree can split on a
    bag below 2 * min_data_in_leaf rows, and after a round without trees
    the scores, gradients, root splits and validation loss are those of
    the round before.
    """
    params.validate()
    m = binned.n_rows
    if m == 0:
        raise DimensionMismatchError("cannot fit on 0 rows")
    y, k = _extract_labels(labels, n_classes)
    if len(y) != m:
        raise DimensionMismatchError(f"{len(y)} labels for {m} rows")
    d = binned.n_features
    width = binned.bins_total
    miss_code = width - 1

    counts = np.bincount(y, minlength=k).astype(np.float64)
    prior = counts / m
    base = np.log(np.clip(prior, 1e-12, None))
    model = GbdtModel(k, d, miss_code, base, [], params)
    scores = np.tile(base, (m, 1))
    valid_scores = None
    if valid is not None:
        binned_valid, labels_valid = valid
        valid_scores = np.tile(base, (binned_valid.n_rows, 1))
    model.train_scores, model.valid_scores = scores, valid_scores
    if (counts > 0).sum() < 2:
        warnings.warn("training labels contain a single class; model is base only")
        return model
    if valid is not None:
        y_valid, _ = _extract_labels(labels_valid, k)

    onehot_rows = np.arange(m)
    rng = np.random.default_rng(params.seed)
    bagging = params.bagging_freq > 0 and params.bagging_fraction < 1.0
    n_bag = max(1, int(np.ceil(params.bagging_fraction * m))) if bagging else m
    n_feats = max(1, int(np.ceil(params.feature_fraction * d)))
    all_feats = np.arange(d)
    # no tree splits a root below this, so such a bag leaves every tree None
    can_split = n_bag >= 2 * params.min_data_in_leaf
    bag_rows = np.arange(m)
    bag = None
    grad = hess = None
    loss = None
    best_loss = np.inf
    best_round = -1
    best_scores = None

    for r in range(params.n_rounds):
        round_trees = [None] * k
        # the draws change nothing when no tree can split
        if can_split:
            if bagging and r % params.bagging_freq == 0:
                bag = None
                bag_rows = np.sort(rng.permutation(m)[:n_bag])
            feats = [np.sort(rng.permutation(d)[:n_feats]) if n_feats < d
                     else all_feats for _ in range(k)]
            if bag is None:
                bag = _Bag(binned.codes, bag_rows, width, binned.n_bins,
                           params.min_data_in_leaf)
        if can_split and bag.valid.size:
            if grad is None:
                p = softmax(scores)
                grad = p.copy()
                grad[onehot_rows, y] -= 1.0
                hess = p * (1.0 - p)
                bag.roots = None
            if bag.roots is None:
                bag.roots = _RootPass(bag, grad, hess, params)
            roots = bag.roots
            for c, f in enumerate(feats):
                best = _pick(roots.gains[c][f], params.min_gain_to_split)
                if best is None:
                    continue
                root = _LeafState(0, np.arange(len(bag.rows)), roots.hist[c][:, f],
                                  float(roots.totals[c, 0]),
                                  float(roots.totals[c, 1]), 0, best)
                tree, in_bag = _grow_tree(
                    _flat_index(bag.codes[:, f], width), width, binned.n_bins[f],
                    roots.g[c], roots.h[c], root, params)
                tree.feature = [f[j] if j >= 0 else -1 for j in tree.feature]
                round_trees[c] = tree
                scores[bag.rows, c] += in_bag
                if len(bag.out_rows):
                    scores[bag.out_rows, c] += tree.predict(bag.out_codes, miss_code)
        model.trees.append(round_trees)
        moved = any(tree is not None for tree in round_trees)
        if moved:
            grad = hess = None

        if valid_scores is not None:
            if moved or loss is None:
                for c, tree in enumerate(round_trees):
                    if tree is not None:
                        valid_scores[:, c] += tree.predict(binned_valid.codes, miss_code)
                loss = log_loss(valid_scores, y_valid)
            if loss < best_loss:
                best_loss = loss
                best_round = r
                if early_stopping_rounds is not None:
                    best_scores = (scores.copy(), valid_scores.copy())
            elif (early_stopping_rounds is not None
                  and r - best_round >= early_stopping_rounds):
                break

    if best_round >= 0:
        model.best_valid_loss = float(best_loss)
        if early_stopping_rounds is not None:
            model.trees = model.trees[:best_round + 1]
            model.best_round = best_round
            model.train_scores, model.valid_scores = best_scores
    return model


def predict_raw(model: GbdtModel, binned: BinnedMatrix) -> np.ndarray:
    if binned.n_features != model.n_features:
        raise DimensionMismatchError(
            f"model fitted on {model.n_features} features, got {binned.n_features}")
    scores = np.tile(model.base_score, (binned.n_rows, 1))
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            if tree is not None:
                scores[:, c] += tree.predict(binned.codes, model.miss_code)
    return scores


def predict(model: GbdtModel, binned: BinnedMatrix) -> np.ndarray:
    """Argmax class per row (lowest class wins ties)."""
    return np.argmax(predict_raw(model, binned), axis=1)


def feature_importance(model: GbdtModel) -> np.ndarray:
    """Per-feature total split gain over all fitted trees; unused features
    score 0."""
    out = np.zeros(model.n_features)
    for round_trees in model.trees:
        for tree in round_trees:
            if tree is None:
                continue
            for node, leaf in enumerate(tree.is_leaf):
                if not leaf:
                    out[tree.feature[node]] += tree.gain[node]
    return out


def to_text(model: GbdtModel) -> str:
    """Versioned text serialization (audit and golden tests)."""
    lines = ["gbdt-model v1",
             f"n_classes={model.n_classes}",
             f"n_features={model.n_features}",
             f"miss_code={model.miss_code}",
             "base_score=" + ",".join(repr(float(b)) for b in model.base_score),
             f"best_round={model.best_round if model.best_round is not None else ''}",
             f"rounds={len(model.trees)}"]
    for r, round_trees in enumerate(model.trees):
        for c, tree in enumerate(round_trees):
            if tree is None:
                lines.append(f"tree {r} {c} none")
                continue
            lines.append(f"tree {r} {c} {len(tree.feature)}")
            for i in range(len(tree.feature)):
                if tree.is_leaf[i]:
                    lines.append(f"leaf {i} {repr(float(tree.value[i]))}")
                else:
                    lines.append(
                        f"split {i} {tree.feature[i]} {tree.threshold[i]} "
                        f"{int(tree.default_left[i])} {tree.left[i]} "
                        f"{tree.right[i]} {repr(float(tree.gain[i]))}")
    lines.append("end")
    return "\n".join(lines) + "\n"
