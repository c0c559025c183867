"""Histogram-based gradient-boosted decision trees, grown leaf-wise.

Multiclass softmax objective with second-order (Newton) leaf weights,
L1 soft-thresholding and L2 shrinkage on the gradient sums, quantile
feature binning, per-node learned missing direction, feature and row
subsampling, and deterministic tie-breaking throughout so identical
seed + params + data reproduce a bit-identical model.
"""

from __future__ import annotations

import warnings
from collections import deque
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

    def map_new(self, x: np.ndarray) -> "BinnedMatrix":
        """Bin new rows with the training-time edges."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"expected {self.n_features} features, got {x.shape}")
        codes = _encode(x, self.bin_edges, self.bins_total, self.codes.dtype)
        return BinnedMatrix(codes, self.bin_edges, self.n_bins, self.bins_total)


def _encode(x, bin_edges, bins_total, dtype):
    n, d = x.shape
    codes = np.zeros((n, d), dtype=dtype)
    miss_code = bins_total - 1
    for f in range(d):
        col = x[:, f]
        nan = np.isnan(col)
        edges = bin_edges[f]
        if len(edges):
            codes[:, f] = np.searchsorted(edges, col, side="left")
        codes[nan, f] = miss_code
    return codes


def bin_features(x: np.ndarray, max_bin: int) -> BinnedMatrix:
    """Quantile-based binning fitted on training rows.

    Per feature, up to max_bin - 1 edges at the k/max_bin quantiles of the
    finite training values; duplicate or non-separating edges collapse, so
    a constant feature gets a single bin with every code 0.
    """
    if max_bin < 2:
        raise InvalidParamsError(f"max_bin must be >= 2: {max_bin}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={x.ndim}")
    n, d = x.shape
    bins_total = max_bin + 1
    dtype = np.uint8 if bins_total <= 256 else np.uint16
    probs = np.arange(1, max_bin) / max_bin
    bin_edges = []
    n_bins = np.ones(d, dtype=np.int64)
    for f in range(d):
        col = x[:, f]
        finite = col[np.isfinite(col)]
        if len(finite) == 0:
            bin_edges.append(np.empty(0))
            continue
        edges = np.unique(np.quantile(finite, probs))
        edges = edges[edges < finite.max()]
        bin_edges.append(edges)
        n_bins[f] = len(edges) + 1
    codes = _encode(x, bin_edges, bins_total, dtype)
    return BinnedMatrix(codes, bin_edges, n_bins, bins_total)


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

    @property
    def n_leaves(self) -> int:
        return sum(self.is_leaf)

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
    """Per-class tree ensembles plus base scores and importance tallies."""

    n_classes: int
    n_features: int
    miss_code: int
    base_score: np.ndarray
    trees: list
    params: HyperParams
    best_round: int | None = None

    @property
    def n_rounds_fitted(self) -> int:
        return len(self.trees)


def _flat_index(codes: np.ndarray, width: int) -> np.ndarray:
    """Flat bincount slot of every cell: code + feature position * width."""
    index = codes.astype(np.intp)
    index += np.arange(codes.shape[1]) * width
    return index


def _histograms(index: np.ndarray, g: np.ndarray, h: np.ndarray, width: int):
    """Per-feature (gradient, hessian, count) histograms via one flat bincount
    over rows of _flat_index."""
    f = index.shape[1]
    flat = index.ravel()
    minlength = f * width
    cnt = np.bincount(flat, minlength=minlength).reshape(f, width)
    gs = np.bincount(flat, weights=np.repeat(g, f), minlength=minlength).reshape(f, width)
    hs = np.bincount(flat, weights=np.repeat(h, f), minlength=minlength).reshape(f, width)
    return gs, hs, cnt


def _best_split(gs, hs, cnt, n_bins, params: HyperParams, totals):
    """Best (gain, local feature, bin threshold, default_left) or None.

    Candidates are ordered (feature asc, bin asc, missing-right before
    missing-left); np.argmax keeps the first of equal gains, which pins
    the tie-break deterministically. Missing-left candidates are built
    only when the missing bin holds rows or a nonzero gradient or hessian
    sum on some feature. Otherwise each equals the missing-right candidate
    just before it, which argmax already picks.
    """
    g_tot, h_tot, c_tot = totals
    width = gs.shape[1]
    miss = width - 1
    gl = np.cumsum(gs[:, :miss], axis=1)
    hl = np.cumsum(hs[:, :miss], axis=1)
    cl = np.cumsum(cnt[:, :miss], axis=1)
    in_range = np.arange(miss)[None, :] <= (n_bins - 2)[:, None]
    n_dirs = 1
    if cnt[:, miss].any() or gs[:, miss].any() or hs[:, miss].any():
        n_dirs = 2
        gl = np.stack([gl, gl + gs[:, miss][:, None]], axis=2)
        hl = np.stack([hl, hl + hs[:, miss][:, None]], axis=2)
        cl = np.stack([cl, cl + cnt[:, miss][:, None]], axis=2)
        in_range = in_range[:, :, None]
    gr = g_tot - gl
    hr = h_tot - hl
    cr = c_tot - cl

    l1, l2 = params.lambda_l1, params.lambda_l2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parent = float(_leaf_objective(np.float64(g_tot), np.float64(h_tot), l1, l2))
        gains = (_leaf_objective(gl, hl, l1, l2)
                 + _leaf_objective(gr, hr, l1, l2) - parent)

    valid = (cl >= params.min_data_in_leaf) & (cr >= params.min_data_in_leaf)
    valid &= in_range
    valid &= np.isfinite(gains)
    gains = np.where(valid, gains, _NEG_INF)

    flat = int(np.argmax(gains))
    best_gain = float(gains.flat[flat])
    if not best_gain > params.min_gain_to_split:
        return None
    f_local, rem = divmod(flat, miss * n_dirs)
    t, direction = divmod(rem, n_dirs)
    return best_gain, f_local, t, bool(direction == 1)


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


def _grow_tree(codes, bag, feats, width, n_bins_f, g, h,
               params: HyperParams, growth: str):
    """Grow one tree on the bagged rows over a feature subset.

    Returns None when the root admits no valid split. Leaf values are the
    learning-rate-scaled Newton weights.
    """
    # each child of a split keeps min_data_in_leaf rows, so a smaller node
    # cannot split and needs neither a histogram nor a split search
    min_split = 2 * params.min_data_in_leaf

    def splittable(n_rows, depth):
        return n_rows >= min_split and (
            params.max_depth is None or depth < params.max_depth)

    def evaluate(hist_t, g_t, h_t, c_t, depth):
        if not splittable(c_t, depth):
            return None
        return _best_split(hist_t[0], hist_t[1], hist_t[2], n_bins_f, params,
                           (g_t, h_t, c_t))

    if not splittable(len(bag), 0):
        return None
    # node rows below index the bagged rows, not the full matrix
    index = _flat_index(codes[np.ix_(bag, feats)], width)
    g = g[bag]
    h = h[bag]
    tree = Tree()
    root = tree.add_node()
    hist = _histograms(index, g, h, width)
    g_sum = float(g.sum())
    h_sum = float(h.sum())
    root_leaf = _LeafState(root, np.arange(len(bag)), hist, g_sum, h_sum, 0,
                           evaluate(hist, g_sum, h_sum, len(bag), 0))
    if root_leaf.best is None:
        return None

    if growth == "leaf_wise":
        frontier = [root_leaf]
        n_leaves = 1
        while n_leaves < params.num_leaves:
            pick = None
            for leaf in frontier:
                if leaf.best is None:
                    continue
                if pick is None or leaf.best[0] > pick.best[0]:
                    pick = leaf
            if pick is None:
                break
            _split_leaf(tree, pick, index, width, g, h, splittable, evaluate,
                        frontier)
            n_leaves += 1
        leaves = frontier
    elif growth == "level_wise":
        queue = deque([root_leaf])
        leaves = []
        n_leaves = 1
        while queue:
            leaf = queue.popleft()
            if leaf.best is None or n_leaves >= params.num_leaves:
                leaves.append(leaf)
                continue
            children = []
            _split_leaf(tree, leaf, index, width, g, h, splittable, evaluate,
                        children)
            queue.extend(children)
            n_leaves += 1
        leaves.extend(queue)
    else:
        raise ValueError(f"unknown growth mode {growth!r}")

    for leaf in leaves:
        tree.value[leaf.node_id] = params.learning_rate * _leaf_weight(
            leaf.g, leaf.h, params.lambda_l1, params.lambda_l2)
    if tree.n_leaves < 2:
        return None
    tree.feature = [feats[f] if f >= 0 else -1 for f in tree.feature]
    return tree


def _split_leaf(tree, leaf, index, width, g, h, splittable, evaluate, sink):
    """Materialize a leaf's best split; append the two children to sink."""
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
    if not splittable(max(len(rows_l), len(rows_r)), depth):
        hist_l = hist_r = None
    # direct histogram for the smaller child, subtraction for the sibling
    elif len(rows_l) <= len(rows_r):
        hist_l = _histograms(index[rows_l], g[rows_l], h[rows_l], width)
        hist_r = tuple(p - q for p, q in zip(leaf.hist, hist_l))
    else:
        hist_r = _histograms(index[rows_r], g[rows_r], h[rows_r], width)
        hist_l = tuple(p - q for p, q in zip(leaf.hist, hist_r))

    gl, hl = float(g[rows_l].sum()), float(h[rows_l].sum())
    gr, hr = leaf.g - gl, leaf.h - hl

    node_l = tree.add_node()
    node_r = tree.add_node()
    tree.left[leaf.node_id] = node_l
    tree.right[leaf.node_id] = node_r
    child_l = _LeafState(node_l, rows_l, hist_l, gl, hl, depth,
                         evaluate(hist_l, gl, hl, len(rows_l), depth))
    child_r = _LeafState(node_r, rows_r, hist_r, gr, hr, depth,
                         evaluate(hist_r, gr, hr, len(rows_r), depth))
    if isinstance(sink, list) and leaf in sink:
        sink.remove(leaf)
    sink.append(child_l)
    sink.append(child_r)


def softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_loss(scores: np.ndarray, y: np.ndarray) -> float:
    p = softmax(scores)
    picked = np.clip(p[np.arange(len(y)), y], 1e-15, None)
    return float(-np.mean(np.log(picked)))


def _extract_labels(labels, n_classes):
    values = getattr(labels, "values", labels)
    values = np.asarray(values)
    if values.dtype.kind == "f":
        if np.isnan(values).any():
            raise ValueError("labels contain missing values; filter them first")
        values = values.astype(np.int64)
    else:
        values = values.astype(np.int64)
    declared = getattr(labels, "n_classes", None)
    k = n_classes or declared or int(values.max()) + 1
    if values.min() < 0 or values.max() >= k:
        raise ValueError(f"labels outside 0..{k - 1}")
    return values, k


def fit(binned: BinnedMatrix, labels, params: HyperParams, *,
        n_classes: int | None = None, valid=None,
        early_stopping_rounds: int | None = None,
        growth: str = "leaf_wise") -> GbdtModel:
    """Train the multiclass ensemble.

    Per round and class, gradients are p - y and hessians p(1 - p) from the
    softmax over accumulated scores; each tree grows best-first until
    num_leaves is reached or no split clears min_gain_to_split with both
    children holding min_data_in_leaf rows. bagging_fraction rows are drawn
    every bagging_freq rounds (no resampling in between); feature_fraction
    features are drawn per tree. valid=(binned, labels) enables early
    stopping on validation log-loss with patience early_stopping_rounds.
    """
    params.validate()
    m = binned.n_rows
    if m == 0:
        raise DimensionMismatchError("cannot fit on 0 rows")
    y, k = _extract_labels(labels, n_classes)
    if len(y) != m:
        raise DimensionMismatchError(f"{len(y)} labels for {m} rows")
    d = binned.n_features
    miss_code = binned.bins_total - 1

    counts = np.bincount(y, minlength=k).astype(np.float64)
    prior = counts / m
    base = np.log(np.clip(prior, 1e-12, None))
    model = GbdtModel(k, d, miss_code, base, [], params)
    if (counts > 0).sum() < 2:
        warnings.warn("training labels contain a single class; model is base only")
        return model

    onehot_rows = np.arange(m)
    scores = np.tile(base, (m, 1))
    rng = np.random.default_rng(params.seed)
    bagging = params.bagging_freq > 0 and params.bagging_fraction < 1.0
    n_bag = max(1, int(np.ceil(params.bagging_fraction * m)))
    n_feats = max(1, int(np.ceil(params.feature_fraction * d)))
    bag = np.arange(m)

    valid_scores = None
    y_valid = None
    if valid is not None:
        binned_valid, labels_valid = valid
        y_valid, _ = _extract_labels(labels_valid, k)
        valid_scores = np.tile(base, (binned_valid.n_rows, 1))
    best_loss = np.inf
    best_round = -1

    for r in range(params.n_rounds):
        if bagging and r % params.bagging_freq == 0:
            bag = np.sort(rng.permutation(m)[:n_bag])
        p = softmax(scores)
        grad = p.copy()
        grad[onehot_rows, y] -= 1.0
        hess = p * (1.0 - p)

        round_trees = []
        for c in range(k):
            if n_feats < d:
                feats = np.sort(rng.permutation(d)[:n_feats])
            else:
                feats = np.arange(d)
            tree = _grow_tree(binned.codes, bag, feats, binned.bins_total,
                              binned.n_bins[feats], grad[:, c], hess[:, c],
                              params, growth)
            round_trees.append(tree)
            if tree is not None:
                scores[:, c] += tree.predict(binned.codes, miss_code)
        model.trees.append(round_trees)

        if valid_scores is not None:
            for c, tree in enumerate(round_trees):
                if tree is not None:
                    valid_scores[:, c] += tree.predict(binned_valid.codes, miss_code)
            loss = log_loss(valid_scores, y_valid)
            if loss < best_loss:
                best_loss = loss
                best_round = r
            elif (early_stopping_rounds is not None
                  and r - best_round >= early_stopping_rounds):
                break

    if (valid_scores is not None and early_stopping_rounds is not None
            and best_round >= 0):
        model.trees = model.trees[:best_round + 1]
        model.best_round = best_round
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


def predict_proba(model: GbdtModel, binned: BinnedMatrix) -> np.ndarray:
    """Per-class probabilities; rows sum to 1."""
    return softmax(predict_raw(model, binned))


def predict(model: GbdtModel, binned: BinnedMatrix) -> np.ndarray:
    """Argmax class per row (lowest class wins ties)."""
    return np.argmax(predict_raw(model, binned), axis=1)


def feature_importance(model: GbdtModel, kind: str = "split_count") -> np.ndarray:
    """Per-feature tallies over all fitted trees; unused features score 0."""
    if kind not in ("split_count", "total_gain"):
        raise ValueError(f"unknown importance kind {kind!r}")
    out = np.zeros(model.n_features)
    for round_trees in model.trees:
        for tree in round_trees:
            if tree is None:
                continue
            for node, leaf in enumerate(tree.is_leaf):
                if leaf:
                    continue
                f = tree.feature[node]
                out[f] += 1 if kind == "split_count" else tree.gain[node]
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


def from_text(text: str) -> GbdtModel:
    lines = text.strip().split("\n")
    if lines[0] != "gbdt-model v1":
        raise ValueError(f"unknown model format {lines[0]!r}")
    kv = {}
    pos = 1
    for key in ("n_classes", "n_features", "miss_code", "base_score",
                "best_round", "rounds"):
        name, _, value = lines[pos].partition("=")
        if name != key:
            raise ValueError(f"expected {key}, got {name!r}")
        kv[key] = value
        pos += 1
    model = GbdtModel(
        n_classes=int(kv["n_classes"]),
        n_features=int(kv["n_features"]),
        miss_code=int(kv["miss_code"]),
        base_score=np.array([float(v) for v in kv["base_score"].split(",")]),
        trees=[],
        params=HyperParams(),
        best_round=int(kv["best_round"]) if kv["best_round"] else None,
    )
    rounds = int(kv["rounds"])
    for _ in range(rounds):
        model.trees.append([None] * model.n_classes)
    while pos < len(lines) and lines[pos] != "end":
        head = lines[pos].split()
        if head[0] != "tree":
            raise ValueError(f"expected tree header, got {lines[pos]!r}")
        r, c = int(head[1]), int(head[2])
        pos += 1
        if head[3] == "none":
            continue
        n_nodes = int(head[3])
        tree = Tree()
        for _ in range(n_nodes):
            parts = lines[pos].split()
            node = tree.add_node()
            if parts[0] == "leaf":
                tree.value[node] = float(parts[2])
            else:
                tree.is_leaf[node] = False
                tree.feature[node] = int(parts[2])
                tree.threshold[node] = int(parts[3])
                tree.default_left[node] = parts[4] == "1"
                tree.left[node] = int(parts[5])
                tree.right[node] = int(parts[6])
                tree.gain[node] = float(parts[7])
            pos += 1
        model.trees[r][c] = tree
    return model
