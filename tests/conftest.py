from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from fundcast import boostwood
from fundcast.boostwood import GbdtModel, HyperParams, Tree
from fundcast.feature_forge import Dedupe, FeatureMatrix, _pooled_fill_period
from fundcast.panel_ingest import (
    CalendarQuarter,
    CompanyMeta,
    Format,
    CONSENSUS_HEADER,
    PanelIndex,
    RawPanel,
    StatementGroup,
    VariableSpec,
)
from fundcast.spectral_reduce import PcaModel


def quarter_range(start_year: int, start_q: int, n: int):
    start = CalendarQuarter(start_year, start_q)
    return [CalendarQuarter.from_index(start.index + i) for i in range(n)]


def index_from_keys(keys) -> PanelIndex:
    """PanelIndex of (company_id, CalendarQuarter) keys, sorted by company
    id and then quarter."""
    names = sorted({company for company, _ in keys})
    code = {name: i for i, name in enumerate(names)}
    return PanelIndex(names, [code[company] for company, _ in keys],
                      [q.index for _, q in keys])


def keys_of(index: PanelIndex) -> list:
    """(company_id, CalendarQuarter) of each index row."""
    return [(company, CalendarQuarter.from_index(q))
            for company, q in zip(index.company_names(), index.quarter.tolist())]


def grid_panel(companies, quarters, columns, meta=None) -> RawPanel:
    """Panel from per-variable (n_companies, n_quarters) value grids."""
    keys = [(c, q) for c in companies for q in quarters]
    cols = {name: np.asarray(grid, dtype=np.float64).reshape(-1)
            for name, grid in columns.items()}
    meta = meta or {c: CompanyMeta() for c in companies}
    return RawPanel(index_from_keys(keys), cols, meta)


def consensus_table(rows: dict) -> RawPanel:
    """The table load_consensus reads, from {(company_id, CalendarQuarter):
    (mean, median, actual)}."""
    keys = sorted(rows, key=lambda k: (k[0], k[1].index))
    values = np.array([rows[k] for k in keys], dtype=np.float64).reshape(-1, 3)
    return RawPanel(index_from_keys(keys),
                    {name: values[:, j]
                     for j, name in enumerate(CONSENSUS_HEADER[3:])})


def simple_spec(name, group="income", formats=(Format.RAW,), crucial=False,
                aligned=False) -> VariableSpec:
    return VariableSpec(name, StatementGroup(group), frozenset(formats),
                        crucial, aligned)


def single_company_fill_period(series, max_p=20):
    """(p, mean squared residuals) that impute's fill-period choice gives one
    company's series when every row is a fit row."""
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    return _pooled_fill_period(series, np.zeros(n, dtype=np.int64),
                               np.ones(n, dtype=bool), max_p)


def reference_pooled_fill_period(column, runs, fit_mask, max_p):
    """One pass per company over its (start, stop) rows: the plain form of
    feature_forge._pooled_fill_period, which must give the same p and the
    same residual bytes. resid[:, contrib] is a column-major copy, so its
    row sums add each company's residuals in entry order."""
    sse = np.zeros(max_p)
    cnt = 0
    for start, stop in runs:
        seg = column[start:stop]
        present = ~np.isnan(seg)
        if present.sum() < 2:
            continue
        vals = seg[present]
        contrib = fit_mask[start:stop][present][1:]
        if not contrib.any():
            continue
        n = len(vals)
        csum = np.concatenate(([0.0], np.cumsum(vals)))
        i_idx = np.arange(1, n)
        w = np.minimum(np.arange(1, max_p + 1)[:, None], i_idx[None, :])
        pred = (csum[i_idx] - csum[i_idx - w]) / w
        resid = (vals[i_idx] - pred) ** 2
        sse += resid[:, contrib].sum(axis=1)
        cnt += int(contrib.sum())
    if cnt == 0:
        return 1, None
    mse = sse / cnt
    return int(np.argmin(mse)) + 1, mse


def reference_fill_column_runs(seg, p, horizon_cap):
    """Row-by-row scan of one company's segment: the plain form of
    feature_forge._fill_gaps. Fills the first horizon_cap values of each NaN
    run in place with the rolling mean of the last p present-or-filled
    values and returns the cells filled."""
    isnan = np.isnan(seg)
    if not isnan.any():
        return 0
    filled = 0
    n = len(seg)
    i = 0
    while i < n:
        if not isnan[i]:
            i += 1
            continue
        run_start = i
        while i < n and isnan[i]:
            i += 1
        # window of up to p values directly before the run, skipping NaNs
        window = []
        j = run_start - 1
        while j >= 0 and len(window) < p:
            if not np.isnan(seg[j]):
                window.append(seg[j])
            j -= 1
        if not window:
            continue
        window.reverse()
        for k in range(run_start, min(run_start + horizon_cap, i)):
            value = float(np.mean(window[-p:]))
            seg[k] = value
            window.append(value)
            filled += 1
    return filled


def reference_correlation_dedupe(values, metas, cutoff: float = 0.9) -> Dedupe:
    """Column-by-column scan: the plain form of
    feature_forge.correlation_dedupe_inputs, which must keep the same columns
    and record the same (dropped, partner) names. values holds the fit rows
    and is left unchanged. Each column's r against the kept columns is one
    matrix-vector product over a growing buffer of their standardised fit
    rows."""
    x = values
    n = x.shape[0]
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    z = np.zeros_like(x)
    nz = (sd > 0) & ~(x == x[:1]).all(axis=0)
    z[:, nz] = (x[:, nz] - mu[nz]) / sd[nz]

    kept = []
    pairs = []
    kept_z = np.empty((n, len(metas)))
    for j in range(len(metas)):
        if kept:
            r = kept_z[:, :len(kept)].T @ z[:, j] / n
            worst = int(np.argmax(np.abs(r)))
            if abs(r[worst]) > cutoff:
                pairs.append((metas[j].name, metas[kept[worst]].name,
                              float(r[worst])))
                continue
        kept_z[:, len(kept)] = z[:, j]
        kept.append(j)
    return Dedupe(np.array(kept, dtype=np.int64), pairs)


def reference_build_lags(m: FeatureMatrix, n_lags: int) -> FeatureMatrix:
    """The lagged matrix written out column by column: the plain form of
    feature_forge.build_lags, whose LagPlan.gather must give the same bytes
    for any rows and columns. Each lag-flagged column becomes n_lags
    columns (lag 0..n_lags-1, lag k the same company's value k quarters
    earlier), flat columns follow unlagged, and rows lacking a stored row
    for any required quarter are dropped."""
    lag_cols = [j for j, meta in enumerate(m.metas) if meta.expand_lags]
    flat_cols = [j for j, meta in enumerate(m.metas) if not meta.expand_lags]
    gather = np.empty((m.n_rows, n_lags), dtype=np.int64)
    for k in range(n_lags):
        gather[:, k] = m.index.locate(m.index.key - k)
    ok = (gather >= 0).all(axis=1)
    keep = np.flatnonzero(ok)
    gather = gather[ok]

    values = np.empty((len(keep), len(lag_cols) * n_lags + len(flat_cols)))
    metas = []
    col = 0
    for j in lag_cols:
        for k in range(n_lags):
            values[:, col] = m.values[gather[:, k], j]
            metas.append(replace(m.metas[j], lag=k, expand_lags=False))
            col += 1
    for j in flat_cols:
        values[:, col] = m.values[keep, j]
        metas.append(m.metas[j])
        col += 1
    return FeatureMatrix(m.index.take(keep), values, metas)


def split_gain(parent_stats, left_stats, params) -> float:
    """Gain of splitting a node with (G, H) sums into left and right = parent - left.

    gain = score(left) + score(right) - score(parent) with
    score(G, H) = soft_threshold(G, lambda_l1)^2 / (H + lambda_l2), and 0
    where H + lambda_l2 is not positive.
    """
    def score(g, h):
        t = max(abs(g) - params.lambda_l1, 0.0)
        denom = h + params.lambda_l2
        return t * t / denom if denom > 0 else 0.0

    gp, hp = parent_stats
    gl, hl = left_stats
    return score(gl, hl) + score(gp - gl, hp - hl) - score(gp, hp)


def quantile_bin_edges(x, max_bin):
    """Per-column bin edges by np.quantile on the finite values: up to
    max_bin - 1 distinct k/max_bin quantiles below the column's maximum,
    none for a column without a finite value."""
    probs = np.arange(1, max_bin) / max_bin
    edges = []
    for col in np.asarray(x, dtype=np.float64).T:
        finite = col[np.isfinite(col)]
        if len(finite) == 0:
            edges.append(np.empty(0))
            continue
        q = np.unique(np.quantile(finite, probs))
        edges.append(q[q < finite.max()])
    return edges


def edge_codes(x, edges, miss_code):
    """Bin code of every cell: edges below the value, or miss_code for NaN."""
    x = np.asarray(x, dtype=np.float64)
    codes = np.empty(x.shape, dtype=np.int64)
    for f, col in enumerate(x.T):
        codes[:, f] = np.searchsorted(edges[f], col, side="left")
        codes[np.isnan(col), f] = miss_code
    return codes


def _level_wise_tree(index, width, n_bins_f, g, h, root_leaf, params):
    """boostwood._grow_tree's tree grown breadth-first: each leaf in queue
    order splits while the tree has fewer than num_leaves leaves."""
    tree = boostwood.Tree()
    tree.add_node()
    queue = deque([root_leaf])
    leaves = []
    n_leaves = 1
    while queue:
        leaf = queue.popleft()
        if leaf.best is None or n_leaves >= params.num_leaves:
            leaves.append(leaf)
            continue
        queue.extend(boostwood._split_leaf(tree, leaf, index, width, n_bins_f,
                                           g, h, params))
        n_leaves += 1
    in_bag = np.empty(len(g))
    for leaf in leaves:
        value = params.learning_rate * boostwood._leaf_weight(
            leaf.g, leaf.h, params.lambda_l1, params.lambda_l2)
        tree.value[leaf.node_id] = value
        in_bag[leaf.rows] = value
    return tree, in_bag


@contextmanager
def level_wise_growth():
    """Within the block, boostwood.fit grows every tree level-wise: the
    oracle that leaf-wise growth is measured against."""
    with mock.patch.object(boostwood, "_grow_tree", _level_wise_tree):
        yield


def n_leaves(tree: Tree) -> int:
    return sum(left < 0 for left in tree.left)


def total_entries(importance: dict) -> int:
    """Columns the tally of a decompose_importance record counts."""
    return sum(map(sum, importance["tally"]))


def model_from_text(text: str) -> GbdtModel:
    """Parse boostwood.to_text's format: the round-trip oracle of the
    model text."""
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
                tree.feature[node] = int(parts[2])
                tree.threshold[node] = int(parts[3])
                tree.default_left[node] = parts[4] == "1"
                tree.left[node] = int(parts[5])
                tree.right[node] = int(parts[6])
                tree.gain[node] = float(parts[7])
            pos += 1
        model.trees[r][c] = tree
    return model


def pca_from_text(text: str) -> PcaModel:
    """Parse spectral_reduce.to_text's format: the round-trip oracle of the
    PCA text."""
    lines = text.strip().split("\n")
    if lines[0] != "pca-model v1":
        raise ValueError(f"unknown model format {lines[0]!r}")

    def vector(line, name):
        key, _, payload = line.partition("=")
        if key != name:
            raise ValueError(f"expected {name}, got {key!r}")
        if payload == "":
            return None
        return np.array([float(v) for v in payload.split(",")])

    d = int(lines[1].partition("=")[2])
    kept = int(lines[2].partition("=")[2])
    mean = vector(lines[3], "mean")
    scale = vector(lines[4], "scale")
    eigenvalues = vector(lines[5], "eigenvalues")
    loadings = np.zeros((d, kept))
    for j in range(kept):
        loadings[:, j] = vector(lines[6 + j], f"loading{j}")
    total = eigenvalues.sum()
    ratio = eigenvalues / total if total > 0 else np.zeros(len(eigenvalues))
    return PcaModel(mean, loadings, eigenvalues, ratio, kept=kept, scale=scale)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
