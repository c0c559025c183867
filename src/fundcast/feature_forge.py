"""Feature engineering on the quarterly panel.

Turns raw variables into comparable formats (growth rates and log common-size
ratios), clips outliers against positive-origin quantile caps, runs the
four-tier missing-value policy, plans the per-company lag expansion that
later stages gather block by block, filters correlated columns, and builds
classification labels from relative earnings changes.

Conventions shared with panel_ingest: NaN is the missing marker until the
constant fill-in step replaces the leftovers with -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, MissingDenominatorError, PanelError
from .panel_ingest import (
    CONVERTED_FORMATS,
    RATIO_FORMATS,
    Format,
    PanelIndex,
    RawPanel,
)
from .spectral_reduce import column_std

DEFAULT_ASSETS_VAR = "atq"
DEFAULT_REVENUE_VAR = "revtq"
CONSTANT_FILL = -1.0
# cells of lag-0 rows that LagPlan.gather reads per step (512 KB)
GATHER_BLOCK_CELLS = 1 << 16

FORMAT_ORDER = (Format.YOY, Format.QOQ, Format.PCT_ASSETS, Format.PCT_REVENUE, Format.RAW)

# The values convert_formats, relative_change_targets and cut_classes know.
FORMULA_VARIANTS = ("standard", "minus_one")
HORIZONS = ("qoq", "yoy")
N_CLASSES = (2, 3, 6, 9)
SCHEMES = ("quantile_rank", "sign")


@dataclass(frozen=True)
class FeatureColumnMeta:
    """Identity of one matrix column: source variable, format, lag.

    cap is the stored outlier ceiling (set by clip_outliers) and expand_lags
    marks financial-origin columns that build_lags multiplies out; neither
    participates in column identity.
    """

    base_variable: str
    format: Format
    lag: int = 0
    cap: float | None = field(default=None, compare=False)
    expand_lags: bool = field(default=True, compare=False)

    @property
    def name(self) -> str:
        base = f"{self.base_variable}_{self.format.value}"
        return base if self.lag == 0 else f"{base}_l{self.lag:02d}"


@dataclass
class FeatureMatrix:
    """Samples-by-features values with per-column metadata.

    origin_positive marks cells whose source inputs were all strictly
    positive (the population the outlier caps are estimated on).
    crucial_missing holds one bool per row, true where any crucial schema
    variable is missing there, and is None when no variable is crucial.
    convert_formats attaches both; clip_outliers drops origin_positive and
    impute drops crucial_missing. index says which panel row each row is.
    """

    index: PanelIndex
    values: np.ndarray
    metas: list
    origin_positive: np.ndarray | None = None
    crucial_missing: np.ndarray | None = None

    def __post_init__(self):
        n, d = self.values.shape
        if len(self.index) != n:
            raise PanelError(f"{len(self.index)} index rows for {n} rows")
        if len(self.metas) != d:
            raise PanelError(f"{len(self.metas)} metas for {d} columns")
        idents = {(m.base_variable, m.format, m.lag) for m in self.metas}
        if len(idents) != d:
            raise PanelError("duplicate (base_variable, format, lag) column")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def take_rows(self, mask: np.ndarray) -> "FeatureMatrix":
        mask = np.asarray(mask)
        return FeatureMatrix(
            self.index.take(mask), self.values[mask], list(self.metas),
            origin_positive=None if self.origin_positive is None
            else self.origin_positive[mask],
            crucial_missing=None if self.crucial_missing is None
            else self.crucial_missing[mask])


@dataclass
class FillReport:
    """Audit record of the missing-value policy."""

    chosen_p: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    deleted_rows: int = 0
    deleted_columns: list = field(default_factory=list)
    relevant_filled: int = 0
    constant_filled: int = 0

    def to_records(self) -> list:
        out = []
        for name in sorted(self.chosen_p):
            res = self.residuals.get(name)
            out.append({
                "column": name,
                "chosen_p": int(self.chosen_p[name]),
                "mean_square_residuals": None if res is None else
                    [None if np.isnan(v) else float(v) for v in res],
            })
        return out


def convert_formats(panel: RawPanel, schema, *,
                    assets_var: str = DEFAULT_ASSETS_VAR,
                    revenue_var: str = DEFAULT_REVENUE_VAR,
                    formula_variant: str = "standard") -> FeatureMatrix:
    """Emit one lag-0 column per (variable, enabled format).

    Growth rates use zero-clamped inputs: QoQ = (T0 - T-1)/T-1 and
    YoY = (T0 - T-4)/T-4 after max(value, 0) on both quarters. Percent
    formats are ln(max(T0, 0)/denominator + 1) with the denominator taken
    as-is and required positive. Raw passes through untouched. Missing
    propagates; a clamped zero denominator yields +inf (capped later) or
    NaN when the numerator is zero too.

    formula_variant="minus_one" subtracts an extra 1 from the growth rates.
    crucial_missing is the OR of the crucial variables' missing masks.
    """
    if formula_variant not in FORMULA_VARIANTS:
        raise ValueError(f"unknown formula_variant {formula_variant!r}")
    wants_assets = any(Format.PCT_ASSETS in s.formats for s in schema)
    wants_revenue = any(Format.PCT_REVENUE in s.formats for s in schema)
    if wants_assets and assets_var not in panel.columns:
        raise MissingDenominatorError(f"{assets_var!r} column required for pct_assets")
    if wants_revenue and revenue_var not in panel.columns:
        raise MissingDenominatorError(f"{revenue_var!r} column required for pct_revenue")

    n = panel.n_rows
    extra = -1.0 if formula_variant == "minus_one" else 0.0

    def growth(raw: np.ndarray, shift: int):
        prev = panel.index.shifted(raw, shift)
        cur_c = np.maximum(raw, 0.0)
        prev_c = np.maximum(prev, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (cur_c - prev_c) / prev_c + extra
        origin = (raw > 0) & (prev > 0)
        return out, origin

    def ratio(raw: np.ndarray, denom: np.ndarray):
        num = np.maximum(raw, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(num / denom + 1.0)
        out[~(denom > 0)] = np.nan
        origin = (raw > 0) & (denom > 0)
        return out, origin

    assets = panel.columns.get(assets_var)
    revenue = panel.columns.get(revenue_var)

    cols, metas, origins = [], [], []
    for spec in schema:
        raw = panel.columns[spec.name]
        for fmt in FORMAT_ORDER:
            if fmt not in spec.formats:
                continue
            if fmt is Format.QOQ:
                col, origin = growth(raw, 1)
            elif fmt is Format.YOY:
                col, origin = growth(raw, 4)
            elif fmt is Format.PCT_ASSETS:
                col, origin = ratio(raw, assets)
            elif fmt is Format.PCT_REVENUE:
                col, origin = ratio(raw, revenue)
            else:
                col, origin = raw.copy(), np.ones(n, dtype=bool)
            cols.append(col)
            origins.append(origin)
            metas.append(FeatureColumnMeta(
                spec.name, fmt, 0, expand_lags=spec.is_financial))

    values = np.column_stack(cols) if cols else np.empty((n, 0))
    origin_positive = np.column_stack(origins) if origins else np.empty((n, 0), bool)
    crucial = [s.name for s in schema if s.crucial]
    crucial_missing = np.isnan(panel.columns[crucial[0]]) if crucial else None
    for name in crucial[1:]:
        crucial_missing |= np.isnan(panel.columns[name])
    return FeatureMatrix(panel.index, values, metas,
                         origin_positive=origin_positive,
                         crucial_missing=crucial_missing)


def clip_outliers(m: FeatureMatrix, pct: float = 0.95,
                  fit_rows: np.ndarray | None = None) -> FeatureMatrix:
    """Cap converted columns at the pct quantile of their positive-origin values.

    The cap population is restricted to cells whose source inputs were all
    strictly positive (no clamp, no zero denominator); the 'higher' quantile
    is used so the cap is always an observed value. Caps are estimated on
    fit_rows (default: all rows), applied everywhere, and stored in the
    column metas for reuse. Raw columns are untouched.
    """
    values = m.values.copy()
    metas = list(m.metas)
    rows = np.arange(m.n_rows) if fit_rows is None else np.asarray(fit_rows)
    for j, meta in enumerate(metas):
        if meta.format not in CONVERTED_FORMATS:
            continue
        col_fit = values[rows, j]
        finite = np.isfinite(col_fit)
        if m.origin_positive is not None:
            mask = finite & m.origin_positive[rows, j]
        else:
            mask = finite
        if not mask.any():
            continue
        cap = float(np.quantile(col_fit[mask], pct, method="higher"))
        values[:, j] = np.minimum(values[:, j], cap)
        metas[j] = replace(meta, cap=cap)
    return FeatureMatrix(m.index, values, metas,
                         crucial_missing=m.crucial_missing)


def _pooled_fill_period(column: np.ndarray, company: np.ndarray,
                        fit_mask: np.ndarray, max_p: int):
    """Choose p for one column by pooling residuals across companies.

    For each p in 1..max_p, the residual of a present value is its squared
    distance from the mean of up to p earlier present values of the same
    company (partial windows at the start), so every present value after a
    company's first contributes for every p and the counts match across
    candidates. Contributions are restricted to present values on fit rows;
    the look-back window itself may use any past present value. Returns
    (p, per-p mean squared residuals) with p the smallest minimizer, or
    (1, None) when no fit row contributes. company holds each row's
    company code, non-decreasing down the rows.

    Every company's prefix sums come from one cumsum down a position-by-
    company grid, and every contributing residual from one gather. The
    sums keep the order of a per-company pass: each company's residuals
    are added as one row-major (entries, max_p) block, which numpy sums in
    entry order (pairwise when max_p is 1), and the companies in row order.
    """
    present = ~np.isnan(column)
    vals = column[present]
    owner = company[present]
    # position of each present value among its company's present values
    pos = np.arange(len(vals)) - np.searchsorted(owner, owner)
    entries = np.flatnonzero(fit_mask[present] & (pos > 0))
    if not len(entries):
        return 1, None
    group = np.cumsum(np.r_[True, owner[1:] != owner[:-1]]) - 1
    grid = np.zeros((int(pos.max()) + 1, int(group[-1]) + 1))
    grid[pos, group] = vals
    csum = np.zeros((grid.shape[0] + 1, grid.shape[1]))
    np.cumsum(grid, axis=0, out=csum[1:])

    i, g = pos[entries], group[entries]
    w = np.minimum(np.arange(1, max_p + 1), i[:, None])
    resid = csum[i[:, None] - w, g[:, None]]
    np.subtract(csum[i, g][:, None], resid, out=resid)
    resid /= w
    np.subtract(vals[entries][:, None], resid, out=resid)
    np.square(resid, out=resid)

    heads = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    counts = np.diff(np.r_[heads, len(entries)])
    sums = np.empty((len(heads), max_p))
    # companies with the same number of residuals share one gather and sum
    for k in np.unique(counts).tolist():
        same = np.flatnonzero(counts == k)
        sums[same] = resid[heads[same][:, None] + np.arange(k)].sum(axis=1)
    mse = np.cumsum(sums, axis=0)[-1] / len(entries)
    return int(np.argmin(mse)) + 1, mse


def _fill_gaps(column: np.ndarray, company: np.ndarray, p: int,
               horizon_cap: int) -> int:
    """Fill, in place, the first horizon_cap cells of each missing run inside
    a company with the rolling mean of the last p present-or-filled values
    of that company; a run with no earlier value stays missing. company
    holds each row's company code, non-decreasing down the rows. Returns
    cells filled."""
    missing = np.isnan(column)
    if horizon_cap < 1 or not missing.any():
        return 0
    head = np.searchsorted(company, company)  # first row of each company
    opens = head == np.arange(len(column))
    starts = np.flatnonzero(missing & (opens | ~np.r_[False, missing[:-1]]))
    stops = np.flatnonzero(
        missing & (np.r_[opens[1:], True] | ~np.r_[missing[1:], False])) + 1
    seen = np.r_[0, np.cumsum(~missing)]
    after_value = seen[starts] > seen[head[starts]]
    starts, stops = starts[after_value], stops[after_value]
    filled = 0
    for start, stop, first in zip(starts.tolist(), stops.tolist(),
                                  head[starts].tolist()):
        before = column[first:start]
        past = before[~np.isnan(before)][-p:]
        n_fill = min(horizon_cap, stop - start)
        # the run's window: its last p earlier values, then each fill
        window = np.concatenate((past, np.empty(n_fill)))
        for k in range(len(past), len(window)):
            window[k] = window[max(0, k - p):k].mean()
        column[start:start + n_fill] = window[len(past):]
        filled += n_fill
    return filled


def impute(m: FeatureMatrix, *, look_back: int = 20,
           horizon_cap: int = 8, max_p: int = 20,
           fit_rows: np.ndarray | None = None):
    """Run the four-tier missing-value policy; returns (matrix, FillReport).

    1. Delete rows where any crucial variable is missing anywhere in the
       current-plus-look-back window (quarters without a stored row count
       as missing), read from m.crucial_missing; when that is None no
       variable is crucial and no row is deleted.
    2. Delete columns whose missing rate on the surviving fit rows exceeds
       70 percent, measured before any filling.
    3. For percent-format columns, fill the first horizon_cap values of
       each missing run with the rolling mean of the previous p present
       values, p chosen per column by residual minimization on fit rows.
    4. Replace every remaining missing cell with the constant -1.

    fit_rows restricts the fitted statistics (deletion rates, fill periods)
    to the training window; deletions and fills still apply to all rows.
    look_back and max_p must be at least 1 and horizon_cap at least 0.
    """
    if look_back < 1 or max_p < 1:
        raise ValueError(f"look_back and max_p must be >= 1, "
                         f"got {look_back} and {max_p}")
    if horizon_cap < 0:
        raise ValueError(f"horizon_cap must be >= 0, got {horizon_cap}")
    report = FillReport()
    n = m.n_rows
    fit_mask = np.zeros(n, dtype=bool)
    if fit_rows is None:
        fit_mask[:] = True
    else:
        fit_mask[np.asarray(fit_rows)] = True

    # (1) sample deletion on crucial-variable presence over the window
    retained = np.ones(n, dtype=bool)
    if m.crucial_missing is not None:
        # A row is kept when its company has a present row in each of the
        # look_back quarters ending at it, that is when the rows from the
        # window start up to it hold look_back present ones.
        csum = np.concatenate(([0], np.cumsum(~m.crucial_missing)))
        first = np.searchsorted(m.index.key, m.index.key - (look_back - 1))
        retained = csum[1:] - csum[first] == look_back
    report.deleted_rows = int((~retained).sum())

    index = m.index.take(retained)
    values = m.values[retained]
    fit_mask = fit_mask[retained]
    metas = list(m.metas)

    # (2) variable deletion at > 70% missing rate on surviving fit rows
    keep_cols = np.ones(len(metas), dtype=bool)
    fit_values = values[fit_mask]
    if fit_values.shape[0] > 0:
        rates = np.isnan(fit_values).mean(axis=0)
        keep_cols = rates <= 0.70
    report.deleted_columns = [metas[j].name
                              for j in np.flatnonzero(~keep_cols)]
    # compress keeps the rows C-contiguous, as LagPlan.gather reads them
    values = np.compress(keep_cols, values, axis=1)
    metas = [meta for meta, keep in zip(metas, keep_cols) if keep]

    # (3) relevant fill-in for percent formats
    for j, meta in enumerate(metas):
        if meta.format not in RATIO_FORMATS:
            continue
        col = values[:, j]
        p, mse = _pooled_fill_period(col, index.company, fit_mask, max_p)
        report.chosen_p[meta.name] = p
        if mse is not None:
            report.residuals[meta.name] = mse
        report.relevant_filled += _fill_gaps(col, index.company, p,
                                             horizon_cap)

    # (4) constant fill-in
    remaining = np.isnan(values)
    report.constant_filled = int(remaining.sum())
    values[remaining] = CONSTANT_FILL

    out = FeatureMatrix(index, values, metas)
    return out, report


@dataclass
class Dedupe:
    """What the correlation filter keeps: the kept column positions in
    order, and a (dropped, kept-partner, r) triple per dropped column."""

    kept: np.ndarray
    dedupe_pairs: list


def correlation_dedupe_inputs(block: np.ndarray, metas,
                              cutoff: float = 0.9) -> Dedupe:
    """Greedy scan in meta order dropping columns correlated above cutoff.

    block holds the fit rows of every column in metas, and the filter owns
    it: the columns are standardised in place and every Pearson r comes
    from the Gram matrix. A column is dropped when its largest |r| against
    the columns kept so far (the first such partner on ties) exceeds
    cutoff. Columns that repeat one value on the fit rows (or have no std
    there, as NaN columns) correlate with nothing and are kept.
    """
    z = block
    n = z.shape[0]
    sd = column_std(z)
    # a repeated value can leave rounding in its std, so test it exactly
    constant = ~(sd > 0) | (z.max(axis=0) == z.min(axis=0))
    z -= z.mean(axis=0)
    z /= np.where(constant, 1.0, sd)
    z[:, constant] = 0.0
    corr = z.T @ z
    corr /= n

    kept = []
    pairs = []
    for j in range(len(metas)):
        if kept:
            r = corr[kept, j]
            worst = int(np.argmax(np.abs(r)))
            if abs(r[worst]) > cutoff:
                pairs.append((metas[j].name, metas[kept[worst]].name,
                              float(r[worst])))
                continue
        kept.append(j)
    return Dedupe(np.array(kept, dtype=np.int64), pairs)


@dataclass(frozen=True)
class LagPlan:
    """The lagged matrix as a recipe: which cell of the lag-0 matrix each
    of its cells copies, without the values.

    Row i is index row i; its lag-k cells copy source row sources[i, k].
    Column c is metas[c] and copies source column col_source[c] at lag
    col_lag[c] (0 for a column that passes through unlagged). source_shape
    is the lag-0 matrix's shape.
    """

    index: PanelIndex
    metas: list
    sources: np.ndarray
    col_source: np.ndarray
    col_lag: np.ndarray
    source_shape: tuple

    @property
    def n_rows(self) -> int:
        return len(self.index)

    @property
    def n_cols(self) -> int:
        return len(self.metas)

    def gather(self, values: np.ndarray, rows=None, cols=None) -> np.ndarray:
        """The lagged block of the selected rows and columns (positions;
        default all), read from the lag-0 values.

        A few rows at a time, one take reads their source rows at every
        lag and a second places the selected (lag, column) cells in the
        block's rows, so no temporary grows with the block.
        """
        if values.shape != self.source_shape:
            raise DimensionMismatchError(
                f"plan reads a {self.source_shape} matrix, got {values.shape}")
        values = np.ascontiguousarray(values)  # each take reads whole rows
        sources = self.sources if rows is None else self.sources[rows]
        cols = np.arange(self.n_cols) if cols is None else np.asarray(cols)
        n_lags, width = self.sources.shape[1], values.shape[1]
        # cell (lag k, column j) of a row's source rows laid end to end
        cells = self.col_lag[cols] * width + self.col_source[cols]
        step = max(1, GATHER_BLOCK_CELLS // max(1, n_lags * width))
        out = np.empty((len(sources), len(cols)))
        # every index is in range once the shape matches, so take may clip
        for start in range(0, len(sources), step):
            src = sources[start:start + step]
            lagged_rows = np.take(values, src.ravel(), axis=0, mode="clip")
            np.take(lagged_rows.reshape(len(src), n_lags * width), cells,
                    axis=1, out=out[start:start + step], mode="clip")
        return out


def build_lags(m: FeatureMatrix, n_lags: int = 20) -> LagPlan:
    """Plan the expansion of each lag-flagged column into n_lags columns
    (lag 0..n_lags-1); LagPlan.gather reads any block of it from m.values.

    Lag k takes the same company's value k quarters earlier; rows lacking a
    stored row for any required quarter are dropped. Macro and market
    columns pass through unlagged, after the lagged ones.
    """
    if n_lags < 1:
        raise ValueError("n_lags must be >= 1")
    lag_cols = [j for j, meta in enumerate(m.metas) if meta.expand_lags]
    flat_cols = [j for j, meta in enumerate(m.metas) if not meta.expand_lags]
    if any(m.metas[j].lag != 0 for j in lag_cols):
        raise PanelError("build_lags expects a lag-0 matrix")

    sources = np.empty((m.n_rows, n_lags), dtype=np.int64)
    for k in range(n_lags):
        sources[:, k] = m.index.locate(m.index.key - k)
    ok = (sources >= 0).all(axis=1)
    metas = [replace(m.metas[j], lag=k, expand_lags=False)
             for j in lag_cols for k in range(n_lags)]
    metas += [m.metas[j] for j in flat_cols]
    return LagPlan(m.index.take(ok), metas, sources[ok],
                   np.array([j for j in lag_cols for _ in range(n_lags)]
                            + flat_cols, dtype=np.int64),
                   np.array(list(range(n_lags)) * len(lag_cols)
                            + [0] * len(flat_cols), dtype=np.int64),
                   m.values.shape)


def relative_change_targets(index: PanelIndex, future_income: np.ndarray,
                            past_income: np.ndarray, assets: np.ndarray,
                            horizon: str) -> np.ndarray:
    """Relative earnings-change targets per index row.

    qoq: (future(T+1) - past(T)) / assets(T)
    yoy: (sum future(T+1..T+4) - sum past(T-3..T)) / assets(T)

    Every term must be present and assets strictly positive, else NaN.
    """
    if horizon not in HORIZONS:
        raise ValueError(f"horizon must be one of {', '.join(HORIZONS)}, "
                         f"got {horizon!r}")
    if horizon == "qoq":
        num = index.shifted(future_income, -1) - past_income
    else:
        num = np.zeros(len(index))
        ok = np.ones(len(index), dtype=bool)
        for k in (1, 2, 3, 4):
            term = index.shifted(future_income, -k)
            ok &= ~np.isnan(term)
            num = num + np.where(np.isnan(term), 0.0, term)
        for k in (0, 1, 2, 3):
            term = index.shifted(past_income, k)
            ok &= ~np.isnan(term)
            num = num - np.where(np.isnan(term), 0.0, term)
        num[~ok] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        target = num / assets
    target[~(assets > 0)] = np.nan
    return target


def quantile_rank_classes(index: PanelIndex, targets: np.ndarray,
                          n_classes: int) -> np.ndarray:
    """Cut targets into equal-count classes within each calendar quarter.

    Ranks ascend with the target (higher target, higher class); ties break
    on company_id (the code order is str order) so the labeling is
    deterministic. Class counts within a quarter differ by at most one.
    """
    out = np.full(len(index), np.nan)
    rows = np.flatnonzero(~np.isnan(targets))
    rows = rows[np.lexsort((index.company[rows], targets[rows], index.quarter[rows]))]
    quarter = index.quarter[rows]
    # each row's rank within its quarter, and that quarter's row count
    starts = np.flatnonzero(np.r_[True, quarter[1:] != quarter[:-1]])
    sizes = np.diff(np.r_[starts, len(rows)])
    ranks = np.arange(len(rows)) - np.repeat(starts, sizes)
    out[rows] = (ranks * n_classes) // np.repeat(sizes, sizes)
    return out


def cut_classes(index: PanelIndex, targets: np.ndarray, n_classes: int,
                scheme: str) -> np.ndarray:
    """Class of each index row's relative-change target, NaN where the
    target is missing.

    quantile_rank cuts the targets within each calendar quarter into
    n_classes equal-count bins; sign yields 1 for a strict increase and 0
    otherwise, and needs n_classes 2.
    """
    if n_classes not in N_CLASSES:
        raise ValueError(f"n_classes must be one of "
                         f"{', '.join(map(str, N_CLASSES))}, got {n_classes}")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {', '.join(SCHEMES)}, "
                         f"got {scheme!r}")
    if scheme == "quantile_rank":
        return quantile_rank_classes(index, targets, n_classes)
    if n_classes != 2:
        raise ValueError("sign scheme requires n_classes=2")
    values = np.where(targets > 0, 1.0, 0.0)
    values[np.isnan(targets)] = np.nan
    return values


def build_labels(panel: RawPanel, horizon: str = "qoq", n_classes: int = 3,
                 scheme: str = "quantile_rank", *,
                 income_var: str = "niq",
                 assets_var: str = DEFAULT_ASSETS_VAR) -> np.ndarray:
    """Class labels from relative earnings changes, one per panel row, cut
    by cut_classes. Rows with missing future income get a NaN label.
    """
    if income_var not in panel.columns or assets_var not in panel.columns:
        raise PanelError(
            f"labels need {income_var!r} and {assets_var!r} columns")
    income = panel.columns[income_var]
    assets = panel.columns[assets_var]
    targets = relative_change_targets(panel.index, income, income, assets, horizon)
    return cut_classes(panel.index, targets, n_classes, scheme)
