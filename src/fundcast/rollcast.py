"""Rolling walk-forward harness.

Enumerates overlapping train windows each tested on the single following
quarter, runs the per-subset pipeline (outlier caps, imputation, lags,
correlation filter, PCA, hold-out search, final fit, prediction), scores
accuracy conditionally on agreement with analyst consensus classes, and
decomposes component importance back onto original variables.

Every statistic fitted inside a subset (caps, fill periods, deletion rates,
correlations, PCA, bins) is estimated on that subset's training rows only.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from . import boostwood, feature_forge, spectral_reduce, tuner
from .boostwood import HyperParams
from .errors import (
    InsufficientHistoryError,
    PanelError,
    ReportError,
    SubsetError,
)
from .feature_forge import FeatureMatrix, LabelVector
from .panel_ingest import (
    CalendarQuarter,
    Format,
    PanelIndex,
    RawPanel,
    _data_rows,
    _parse_value,
    _RowCodes,
    take_or_nan,
)

CONSENSUS_HEADER = ["company_id", "year", "quarter", "consensus_mean",
                    "consensus_median", "actual_nongaap"]

LAG_BUCKET_WIDTH = 4


@dataclass(frozen=True)
class SubsetSplit:
    """One rolling window: consecutive train quarters plus the next quarter."""

    train_quarters: tuple
    test_quarter: CalendarQuarter
    index: int


def enumerate_subsets(quarters, train_len: int = 80) -> list:
    """Sliding windows of train_len consecutive quarters, each tested on the
    immediately following quarter; consecutive splits shift by one."""
    quarters = list(quarters)
    if len(quarters) < train_len + 1:
        raise InsufficientHistoryError(
            f"{len(quarters)} quarters available; need >= {train_len + 1}")
    for prev, cur in zip(quarters, quarters[1:]):
        if cur.index != prev.index + 1:
            raise InsufficientHistoryError(
                f"quarters are not consecutive at {prev} -> {cur}")
    splits = []
    for i in range(len(quarters) - train_len):
        splits.append(SubsetSplit(
            tuple(quarters[i:i + train_len]), quarters[i + train_len], i + 1))
    return splits


@dataclass
class ConsensusTable:
    """Analyst estimates and non-GAAP actuals, one row per index row.

    values holds the consensus_mean, consensus_median and actual_nongaap
    columns, NaN where the CSV cell is blank.
    """

    index: PanelIndex
    values: np.ndarray

    def series(self, index: PanelIndex, field_index: int) -> np.ndarray:
        """One column on the rows of index, NaN where the table has no row."""
        return take_or_nan(self.values[:, field_index], self.index.find(index))


def load_consensus(path) -> ConsensusTable:
    """Load the consensus CSV in one streaming pass; rows may come in any
    order, and errors name the CSV row as load_panel's do."""
    coded = _RowCodes()
    companies = coded.companies
    values = array("d")

    def check_repeats(names, company) -> np.ndarray:
        """Each row's key; raises for a repeated (company, quarter)."""
        key = coded.keys(company)
        coded.raise_first_repeat(key, names, company, lambda i: "key")
        return key

    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for row_num, row in _data_rows(fh, CONSENSUS_HEADER, "consensus"):
                q = coded.quarter_of(row[1], row[2], row_num)
                # coded before its values, so a repeated key is named first
                coded.company.append(companies.setdefault(row[0], len(companies)))
                coded.quarter.append(q)
                coded.row_num.append(row_num)
                for text in row[3:6]:
                    values.append(_parse_value(text, row_num))
        except PanelError:
            check_repeats(*coded.provisional_codes())
            raise

    names, company = coded.sorted_codes()
    order = np.argsort(check_repeats(names, company), kind="stable")
    index = PanelIndex(names, company[order],
                       np.frombuffer(coded.quarter, dtype=np.int64)[order])
    return ConsensusTable(index, np.frombuffer(values).reshape(-1, 3)[order])


def consensus_classes(table: ConsensusTable, panel: RawPanel, horizon: str,
                      n_classes: int, scheme: str, estimate: str = "mean"):
    """Class labels for consensus estimates and non-GAAP actuals.

    Both are converted to relative-change targets (future estimate against
    past actual, scaled by current assets) and cut within each quarter with
    the same criteria the labels use. Returns (consensus, actual) label
    vectors on the panel's rows; rows absent from the table are missing.
    """
    if estimate not in ("mean", "median"):
        raise ValueError(f"unknown estimate {estimate!r}")
    est_col = 0 if estimate == "mean" else 1
    est = table.series(panel.index, est_col)
    actual = table.series(panel.index, 2)
    assets = panel.columns[feature_forge.DEFAULT_ASSETS_VAR] \
        if feature_forge.DEFAULT_ASSETS_VAR in panel.columns else None
    if assets is None:
        raise PanelError("consensus scoring needs the assets column")
    target_est = feature_forge.relative_change_targets(
        panel.index, est, actual, assets, horizon)
    target_act = feature_forge.relative_change_targets(
        panel.index, actual, actual, assets, horizon)

    def cut(targets):
        if scheme == "sign":
            values = np.where(targets > 0, 1.0, 0.0)
            values[np.isnan(targets)] = np.nan
        else:
            values = feature_forge.quantile_rank_classes(
                panel.index, targets, n_classes)
        return LabelVector(panel.index, values, n_classes, horizon, scheme)

    return cut(target_est), cut(target_act)


@dataclass
class MetricsBundle:
    """Accuracy metrics for one subset, consensus-conditional where available."""

    accuracy: float
    n_scored: int
    per_class: dict = field(default_factory=dict)
    consensus_available: bool = False
    consensus_accuracy: float = float("nan")
    consensus_mean_accuracy: float = float("nan")
    consensus_median_accuracy: float = float("nan")
    n_converge: int = 0
    n_diverge: int = 0
    converge_model_acc: float = float("nan")
    converge_consensus_acc: float = float("nan")
    diverge_model_acc: float = float("nan")
    diverge_consensus_acc: float = float("nan")


def _safe_rate(hits: int, total: int) -> float:
    return hits / total if total else float("nan")


def conditional_accuracy(model_pred, consensus_pred, actual,
                         actual_consensus=None) -> MetricsBundle:
    """Split scoring into converge (model class == consensus class) and diverge.

    Consensus is scored against actual_consensus when given (the split
    pairing, e.g. non-GAAP actuals), otherwise against the same actual as
    the model.
    """
    model_pred = np.asarray(model_pred)
    consensus_pred = np.asarray(consensus_pred)
    actual = np.asarray(actual)
    actual_cons = actual if actual_consensus is None else np.asarray(actual_consensus)
    n = len(model_pred)
    converge = model_pred == consensus_pred
    n_conv = int(converge.sum())
    n_div = n - n_conv
    model_hits = model_pred == actual
    cons_hits = consensus_pred == actual_cons
    bundle = MetricsBundle(
        accuracy=_safe_rate(int(model_hits.sum()), n),
        n_scored=n,
        consensus_available=True,
        consensus_accuracy=_safe_rate(int(cons_hits.sum()), n),
        n_converge=n_conv,
        n_diverge=n_div,
        converge_model_acc=_safe_rate(int(model_hits[converge].sum()), n_conv),
        converge_consensus_acc=_safe_rate(int(cons_hits[converge].sum()), n_conv),
        diverge_model_acc=_safe_rate(int(model_hits[~converge].sum()), n_div),
        diverge_consensus_acc=_safe_rate(int(cons_hits[~converge].sum()), n_div),
    )
    return bundle


def _per_class_accuracy(pred, actual, n_classes: int) -> dict:
    out = {}
    for c in range(n_classes):
        mask = actual == c
        out[c] = _safe_rate(int((pred[mask] == c).sum()), int(mask.sum()))
    return out


@dataclass
class ImportanceDecomposition:
    """Top components by model importance mapped back to original columns."""

    components: list
    component_importance: list
    entries: list
    bucket_labels: list
    format_labels: list
    tally: np.ndarray

    @property
    def total_entries(self) -> int:
        return int(self.tally.sum())

    def to_record(self) -> dict:
        return {
            "components": [int(c) for c in self.components],
            "component_importance": [float(v) for v in self.component_importance],
            "entries": [
                [{"column": name, "lag": int(lag), "format": fmt,
                  "loading": float(loading)}
                 for name, lag, fmt, loading in comp]
                for comp in self.entries
            ],
            "bucket_labels": list(self.bucket_labels),
            "format_labels": list(self.format_labels),
            "tally": self.tally.tolist(),
        }


def decompose_importance(model, pca, metas, top_c: int = 5, top_v: int = 10,
                         kind: str = "total_gain") -> ImportanceDecomposition:
    """Map component-level importance back to original variables.

    Components rank by model importance; within each of the top top_c, the
    top_v original columns rank by absolute loading. Tallies group the
    selected columns by lag bucket and format.
    """
    importance = boostwood.feature_importance(model, kind)
    order = np.argsort(-importance, kind="stable")
    components = order[:min(top_c, len(order))]

    max_lag = max((m.lag for m in metas), default=0)
    n_buckets = max_lag // LAG_BUCKET_WIDTH + 1
    bucket_labels = [f"{b * LAG_BUCKET_WIDTH}-{b * LAG_BUCKET_WIDTH + LAG_BUCKET_WIDTH - 1}"
                     for b in range(n_buckets)]
    format_labels = [f.value for f in
                     (Format.QOQ, Format.YOY, Format.PCT_ASSETS,
                      Format.PCT_REVENUE, Format.RAW)]
    fmt_index = {f: i for i, f in enumerate(format_labels)}
    tally = np.zeros((n_buckets, len(format_labels)), dtype=np.int64)

    entries = []
    for comp in components:
        loadings = pca.loadings[:, comp]
        top_rows = np.argsort(-np.abs(loadings), kind="stable")[:min(top_v, len(loadings))]
        comp_entries = []
        for row in top_rows:
            meta = metas[row]
            comp_entries.append((meta.name, meta.lag, meta.format.value,
                                 float(loadings[row])))
            tally[meta.lag // LAG_BUCKET_WIDTH, fmt_index[meta.format.value]] += 1
        entries.append(comp_entries)

    return ImportanceDecomposition(
        components=[int(c) for c in components],
        component_importance=[float(importance[c]) for c in components],
        entries=entries,
        bucket_labels=bucket_labels,
        format_labels=format_labels,
        tally=tally,
    )


@dataclass
class ConsensusVectors:
    """Consensus (mean and median estimate) and non-GAAP actual classes on
    the panel's rows, derived from a ConsensusTable."""

    mean_cls: LabelVector
    median_cls: LabelVector
    actual_cls: LabelVector
    estimate: str = "mean"
    pairing: str = "split"


@dataclass
class SubsetConfig:
    """Everything run_subset needs beyond the split and the data."""

    schema: list
    horizon: str = "qoq"
    n_classes: int = 3
    scheme: str = "quantile_rank"
    clip_pct: float = 0.95
    look_back: int = 20
    fill_horizon_cap: int = 8
    fill_max_p: int = 20
    n_lags: int = 20
    correlation_cutoff: float = 0.9
    pca_threshold: float = 0.66
    standardize: bool = False
    validation_size: int = 8
    validation_mode: str = "chronological_tail"
    search_space: tuner.SearchSpace = field(default_factory=tuner.default_space)
    search_budget: int = 25
    search_mode: str = "uniform"
    base_params: HyperParams = field(default_factory=HyperParams)
    early_stopping: int | None = 20
    importance_top_components: int = 5
    importance_top_variables: int = 10
    importance_kind: str = "total_gain"
    seed: int = 0
    consensus: ConsensusVectors | None = None


@dataclass
class SubsetResult:
    """Outcome of one rolling subset."""

    split: SubsetSplit
    horizon: str
    n_classes: int
    scheme: str
    tuned: HyperParams
    pca_kept: int
    n_train: int
    n_test: int
    test_companies: list
    predictions: np.ndarray
    actuals: np.ndarray
    metrics: MetricsBundle
    importance: ImportanceDecomposition | None
    trials: list
    model_text: str
    pca_text: str
    fill_report: feature_forge.FillReport
    dedupe_dropped: int

    def to_record(self) -> dict:
        m = self.metrics

        def num(x):
            return None if x is None or (isinstance(x, float) and np.isnan(x)) else float(x)

        return {
            "record_type": "subset",
            "subset": self.split.index,
            "train_start": str(self.split.train_quarters[0]),
            "train_end": str(self.split.train_quarters[-1]),
            "test_quarter": str(self.split.test_quarter),
            "horizon": self.horizon,
            "n_classes": self.n_classes,
            "scheme": self.scheme,
            "pca_kept": self.pca_kept,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "tuned_params": {k: (v if not isinstance(v, float) else float(v))
                             for k, v in vars(self.tuned).items()},
            "predictions": [
                {"company_id": c, "predicted": int(p), "actual": int(a)}
                for c, p, a in zip(self.test_companies, self.predictions,
                                   self.actuals)
            ],
            "metrics": {
                "accuracy": num(m.accuracy),
                "n_scored": m.n_scored,
                "per_class": {str(k): num(v) for k, v in m.per_class.items()},
                "consensus_available": m.consensus_available,
                "consensus_accuracy": num(m.consensus_accuracy),
                "consensus_mean_accuracy": num(m.consensus_mean_accuracy),
                "consensus_median_accuracy": num(m.consensus_median_accuracy),
                "n_converge": m.n_converge,
                "n_diverge": m.n_diverge,
                "converge_model_acc": num(m.converge_model_acc),
                "converge_consensus_acc": num(m.converge_consensus_acc),
                "diverge_model_acc": num(m.diverge_model_acc),
                "diverge_consensus_acc": num(m.diverge_consensus_acc),
            },
            "importance": None if self.importance is None
                else self.importance.to_record(),
            "dedupe_dropped": self.dedupe_dropped,
            "impute": {
                "deleted_rows": self.fill_report.deleted_rows,
                "deleted_columns": list(self.fill_report.deleted_columns),
                "relevant_filled": self.fill_report.relevant_filled,
                "constant_filled": self.fill_report.constant_filled,
            },
        }


def _subset_seeds(seed: int, index: int):
    seq = np.random.SeedSequence([seed, index])
    children = seq.spawn(3)
    return [int(c.generate_state(1)[0] & 0x7FFFFFFF) for c in children]


def run_subset(split: SubsetSplit, features: FeatureMatrix,
               labels: LabelVector, config: SubsetConfig) -> SubsetResult:
    """Run the full per-subset pipeline and score the test quarter.

    Stage order: outlier caps -> imputation -> lag expansion ->
    correlation filter -> PCA and component selection -> hold-out
    validation split -> hyperparameter search -> final fit on the whole
    training window -> test-quarter prediction. Fitted statistics use
    training rows only; look-backs may reach quarters before the window.
    """
    seed_valid, seed_search, seed_final = _subset_seeds(config.seed, split.index)
    train_quarters = [q.index for q in split.train_quarters]
    test_idx_q = split.test_quarter.index

    def stage(name):
        def wrap(exc):
            return SubsetError(split.index, name, exc)
        return wrap

    try:
        work = features.take_rows(features.index.quarter <= test_idx_q)
        train_rows = np.flatnonzero(np.isin(work.index.quarter, train_quarters))
        work = feature_forge.clip_outliers(work, config.clip_pct,
                                           fit_rows=train_rows)
    except Exception as exc:
        raise stage("clip_outliers")(exc) from exc

    try:
        work, fill_report = feature_forge.impute(
            work, config.schema, look_back=config.look_back,
            horizon_cap=config.fill_horizon_cap, max_p=config.fill_max_p,
            fit_rows=train_rows)
    except Exception as exc:
        raise stage("impute")(exc) from exc

    try:
        lagged = feature_forge.build_lags(work, config.n_lags)
    except Exception as exc:
        raise stage("build_lags")(exc) from exc

    label_values = take_or_nan(labels.values, labels.index.find(lagged.index))
    q_arr = lagged.index.quarter
    has_label = ~np.isnan(label_values)
    train_idx = np.flatnonzero(np.isin(q_arr, train_quarters) & has_label)
    test_idx = np.flatnonzero((q_arr == test_idx_q) & has_label)
    if len(train_idx) == 0:
        raise SubsetError(split.index, "train_selection",
                          ValueError("no training rows survive preprocessing"))

    try:
        deduped = feature_forge.correlation_dedupe_inputs(
            lagged, config.correlation_cutoff, fit_rows=train_idx)
    except Exception as exc:
        raise stage("correlation_dedupe")(exc) from exc

    try:
        pca = spectral_reduce.fit_pca(deduped.values[train_idx],
                                      standardize=config.standardize)
        pca.kept = spectral_reduce.choose_components(pca, config.pca_threshold)
        comps_train = spectral_reduce.transform(pca, deduped.values[train_idx])
        comps_test = spectral_reduce.transform(pca, deduped.values[test_idx]) \
            if len(test_idx) else np.empty((0, pca.kept))
    except Exception as exc:
        raise stage("pca")(exc) from exc

    y_train = label_values[train_idx].astype(np.int64)
    y_test = label_values[test_idx].astype(np.int64)

    try:
        tr_i, va_i = tuner.make_validation_split(
            q_arr[train_idx], config.validation_size, config.validation_mode,
            seed_valid)

        # every trial bins the same rows; only max_bin differs
        search_cols = boostwood.sort_columns(comps_train[tr_i])

        def objective(params: HyperParams):
            binned = boostwood.bin_features(search_cols, params.max_bin)
            binned_va = binned.map_new(comps_train[va_i])
            model = boostwood.fit(
                binned, y_train[tr_i], params, n_classes=config.n_classes,
                valid=(binned_va, y_train[va_i]),
                early_stopping_rounds=config.early_stopping)
            # argmax of the fitted scores is what boostwood.predict returns
            val_pred = np.argmax(model.valid_scores, axis=1)
            train_pred = np.argmax(model.train_scores, axis=1)
            val_acc = float((val_pred == y_train[va_i]).mean())
            train_acc = float((train_pred == y_train[tr_i]).mean())
            facts = {"best_round": model.best_round,
                     "rounds_fitted": model.n_rounds_fitted,
                     "null_trees": sum(tree is None for round_trees in model.trees
                                       for tree in round_trees),
                     "best_valid_loss": model.best_valid_loss}
            return val_acc, train_acc, facts

        best, trials = tuner.search(
            config.search_space, config.search_budget, objective, seed_search,
            base_params=config.base_params, mode=config.search_mode)
    except Exception as exc:
        raise stage("search")(exc) from exc

    try:
        final_params = replace(best, seed=seed_final)
        binned_full = boostwood.bin_features(comps_train, final_params.max_bin)
        model = boostwood.fit(binned_full, y_train, final_params,
                              n_classes=config.n_classes)
        predictions = boostwood.predict(model, binned_full.map_new(comps_test)) \
            if len(test_idx) else np.empty(0, dtype=np.int64)
    except Exception as exc:
        raise stage("final_fit")(exc) from exc

    metrics = MetricsBundle(
        accuracy=_safe_rate(int((predictions == y_test).sum()), len(y_test)),
        n_scored=len(y_test),
        per_class=_per_class_accuracy(predictions, y_test, config.n_classes),
    )
    if config.consensus is not None and len(test_idx):
        test_index = lagged.index.take(test_idx)

        def on_test_rows(vector: LabelVector) -> np.ndarray:
            return take_or_nan(vector.values, vector.index.find(test_index))

        cons = on_test_rows(config.consensus.mean_cls
                            if config.consensus.estimate == "mean"
                            else config.consensus.median_cls)
        actual_ng = on_test_rows(config.consensus.actual_cls)
        scored = ~np.isnan(cons) & ~np.isnan(actual_ng)
        if scored.any():
            cons_actual = (actual_ng[scored].astype(np.int64)
                           if config.consensus.pairing == "split"
                           else y_test[scored])
            cond = conditional_accuracy(
                predictions[scored], cons[scored].astype(np.int64),
                y_test[scored], actual_consensus=cons_actual)
            metrics.consensus_available = True
            metrics.consensus_accuracy = cond.consensus_accuracy
            metrics.n_converge = cond.n_converge
            metrics.n_diverge = cond.n_diverge
            metrics.converge_model_acc = cond.converge_model_acc
            metrics.converge_consensus_acc = cond.converge_consensus_acc
            metrics.diverge_model_acc = cond.diverge_model_acc
            metrics.diverge_consensus_acc = cond.diverge_consensus_acc
            for est_name, attr in (("mean_cls", "consensus_mean_accuracy"),
                                   ("median_cls", "consensus_median_accuracy")):
                est = on_test_rows(getattr(config.consensus, est_name))
                ok = ~np.isnan(est) & ~np.isnan(actual_ng)
                if config.consensus.pairing == "split":
                    ref = actual_ng[ok].astype(np.int64)
                else:
                    ref = y_test[ok]
                setattr(metrics, attr, _safe_rate(
                    int((est[ok].astype(np.int64) == ref).sum()), int(ok.sum())))

    importance = None
    if pca.kept >= 1 and model.trees:
        importance = decompose_importance(
            model, pca, deduped.metas,
            top_c=config.importance_top_components,
            top_v=config.importance_top_variables,
            kind=config.importance_kind)

    return SubsetResult(
        split=split,
        horizon=config.horizon,
        n_classes=config.n_classes,
        scheme=config.scheme,
        tuned=best,
        pca_kept=pca.kept,
        n_train=len(train_idx),
        n_test=len(test_idx),
        test_companies=lagged.index.company_names(test_idx),
        predictions=predictions,
        actuals=y_test,
        metrics=metrics,
        importance=importance,
        trials=trials,
        model_text=boostwood.to_text(model),
        pca_text=spectral_reduce.to_text(pca),
        fill_report=fill_report,
        dedupe_dropped=len(deduped.dedupe_pairs),
    )


def build_consensus_vectors(table: ConsensusTable, panel: RawPanel,
                            horizon: str, n_classes: int, scheme: str,
                            estimate: str = "mean",
                            pairing: str = "split") -> ConsensusVectors:
    """Precompute consensus and non-GAAP actual classes per panel row."""
    mean_cls, actual_cls = consensus_classes(
        table, panel, horizon, n_classes, scheme, estimate="mean")
    median_cls, _ = consensus_classes(
        table, panel, horizon, n_classes, scheme, estimate="median")
    return ConsensusVectors(
        mean_cls=mean_cls,
        median_cls=median_cls,
        actual_cls=actual_cls,
        estimate=estimate,
        pairing=pairing,
    )


def run_all_subsets(splits, features: FeatureMatrix, labels: LabelVector,
                    config: SubsetConfig) -> list:
    """Run every subset in order; per-subset seeding makes each result
    independent of the others."""
    return [run_subset(split, features, labels, config) for split in splits]


def build_records(results, config_echo: dict) -> list:
    """Config record plus one record per subset, the report.jsonl content."""
    records = [{"record_type": "config", "config": config_echo}]
    for result in sorted(results, key=lambda r: r.split.index):
        records.append(result.to_record())
    return records


def _mean_defined(values) -> float:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else float("nan")


def _fmt(value, width: int = 8) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "n/a".rjust(width)
    return f"{value:.4f}".rjust(width)


def render_text(records) -> str:
    """Deterministic plain-text tables from stored records."""
    config_rec = [r for r in records if r.get("record_type") == "config"]
    subsets = [r for r in records if r.get("record_type") == "subset"]
    if not subsets:
        raise ReportError("no subset records to render")
    subsets = sorted(subsets, key=lambda r: r["subset"])

    lines = []
    lines.append("fundcast backtest report")
    lines.append("=" * 64)
    if config_rec:
        lines.append("")
        lines.append("config:")
        for key in sorted(config_rec[0]["config"]):
            lines.append(f"  {key} = {config_rec[0]['config'][key]}")

    groups = {}
    for rec in subsets:
        groups.setdefault((rec["horizon"], rec["n_classes"], rec["scheme"]),
                          []).append(rec)

    lines.append("")
    lines.append("-- average multi-class accuracy --")
    lines.append(f"{'horizon':<8}{'classes':>8}{'model':>10}"
                 f"{'cons(mean)':>12}{'cons(med)':>12}{'subsets':>9}")
    for (horizon, n_classes, _), recs in sorted(groups.items()):
        model_acc = _mean_defined(r["metrics"]["accuracy"] for r in recs)
        cm = _mean_defined(r["metrics"]["consensus_mean_accuracy"] for r in recs)
        cd = _mean_defined(r["metrics"]["consensus_median_accuracy"] for r in recs)
        lines.append(f"{horizon:<8}{n_classes:>8}{_fmt(model_acc, 10)}"
                     f"{_fmt(cm, 12)}{_fmt(cd, 12)}{len(recs):>9}")

    lines.append("")
    lines.append("-- conditional accuracy (converge vs total) --")
    lines.append(f"{'horizon':<8}{'classes':>8}{'conv model':>12}{'conv cons':>12}"
                 f"{'total model':>13}{'total cons':>12}")
    for (horizon, n_classes, _), recs in sorted(groups.items()):
        conv_m = _mean_defined(r["metrics"]["converge_model_acc"] for r in recs)
        conv_c = _mean_defined(r["metrics"]["converge_consensus_acc"] for r in recs)
        tot_m = _mean_defined(r["metrics"]["accuracy"] for r in recs)
        tot_c = _mean_defined(r["metrics"]["consensus_accuracy"] for r in recs)
        lines.append(f"{horizon:<8}{n_classes:>8}{_fmt(conv_m, 12)}"
                     f"{_fmt(conv_c, 12)}{_fmt(tot_m, 13)}{_fmt(tot_c, 12)}")

    sign_groups = [(k, v) for k, v in sorted(groups.items()) if k[2] == "sign"]
    lines.append("")
    lines.append("-- sign-of-change accuracy --")
    if sign_groups:
        for (horizon, _, _), recs in sign_groups:
            acc = _mean_defined(r["metrics"]["accuracy"] for r in recs)
            lines.append(f"{horizon:<8}{_fmt(acc, 10)}")
    else:
        lines.append("(no sign-scheme runs)")

    lines.append("")
    lines.append("-- per-quarter accuracy --")
    for rec in subsets:
        lines.append(f"{rec['test_quarter']:<8}"
                     f"{_fmt(rec['metrics']['accuracy'], 10)}"
                     f"  n={rec['n_test']}")

    lines.append("")
    lines.append("-- importance by lag bucket and format (latest subset) --")
    latest = max(subsets, key=lambda r: r["subset"])
    imp = latest.get("importance")
    if imp is None:
        lines.append("(unavailable)")
    else:
        fmts = imp["format_labels"]
        header = f"{'lag':<8}" + "".join(f"{f:>13}" for f in fmts) + f"{'total':>8}"
        lines.append(header)
        tally = imp["tally"]
        for b, label in enumerate(imp["bucket_labels"]):
            row = tally[b]
            lines.append(f"{label:<8}" + "".join(f"{v:>13}" for v in row)
                         + f"{sum(row):>8}")
        col_tot = [sum(tally[b][j] for b in range(len(tally)))
                   for j in range(len(fmts))]
        lines.append(f"{'total':<8}" + "".join(f"{v:>13}" for v in col_tot)
                     + f"{sum(col_tot):>8}")
    lines.append("")
    return "\n".join(lines)


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False))
            fh.write("\n")


def read_jsonl(path) -> list:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReportError(f"corrupted record at line {line_num}") from exc
    if not records:
        raise ReportError(f"no records found in {path}")
    return records
