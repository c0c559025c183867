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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import boostwood, feature_forge, spectral_reduce, tuner
from .boostwood import HyperParams
from .errors import (
    DimensionMismatchError,
    InsufficientHistoryError,
    PanelError,
    ReportError,
    SubsetError,
)
from .feature_forge import FeatureMatrix
from .panel_ingest import (
    CONSENSUS_HEADER,
    CalendarQuarter,
    Format,
    PanelIndex,
    RawPanel,
    _data_rows,
    _parse_value,
    _RowCodes,
    take_or_nan,
)

LAG_BUCKET_WIDTH = 4


@dataclass
class ExperimentConfig:
    """Every setting of an experiment, as parse_config fills it from the
    config file; the backtest and each subset read their settings here."""

    schema_path: str = ""
    panel_path: str = ""
    consensus_path: str = ""
    output_dir: str = "."

    horizon: str = "qoq"
    n_classes: int = 3
    scheme: str = "quantile_rank"
    income_var: str = "niq"
    assets_var: str = "atq"
    revenue_var: str = "revtq"

    filter_require_company_id: bool = True
    filter_min_share_price: float | None = 1.0
    filter_excluded_sectors: tuple = (40, 55)
    filter_require_fiscal_alignment: bool = True
    filter_exclude_reporting_gaps: bool = True

    formula_variant: str = "standard"
    clip_pct: float = 0.95
    fill_max_p: int = 20
    fill_horizon_cap: int = 8
    look_back: int = 20
    n_lags: int = 20
    correlation_cutoff: float = 0.9
    pca_threshold: float = 0.66
    standardize: bool = False
    train_len: int = 80
    max_subsets: int = 0

    validation_size: int = 8

    search_budget: int = 25
    search_space_overrides: dict = field(default_factory=dict)
    gbdt_overrides: dict = field(default_factory=dict)
    n_rounds: int = 200
    early_stopping: int = 20

    consensus_estimate: str = "mean"
    consensus_pairing: str = "split"

    seed: int = 7

    synth_n_companies: int = 300
    synth_n_quarters: int = 120
    synth_noise_sd: float = 0.5
    synth_missing_rate: float = 0.05
    synth_seasonality: float = 0.6
    synth_seed: int = 7
    synth_consensus: bool = False

    def search_box(self):
        """The search space and the base HyperParams of every trial.

        A search.space override replaces its default range in place, so
        trials draw parameters in default_space()'s order; a gbdt override
        pins its parameter in the base and takes it out of the space.
        """
        space = tuner.default_space()
        space.update(self.search_space_overrides)
        for name in self.gbdt_overrides:
            space.pop(name, None)
        base = HyperParams(n_rounds=self.n_rounds, seed=self.seed,
                           **self.gbdt_overrides)
        return space, base

    def to_echo(self) -> dict:
        def canonical(value):
            if isinstance(value, dict):
                return {k: canonical(value[k]) for k in sorted(value)}
            if isinstance(value, (list, tuple)):
                return [canonical(v) for v in value]
            return value

        return {key: canonical(value)
                for key, value in sorted(asdict(self).items())}


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


def load_consensus(path) -> RawPanel:
    """Load the consensus CSV in one streaming pass, as a RawPanel with the
    consensus_mean, consensus_median and actual_nongaap columns, NaN where a
    cell is blank. Rows may come in any order, and errors name the CSV row
    as load_panel's do."""
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
    grid = np.frombuffer(values).reshape(-1, 3)[order]
    return RawPanel(index, {name: grid[:, j]
                            for j, name in enumerate(CONSENSUS_HEADER[3:])})


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


@dataclass
class ImportanceDecomposition:
    """Top components by model importance mapped back to original columns."""

    components: list
    component_importance: list
    entries: list
    bucket_labels: list
    format_labels: list
    tally: np.ndarray

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


def decompose_importance(model, pca, metas, top_c: int = 5,
                         top_v: int = 10) -> ImportanceDecomposition:
    """Map component-level importance back to original variables.

    Components rank by model importance (total split gain); within each of
    the top top_c, the top_v original columns rank by absolute loading.
    Tallies group the selected columns by lag bucket and format.
    """
    importance = boostwood.feature_importance(model)
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
        def plain(value):
            """value as JSON holds it: NaN as null, dict keys as str."""
            if isinstance(value, dict):
                return {str(k): plain(v) for k, v in value.items()}
            return None if isinstance(value, float) and np.isnan(value) else value

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
            "metrics": plain(asdict(self.metrics)),
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


# The consensus.estimate and consensus.pairing values _score_test_quarter
# knows.
CONSENSUS_ESTIMATES = ("mean", "median")
CONSENSUS_PAIRINGS = ("split", "shared")


def _score_test_quarter(predictions, y_test, test_rows: np.ndarray,
                        consensus: dict | None,
                        config: ExperimentConfig) -> MetricsBundle:
    """Accuracy overall and per class and, where the chosen consensus
    estimate scores a test row, the consensus-conditional scores.
    test_rows holds each test row's position in the consensus arrays.

    An estimate scores the rows where it and the non-GAAP actual class are
    both known. The split pairing scores it against that actual, the shared
    pairing against the model's labels.
    """
    per_class = {c: _safe_rate(int((predictions[y_test == c] == c).sum()),
                               int((y_test == c).sum()))
                 for c in range(config.n_classes)}
    overall = MetricsBundle(
        accuracy=_safe_rate(int((predictions == y_test).sum()), len(y_test)),
        n_scored=len(y_test), per_class=per_class)
    if consensus is None or not len(y_test):
        return overall

    actual_ng = consensus["actual"][test_rows]
    scores = {}
    for name in CONSENSUS_ESTIMATES:
        estimate = consensus[name][test_rows]
        rows = ~np.isnan(estimate) & ~np.isnan(actual_ng)
        truth = actual_ng[rows].astype(np.int64) \
            if config.consensus_pairing == "split" else y_test[rows]
        scores[name] = conditional_accuracy(
            predictions[rows], estimate[rows].astype(np.int64), y_test[rows],
            actual_consensus=truth)
    chosen = scores[config.consensus_estimate]
    if not chosen.n_scored:
        return overall
    return replace(chosen, accuracy=overall.accuracy,
                   n_scored=overall.n_scored, per_class=per_class,
                   consensus_mean_accuracy=scores["mean"].consensus_accuracy,
                   consensus_median_accuracy=scores["median"].consensus_accuracy)


@contextmanager
def _stage(index: int, name: str):
    """Re-raise any failure inside the block as the subset's SubsetError."""
    try:
        yield
    except Exception as exc:
        raise SubsetError(index, name, exc) from exc


def run_subset(split: SubsetSplit, features: FeatureMatrix,
               labels: np.ndarray, config: ExperimentConfig, schema,
               consensus: dict | None = None) -> SubsetResult:
    """Run the full per-subset pipeline and score the test quarter.

    Stage order: outlier caps -> imputation -> lag expansion ->
    correlation filter -> PCA and component selection -> hold-out
    validation split -> hyperparameter search -> final fit on the whole
    training window -> test-quarter prediction. Fitted statistics use
    training rows only; look-backs may reach quarters before the window.
    labels[i] is the class of features row i, NaN where it is missing;
    consensus, when given, holds build_consensus_vectors' classes, one per
    features row, and adds the consensus-conditional scores. Every setting
    comes from config; schema drives imputation.
    """
    n = features.n_rows
    for name, values in [("labels", labels),
                         *((f"consensus {key}", values)
                           for key, values in (consensus or {}).items())]:
        if len(values) != n:
            raise DimensionMismatchError(
                f"{name}: {len(values)} values for {n} features rows")
    # child 0 seeded a removed random split; skipping it keeps the other seeds
    _, seed_search, seed_final = _subset_seeds(config.seed, split.index)
    train_quarters = [q.index for q in split.train_quarters]
    test_idx_q = split.test_quarter.index

    with _stage(split.index, "clip_outliers"):
        work = features.take_rows(features.index.quarter <= test_idx_q)
        train_rows = np.flatnonzero(np.isin(work.index.quarter, train_quarters))
        work = feature_forge.clip_outliers(work, config.clip_pct,
                                           fit_rows=train_rows)

    with _stage(split.index, "impute"):
        work, fill_report = feature_forge.impute(
            work, schema, look_back=config.look_back,
            horizon_cap=config.fill_horizon_cap, max_p=config.fill_max_p,
            fit_rows=train_rows)

    with _stage(split.index, "build_lags"):
        lagged = feature_forge.build_lags(work, config.n_lags)

    # lagged's rows are features rows, each found by its key
    rows = features.index.locate(lagged.index.key)
    label_values = labels[rows]
    q_arr = lagged.index.quarter
    has_label = ~np.isnan(label_values)
    train_idx = np.flatnonzero(np.isin(q_arr, train_quarters) & has_label)
    test_idx = np.flatnonzero((q_arr == test_idx_q) & has_label)
    if len(train_idx) == 0:
        raise SubsetError(split.index, "train_selection",
                          ValueError("no training rows survive preprocessing"))

    with _stage(split.index, "correlation_dedupe"):
        deduped = feature_forge.correlation_dedupe_inputs(
            lagged, config.correlation_cutoff, fit_rows=train_idx)

    with _stage(split.index, "pca"):
        x_train = deduped.values[train_idx]
        pca = spectral_reduce.fit_pca(x_train, standardize=config.standardize)
        pca.kept = spectral_reduce.choose_components(pca, config.pca_threshold)
        comps_train = spectral_reduce.transform(pca, x_train)
        del x_train  # not held through the search and the final fit
        comps_test = spectral_reduce.transform(pca, deduped.values[test_idx]) \
            if len(test_idx) else np.empty((0, pca.kept))

    y_train = label_values[train_idx].astype(np.int64)
    y_test = label_values[test_idx].astype(np.int64)

    with _stage(split.index, "search"):
        tr_i, va_i = tuner.make_validation_split(q_arr[train_idx],
                                                 config.validation_size)

        # every trial bins the same rows; only max_bin differs
        search_cols = boostwood.sort_columns(comps_train[tr_i])
        valid_cols = boostwood.sort_columns(comps_train[va_i])
        patience = config.early_stopping if config.early_stopping > 0 else None

        def objective(params: HyperParams):
            binned = boostwood.bin_features(search_cols, params.max_bin)
            binned_va = binned.map_new(valid_cols)
            model = boostwood.fit(
                binned, y_train[tr_i], params, n_classes=config.n_classes,
                valid=(binned_va, y_train[va_i]),
                early_stopping_rounds=patience)
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

        space, base = config.search_box()
        best, trials = tuner.search(
            space, config.search_budget, objective, seed_search,
            base_params=base)

    with _stage(split.index, "final_fit"):
        final_params = replace(best, seed=seed_final)
        binned_full = boostwood.bin_features(comps_train, final_params.max_bin)
        model = boostwood.fit(binned_full, y_train, final_params,
                              n_classes=config.n_classes)
        predictions = boostwood.predict(model, binned_full.map_new(comps_test)) \
            if len(test_idx) else np.empty(0, dtype=np.int64)

    metrics = _score_test_quarter(predictions, y_test, rows[test_idx],
                                  consensus, config)

    importance = None
    if pca.kept >= 1 and model.trees:
        importance = decompose_importance(model, pca, deduped.metas)

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


def build_consensus_vectors(table: RawPanel, panel: RawPanel,
                            config: ExperimentConfig) -> dict:
    """Consensus (mean and median estimate) and non-GAAP actual classes per
    panel row, from the table load_consensus reads: a float array each,
    keyed mean, median and actual.

    Each is converted to relative-change targets (its future value against
    the past actual, scaled by the panel's config.assets_var column) and cut
    within each quarter by the labels' criteria (config's horizon, n_classes
    and scheme). Rows absent from the table are missing.
    """
    if config.consensus_estimate not in CONSENSUS_ESTIMATES:
        raise ValueError(f"unknown estimate {config.consensus_estimate!r}")
    if config.consensus_pairing not in CONSENSUS_PAIRINGS:
        raise ValueError(f"unknown pairing {config.consensus_pairing!r}")
    if config.assets_var not in panel.columns:
        raise PanelError(
            f"consensus scoring needs the assets column {config.assets_var!r}")
    rows = table.index.find(panel.index)
    mean, median, actual = (take_or_nan(table.columns[name], rows)
                            for name in CONSENSUS_HEADER[3:])

    def classes(future):
        targets = feature_forge.relative_change_targets(
            panel.index, future, actual, panel.columns[config.assets_var],
            config.horizon)
        return feature_forge.cut_classes(panel.index, targets, config.n_classes,
                                         config.scheme)

    return {"mean": classes(mean), "median": classes(median),
            "actual": classes(actual)}


def run_all_subsets(splits, features: FeatureMatrix, labels: np.ndarray,
                    config: ExperimentConfig, schema,
                    consensus: dict | None = None) -> list:
    """Run every subset in order; per-subset seeding makes each result
    independent of the others."""
    return [run_subset(split, features, labels, config, schema, consensus)
            for split in splits]


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
