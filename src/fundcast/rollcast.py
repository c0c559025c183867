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
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import boostwood, feature_forge, spectral_reduce, synthgen, tuner
from .boostwood import HyperParams
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InsufficientHistoryError,
    InvalidParamsError,
    InvalidSpecError,
    PanelError,
    ReportError,
    SubsetError,
)
from .feature_forge import FeatureMatrix
from .panel_ingest import (
    CONSENSUS_HEADER,
    CalendarQuarter,
    Format,
    RawPanel,
    load_consensus,  # the CLI reads the consensus file as rollcast's
    take_or_nan,
)

LAG_BUCKET_WIDTH = 4

# the consensus estimates and pairings that _score_test_quarter knows
CONSENSUS_ESTIMATES = ("mean", "median")
CONSENSUS_PAIRINGS = ("split", "shared")


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {text!r}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _finite_or_none(text: str):
    return None if text.lower() == "none" else _finite(text)


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise ValueError(f"must lie in (0, 1], got {value}")
    return value


def _sectors(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",")) if text.strip() else ()


def _count(least: int):
    """The parser of an integer >= least."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be >= {least}, got {value}")
        return value
    return parse


def _choice(allowed: tuple):
    """The parser of one of allowed, read as the type of its values."""
    def parse(text: str):
        value = type(allowed[0])(text)
        if value not in allowed:
            raise ValueError(
                f"must be one of {', '.join(map(str, allowed))}, got {value!r}")
        return value
    return parse


def _key(key: str, default, parse=str):
    """A config field with the key that sets it and the parser of its value."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass
class ExperimentConfig:
    """Every setting of an experiment. Each field but the two override dicts
    declares the config key that parse_config sets it from."""

    schema_path: str = _key("paths.schema", "")
    panel_path: str = _key("paths.panel", "")
    consensus_path: str = _key("paths.consensus", "")
    output_dir: str = _key("paths.output_dir", ".")

    horizon: str = _key("label.horizon", "qoq", _choice(feature_forge.HORIZONS))
    n_classes: int = _key("label.n_classes", 3, _choice(feature_forge.N_CLASSES))
    scheme: str = _key("label.scheme", "quantile_rank",
                       _choice(feature_forge.SCHEMES))
    income_var: str = _key("label.income_var", "niq")
    assets_var: str = _key("label.assets_var", "atq")
    revenue_var: str = _key("label.revenue_var", "revtq")

    filter_require_company_id: bool = _key("filters.require_company_id", True,
                                           _bool)
    filter_min_share_price: float | None = _key("filters.min_share_price", 1.0,
                                                _finite_or_none)
    filter_excluded_sectors: tuple = _key("filters.excluded_sectors", (40, 55),
                                          _sectors)
    filter_require_fiscal_alignment: bool = _key(
        "filters.require_fiscal_alignment", True, _bool)
    filter_exclude_reporting_gaps: bool = _key(
        "filters.exclude_reporting_gaps", True, _bool)

    formula_variant: str = _key("pipeline.formula_variant", "standard",
                                _choice(feature_forge.FORMULA_VARIANTS))
    clip_pct: float = _key("pipeline.clip_pct", 0.95, _fraction)
    fill_max_p: int = _key("pipeline.fill_max_p", 20, _count(1))
    fill_horizon_cap: int = _key("pipeline.fill_horizon_cap", 8, _count(0))
    look_back: int = _key("pipeline.look_back", 20, _count(1))
    n_lags: int = _key("pipeline.n_lags", 20, _count(1))
    correlation_cutoff: float = _key("pipeline.correlation_cutoff", 0.9, _fraction)
    pca_threshold: float = _key("pipeline.pca_threshold", 0.66, _fraction)
    standardize: bool = _key("pipeline.standardize", False, _bool)
    train_len: int = _key("pipeline.train_len", 80, _count(1))
    max_subsets: int = _key("pipeline.max_subsets", 0, _count(0))

    validation_size: int = _key("validation.size", 8, _count(1))

    search_budget: int = _key("search.budget", 25, _count(1))
    search_space_overrides: dict = field(default_factory=dict)
    gbdt_overrides: dict = field(default_factory=dict)
    n_rounds: int = _key("gbdt.n_rounds", 200, _count(1))
    early_stopping: int = _key("gbdt.early_stopping", 20, _count(0))

    consensus_estimate: str = _key("consensus.estimate", "mean",
                                   _choice(CONSENSUS_ESTIMATES))
    consensus_pairing: str = _key("consensus.pairing", "split",
                                  _choice(CONSENSUS_PAIRINGS))

    seed: int = _key("seed", 7, _count(0))

    synth_n_companies: int = _key("synth.n_companies", 300, _count(1))
    synth_n_quarters: int = _key("synth.n_quarters", 120, _count(1))
    synth_noise_sd: float = _key("synth.noise_sd", 0.5, _finite)
    synth_missing_rate: float = _key("synth.missing_rate", 0.05, _finite)
    synth_seasonality: float = _key("synth.seasonality_amplitude", 0.6, _finite)
    synth_seed: int = _key("synth.seed", 7, _count(0))
    synth_consensus: bool = _key("synth.consensus", False, _bool)

    def check_search(self) -> None:
        """The rules of the two override dicts, for a config read from a
        file or built in code. Every pinned value and both ends of every
        range pass HyperParams.validate; a range names a default_space()
        parameter and draws by its field's type (scale integer with
        integral ends for an integer field, linear or log otherwise); and
        no parameter is both pinned and ranged. Raises ConfigError,
        InvalidParamsError or ValueError naming the parameter.
        """
        for name, pinned in self.gbdt_overrides.items():
            HyperParams(**{name: pinned}).validate()
        searchable = tuner.default_space()
        for name, range_ in self.search_space_overrides.items():
            if name not in searchable:
                raise ConfigError(
                    f"unknown search parameter {name!r}, expected one of "
                    f"{', '.join(searchable)}")
            integer = _GBDT_FIELD_TYPES[name] is int
            scales = ("integer",) if integer else ("linear", "log")
            if range_.scale not in scales:
                raise ValueError(f"{name} takes scale "
                                 f"{' or '.join(scales)}, got {range_.scale!r}")
            for end in (range_.lo, range_.hi):
                if integer and not float(end).is_integer():
                    raise ValueError(f"{name} is an integer, got {end}")
                HyperParams(**{name: end}).validate()
            if name in self.gbdt_overrides:
                raise ConfigError(f"gbdt.{name} and search.space.{name} "
                                  "cannot both be set")

    def search_box(self):
        """The search space and the base HyperParams of every trial, once
        check_search passes.

        A search.space override replaces its default range in place, so
        trials draw parameters in default_space()'s order; a gbdt override
        pins its parameter in the base.
        """
        self.check_search()
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


# every tree parameter of HyperParams; n_rounds and seed have their own keys
_GBDT_FIELD_TYPES = {
    f.name: _finite if f.type == "float" else int
    for f in fields(HyperParams) if f.name not in ("n_rounds", "seed")}


def parse_config(path) -> ExperimentConfig:
    """Read a config file; every error names the line it comes from."""
    config = ExperimentConfig()
    keyed = {f.metadata["key"]: f for f in fields(config) if f.metadata}
    set_on = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for line_num, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {line_num}: expected key = value")
        key, value = key.strip(), value.strip()
        try:
            if key in keyed:
                setting = keyed[key]
                setattr(config, setting.name, setting.metadata["parse"](value))
                if key.startswith("synth."):
                    # every synth value set before passed, so this one failed
                    synth_spec(config).validate()
            elif key.startswith("search.space."):
                name = key[len("search.space."):]
                parts = [p.strip() for p in value.split(",")]
                if len(parts) not in (2, 3):
                    raise ValueError("expected min,max[,scale]")
                # a range without a scale draws by its parameter's type
                scale = parts[2] if len(parts) == 3 else \
                    "integer" if _GBDT_FIELD_TYPES.get(name) is int else "linear"
                config.search_space_overrides[name] = tuner.ParamRange(
                    _finite(parts[0]), _finite(parts[1]), scale)
                config.check_search()
            elif key.startswith("gbdt."):
                name = key[len("gbdt."):]
                if name not in _GBDT_FIELD_TYPES:
                    raise ConfigError(f"unknown gbdt parameter {name!r}")
                config.gbdt_overrides[name] = _GBDT_FIELD_TYPES[name](value)
                config.check_search()
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {line_num}: {exc}") from None
        except (ValueError, TypeError, InvalidParamsError, InvalidSpecError) as exc:
            raise ConfigError(f"line {line_num}: bad value for {key}: {exc}") from exc
        set_on[key] = line_num
    if config.scheme == "sign" and config.n_classes != 2:
        raise ConfigError(
            f"line {set_on['label.scheme']}: label.scheme = sign requires "
            f"label.n_classes = 2, got {config.n_classes}")
    if config.validation_size >= config.train_len:
        # the window's last validation.size quarters are held out, and at
        # least one must stay to train on; the key set later is named
        later = max(("validation.size", "pipeline.train_len"),
                    key=lambda key: set_on.get(key, 0))
        raise ConfigError(
            f"line {set_on[later]}: validation.size = {config.validation_size} "
            f"requires pipeline.train_len >= {config.validation_size + 1}, "
            f"got {config.train_len}")
    return config


def synth_spec(config: ExperimentConfig) -> synthgen.SignalSpec:
    """The generator spec of config's synth.* settings."""
    return synthgen.SignalSpec(
        seasonality_amplitude=config.synth_seasonality,
        noise_sd=config.synth_noise_sd,
        missing_rate=config.synth_missing_rate,
        n_companies=config.synth_n_companies,
        n_quarters=config.synth_n_quarters,
        seed=config.synth_seed,
    )


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


def _rate(hits: np.ndarray) -> float | None:
    """The share of true entries in hits; None over no rows."""
    return int(hits.sum()) / len(hits) if len(hits) else None


def conditional_accuracy(model_pred, consensus_pred, actual,
                         actual_consensus=None) -> dict:
    """Split scoring into converge (model class == consensus class) and
    diverge, as the subset record's metrics keys.

    Consensus is scored against actual_consensus when given (the split
    pairing, e.g. non-GAAP actuals), otherwise against the same actual as
    the model. A rate over no rows is None.
    """
    model_pred = np.asarray(model_pred)
    consensus_pred = np.asarray(consensus_pred)
    actual = np.asarray(actual)
    actual_cons = actual if actual_consensus is None else np.asarray(actual_consensus)
    converge = model_pred == consensus_pred
    model_hits = model_pred == actual
    cons_hits = consensus_pred == actual_cons
    return {
        "accuracy": _rate(model_hits),
        "n_scored": len(model_pred),
        "consensus_available": True,
        "consensus_accuracy": _rate(cons_hits),
        "n_converge": int(converge.sum()),
        "n_diverge": int((~converge).sum()),
        "converge_model_acc": _rate(model_hits[converge]),
        "converge_consensus_acc": _rate(cons_hits[converge]),
        "diverge_model_acc": _rate(model_hits[~converge]),
        "diverge_consensus_acc": _rate(cons_hits[~converge]),
    }


def decompose_importance(model, pca, metas, top_c: int = 5,
                         top_v: int = 10) -> dict:
    """Map component-level importance back to original variables, as the
    subset record's importance entry.

    Components rank by model importance (total split gain); within each of
    the top top_c, the top_v original columns rank by absolute loading,
    each an entry {"column", "lag", "format", "loading"}. The tally counts
    the selected columns by lag bucket (rows) and format (columns).
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
            comp_entries.append({"column": meta.name, "lag": meta.lag,
                                 "format": meta.format.value,
                                 "loading": float(loadings[row])})
            tally[meta.lag // LAG_BUCKET_WIDTH, fmt_index[meta.format.value]] += 1
        entries.append(comp_entries)

    return {
        "components": [int(c) for c in components],
        "component_importance": [float(importance[c]) for c in components],
        "entries": entries,
        "bucket_labels": bucket_labels,
        "format_labels": format_labels,
        "tally": tally.tolist(),
    }


@dataclass
class SubsetResult:
    """One rolling subset: its report.jsonl record and the artifacts
    `fundcast backtest` writes beside it (model and PCA text, the search's
    TrialRecords, the imputation's FillReport)."""

    record: dict
    model_text: str
    pca_text: str
    trials: list
    fill_report: feature_forge.FillReport


def _subset_seeds(seed: int, index: int):
    seq = np.random.SeedSequence([seed, index])
    children = seq.spawn(3)
    return [int(c.generate_state(1)[0] & 0x7FFFFFFF) for c in children]


def _score_test_quarter(predictions, y_test, test_rows: np.ndarray,
                        consensus: dict | None,
                        config: ExperimentConfig) -> dict:
    """The subset record's metrics: accuracy overall and per class and,
    where the chosen consensus estimate scores a test row, the
    consensus-conditional scores. test_rows holds each test row's position
    in the consensus arrays. A rate over no rows is None.

    An estimate scores the rows where it and the non-GAAP actual class are
    both known. The split pairing scores it against that actual, the shared
    pairing against the model's labels.
    """
    metrics = {
        "accuracy": _rate(predictions == y_test),
        "n_scored": len(y_test),
        "per_class": {str(c): _rate(predictions[y_test == c] == c)
                      for c in range(config.n_classes)},
        "consensus_available": False,
        "consensus_accuracy": None,
        "consensus_mean_accuracy": None,
        "consensus_median_accuracy": None,
        "n_converge": 0,
        "n_diverge": 0,
        "converge_model_acc": None,
        "converge_consensus_acc": None,
        "diverge_model_acc": None,
        "diverge_consensus_acc": None,
    }
    if consensus is None:
        return metrics

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
    if chosen["n_scored"]:
        # accuracy and n_scored stay those of every test row
        metrics.update(
            chosen, accuracy=metrics["accuracy"], n_scored=metrics["n_scored"],
            consensus_mean_accuracy=scores["mean"]["consensus_accuracy"],
            consensus_median_accuracy=scores["median"]["consensus_accuracy"])
    return metrics


@contextmanager
def _stage(index: int, name: str):
    """Re-raise any failure inside the block as the subset's SubsetError."""
    try:
        yield
    except Exception as exc:
        raise SubsetError(index, name, exc) from exc


def run_subset(split: SubsetSplit, features: FeatureMatrix,
               labels: np.ndarray, config: ExperimentConfig,
               consensus: dict | None = None) -> SubsetResult:
    """Run the full per-subset pipeline, score the test quarter and build
    the subset's report.jsonl record.

    Stage order: outlier caps -> imputation -> lag plan -> correlation
    filter -> PCA and component selection -> hold-out
    validation split -> hyperparameter search -> final fit on the whole
    training window -> test-quarter prediction. The lagged values are
    gathered per stage, each block with one owner that may overwrite it:
    every column of the training rows for the filter, the kept columns of
    the training rows for fit_pca, which fits and projects them, and the
    kept columns of the test rows for transform.
    Fitted statistics use training rows only; look-backs may reach
    quarters before the window.
    features is convert_formats' matrix, whose crucial_missing drives the
    crucial-variable rule of imputation. labels[i] is the class of
    features row i, NaN where it is missing; consensus, when given, holds
    build_consensus_vectors' classes, one per features row, and adds the
    consensus-conditional scores. Every setting comes from config.

    Returns a SubsetResult: the record (split, sizes, tuned parameters,
    per-company predictions, the metrics _score_test_quarter builds with
    None for a rate over no rows, importance decomposition, imputation
    counts) and the model text, PCA text, search trials and FillReport
    written beside it.
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
            work, look_back=config.look_back,
            horizon_cap=config.fill_horizon_cap, max_p=config.fill_max_p,
            fit_rows=train_rows)

    with _stage(split.index, "build_lags"):
        plan = feature_forge.build_lags(work, config.n_lags)

    # the plan's rows are features rows, each found by its key
    rows = features.index.locate(plan.index.key)
    label_values = labels[rows]
    q_arr = plan.index.quarter
    has_label = ~np.isnan(label_values)
    train_idx = np.flatnonzero(np.isin(q_arr, train_quarters) & has_label)
    test_idx = np.flatnonzero((q_arr == test_idx_q) & has_label)
    if len(train_idx) == 0:
        raise SubsetError(split.index, "train_selection",
                          ValueError("no training rows survive preprocessing"))

    with _stage(split.index, "correlation_dedupe"):
        dedupe = feature_forge.correlation_dedupe_inputs(
            plan.gather(work.values, train_idx), plan.metas,
            config.correlation_cutoff)
        kept_metas = [plan.metas[j] for j in dedupe.kept.tolist()]

    with _stage(split.index, "pca"):
        pca, comps_train = spectral_reduce.fit_pca(
            plan.gather(work.values, train_idx, dedupe.kept),
            config.pca_threshold, standardize=config.standardize)
        comps_test = spectral_reduce.transform(
            pca, plan.gather(work.values, test_idx, dedupe.kept)) \
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

    record = {
        "record_type": "subset",
        "subset": split.index,
        "train_start": str(split.train_quarters[0]),
        "train_end": str(split.train_quarters[-1]),
        "test_quarter": str(split.test_quarter),
        "horizon": config.horizon,
        "n_classes": config.n_classes,
        "scheme": config.scheme,
        "pca_kept": pca.kept,
        "n_train": len(train_idx),
        "n_test": len(test_idx),
        "tuned_params": best.to_record(),
        "predictions": [
            {"company_id": c, "predicted": int(p), "actual": int(a)}
            for c, p, a in zip(plan.index.company_names(test_idx),
                               predictions, y_test)
        ],
        "metrics": _score_test_quarter(predictions, y_test, rows[test_idx],
                                       consensus, config),
        "importance": decompose_importance(model, pca, kept_metas)
            if pca.kept >= 1 and model.trees else None,
        "dedupe_dropped": len(dedupe.dedupe_pairs),
        "impute": {
            "deleted_rows": fill_report.deleted_rows,
            "deleted_columns": list(fill_report.deleted_columns),
            "relevant_filled": fill_report.relevant_filled,
            "constant_filled": fill_report.constant_filled,
        },
    }
    return SubsetResult(record, boostwood.to_text(model),
                        spectral_reduce.to_text(pca), trials, fill_report)


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
                    config: ExperimentConfig,
                    consensus: dict | None = None) -> list:
    """Run every subset in order; per-subset seeding makes each result
    independent of the others."""
    return [run_subset(split, features, labels, config, consensus)
            for split in splits]


def build_records(results, config_echo: dict) -> list:
    """Config record, then the subsets' records in subset order: the
    report.jsonl content."""
    return [{"record_type": "config", "config": config_echo},
            *sorted((r.record for r in results), key=lambda rec: rec["subset"])]


def _mean_defined(values) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _fmt(value, width: int = 8) -> str:
    return ("n/a" if value is None else f"{value:.4f}").rjust(width)


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
