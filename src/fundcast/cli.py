"""Command-line driver.

One key-value experiment config drives everything: `synth` writes a
synthetic panel, `backtest` runs the rolling pipeline and writes
report.jsonl / report.txt plus per-subset artifacts, `report` re-renders
the text tables from stored records. Exit code 0 iff no stage errored.

Config file format: one `key = value` per line, `#` comments. See README
for the documented key table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

from . import feature_forge, panel_ingest, rollcast, synthgen, tuner
from .boostwood import HyperParams
from .errors import ConfigError, FundcastError
from .panel_ingest import FilterRules
from .tuner import ParamRange


@dataclass
class ExperimentConfig:
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
    validation_mode: str = "chronological_tail"

    search_budget: int = 25
    search_mode: str = "uniform"
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

    def to_echo(self) -> dict:
        def canonical(value):
            if isinstance(value, dict):
                return {k: canonical(value[k]) for k in sorted(value)}
            if isinstance(value, (list, tuple)):
                return [canonical(v) for v in value]
            return value

        return {key: canonical(value)
                for key, value in sorted(asdict(self).items())}


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected boolean, got {text!r}")


def _parse_optional_float(text: str):
    return None if text.lower() == "none" else float(text)


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _parse_sectors(text: str) -> tuple:
    if not text.strip():
        return ()
    return tuple(int(part) for part in text.split(","))


_KEYS = {
    "paths.schema": ("schema_path", str),
    "paths.panel": ("panel_path", str),
    "paths.consensus": ("consensus_path", str),
    "paths.output_dir": ("output_dir", str),
    "label.horizon": ("horizon", str),
    "label.n_classes": ("n_classes", int),
    "label.scheme": ("scheme", str),
    "label.income_var": ("income_var", str),
    "label.assets_var": ("assets_var", str),
    "label.revenue_var": ("revenue_var", str),
    "filters.require_company_id": ("filter_require_company_id", _parse_bool),
    "filters.min_share_price": ("filter_min_share_price", _parse_optional_float),
    "filters.excluded_sectors": ("filter_excluded_sectors", _parse_sectors),
    "filters.require_fiscal_alignment": ("filter_require_fiscal_alignment", _parse_bool),
    "filters.exclude_reporting_gaps": ("filter_exclude_reporting_gaps", _parse_bool),
    "pipeline.formula_variant": ("formula_variant", str),
    "pipeline.clip_pct": ("clip_pct", float),
    "pipeline.fill_max_p": ("fill_max_p", int),
    "pipeline.fill_horizon_cap": ("fill_horizon_cap", int),
    "pipeline.look_back": ("look_back", int),
    "pipeline.n_lags": ("n_lags", int),
    "pipeline.correlation_cutoff": ("correlation_cutoff", float),
    "pipeline.pca_threshold": ("pca_threshold", float),
    "pipeline.standardize": ("standardize", _parse_bool),
    "pipeline.train_len": ("train_len", int),
    "pipeline.max_subsets": ("max_subsets", int),
    "validation.size": ("validation_size", _parse_count),
    "validation.mode": ("validation_mode", str),
    "search.budget": ("search_budget", _parse_count),
    "search.mode": ("search_mode", str),
    "gbdt.n_rounds": ("n_rounds", int),
    "gbdt.early_stopping": ("early_stopping", int),
    "consensus.estimate": ("consensus_estimate", str),
    "consensus.pairing": ("consensus_pairing", str),
    "seed": ("seed", int),
    "synth.n_companies": ("synth_n_companies", int),
    "synth.n_quarters": ("synth_n_quarters", int),
    "synth.noise_sd": ("synth_noise_sd", float),
    "synth.missing_rate": ("synth_missing_rate", float),
    "synth.seasonality_amplitude": ("synth_seasonality", float),
    "synth.seed": ("synth_seed", int),
    "synth.consensus": ("synth_consensus", _parse_bool),
}

_GBDT_FIELD_TYPES = {
    "learning_rate": float,
    "max_bin": int,
    "num_leaves": int,
    "min_data_in_leaf": int,
    "feature_fraction": float,
    "bagging_fraction": float,
    "bagging_freq": int,
    "min_gain_to_split": float,
    "lambda_l1": float,
    "lambda_l2": float,
    "max_depth": int,
}


def parse_config(path) -> ExperimentConfig:
    config = ExperimentConfig()
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
        key = key.strip()
        value = value.strip()
        try:
            if key in _KEYS:
                attr, coerce = _KEYS[key]
                setattr(config, attr, coerce(value))
            elif key.startswith("search.space."):
                name = key[len("search.space."):]
                parts = [p.strip() for p in value.split(",")]
                if len(parts) not in (2, 3):
                    raise ConfigError("expected min,max[,scale]")
                scale = parts[2] if len(parts) == 3 else "linear"
                config.search_space_overrides[name] = ParamRange(
                    float(parts[0]), float(parts[1]), scale)
            elif key.startswith("gbdt."):
                name = key[len("gbdt."):]
                if name not in _GBDT_FIELD_TYPES:
                    raise ConfigError(f"unknown gbdt parameter {name!r}")
                config.gbdt_overrides[name] = _GBDT_FIELD_TYPES[name](value)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {line_num}: bad value for {key}: {exc}") from exc
    return config


def filter_rules(config: ExperimentConfig) -> FilterRules:
    return FilterRules(
        require_company_id=config.filter_require_company_id,
        min_share_price=config.filter_min_share_price,
        excluded_sectors=frozenset(config.filter_excluded_sectors),
        require_fiscal_alignment=config.filter_require_fiscal_alignment,
        exclude_reporting_gaps=config.filter_exclude_reporting_gaps,
    )


def build_subset_config(config: ExperimentConfig, schema,
                        consensus_vectors=None) -> rollcast.SubsetConfig:
    base = HyperParams(n_rounds=config.n_rounds, seed=config.seed,
                       **config.gbdt_overrides)
    space = tuner.default_space()
    for name, rng in config.search_space_overrides.items():
        space.ranges[name] = rng
    for name in config.gbdt_overrides:
        space.ranges.pop(name, None)
    return rollcast.SubsetConfig(
        schema=schema,
        horizon=config.horizon,
        n_classes=config.n_classes,
        scheme=config.scheme,
        clip_pct=config.clip_pct,
        look_back=config.look_back,
        fill_horizon_cap=config.fill_horizon_cap,
        fill_max_p=config.fill_max_p,
        n_lags=config.n_lags,
        correlation_cutoff=config.correlation_cutoff,
        pca_threshold=config.pca_threshold,
        standardize=config.standardize,
        validation_size=config.validation_size,
        validation_mode=config.validation_mode,
        search_space=space,
        search_budget=config.search_budget,
        search_mode=config.search_mode,
        base_params=base,
        early_stopping=config.early_stopping if config.early_stopping > 0 else None,
        seed=config.seed,
        consensus=consensus_vectors,
    )


def run_backtest(config: ExperimentConfig):
    """Full pipeline over all subsets; returns (records, results)."""
    schema = panel_ingest.load_schema(config.schema_path)
    panel = panel_ingest.load_panel(config.panel_path, schema)
    panel = panel_ingest.apply_sample_filters(panel, filter_rules(config))
    panel = panel_ingest.shift_forward_aligned(panel, schema)
    features = feature_forge.convert_formats(
        panel, schema, assets_var=config.assets_var,
        revenue_var=config.revenue_var, formula_variant=config.formula_variant)
    labels = feature_forge.build_labels(
        panel, config.horizon, config.n_classes, config.scheme,
        income_var=config.income_var, assets_var=config.assets_var)

    consensus_vectors = None
    if config.consensus_path and os.path.exists(config.consensus_path):
        table = rollcast.load_consensus(config.consensus_path)
        consensus_vectors = rollcast.build_consensus_vectors(
            table, panel, config.horizon, config.n_classes, config.scheme,
            estimate=config.consensus_estimate, pairing=config.consensus_pairing)

    splits = rollcast.enumerate_subsets(panel.quarters(), config.train_len)
    if config.max_subsets > 0:
        splits = splits[:config.max_subsets]
    subset_config = build_subset_config(config, schema, consensus_vectors)
    results = rollcast.run_all_subsets(splits, features, labels, subset_config)
    records = rollcast.build_records(results, config.to_echo())
    return records, results


def cmd_synth(config: ExperimentConfig) -> int:
    spec = synthgen.SignalSpec(
        seasonality_amplitude=config.synth_seasonality,
        noise_sd=config.synth_noise_sd,
        missing_rate=config.synth_missing_rate,
        n_companies=config.synth_n_companies,
        n_quarters=config.synth_n_quarters,
        seed=config.synth_seed,
    )
    spec.validate()
    os.makedirs(config.output_dir, exist_ok=True)
    schema = synthgen.default_schema(spec)
    panel, truth = synthgen.generate_panel(spec)
    synthgen.write_schema_csv(spec, os.path.join(config.output_dir, "schema.csv"))
    panel_ingest.save_panel(panel, os.path.join(config.output_dir, "panel.csv"),
                            schema=schema)
    synthgen.write_truth_csv(panel, truth,
                             os.path.join(config.output_dir, "truth.csv"))
    if config.synth_consensus:
        rows = synthgen.generate_consensus_rows(panel, seed=spec.seed)
        synthgen.write_consensus_csv(
            rows, os.path.join(config.output_dir, "consensus.csv"))
    print(f"synthetic panel written to {config.output_dir}")
    return 0


def cmd_backtest(config: ExperimentConfig) -> int:
    records, results = run_backtest(config)
    os.makedirs(config.output_dir, exist_ok=True)
    rollcast.write_jsonl(records, os.path.join(config.output_dir, "report.jsonl"))
    text = rollcast.render_text(records)
    with open(os.path.join(config.output_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    models_dir = os.path.join(config.output_dir, "models")
    trials_dir = os.path.join(config.output_dir, "trials")
    fills_dir = os.path.join(config.output_dir, "fills")
    for d in (models_dir, trials_dir, fills_dir):
        os.makedirs(d, exist_ok=True)
    for result in results:
        idx = result.split.index
        with open(os.path.join(models_dir, f"subset_{idx:03d}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(result.model_text)
        with open(os.path.join(models_dir, f"subset_{idx:03d}.pca.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(result.pca_text)
        with open(os.path.join(trials_dir, f"subset_{idx:03d}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for trial in result.trials:
                fh.write(json.dumps(trial.to_record(), sort_keys=True))
                fh.write("\n")
        with open(os.path.join(fills_dir, f"subset_{idx:03d}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for record in result.fill_report.to_records():
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
    print(f"{len(results)} subsets -> {config.output_dir}/report.jsonl")
    return 0


def cmd_report(config: ExperimentConfig) -> int:
    records = rollcast.read_jsonl(os.path.join(config.output_dir, "report.jsonl"))
    text = rollcast.render_text(records)
    with open(os.path.join(config.output_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fundcast",
        description="Earnings-direction classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("synth", "generate a synthetic panel"),
                           ("backtest", "run the rolling backtest"),
                           ("report", "re-render tables from stored records")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
            config.synth_seed = args.seed
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "backtest":
            return cmd_backtest(config)
        return cmd_report(config)
    except (FundcastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
