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
import dataclasses
import math
import os
import sys
from functools import partial

from . import feature_forge, panel_ingest, rollcast, synthgen, tuner
from .boostwood import HyperParams
from .errors import ConfigError, FundcastError, InvalidParamsError
from .panel_ingest import FilterRules
from .rollcast import ExperimentConfig
from .tuner import ParamRange


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {text!r}")


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _parse_optional_finite(text: str):
    return None if text.lower() == "none" else _parse_finite(text)


def _parse_count(text: str, least: int = 1) -> int:
    value = int(text)
    if value < least:
        raise ValueError(f"must be >= {least}, got {value}")
    return value


def _parse_choice(text, allowed: tuple):
    if text not in allowed:
        raise ValueError(
            f"must be one of {', '.join(map(str, allowed))}, got {text!r}")
    return text


def _parse_fraction(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise ValueError(f"must lie in (0, 1], got {value}")
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
    "label.horizon": ("horizon",
                      partial(_parse_choice, allowed=feature_forge.HORIZONS)),
    "label.n_classes": ("n_classes", lambda text: _parse_choice(
        int(text), feature_forge.N_CLASSES)),
    "label.scheme": ("scheme",
                     partial(_parse_choice, allowed=feature_forge.SCHEMES)),
    "label.income_var": ("income_var", str),
    "label.assets_var": ("assets_var", str),
    "label.revenue_var": ("revenue_var", str),
    "filters.require_company_id": ("filter_require_company_id", _parse_bool),
    "filters.min_share_price": ("filter_min_share_price",
                                _parse_optional_finite),
    "filters.excluded_sectors": ("filter_excluded_sectors", _parse_sectors),
    "filters.require_fiscal_alignment": ("filter_require_fiscal_alignment", _parse_bool),
    "filters.exclude_reporting_gaps": ("filter_exclude_reporting_gaps", _parse_bool),
    "pipeline.formula_variant": ("formula_variant",
                                 partial(_parse_choice,
                                         allowed=feature_forge.FORMULA_VARIANTS)),
    "pipeline.clip_pct": ("clip_pct", _parse_fraction),
    "pipeline.fill_max_p": ("fill_max_p", _parse_count),
    "pipeline.fill_horizon_cap": ("fill_horizon_cap",
                                  partial(_parse_count, least=0)),
    "pipeline.look_back": ("look_back", _parse_count),
    "pipeline.n_lags": ("n_lags", _parse_count),
    "pipeline.correlation_cutoff": ("correlation_cutoff", _parse_fraction),
    "pipeline.pca_threshold": ("pca_threshold", _parse_fraction),
    "pipeline.standardize": ("standardize", _parse_bool),
    "pipeline.train_len": ("train_len", _parse_count),
    "pipeline.max_subsets": ("max_subsets", partial(_parse_count, least=0)),
    "validation.size": ("validation_size", _parse_count),
    "search.budget": ("search_budget", _parse_count),
    "gbdt.n_rounds": ("n_rounds", _parse_count),
    "gbdt.early_stopping": ("early_stopping", partial(_parse_count, least=0)),
    "consensus.estimate": ("consensus_estimate",
                           partial(_parse_choice,
                                   allowed=rollcast.CONSENSUS_ESTIMATES)),
    "consensus.pairing": ("consensus_pairing",
                          partial(_parse_choice,
                                  allowed=rollcast.CONSENSUS_PAIRINGS)),
    "seed": ("seed", partial(_parse_count, least=0)),
    "synth.n_companies": ("synth_n_companies", _parse_count),
    "synth.n_quarters": ("synth_n_quarters", _parse_count),
    "synth.noise_sd": ("synth_noise_sd", _parse_finite),
    "synth.missing_rate": ("synth_missing_rate", _parse_finite),
    "synth.seasonality_amplitude": ("synth_seasonality", _parse_finite),
    "synth.seed": ("synth_seed", partial(_parse_count, least=0)),
    "synth.consensus": ("synth_consensus", _parse_bool),
}

# every tree parameter of HyperParams; n_rounds and seed have their own keys
_GBDT_FIELD_TYPES = {
    f.name: _parse_finite if f.type == "float" else int
    for f in dataclasses.fields(HyperParams)
    if f.name not in ("n_rounds", "seed")}


def parse_config(path) -> ExperimentConfig:
    """Read a config file; every error names the line it comes from."""
    config = ExperimentConfig()
    searchable = tuner.default_space()
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
        key = key.strip()
        value = value.strip()
        try:
            if key in _KEYS:
                attr, coerce = _KEYS[key]
                setattr(config, attr, coerce(value))
            elif key.startswith("search.space."):
                name = key[len("search.space."):]
                if name not in searchable:
                    raise ConfigError(
                        f"unknown search parameter {name!r}, expected one of "
                        f"{', '.join(searchable)}")
                parts = [p.strip() for p in value.split(",")]
                if len(parts) not in (2, 3):
                    raise ValueError("expected min,max[,scale]")
                scale = parts[2] if len(parts) == 3 else "linear"
                range_ = ParamRange(_parse_finite(parts[0]),
                                    _parse_finite(parts[1]), scale)
                for end in (range_.lo, range_.hi):
                    HyperParams(**{name: end}).validate()
                config.search_space_overrides[name] = range_
            elif key.startswith("gbdt."):
                name = key[len("gbdt."):]
                if name not in _GBDT_FIELD_TYPES:
                    raise ConfigError(f"unknown gbdt parameter {name!r}")
                pinned = _GBDT_FIELD_TYPES[name](value)
                HyperParams(**{name: pinned}).validate()
                config.gbdt_overrides[name] = pinned
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {line_num}: {exc}") from None
        except (ValueError, TypeError, InvalidParamsError) as exc:
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


def filter_rules(config: ExperimentConfig) -> FilterRules:
    return FilterRules(
        require_company_id=config.filter_require_company_id,
        min_share_price=config.filter_min_share_price,
        excluded_sectors=frozenset(config.filter_excluded_sectors),
        require_fiscal_alignment=config.filter_require_fiscal_alignment,
        exclude_reporting_gaps=config.filter_exclude_reporting_gaps,
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

    consensus = None
    if config.consensus_path:
        table = rollcast.load_consensus(config.consensus_path)
        consensus = rollcast.build_consensus_vectors(table, panel, config)

    splits = rollcast.enumerate_subsets(panel.quarters(), config.train_len)
    if config.max_subsets > 0:
        splits = splits[:config.max_subsets]
    results = rollcast.run_all_subsets(splits, features, labels, config,
                                       schema, consensus)
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
        idx = result.record["subset"]
        with open(os.path.join(models_dir, f"subset_{idx:03d}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(result.model_text)
        with open(os.path.join(models_dir, f"subset_{idx:03d}.pca.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(result.pca_text)
        rollcast.write_jsonl([trial.to_record() for trial in result.trials],
                             os.path.join(trials_dir, f"subset_{idx:03d}.jsonl"))
        rollcast.write_jsonl(result.fill_report.to_records(),
                             os.path.join(fills_dir, f"subset_{idx:03d}.jsonl"))
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
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")

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
