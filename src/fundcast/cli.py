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
import os
import sys

from . import feature_forge, panel_ingest, rollcast, synthgen
from .errors import FundcastError
from .panel_ingest import FilterRules
from .rollcast import ExperimentConfig, parse_config, synth_spec


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
                                       consensus)
    records = rollcast.build_records(results, config.to_echo())
    return records, results


def cmd_synth(config: ExperimentConfig) -> int:
    spec = synth_spec(config)
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


def write_report_text(records, output_dir) -> str:
    """Render records into output_dir/report.txt; returns the text."""
    text = rollcast.render_text(records)
    with open(os.path.join(output_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    return text


def cmd_backtest(config: ExperimentConfig) -> int:
    records, results = run_backtest(config)
    os.makedirs(config.output_dir, exist_ok=True)
    rollcast.write_jsonl(records, os.path.join(config.output_dir, "report.jsonl"))
    write_report_text(records, config.output_dir)
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
    print(write_report_text(records, config.output_dir))
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
