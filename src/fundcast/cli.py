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
from .panel_ingest import CONSENSUS_HEADER, TRUTH_HEADER, FilterRules, RawPanel
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
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    schema = synthgen.default_schema(spec)
    panel, truth = synthgen.generate_panel(spec)
    panel_ingest.save_schema(schema, os.path.join(out, "schema.csv"))
    panel_ingest.save_panel(panel, os.path.join(out, "panel.csv"), schema=schema)
    panel_ingest.save_table(RawPanel(panel.index, {"target_true": truth}),
                            os.path.join(out, "truth.csv"), TRUTH_HEADER)
    if config.synth_consensus:
        panel_ingest.save_table(synthgen.generate_consensus(panel, seed=spec.seed),
                                os.path.join(out, "consensus.csv"),
                                CONSENSUS_HEADER)
    print(f"synthetic panel written to {out}")
    return 0


def _write_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_report_text(records, output_dir) -> str:
    """Render records into output_dir/report.txt; returns the text."""
    text = rollcast.render_text(records)
    _write_text(text, os.path.join(output_dir, "report.txt"))
    return text


def cmd_backtest(config: ExperimentConfig) -> int:
    records, results = run_backtest(config)
    os.makedirs(config.output_dir, exist_ok=True)
    rollcast.write_jsonl(records, os.path.join(config.output_dir, "report.jsonl"))
    write_report_text(records, config.output_dir)
    for d in ("models", "trials", "fills"):
        os.makedirs(os.path.join(config.output_dir, d), exist_ok=True)
    for result in results:
        name = f"subset_{result.record['subset']:03d}"
        for path, write, content in (
                (f"models/{name}.txt", _write_text, result.model_text),
                (f"models/{name}.pca.txt", _write_text, result.pca_text),
                (f"trials/{name}.jsonl", rollcast.write_jsonl,
                 [trial.to_record() for trial in result.trials]),
                (f"fills/{name}.jsonl", rollcast.write_jsonl,
                 result.fill_report.to_records())):
            write(content, os.path.join(config.output_dir, path))
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
