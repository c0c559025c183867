import json
from dataclasses import fields
from pathlib import Path

import pytest

from fundcast.boostwood import HyperParams
from fundcast.cli import _KEYS, main, parse_config
from fundcast.errors import ConfigError
from fundcast.rollcast import ExperimentConfig

BASE_CONFIG = """
paths.output_dir = {out}
paths.schema = {out}/schema.csv
paths.panel = {out}/panel.csv
label.horizon = qoq
label.n_classes = 3
pipeline.train_len = 26
pipeline.n_lags = 4
pipeline.look_back = 4
pipeline.max_subsets = 2
validation.size = 4
search.budget = 2
search.space.learning_rate = 0.1, 0.5
search.space.num_leaves = 4, 12, integer
gbdt.max_bin = 16
gbdt.min_data_in_leaf = 5
gbdt.n_rounds = 8
gbdt.early_stopping = 3
synth.n_companies = 18
synth.n_quarters = 34
synth.missing_rate = 0.04
synth.seed = 3
seed = 3
"""


def write_config(tmp_path, extra="", base=None):
    out = tmp_path / "out"
    text = (base or BASE_CONFIG).format(out=out) + extra
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path, out


class TestParseConfig:
    def test_full_config_parses(self, tmp_path):
        path, out = write_config(tmp_path)
        config = parse_config(path)
        assert config.train_len == 26
        assert config.search_budget == 2
        assert config.gbdt_overrides == {"max_bin": 16, "min_data_in_leaf": 5,
                                         }
        assert config.search_space_overrides["learning_rate"].hi == 0.5
        assert config.search_space_overrides["num_leaves"].scale == "integer"

    def test_unknown_key_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, extra="\nnot.a.key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_bad_value_names_line(self, tmp_path):
        path, _ = write_config(tmp_path, extra="\npipeline.train_len = many\n")
        with pytest.raises(ConfigError, match="train_len"):
            parse_config(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path, _ = write_config(tmp_path, extra="\n# a comment\n\nseed = 4  # x\n")
        assert parse_config(path).seed == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_unknown_gbdt_param_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, extra="\ngbdt.magic = 3\n")
        with pytest.raises(ConfigError, match="gbdt"):
            parse_config(path)

    @pytest.mark.parametrize(
        "field", [f for f in fields(HyperParams)
                  if f.name not in ("n_rounds", "seed")],
        ids=lambda f: f.name)
    def test_every_tree_parameter_is_a_gbdt_key(self, tmp_path, field):
        # float fields parse as float, the rest (max_depth too) as int
        kind = float if isinstance(field.default, float) else int
        value = "0.5" if kind is float else "3"
        path, _ = write_config(tmp_path,
                               extra=f"\ngbdt.{field.name} = {value}\n")
        pinned = parse_config(path).gbdt_overrides[field.name]
        assert type(pinned) is kind
        assert pinned == kind(value)

    @pytest.mark.parametrize("key", ["validation.size", "search.budget",
                                     "pipeline.fill_max_p",
                                     "pipeline.look_back", "pipeline.n_lags",
                                     "pipeline.train_len", "gbdt.n_rounds"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_count_below_one_names_line(self, tmp_path, key, value):
        path, _ = write_config(tmp_path, extra=f"\n{key} = {value}\n")
        line = path.read_text().splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError, match=f"line {line}: .*{key}.*>= 1"):
            parse_config(path)

    def test_negative_fill_horizon_cap_names_line(self, tmp_path):
        path, _ = write_config(tmp_path,
                               extra="\npipeline.fill_horizon_cap = -1\n")
        line = path.read_text().splitlines().index(
            "pipeline.fill_horizon_cap = -1") + 1
        with pytest.raises(ConfigError,
                           match=f"line {line}: .*fill_horizon_cap.*>= 0"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["pipeline.max_subsets",
                                     "gbdt.early_stopping"])
    def test_negative_count_names_line(self, tmp_path, key):
        path, _ = write_config(tmp_path, extra=f"\n{key} = -3\n")
        line = path.read_text().splitlines().index(f"{key} = -3") + 1
        with pytest.raises(ConfigError, match=f"line {line}: .*{key}.*>= 0"):
            parse_config(path)

    @pytest.mark.parametrize("key, value", [
        ("consensus.estimate", "mode"), ("consensus.pairing", "splitt"),
        ("label.horizon", "qoy"), ("label.n_classes", 4),
        ("label.scheme", "signs"), ("pipeline.formula_variant", "minus_two")])
    def test_unknown_choice_names_line(self, tmp_path, key, value):
        # BASE_CONFIG sets no paths.consensus, so nothing else would read
        # the consensus keys
        path, _ = write_config(tmp_path, extra=f"\n{key} = {value}\n")
        line = path.read_text().splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError,
                           match=f"line {line}: .*{key}.*{value!r}"):
            parse_config(path)

    @pytest.mark.parametrize("key, value", [
        ("consensus.estimate", "median"), ("consensus.pairing", "shared"),
        ("label.horizon", "yoy"), ("label.n_classes", 6),
        ("label.scheme", "sign"), ("pipeline.formula_variant", "minus_one")])
    def test_known_choice_accepted(self, tmp_path, key, value):
        extra = f"\n{key} = {value}\n"
        if value == "sign":
            # BASE_CONFIG's 3 classes cannot be cut by sign
            extra += "label.n_classes = 2\n"
        path, _ = write_config(tmp_path, extra=extra)
        attr = _KEYS[key][0]
        assert getattr(parse_config(path), attr) == value

    @pytest.mark.parametrize("key", ["pipeline.correlation_cutoff",
                                     "pipeline.pca_threshold",
                                     "pipeline.clip_pct"])
    @pytest.mark.parametrize("value", ["-0.5", "0", "1.5", "nan"])
    def test_fraction_out_of_range_names_line(self, tmp_path, key, value):
        path, _ = write_config(tmp_path, extra=f"\n{key} = {value}\n")
        line = path.read_text().splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError,
                           match=rf"line {line}: .*{key}.*\(0, 1\]"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["pipeline.correlation_cutoff",
                                     "pipeline.pca_threshold",
                                     "pipeline.clip_pct"])
    @pytest.mark.parametrize("value", [1.0, 0.25])
    def test_fraction_in_range_accepted(self, tmp_path, key, value):
        path, _ = write_config(tmp_path, extra=f"\n{key} = {value}\n")
        assert getattr(parse_config(path), _KEYS[key][0]) == value

    def test_out_of_range_fraction_stops_backtest_before_ingest(
            self, tmp_path, capsys):
        # the panel files do not exist: the config is refused first
        path, out = write_config(
            tmp_path, extra="\npipeline.correlation_cutoff = -0.5\n")
        assert main(["backtest", "--config", str(path)]) == 1
        line = path.read_text().splitlines().index(
            "pipeline.correlation_cutoff = -0.5") + 1
        assert f"line {line}: bad value for pipeline.correlation_cutoff" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, message", [
        ("foo.bar = 1", "unknown key 'foo.bar'"),
        ("gbdt.magic = 3", "unknown gbdt parameter 'magic'"),
        ("search.space.max_bin = 5",
         r"bad value for search.space.max_bin: expected min,max\[,scale\]"),
        ("search.space.magic = 1, 2", "unknown search parameter 'magic'"),
        ("search.space.seed = 1, 2, integer",
         "unknown search parameter 'seed', expected one of learning_rate, "),
        ("pipeline.standardize = maybe",
         "bad value for pipeline.standardize: expected boolean, got 'maybe'"),
        ("search.mode = uniform", "unknown key 'search.mode'"),
        ("validation.mode = chronological_tail",
         "unknown key 'validation.mode'"),
        ("gbdt.num_leaves = 1",
         "bad value for gbdt.num_leaves: num_leaves must be >= 2: 1"),
        ("gbdt.bagging_fraction = 1.5",
         r"bad value for gbdt.bagging_fraction: bagging_fraction must be in "
         r"\(0, 1\]: 1.5"),
        ("search.space.learning_rate = -1, 0.5",
         "bad value for search.space.learning_rate: learning_rate must be "
         "> 0: -1.0"),
        ("gbdt.lambda_l2 = nan",
         "bad value for gbdt.lambda_l2: must be finite, got nan"),
        ("search.space.lambda_l1 = 1, inf",
         "bad value for search.space.lambda_l1: must be finite, got inf"),
        ("filters.min_share_price = nan",
         "bad value for filters.min_share_price: must be finite, got nan"),
        ("filters.min_share_price = inf",
         "bad value for filters.min_share_price: must be finite, got inf"),
        ("synth.noise_sd = nan",
         "bad value for synth.noise_sd: must be finite, got nan"),
        ("synth.missing_rate = inf",
         "bad value for synth.missing_rate: must be finite, got inf"),
        ("synth.seasonality_amplitude = -inf",
         "bad value for synth.seasonality_amplitude: must be finite, "
         "got -inf"),
        ("search.space.feature_fraction = 0.5, 1.2",
         r"bad value for search.space.feature_fraction: feature_fraction "
         r"must be in \(0, 1\]: 1.2"),
        ("seed = -1", "bad value for seed: must be >= 0, got -1"),
        ("synth.seed = -2", "bad value for synth.seed: must be >= 0, got -2"),
        ("synth.n_companies = 0",
         "bad value for synth.n_companies: must be >= 1, got 0"),
        ("synth.n_quarters = -4",
         "bad value for synth.n_quarters: must be >= 1, got -4"),
        # BASE_CONFIG sets pipeline.train_len = 26 and validation.size = 4
        ("validation.size = 26",
         "validation.size = 26 requires pipeline.train_len >= 27, got 26"),
        ("pipeline.train_len = 4",
         "validation.size = 4 requires pipeline.train_len >= 5, got 4")])
    def test_every_error_names_its_line(self, tmp_path, entry, message):
        path, _ = write_config(tmp_path, extra=f"\n{entry}\n")
        line = path.read_text().splitlines().index(entry) + 1
        with pytest.raises(ConfigError, match=f"^line {line}: {message}"):
            parse_config(path)

    def test_sign_scheme_needs_two_classes_names_scheme_line(self, tmp_path):
        # BASE_CONFIG sets label.n_classes = 3 above the scheme line
        path, _ = write_config(tmp_path, extra="\nlabel.scheme = sign\n")
        line = path.read_text().splitlines().index("label.scheme = sign") + 1
        with pytest.raises(ConfigError,
                           match=f"^line {line}: label.scheme = sign requires "
                                 "label.n_classes = 2, got 3"):
            parse_config(path)

    def test_negative_seed_flag_stops_backtest_before_ingest(self, tmp_path,
                                                             capsys):
        # the panel files do not exist: the flag is refused first
        path, out = write_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["backtest", "--config", str(path), "--seed", "-1"])
        assert info.value.code != 0
        assert "argument --seed: must be >= 0, got -1" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_sign_scheme_with_three_classes_stops_backtest_before_ingest(
            self, tmp_path, capsys):
        # the panel files do not exist: the config is refused first
        path, out = write_config(tmp_path, extra="\nlabel.scheme = sign\n")
        assert main(["backtest", "--config", str(path)]) == 1
        line = path.read_text().splitlines().index("label.scheme = sign") + 1
        assert f"error: line {line}: label.scheme = sign" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, parsed", [("none", None), ("None", None),
                                               ("2.5", 2.5), ("0", 0.0)])
    def test_min_share_price_finite_or_none_accepted(self, tmp_path, value,
                                                     parsed):
        path, _ = write_config(tmp_path,
                               extra=f"\nfilters.min_share_price = {value}\n")
        assert parse_config(path).filter_min_share_price == parsed

    def test_zero_fill_horizon_cap_accepted(self, tmp_path):
        path, _ = write_config(tmp_path,
                               extra="\npipeline.fill_horizon_cap = 0\n")
        assert parse_config(path).fill_horizon_cap == 0

    def test_readme_table_lists_every_key(self):
        # first cells of the README's config table: "a / b" cells hold
        # several keys, synth.* lists its names in its meaning, and
        # the search.space.NAME and gbdt.NAME patterns are not keys
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("## Config reference", 1)[1].split("\n\n")[1]
        documented = set()
        for row in table.splitlines()[2:]:
            cell, _, rest = row.strip("|").partition("|")
            for key in (part.strip() for part in cell.split(" / ")):
                if key == "synth.*":
                    names = rest.split("(", 1)[1].split(")", 1)[0]
                    documented |= {f"synth.{name.strip()}"
                                   for name in names.split(",")}
                elif "NAME" not in key:
                    documented.add(key)
        assert documented == set(_KEYS)

    def test_every_config_field_has_a_key(self):
        # the two dicts are filled by the search.space. and gbdt. prefixes
        targets = {attr for attr, _ in _KEYS.values()}
        targets |= {"search_space_overrides", "gbdt_overrides"}
        assert {f.name for f in fields(ExperimentConfig)} == targets


class TestSynthCommand:
    def test_writes_files_that_reload(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["synth", "--config", str(path)]) == 0
        from fundcast.panel_ingest import load_panel, load_schema
        schema = load_schema(out / "schema.csv")
        panel = load_panel(out / "panel.csv", schema)
        assert panel.n_rows == 18 * 34
        assert (out / "truth.csv").exists()

    def test_seed_repeat_identical_bytes(self, tmp_path):
        path, out = write_config(tmp_path)
        main(["synth", "--config", str(path)])
        first = (out / "panel.csv").read_bytes()
        main(["synth", "--config", str(path)])
        assert (out / "panel.csv").read_bytes() == first

    def test_invalid_spec_nonzero_exit(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, extra="\nsynth.n_quarters = 10\n")
        assert main(["synth", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def backtest_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bt")
    path, out = write_config(tmp_path)
    assert main(["synth", "--config", str(path)]) == 0
    assert main(["backtest", "--config", str(path)]) == 0
    return path, out


class TestBacktestCommand:
    def test_report_files_written(self, backtest_dir):
        _, out = backtest_dir
        assert (out / "report.jsonl").exists()
        assert (out / "report.txt").exists()
        assert (out / "models" / "subset_001.txt").exists()
        assert (out / "trials" / "subset_001.jsonl").exists()

    def test_two_subset_records(self, backtest_dir):
        _, out = backtest_dir
        lines = (out / "report.jsonl").read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[0]["record_type"] == "config"
        assert [r["subset"] for r in records[1:]] == [1, 2]

    def test_rerun_byte_identical(self, backtest_dir):
        path, out = backtest_dir
        first = (out / "report.jsonl").read_bytes()
        assert main(["backtest", "--config", str(path)]) == 0
        assert (out / "report.jsonl").read_bytes() == first

    def test_missing_consensus_marks_unavailable(self, backtest_dir):
        _, out = backtest_dir
        lines = (out / "report.jsonl").read_text().strip().split("\n")
        rec = json.loads(lines[1])
        assert rec["metrics"]["consensus_available"] is False
        assert rec["metrics"]["consensus_accuracy"] is None
        assert "n/a" in (out / "report.txt").read_text()

    def test_config_echo_embedded(self, backtest_dir):
        _, out = backtest_dir
        rec = json.loads((out / "report.jsonl").read_text().split("\n")[0])
        assert rec["config"]["train_len"] == 26
        assert rec["config"]["seed"] == 3

    def test_report_rerender_identical(self, backtest_dir):
        path, out = backtest_dir
        original = (out / "report.txt").read_bytes()
        assert main(["report", "--config", str(path)]) == 0
        once = (out / "report.txt").read_bytes()
        assert main(["report", "--config", str(path)]) == 0
        assert (out / "report.txt").read_bytes() == once
        assert once == original

    def test_corrupted_record_names_line(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        out.mkdir()
        (out / "report.jsonl").write_text('{"record_type":"config","config":{}}\n{bad\n')
        assert main(["report", "--config", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_seed_override_changes_report(self, backtest_dir, tmp_path):
        path, out = backtest_dir
        first = (out / "report.jsonl").read_bytes()
        assert main(["backtest", "--config", str(path), "--seed", "99"]) == 0
        assert (out / "report.jsonl").read_bytes() != first
        # restore for other tests (module fixture order safety)
        assert main(["backtest", "--config", str(path)]) == 0
        assert (out / "report.jsonl").read_bytes() == first

    def test_trial_ledger_records_training_facts(self, backtest_dir):
        path, out = backtest_dir

        def ledger():
            rows = []
            for name in ("subset_001.jsonl", "subset_002.jsonl"):
                for line in (out / "trials" / name).read_text().splitlines():
                    record = json.loads(line)
                    del record["wall_time"]
                    rows.append(record)
            return rows

        first = ledger()
        assert len(first) == 4
        for record in first:
            # early stopping keeps rounds 0..best_round
            assert record["rounds_fitted"] == record["best_round"] + 1
            assert 0 <= record["null_trees"] <= 3 * record["rounds_fitted"]
            # validation log-loss of the kept model
            assert record["best_valid_loss"] > 0
        assert main(["backtest", "--config", str(path)]) == 0
        assert ledger() == first

    def test_per_subset_artifacts_written(self, backtest_dir):
        _, out = backtest_dir
        assert (out / "models" / "subset_001.pca.txt").exists()
        assert (out / "fills" / "subset_001.jsonl").exists()


class TestConsensusFlow:
    def test_consensus_columns_populated_when_file_present(self, tmp_path):
        extra = "\nsynth.consensus = true\npaths.consensus = {out}/consensus.csv\n"
        out = tmp_path / "out"
        text = (BASE_CONFIG + extra).format(out=out)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main(["synth", "--config", str(path)]) == 0
        assert main(["backtest", "--config", str(path)]) == 0
        lines = (out / "report.jsonl").read_text().strip().split("\n")
        rec = json.loads(lines[1])
        assert rec["metrics"]["consensus_available"] is True
        assert rec["metrics"]["consensus_accuracy"] is not None
        assert rec["metrics"]["n_converge"] + rec["metrics"]["n_diverge"] > 0

    def test_missing_consensus_file_fails_naming_path(self, tmp_path, capsys):
        # the path is set but synth writes no consensus file
        missing = tmp_path / "out" / "consensus.csv"
        path, out = write_config(tmp_path, extra=f"\npaths.consensus = {missing}\n")
        assert main(["synth", "--config", str(path)]) == 0
        assert main(["backtest", "--config", str(path)]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not (out / "report.jsonl").exists()
