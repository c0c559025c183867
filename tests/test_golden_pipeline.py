"""Golden bytes of a tiny end-to-end run: synth, then backtest with consensus.

The SHA-256 of the synthetic panel and consensus CSVs, both reports, and the
first subset's fill periods, model and trial ledger are pinned. The ledger is
hashed with each trial's wall_time taken out, since that is a timing. A
change to the CSV writer, the CSV readers, the panel bookkeeping between them,
the imputation or the report and ledger records that alters any output shows
here.
"""

import hashlib
import json
import os

import pytest

from fundcast.cli import main

CONFIG = """
paths.output_dir = out
paths.schema = out/schema.csv
paths.panel = out/panel.csv
paths.consensus = out/consensus.csv
label.horizon = qoq
label.n_classes = 3
pipeline.train_len = 26
pipeline.n_lags = 4
pipeline.look_back = 4
pipeline.max_subsets = 2
pipeline.standardize = true
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
synth.consensus = true
synth.seed = 3
seed = 3
"""

GOLDEN = {
    "panel.csv":
        "b8fa78f4ca33c1e0480c30f17d34f66d67d47c34f770c2817f7a7649bdd3fbeb",
    "consensus.csv":
        "c0bc59f7f2bba6061e663a8459d87eabc61b9dcecd0fd6f505e82f234e78dae7",
    "fills/subset_001.jsonl":
        "15a355d3e02e7b37c6e9c5984eb5bcfb47439f89004b82f726304868641451b4",
    "report.jsonl":
        "bcde69c4415a0543078d1d96385bacd994cacde23fccde97dad00067b53b0f60",
    "report.txt":
        "cb9d9a356d14dd187e8ea48e5e2f0f431d2e88a0360abae4688227b162a669aa",
    "trials/subset_001.jsonl":
        "e721abb2aef03dd0a48682ac694ff43c5b4f6cbca5b9f3e838b4c86bbf2ef4f7",
    "models/subset_001.txt":
        "c5da22cfb8e0fe929a78fa3a95e9a24eb9b225e12ad45df4774ebe89cf977044",
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    # Relative paths, so that the config echo in report.jsonl is the same
    # wherever the run happens.
    tmp_path = tmp_path_factory.mktemp("golden")
    (tmp_path / "exp.cfg").write_text(CONFIG)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["synth", "--config", "exp.cfg"]) == 0
        assert main(["backtest", "--config", "exp.cfg"]) == 0
    finally:
        os.chdir(cwd)
    return tmp_path / "out"


def untimed_bytes(path) -> bytes:
    """The file's bytes, or for a trial ledger its records re-serialised
    without wall_time."""
    if path.parent.name != "trials":
        return path.read_bytes()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return "".join(json.dumps({k: v for k, v in r.items() if k != "wall_time"},
                              sort_keys=True) + "\n"
                   for r in records).encode()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_pinned(run_dir, name):
    digest = hashlib.sha256(untimed_bytes(run_dir / name)).hexdigest()
    assert digest == GOLDEN[name]


def test_consensus_was_scored(run_dir):
    # the report digest only guards the consensus path if it was taken
    assert '"consensus_available": true' in (run_dir / "report.jsonl").read_text()
