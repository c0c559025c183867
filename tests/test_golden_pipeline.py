"""Golden bytes of a tiny end-to-end run: synth, then backtest with consensus.

The SHA-256 of the synthetic panel and consensus CSVs, the report and the
first subset's model are pinned. A change to the CSV writer, the CSV readers
or the panel bookkeeping between them that alters any output shows here.
"""

import hashlib
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
    "report.jsonl":
        "c4e238b36db8161b5e791b88878372bf57fa20b3135e8ab0691055589710e23d",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_pinned(run_dir, name):
    digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


def test_consensus_was_scored(run_dir):
    # the report digest only guards the consensus path if it was taken
    assert '"consensus_available": true' in (run_dir / "report.jsonl").read_text()
