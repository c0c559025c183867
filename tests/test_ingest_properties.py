"""Property tests of the panel CSV path: row order is free and
save_panel -> load_panel is exact."""

import csv
import os
import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import index_from_keys, keys_of, simple_spec
from fundcast.cli import main
from fundcast.panel_ingest import (
    CalendarQuarter,
    CompanyMeta,
    RawPanel,
    load_panel,
    save_panel,
)

# a variable name that needs quoting too
SCHEMA = [simple_spec("niq"), simple_spec('x,"y"', "balance")]

company_ids = st.text(alphabet='AbZ ,"\né', max_size=4)
values = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 5e-324, 1e308]))
metas = st.builds(
    CompanyMeta,
    sector_code=st.none() | st.integers(0, 99),
    min_share_price=st.none() | st.floats(0, 1e6),
    fiscal_alignment_flag=st.none() | st.booleans(),
    reporting_gap_flag=st.none() | st.booleans(),
)


@st.composite
def panels(draw):
    """Panels whose companies have quarter gaps and ids that need quoting."""
    names = sorted(draw(st.sets(company_ids, min_size=1, max_size=4)))
    keys = []
    for name in names:
        quarters = draw(st.sets(st.integers(0, 11), min_size=1, max_size=8))
        start = CalendarQuarter(1999, 3).index
        keys += [(name, CalendarQuarter.from_index(start + q)) for q in sorted(quarters)]
    columns = {spec.name: np.array(draw(st.lists(values, min_size=len(keys),
                                                 max_size=len(keys))))
               for spec in SCHEMA}
    meta = {name: draw(metas) for name in names}
    return RawPanel(index_from_keys(keys), columns, meta)


def assert_same_panel(a: RawPanel, b: RawPanel):
    assert keys_of(a.index) == keys_of(b.index)
    assert list(a.columns) == list(b.columns)
    for name in a.columns:
        x, y = a.columns[name], b.columns[name]
        assert (np.isnan(x) == np.isnan(y)).all()
        # bit for bit, so -0.0 and 0.0 differ
        assert x[~np.isnan(x)].tobytes() == y[~np.isnan(y)].tobytes()
    assert a.meta == b.meta


def rowwise_csv(panel: RawPanel, path):
    """The panel CSV written one csv.writer row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["company_id", "year", "quarter", "variable", "value"])
        keys = keys_of(panel.index)
        first = {}
        for company, q in keys:
            first.setdefault(company, q)
        for company, q in first.items():
            for name, value in vars(panel.meta[company]).items():
                if value is not None:
                    text = (str(int(value)) if isinstance(value, bool)
                            else repr(value) if isinstance(value, float) else str(value))
                    writer.writerow([company, q.year, q.quarter, "meta_" + name, text])
        for i, (company, q) in enumerate(keys):
            for spec in SCHEMA:
                value = panel.columns[spec.name][i]
                writer.writerow([company, q.year, q.quarter, spec.name,
                                 "" if np.isnan(value) else repr(float(value))])


def permute_rows(src, dst, seed):
    """Copy a CSV with its data rows in a random order."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    order = np.random.default_rng(seed).permutation(len(rows))
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows[i] for i in order)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(panel=panels(), seed=st.integers(0, 2 ** 32 - 1))
def test_save_load_roundtrip_and_row_order(panel, seed):
    """save_panel writes what csv.writer writes row by row, load_panel
    reads it back exactly, and reads the same panel with rows shuffled."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        save_panel(panel, path, schema=SCHEMA)
        rowwise_csv(panel, os.path.join(tmp, "rowwise.csv"))
        with open(path, "rb") as a, open(os.path.join(tmp, "rowwise.csv"), "rb") as b:
            assert a.read() == b.read()
        back = load_panel(path, SCHEMA)
        assert_same_panel(back, panel)
        permute_rows(path, os.path.join(tmp, "shuffled.csv"), seed)
        assert_same_panel(load_panel(os.path.join(tmp, "shuffled.csv"), SCHEMA), panel)


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
pipeline.max_subsets = 1
validation.size = 4
search.budget = 2
search.space.num_leaves = 4, 12, integer
gbdt.max_bin = 16
gbdt.min_data_in_leaf = 5
gbdt.n_rounds = 6
gbdt.early_stopping = 3
synth.n_companies = 12
synth.n_quarters = 30
synth.consensus = true
synth.seed = 5
seed = 5
"""


def run_in(directory, *argv):
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        assert main([*argv, "--config", "exp.cfg"]) == 0
    finally:
        os.chdir(cwd)


@settings(max_examples=3, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_report_invariant_to_csv_row_order(tmp_path_factory, seed):
    base = tmp_path_factory.getbasetemp() / "row_order"
    if not (base / "out" / "report.jsonl").exists():
        base.mkdir(exist_ok=True)
        (base / "exp.cfg").write_text(CONFIG)
        run_in(base, "synth")
        run_in(base, "backtest")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(base / "exp.cfg", tmp)
        os.mkdir(os.path.join(tmp, "out"))
        shutil.copy(base / "out" / "schema.csv", os.path.join(tmp, "out"))
        for name in ("panel.csv", "consensus.csv"):
            permute_rows(base / "out" / name, os.path.join(tmp, "out", name), seed)
        run_in(tmp, "backtest")
        with open(os.path.join(tmp, "out", "report.jsonl"), "rb") as fh:
            assert fh.read() == (base / "out" / "report.jsonl").read_bytes()
