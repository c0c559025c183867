"""The block CSV reader of panel_ingest against csv.reader, and the limits
it keeps: the dialect it accepts, fields of any length, and memory."""

import csv
import io
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_panel, quarter_range, simple_spec
from fundcast import panel_ingest
from fundcast.errors import PanelError
from fundcast.panel_ingest import (CONSENSUS_HEADER, PANEL_HEADER, load_panel,
                                   save_panel)
from fundcast.rollcast import load_consensus

fields = st.text(alphabet=',"\n\ré0123456789', max_size=6)


@st.composite
def csv_texts(draw):
    """(header, text): records of one width written by csv.writer, joined
    by one line ending, with blank lines between them and the last line
    ending drawn."""
    width = draw(st.integers(1, 4))
    records = draw(st.lists(st.lists(fields, min_size=width, max_size=width),
                            min_size=1, max_size=8))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    for record in records:
        buf = io.StringIO()
        csv.writer(buf).writerow(record)  # quotes fields holding CR or LF
        lines.append(buf.getvalue()[:-2])
        lines += [""] * draw(st.integers(0, 2))
    final = ending if draw(st.booleans()) else ""
    return records[0], ending.join(lines) + final


def read_records(path, header) -> list:
    """(row number, fields) of each record _read passes on."""
    records = []

    def add(block):
        records.extend((row, block.texts(i))
                       for i, row in enumerate(block.row.tolist()))

    panel_ingest._read(path, header, "test", add)
    return records


@settings(max_examples=300, deadline=None)
@given(case=csv_texts(), block_bytes=st.sampled_from([1, 2, 5, 64, 1 << 18]))
def test_records_equal_csv_reader(case, block_bytes):
    """Fields and row numbers equal csv.reader's, at any block size."""
    header, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with open(path, newline="", encoding="utf-8") as fh:
            expected = [(n, row) for n, row in enumerate(csv.reader(fh), start=1)
                        if n > 1 and row]
        with mock.patch.object(panel_ingest, "_BLOCK_BYTES", block_bytes):
            assert read_records(path, header) == expected


def write_panel(tmp_path, body: str):
    path = tmp_path / "panel.csv"
    path.write_bytes((",".join(PANEL_HEADER) + "\n" + body).encode("utf-8"))
    return path


@pytest.mark.parametrize("line, message", [
    # csv.reader keeps the quote: 'A"b'
    ('A"b,1990,2,niq,1', "quote inside an unquoted field"),
    ('A,1990,2,niq,1""', "quote inside an unquoted field"),
    # csv.reader reads 'Ab'
    ('"A"b,1990,2,niq,1', "text after a closing quote"),
    ('A,1990,2,"niq" ,1', "text after a closing quote"),
    ("A,1990,2,niq,1\0", "NUL byte"),
    ('A,1990,2,"n\0iq",1', "NUL byte"),
])
def test_stray_quote_and_nul_name_their_row(tmp_path, line, message):
    path = write_panel(tmp_path, f"A,1990,1,niq,1\n\n{line}\nA,1990,3,niq,1\n")
    with pytest.raises(PanelError, match=f"^row 4: {message}$"):
        load_panel(path, [simple_spec("niq")])


def test_quoted_fields_and_line_endings_load(tmp_path):
    path = write_panel(tmp_path, '"A",1990,1,"niq","1.5"\r\n'
                                 'A,"1990","2",niq,""\r'
                                 '"A,""B""",1990,1,niq,2\n'
                                 'A,1990,3,niq,"3')
    panel = load_panel(path, [simple_spec("niq")])
    assert panel.index.company_names() == ["A", "A", "A", 'A,"B"']
    np.testing.assert_array_equal(panel.columns["niq"], [1.5, np.nan, 3.0, 2.0])


def test_fields_beyond_csv_field_size_limit_load(tmp_path):
    """csv.reader raises for a field over csv.field_size_limit() (131,072
    characters); these load as float() and str read them."""
    digits = "0." + "1" * 200_000
    company = "C" * 200_000
    path = write_panel(tmp_path, f"A,1990,1,niq,{digits}\n{company},1990,1,niq,2\n"
                                 f"A,1990,2,niq,{'9' * 40}\n")
    panel = load_panel(path, [simple_spec("niq")])
    assert panel.index.company_names() == ["A", "A", company]
    assert panel.columns["niq"].tolist() == [float(digits), float("9" * 40), 2.0]


@pytest.mark.parametrize("texts", [
    ["-nan", "-0.0", "5e-324", "1_000.5", " -1.5e3 ", "inf", "-Infinity", "1e400",
     "1" * 33],
    # the cast rejects these, so float() reads the block's values one by one
    ["1.5", "\u0661\u0662", "\u00a01.5", "-0.0"],
])
def test_values_read_as_float_reads_them(tmp_path, texts):
    body = "".join(f"A,{1990 + i},1,niq,{text}\n" for i, text in enumerate(texts))
    panel = load_panel(write_panel(tmp_path, body), [simple_spec("niq")])
    assert panel.columns["niq"].tobytes() == \
        np.array([float(text) for text in texts]).tobytes()


def test_error_order_across_blocks(tmp_path):
    """The earliest error in the file is raised when its rows lie in
    different blocks."""
    good = "".join(f"A,{1990 + i},1,niq,1\n" for i in range(40))
    cases = [
        (good + "A,1990,1,niq,2\n" + good.replace("A,", "B,") + "B,1,1,niq,x\n",
         "^row 42: duplicate cell"),
        (good + "A,2100,1,niq,x\n" + good, "^row 42: bad value 'x'"),
        (good + "A,2100,1,niq\n" + "A,1990,1,niq,2\n", "^row 42: expected 5 fields"),
    ]
    rows = "".join(f"A,{1990 + i},1,1,2,3\n" for i in range(40))
    consensus_cases = [
        (rows + "A,1990,1,4,5,6\n", "^row 42: duplicate key at A,1990Q1$"),
        (rows + "A,2100,1,x,5,6\n" + rows, "^row 42: bad value 'x'"),
        # a row is keyed before its values are read
        (rows + "A,1990,1,4,x,6\n", "^row 42: duplicate key"),
    ]
    consensus = tmp_path / "consensus.csv"
    for block_bytes in (16, 100, 1 << 18):
        for body, message in cases:
            path = write_panel(tmp_path, body)
            with mock.patch.object(panel_ingest, "_BLOCK_BYTES", block_bytes):
                with pytest.raises(PanelError, match=message):
                    load_panel(path, [simple_spec("niq")])
        for body, message in consensus_cases:
            consensus.write_text(",".join(CONSENSUS_HEADER) + "\n" + body)
            with mock.patch.object(panel_ingest, "_BLOCK_BYTES", block_bytes):
                with pytest.raises(PanelError, match=message):
                    load_consensus(consensus)


def test_consensus_reads_the_same_dialect(tmp_path):
    path = tmp_path / "consensus.csv"
    path.write_bytes(b"company_id,year,quarter,consensus_mean,consensus_median,"
                     b"actual_nongaap\r\n\"B\",1990,1,1,\"2\",\r\n"
                     b"A,1990,1,-0.0,5e-324,1_0\r\n")
    table = load_consensus(path)
    assert table.index.company_names() == ["A", "B"]
    assert table.columns["consensus_mean"].tobytes() == np.array([-0.0, 1.0]).tobytes()
    np.testing.assert_array_equal(table.columns["actual_nongaap"], [10.0, np.nan])


def memory_panel(path, companies: int = 200) -> list:
    """A fixed panel of 40 quarters and 12 variables, a quarter of the cells
    empty; at 200 companies, 96,000 cells (3.2 MB). Returns its schema."""
    rng = np.random.default_rng(20)
    schema = [simple_spec(f"v{j:02d}") for j in range(12)]
    columns = {}
    for spec in schema:
        grid = rng.normal(size=(companies, 40))
        grid[rng.random((companies, 40)) < 0.25] = np.nan
        columns[spec.name] = grid
    panel = grid_panel([f"C{i:04d}" for i in range(companies)],
                       quarter_range(1990, 1, 40), columns)
    save_panel(panel, path, schema=schema)
    return schema


# The tracemalloc peak of load_panel on memory_panel when it read the file
# with csv.reader, one row at a time: 9,470,978 bytes (the largest of three
# runs, Python 3.11.7 and numpy 2.4.6 on x86-64 Linux). Reading in blocks
# keeps the reader's own memory bounded, so the peak stays at or below it.
ROW_READER_PEAK = 9_470_978


def test_load_panel_peak_memory(tmp_path):
    path = tmp_path / "panel.csv"
    schema = memory_panel(path)
    tracemalloc.start()
    try:
        load_panel(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ROW_READER_PEAK


def test_load_panel_peak_grows_by_the_panel_it_returns(tmp_path):
    """load_panel holds the wide table and one block, not every cell of the
    file: from 200 to 800 companies its tracemalloc peak grows by at most 5
    bytes per byte of returned columns. Holding each cell in long-format
    arrays until the end of the file grew it by 11.3."""
    peaks, sizes = [], []
    for companies in (200, 800):
        path = tmp_path / f"panel{companies}.csv"
        schema = memory_panel(path, companies)
        tracemalloc.start()
        try:
            panel = load_panel(path, schema)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(sum(col.nbytes for col in panel.columns.values()))
    assert peaks[1] - peaks[0] <= 5 * (sizes[1] - sizes[0])
