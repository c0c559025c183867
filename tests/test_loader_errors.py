"""Every PanelError of load_panel and load_consensus names its CSV row.

Row numbers count the header as row 1 and every record after it, blank
lines included. Each bad row below sits after a good row and two blank
lines, so it is row 5.
"""

import pytest

from conftest import simple_spec
from fundcast.errors import PanelError
from fundcast.panel_ingest import PANEL_HEADER, load_panel
from fundcast.rollcast import CONSENSUS_HEADER, load_consensus

SCHEMA = [simple_spec("niq"), simple_spec("atq", "balance")]
GOOD_PANEL_ROW = "A,1990,1,niq,1.5"
GOOD_CONSENSUS_ROW = "A,1990,1,1.0,1.0,1.0"


def write(tmp_path, header, good_row, bad_row):
    path = tmp_path / "data.csv"
    path.write_text(",".join(header) + "\n" + good_row + "\n\n\n" + bad_row + "\n")
    return path


@pytest.mark.parametrize("bad_row, message", [
    ("A,1990,2,niq", "expected 5 fields"),
    ("A,1990,2,niq,1.0,extra", "expected 5 fields"),
    ("A,19x0,2,niq,1.0", "malformed quarter"),
    ("A,1990,5,niq,1.0", "malformed quarter"),
    ("A,1990,0,niq,1.0", "malformed quarter"),
    ("A,1990,2,meta_colour,red", "unknown meta attribute"),
    ("A,1990,2,xyzzy,1.0", "unknown variable"),
    ("A,1990,2,niq,abc", "bad value"),
    ("A,1990,1,niq,2.5", "duplicate cell"),
])
def test_panel_error_names_row(tmp_path, bad_row, message):
    path = write(tmp_path, PANEL_HEADER, GOOD_PANEL_ROW, bad_row)
    with pytest.raises(PanelError, match=f"^row 5: {message}"):
        load_panel(path, SCHEMA)


@pytest.mark.parametrize("bad_row, message", [
    ("A,1990,2,1.0,1.0", "expected 6 fields"),
    ("A,1990,2,1.0,1.0,1.0,1.0", "expected 6 fields"),
    ("A,19x0,2,1.0,1.0,1.0", "malformed quarter"),
    ("A,1990,5,1.0,1.0,1.0", "malformed quarter"),
    ("A,1990,1,2.0,2.0,2.0", "duplicate"),
])
def test_consensus_error_names_row(tmp_path, bad_row, message):
    path = write(tmp_path, CONSENSUS_HEADER, GOOD_CONSENSUS_ROW, bad_row)
    with pytest.raises(PanelError, match=f"^row 5: {message}"):
        load_consensus(path)


@pytest.mark.parametrize("loader", ["panel", "consensus"])
def test_empty_file_and_bad_header(tmp_path, loader):
    def load(path):
        return load_panel(path, SCHEMA) if loader == "panel" else load_consensus(path)

    path = tmp_path / "data.csv"
    path.write_text("")
    with pytest.raises(PanelError, match="empty"):
        load(path)
    path.write_text("company,year\nA,1990\n")
    with pytest.raises(PanelError, match="header"):
        load(path)
