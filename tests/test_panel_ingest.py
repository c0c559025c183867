import numpy as np
import pytest

from conftest import grid_panel, index_from_keys, keys_of, quarter_range, simple_spec
from fundcast.errors import PanelError, SchemaError
from fundcast.panel_ingest import (
    CalendarQuarter,
    CompanyMeta,
    FilterRules,
    Format,
    PanelIndex,
    RawPanel,
    StatementGroup,
    apply_sample_filters,
    load_panel,
    load_schema,
    save_panel,
    shift_forward_aligned,
)
from fundcast.rollcast import load_consensus

SCHEMA_HEADER = ("name,statement_group,yoy,qoq,pct_assets,pct_revenue,"
                 "crucial,next_quarter_aligned\n")


def write_schema(tmp_path, body: str):
    path = tmp_path / "schema.csv"
    path.write_text(SCHEMA_HEADER + body)
    return path


def write_panel(tmp_path, body: str):
    path = tmp_path / "panel.csv"
    path.write_text("company_id,year,quarter,variable,value\n" + body)
    return path


class TestCalendarQuarter:
    def test_ordering_and_arithmetic(self):
        a = CalendarQuarter(1998, 4)
        b = CalendarQuarter(1999, 1)
        assert a < b
        assert CalendarQuarter.from_index(a.index + 1) == b
        assert b.index - a.index == 1
        assert CalendarQuarter(2000, 1).index - a.index == 5

    def test_quarter_out_of_range_unrepresentable(self):
        with pytest.raises(ValueError):
            CalendarQuarter(2000, 5)
        with pytest.raises(ValueError):
            CalendarQuarter(2000, 0)

    def test_index_roundtrip(self):
        for q in quarter_range(1990, 1, 9):
            assert CalendarQuarter.from_index(q.index) == q


class TestPanelIndex:
    def _index(self):
        q = CalendarQuarter(2000, 1).index
        return PanelIndex(("A", "B"), [0, 0, 0, 1, 1], [q, q + 1, q + 3, q, q + 1])

    def test_rows_must_be_sorted_and_distinct(self):
        with pytest.raises(PanelError, match="duplicate key \\(A, 2000Q1\\)"):
            PanelIndex(("A",), [0, 0], [8000, 8000])
        with pytest.raises(PanelError, match="not sorted"):
            PanelIndex(("A", "B"), [1, 0], [8000, 8000])
        with pytest.raises(PanelError, match="not sorted"):
            PanelIndex(("A",), [0, 0], [8001, 8000])

    def test_names_codes_and_quarters_checked(self):
        with pytest.raises(PanelError, match="names"):
            PanelIndex(("B", "A"), [0], [8000])
        with pytest.raises(PanelError, match="code"):
            PanelIndex(("A",), [1], [8000])
        with pytest.raises(PanelError, match="quarter index"):
            PanelIndex(("A",), [0], [-1])

    def test_runs_and_names(self):
        index = self._index()
        assert index.runs() == [(0, 3), (3, 5)]
        assert index.company_names() == ["A", "A", "A", "B", "B"]
        assert index.take(np.array([1, 4])).company_names() == ["A", "B"]
        assert PanelIndex((), [], []).runs() == []

    def test_shifted_stays_within_company_and_calendar(self):
        index = self._index()
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        # A has 2000Q1, Q2, Q4; B has 2000Q1, Q2
        np.testing.assert_array_equal(index.shifted(values, 1),
                                      [np.nan, 1.0, np.nan, np.nan, 4.0])
        np.testing.assert_array_equal(index.shifted(values, -1),
                                      [2.0, np.nan, np.nan, 5.0, np.nan])
        np.testing.assert_array_equal(index.shifted(values, -2),
                                      [np.nan, 3.0, np.nan, np.nan, np.nan])

    def test_find_matches_company_ids_across_name_tables(self):
        index = self._index()
        other = PanelIndex(("B", "C"), [0, 1], [CalendarQuarter(2000, 2).index,
                                               CalendarQuarter(2000, 1).index])
        np.testing.assert_array_equal(index.find(other), [4, -1])
        np.testing.assert_array_equal(other.find(index), [-1, -1, -1, -1, 0])

    def test_negative_year_is_malformed(self, tmp_path):
        path = write_panel(tmp_path, "A,-1,1,niq,1\n")
        with pytest.raises(PanelError, match="row 2: malformed quarter"):
            load_panel(path, [simple_spec("niq")])


class TestLoadSchema:
    def test_revtq_row_gets_raw_and_crucial(self, tmp_path):
        path = write_schema(tmp_path, "revtq,income,1,1,0,0,1,0\n")
        (spec,) = load_schema(path)
        assert spec.formats == frozenset({Format.YOY, Format.QOQ, Format.RAW})
        assert spec.crucial
        assert spec.statement_group is StatementGroup.INCOME

    def test_empty_after_header(self, tmp_path):
        assert load_schema(write_schema(tmp_path, "")) == []

    def test_duplicate_name_rejected(self, tmp_path):
        path = write_schema(tmp_path, "niq,income,1,0,0,0,1,0\n"
                                      "niq,income,0,1,0,0,0,0\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_schema(path)

    def test_flagless_variable_is_raw_passthrough(self, tmp_path):
        path = write_schema(tmp_path, "rate_m3,macro,0,0,0,0,0,1\n")
        (spec,) = load_schema(path)
        assert spec.formats == frozenset({Format.RAW})
        assert spec.next_quarter_aligned

    def test_aligned_financial_rejected(self, tmp_path):
        path = write_schema(tmp_path, "niq,income,1,0,0,0,1,1\n")
        with pytest.raises(SchemaError, match="macro/market"):
            load_schema(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "schema.csv"
        path.write_text("nope,really\nniq,income,1,0,0,0,1,0\n")
        with pytest.raises(SchemaError, match="header"):
            load_schema(path)

    def test_bad_group_names_row(self, tmp_path):
        path = write_schema(tmp_path, "niq,fantasy,1,0,0,0,1,0\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_schema(path)

    def test_meta_prefix_forbidden(self, tmp_path):
        path = write_schema(tmp_path, "meta_x,income,1,0,0,0,0,0\n")
        with pytest.raises(SchemaError, match="meta_"):
            load_schema(path)


class TestLoadPanel:
    def test_one_company_two_quarters(self, tmp_path):
        schema = [simple_spec("niq")]
        path = write_panel(tmp_path, "A,1990,1,niq,1.5\nA,1990,2,niq,2.5\n")
        panel = load_panel(path, schema)
        assert keys_of(panel.index) == [("A", CalendarQuarter(1990, 1)),
                                        ("A", CalendarQuarter(1990, 2))]
        assert panel.columns["niq"].tolist() == [1.5, 2.5]

    def test_empty_value_is_missing_not_zero(self, tmp_path):
        schema = [simple_spec("niq")]
        path = write_panel(tmp_path, "A,1990,1,niq,\nA,1990,2,niq,0\n")
        panel = load_panel(path, schema)
        assert np.isnan(panel.columns["niq"][0])
        assert panel.columns["niq"][1] == 0.0

    def test_unknown_variable_rejected(self, tmp_path):
        schema = [simple_spec("niq")]
        path = write_panel(tmp_path, "A,1990,1,xyzzy,1\n")
        with pytest.raises(PanelError, match="xyzzy"):
            load_panel(path, schema)

    def test_malformed_quarter_rejected(self, tmp_path):
        schema = [simple_spec("niq")]
        path = write_panel(tmp_path, "A,1990,5,niq,1\n")
        with pytest.raises(PanelError, match="malformed quarter"):
            load_panel(path, schema)

    def test_meta_rows_populate_company_meta(self, tmp_path):
        schema = [simple_spec("niq")]
        path = write_panel(
            tmp_path,
            "A,1990,1,meta_sector_code,55\n"
            "A,1990,1,meta_min_share_price,0.75\n"
            "A,1990,1,meta_fiscal_alignment_flag,1\n"
            "A,1990,1,niq,3.0\n")
        panel = load_panel(path, schema)
        assert panel.meta["A"].sector_code == 55
        assert panel.meta["A"].min_share_price == 0.75
        assert panel.meta["A"].fiscal_alignment_flag is True
        assert panel.meta["A"].reporting_gap_flag is None

    def test_duplicate_cell_rejected(self, tmp_path):
        schema = [simple_spec("niq")]
        path = write_panel(tmp_path, "A,1990,1,niq,1\nA,1990,1,niq,2\n")
        with pytest.raises(PanelError, match="duplicate"):
            load_panel(path, schema)


class TestLoadPanelErrorOrder:
    """The error raised is the one on the earliest row of the file."""

    def test_first_of_two_duplicates_named(self, tmp_path):
        path = write_panel(tmp_path, "A,1990,1,niq,1\nB,1990,1,niq,1\n"
                                     "B,1990,1,niq,2\nA,1990,1,niq,2\n")
        with pytest.raises(PanelError, match="^row 4: duplicate cell for 'niq' at B,1990Q1"):
            load_panel(path, [simple_spec("niq")])

    def test_duplicate_before_later_bad_row(self, tmp_path):
        path = write_panel(tmp_path, "A,1990,1,niq,1\nA,1990,1,niq,2\n"
                                     "A,1990,2,niq,oops\n")
        with pytest.raises(PanelError, match="^row 3: duplicate"):
            load_panel(path, [simple_spec("niq")])

    def test_consensus_duplicate_before_its_bad_value(self, tmp_path):
        path = tmp_path / "consensus.csv"
        path.write_text("company_id,year,quarter,consensus_mean,consensus_median,"
                        "actual_nongaap\nA,1990,1,1,1,1\nA,1990,1,oops,1,1\n")
        with pytest.raises(PanelError, match="^row 3: duplicate key"):
            load_consensus(path)

    def test_bad_value_before_later_duplicate(self, tmp_path):
        path = write_panel(tmp_path, "A,1990,1,niq,1\nA,1990,2,niq,oops\n"
                                     "A,1990,1,niq,2\n")
        with pytest.raises(PanelError, match="^row 3: bad value 'oops'"):
            load_panel(path, [simple_spec("niq")])

    def test_conflicting_meta_before_later_bad_value(self, tmp_path):
        path = write_panel(tmp_path, "A,1990,1,meta_sector_code,20\n"
                                     "A,1990,2,meta_sector_code,55\n"
                                     "A,1990,1,niq,oops\n")
        with pytest.raises(PanelError, match="^row 3: conflicting meta_sector_code"):
            load_panel(path, [simple_spec("niq")])

    def test_malformed_quarter_named_before_unknown_variable(self, tmp_path):
        path = write_panel(tmp_path, "A,1990,1,niq,1\nA,1990,5,xyzzy,1\n")
        with pytest.raises(PanelError, match="^row 3: malformed quarter '1990','5'"):
            load_panel(path, [simple_spec("niq")])

    @pytest.mark.parametrize("body, message", [
        ("A,1990,1,1,1,1\nA,1990,2,1,oops,1\nA,1990,1,1,1,1\n", "^row 3: bad value 'oops'"),
        ("A,1990,1,1,1,1\nA,1990,5,oops,1,1\n", "^row 3: malformed quarter '1990','5'"),
        ("A,1990,1,1,1,1\nA,1990,2,1,1,oops\nA,1990,2,x,1,1\n", "^row 3: bad value 'oops'"),
    ])
    def test_consensus_first_error_in_file_order(self, tmp_path, body, message):
        path = tmp_path / "consensus.csv"
        path.write_text("company_id,year,quarter,consensus_mean,consensus_median,"
                        "actual_nongaap\n" + body)
        with pytest.raises(PanelError, match=message):
            load_consensus(path)


def _meta(sector=10, price=5.0, fiscal=True, gap=False):
    return CompanyMeta(sector_code=sector, min_share_price=price,
                       fiscal_alignment_flag=fiscal, reporting_gap_flag=gap)


class TestSampleFilters:
    def _panel(self, metas):
        quarters = quarter_range(1990, 1, 3)
        companies = sorted(metas)
        grid = np.arange(len(companies) * 3, dtype=float).reshape(len(companies), 3)
        return grid_panel(companies, quarters, {"niq": grid}, meta=metas)

    def test_utility_sector_removed(self):
        panel = self._panel({"A": _meta(sector=55), "B": _meta()})
        out = apply_sample_filters(panel, FilterRules())
        assert set(out.index.company_names()) == {"B"}

    def test_subdollar_share_price_removed(self):
        panel = self._panel({"A": _meta(price=0.50), "B": _meta()})
        out = apply_sample_filters(panel, FilterRules())
        assert set(out.index.company_names()) == {"B"}

    def test_passing_company_retained_unchanged(self):
        panel = self._panel({"A": _meta(), "B": _meta()})
        out = apply_sample_filters(panel, FilterRules())
        assert keys_of(out.index) == keys_of(panel.index)
        np.testing.assert_array_equal(out.columns["niq"], panel.columns["niq"])

    def test_absent_meta_passes(self):
        panel = self._panel({"A": CompanyMeta(), "B": _meta()})
        out = apply_sample_filters(panel, FilterRules())
        assert set(out.index.company_names()) == {"A", "B"}

    def test_fiscal_and_gap_rules(self):
        panel = self._panel({"A": _meta(fiscal=False), "B": _meta(gap=True),
                             "C": _meta()})
        out = apply_sample_filters(panel, FilterRules())
        assert set(out.index.company_names()) == {"C"}

    def test_empty_company_id_removed(self):
        quarters = quarter_range(1990, 1, 2)
        panel = grid_panel(["", "B"], quarters,
                           {"niq": [[1.0, 2.0], [3.0, 4.0]]},
                           meta={"": CompanyMeta(), "B": CompanyMeta()})
        out = apply_sample_filters(panel, FilterRules())
        assert set(out.index.company_names()) == {"B"}

    def test_idempotent(self, rng):
        for _ in range(10):
            metas = {f"C{i}": _meta(sector=int(rng.choice([10, 40, 55])),
                                    price=float(rng.uniform(0.2, 3.0)))
                     for i in range(6)}
            panel = self._panel(metas)
            once = apply_sample_filters(panel, FilterRules())
            twice = apply_sample_filters(once, FilterRules())
            assert keys_of(once.index) == keys_of(twice.index)


class TestShiftForwardAligned:
    def _schema(self):
        return [simple_spec("rate", "macro", aligned=True),
                simple_spec("niq", "income")]

    def test_series_shifts_back_one(self):
        quarters = quarter_range(1990, 1, 3)
        panel = grid_panel(["A"], quarters, {"rate": [[1.0, 2.0, 3.0]],
                                             "niq": [[7.0, 8.0, 9.0]]})
        out = shift_forward_aligned(panel, self._schema())
        np.testing.assert_array_equal(out.columns["rate"][:2], [2.0, 3.0])
        assert np.isnan(out.columns["rate"][2])

    def test_gap_shifts_by_calendar_quarter(self):
        keys = [("A", CalendarQuarter(2000, 1)), ("A", CalendarQuarter(2000, 2)),
                ("A", CalendarQuarter(2001, 1))]
        panel = RawPanel(index_from_keys(keys), {"rate": np.array([1.0, 2.0, 3.0]),
                                "niq": np.array([7.0, 8.0, 9.0])})
        out = shift_forward_aligned(panel, self._schema())
        # 2000Q3 has no row, so 2000Q2 must not take the 2001Q1 value
        np.testing.assert_array_equal(out.columns["rate"], [2.0, np.nan, np.nan])

    def test_unaligned_untouched(self):
        quarters = quarter_range(1990, 1, 3)
        panel = grid_panel(["A"], quarters, {"rate": [[1.0, 2.0, 3.0]],
                                             "niq": [[7.0, 8.0, 9.0]]})
        out = shift_forward_aligned(panel, self._schema())
        np.testing.assert_array_equal(out.columns["niq"], [7.0, 8.0, 9.0])

    def test_single_quarter_company_becomes_missing(self):
        panel = grid_panel(["A"], quarter_range(1990, 1, 1),
                           {"rate": [[4.0]], "niq": [[1.0]]})
        out = shift_forward_aligned(panel, self._schema())
        assert np.isnan(out.columns["rate"][0])

    def test_key_set_preserved_one_new_missing_per_company(self, rng):
        quarters = quarter_range(1990, 1, 6)
        companies = ["A", "B", "C"]
        grid = rng.normal(size=(3, 6))
        panel = grid_panel(companies, quarters,
                           {"rate": grid, "niq": rng.normal(size=(3, 6))})
        out = shift_forward_aligned(panel, self._schema())
        assert keys_of(out.index) == keys_of(panel.index)
        assert set(out.columns) == set(panel.columns)
        new_missing = np.isnan(out.columns["rate"]) & ~np.isnan(panel.columns["rate"])
        runs = panel.index.runs()
        assert new_missing.sum() == len(runs)
        for start, stop in runs:
            assert new_missing[stop - 1]


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, rng):
        schema = [simple_spec("niq", "income", (Format.YOY, Format.RAW), True),
                  simple_spec("atq", "balance", (Format.YOY,)),
                  simple_spec("rate", "macro", aligned=True)]
        for trial in range(5):
            quarters = quarter_range(1991, 2, 5)
            companies = [f"C{i}" for i in range(4)]
            cols = {}
            for spec in schema:
                grid = rng.normal(size=(4, 5))
                grid[rng.random(size=(4, 5)) < 0.25] = np.nan
                cols[spec.name] = grid
            metas = {c: CompanyMeta(sector_code=10, min_share_price=2.5,
                                    fiscal_alignment_flag=True,
                                    reporting_gap_flag=False)
                     for c in companies}
            panel = grid_panel(companies, quarters, cols, meta=metas)
            path = tmp_path / f"panel{trial}.csv"
            save_panel(panel, path, schema=schema)
            back = load_panel(path, schema)
            assert keys_of(back.index) == keys_of(panel.index)
            for name in panel.columns:
                np.testing.assert_array_equal(back.columns[name],
                                              panel.columns[name])
            assert back.meta == panel.meta


class TestStrictValues:
    """Meta and consensus cells either parse exactly or name their row."""

    @pytest.mark.parametrize("attribute, text", [
        ("fiscal_alignment_flag", "2"),
        ("fiscal_alignment_flag", "yes"),
        ("reporting_gap_flag", "yes"),
        ("reporting_gap_flag", "-1"),
        ("sector_code", "abc"),
        ("sector_code", "55.5"),
        ("min_share_price", "cheap"),
        ("min_share_price", "nan"),
    ])
    def test_bad_meta_value_names_row(self, tmp_path, attribute, text):
        path = write_panel(tmp_path, f"A,1990,1,niq,1.0\nA,1990,1,meta_{attribute},{text}\n")
        with pytest.raises(PanelError, match=f"^row 3: bad meta_{attribute}"):
            load_panel(path, [simple_spec("niq")])

    @pytest.mark.parametrize("text, expected", [
        ("1", True), ("0", False), ("true", True), ("False", False)])
    def test_flag_spellings(self, tmp_path, text, expected):
        path = write_panel(tmp_path, f"A,1990,1,meta_fiscal_alignment_flag,{text}\n"
                                     f"A,1990,1,meta_reporting_gap_flag,{text}\n"
                                     "A,1990,1,niq,1.0\n")
        meta = load_panel(path, [simple_spec("niq")]).meta["A"]
        assert meta.fiscal_alignment_flag is expected
        assert meta.reporting_gap_flag is expected

    def test_integral_sector_code_accepted(self, tmp_path):
        path = write_panel(tmp_path, "A,1990,1,meta_sector_code,55.0\nA,1990,1,niq,1\n")
        assert load_panel(path, [simple_spec("niq")]).meta["A"].sector_code == 55

    def test_conflicting_meta_rows_rejected(self, tmp_path):
        path = write_panel(tmp_path, "A,1990,1,meta_sector_code,20\n"
                                     "A,1990,2,meta_sector_code,20\n"
                                     "A,1990,3,meta_sector_code,55\n"
                                     "A,1990,1,niq,1\n")
        with pytest.raises(PanelError, match="^row 4: conflicting meta_sector_code"):
            load_panel(path, [simple_spec("niq")])

    def test_repeated_equal_meta_rows_accepted(self, tmp_path):
        path = write_panel(tmp_path, "A,1990,1,meta_min_share_price,2.5\n"
                                     "A,1990,2,meta_min_share_price,2.50\n"
                                     "A,1990,1,niq,1\n")
        assert load_panel(path, [simple_spec("niq")]).meta["A"].min_share_price == 2.5

    def test_bad_consensus_number_names_row(self, tmp_path):
        path = tmp_path / "consensus.csv"
        path.write_text("company_id,year,quarter,consensus_mean,consensus_median,"
                        "actual_nongaap\nA,1990,1,1.0,1.0,1.0\nA,1990,2,1.0,oops,1.0\n")
        with pytest.raises(PanelError, match="^row 3: bad value 'oops'"):
            load_consensus(path)
