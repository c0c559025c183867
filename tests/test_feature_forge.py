import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    grid_panel,
    index_from_keys,
    keys_of,
    quarter_range,
    reference_build_lags,
    reference_correlation_dedupe,
    reference_fill_column_runs,
    reference_pooled_fill_period,
    simple_spec,
    single_company_fill_period,
)
from fundcast.errors import (
    DimensionMismatchError,
    MissingDenominatorError,
    PanelError,
)
from fundcast.feature_forge import (
    CONSTANT_FILL,
    FeatureColumnMeta,
    FeatureMatrix,
    _fill_gaps,
    _pooled_fill_period,
    build_labels,
    build_lags,
    clip_outliers,
    convert_formats,
    correlation_dedupe_inputs,
    cut_classes,
    impute,
    quantile_rank_classes,
    relative_change_targets,
)
from fundcast.panel_ingest import (
    CalendarQuarter,
    Format,
    RawPanel,
    shift_forward_aligned,
)


def brute_fill_period(series, max_p=20):
    """Independent exhaustive oracle for the fill-period choice."""
    vals = [v for v in series if not np.isnan(v)]
    best_p, best_mse = None, None
    for p in range(1, max_p + 1):
        errs = []
        for i in range(1, len(vals)):
            window = vals[max(0, i - p):i]
            errs.append((vals[i] - np.mean(window)) ** 2)
        mse = np.mean(errs)
        if best_mse is None or mse < best_mse:
            best_p, best_mse = p, mse
    return best_p


def one_company_panel(columns, n=None, extra_specs=()):
    n = n or len(next(iter(columns.values())))
    quarters = quarter_range(1990, 1, n)
    grids = {name: [list(vals)] for name, vals in columns.items()}
    return grid_panel(["A"], quarters, grids)


class TestConvertFormats:
    def test_qoq_growth_example(self):
        panel = one_company_panel({"niq": [100.0, 110.0]})
        m = convert_formats(panel, [simple_spec("niq", formats=(Format.QOQ,))])
        assert np.isnan(m.values[0, 0])
        assert m.values[1, 0] == pytest.approx(0.10)

    def test_yoy_no_change_is_zero(self):
        panel = one_company_panel({"niq": [7.0, 1.0, 2.0, 3.0, 7.0]})
        m = convert_formats(panel, [simple_spec("niq", formats=(Format.YOY,))])
        assert m.values[4, 0] == 0.0

    def test_pct_assets_zero_numerator(self):
        panel = one_company_panel({"niq": [0.0], "atq": [500.0]})
        schema = [simple_spec("niq", formats=(Format.PCT_ASSETS,)),
                  simple_spec("atq", "balance", formats=(Format.RAW,))]
        m = convert_formats(panel, schema)
        assert m.values[0, 0] == 0.0

    def test_minus_one_formula_variant_shifts_by_one(self):
        panel = one_company_panel({"niq": [100.0, 110.0]})
        schema = [simple_spec("niq", formats=(Format.QOQ,))]
        std = convert_formats(panel, schema)
        alt = convert_formats(panel, schema, formula_variant="minus_one")
        assert alt.values[1, 0] == pytest.approx(std.values[1, 0] - 1.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_raw_value_names_variable_company_and_quarter(self,
                                                                   value):
        quarters = quarter_range(1990, 1, 3)
        panel = grid_panel(["C00001", "C00002"], quarters, {
            "niq": [[1.0, 2.0, 3.0], [4.0, value, value]],
            "atq": [[1.0, value, 3.0], [4.0, 5.0, 6.0]]})
        schema = [simple_spec("niq", formats=(Format.QOQ,)),
                  simple_spec("atq", "balance", formats=(Format.RAW,))]
        with pytest.raises(PanelError, match=(
                f"^raw variable 'atq' is {value} at C00001 1990Q2; raw "
                "values must be finite or missing$")):
            convert_formats(panel, schema)

    def test_infinite_aligned_value_names_the_quarter_it_was_stored_at(self):
        panel = one_company_panel({"mkt_excess_ret": [0.1, 0.2, -np.inf]})
        spec = simple_spec("mkt_excess_ret", "market", formats=(Format.RAW,),
                           aligned=True)
        with pytest.raises(PanelError, match=(
                r"^raw variable 'mkt_excess_ret' is -inf at A 1990Q2 \(the "
                r"1990Q3 value of a next-quarter-aligned variable\); ")):
            convert_formats(shift_forward_aligned(panel, [spec]), [spec])

    def test_infinite_value_of_converted_formats_only_passes(self):
        # clip_outliers caps converted columns, so their inputs may be inf
        panel = one_company_panel({"niq": [1.0, np.inf, 3.0]})
        m = convert_formats(panel, [simple_spec(
            "niq", formats=(Format.QOQ, Format.YOY))])
        qoq = [meta.format for meta in m.metas].index(Format.QOQ)
        assert np.isposinf(m.values[1, qoq])

    def test_negative_inputs_clamped_to_zero(self):
        # prev -10 clamps to 0: positive numerator over zero denominator -> +inf
        panel = one_company_panel({"niq": [-10.0, 5.0, -2.0]})
        m = convert_formats(panel, [simple_spec("niq", formats=(Format.QOQ,))])
        assert np.isposinf(m.values[1, 0])
        # cur -2 clamps to 0 against prev 5 -> (0 - 5) / 5 = -1
        assert m.values[2, 0] == pytest.approx(-1.0)
        assert not m.origin_positive[1, 0]
        assert not m.origin_positive[2, 0]

    def test_negative_numerator_pct_format_clamps(self):
        panel = one_company_panel({"niq": [-3.0], "atq": [100.0]})
        schema = [simple_spec("niq", formats=(Format.PCT_ASSETS,)),
                  simple_spec("atq", "balance", formats=(Format.RAW,))]
        m = convert_formats(panel, schema)
        assert m.values[0, 0] == 0.0  # ln(0/100 + 1)

    def test_missing_propagates(self):
        panel = one_company_panel({"niq": [np.nan, 110.0, 120.0]})
        m = convert_formats(panel, [simple_spec("niq", formats=(Format.QOQ,))])
        assert np.isnan(m.values[1, 0])
        assert not np.isnan(m.values[2, 0])

    def test_quarter_gap_breaks_lookback(self):
        quarters = [q for i, q in enumerate(quarter_range(1990, 1, 4)) if i != 2]
        panel = grid_panel(["A"], quarters, {"niq": [[10.0, 11.0, 12.0]]})
        m = convert_formats(panel, [simple_spec("niq", formats=(Format.QOQ,))])
        # 1990Q4 has no 1990Q3 row
        assert np.isnan(m.values[2, 0])
        assert m.values[1, 0] == pytest.approx(0.1)

    def test_missing_denominator_error(self):
        panel = one_company_panel({"niq": [1.0]})
        with pytest.raises(MissingDenominatorError):
            convert_formats(panel, [simple_spec("niq", formats=(Format.PCT_ASSETS,))])

    def test_raw_passthrough_not_clamped(self):
        panel = one_company_panel({"niq": [-4.0, 2.0]})
        m = convert_formats(panel, [simple_spec("niq", formats=(Format.RAW,))])
        np.testing.assert_array_equal(m.values[:, 0], [-4.0, 2.0])

    def test_qoq_of_positive_series_is_ratio_minus_one(self, rng):
        vals = rng.lognormal(0, 0.5, size=30)
        panel = one_company_panel({"niq": vals.tolist()})
        m = convert_formats(panel, [simple_spec("niq", formats=(Format.QOQ,))])
        expect = vals[1:] / vals[:-1] - 1.0
        np.testing.assert_allclose(m.values[1:, 0], expect, rtol=1e-12)


def hand_matrix(values, fmt=Format.QOQ, origin=None):
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    metas = [FeatureColumnMeta("x", fmt)]
    keys = [("A", q) for q in quarter_range(1990, 1, len(values))]
    origin_arr = None
    if origin is not None:
        origin_arr = np.asarray(origin, dtype=bool).reshape(-1, 1)
    return FeatureMatrix(index_from_keys(keys), values, metas, origin_positive=origin_arr)


class TestClipOutliers:
    def test_origin_mask_dropped_crucial_mask_kept(self):
        m = hand_matrix([0.1, 0.2, 50.0], origin=[True, True, False])
        m.crucial_missing = np.zeros(3, dtype=bool)
        out = clip_outliers(m, 0.95)
        assert out.origin_positive is None
        assert out.crucial_missing is m.crucial_missing

    def test_cap_from_positive_origin_subset(self):
        m = hand_matrix([0.1, 0.2, 50.0], origin=[True, True, False])
        out = clip_outliers(m, 0.95)
        np.testing.assert_allclose(out.values[:, 0], [0.1, 0.2, 0.2])
        assert out.metas[0].cap == pytest.approx(0.2)

    def test_all_missing_column_unchanged(self):
        m = hand_matrix([np.nan, np.nan], origin=[False, False])
        out = clip_outliers(m, 0.95)
        assert np.isnan(out.values).all()
        assert out.metas[0].cap is None

    def test_no_value_above_cap_unchanged(self):
        m = hand_matrix([0.1, 0.2, 0.15], origin=[True, True, True])
        out = clip_outliers(m, 0.95)
        np.testing.assert_array_equal(out.values[:, 0], [0.1, 0.2, 0.15])

    def test_idempotent(self, rng):
        vals = rng.lognormal(0, 2.0, size=40)
        m = hand_matrix(vals, origin=[True] * 40)
        once = clip_outliers(m, 0.95)
        twice = clip_outliers(once, 0.95)
        np.testing.assert_array_equal(once.values, twice.values)
        assert once.metas[0].cap == twice.metas[0].cap

    def test_raw_columns_untouched(self):
        m = hand_matrix([1.0, 100.0, 10000.0], fmt=Format.RAW,
                        origin=[True, True, True])
        out = clip_outliers(m, 0.5)
        np.testing.assert_array_equal(out.values[:, 0], [1.0, 100.0, 10000.0])

    def test_fit_rows_caps_apply_everywhere(self):
        m = hand_matrix([0.1, 0.2, 9.0, 7.0], origin=[True] * 4)
        out = clip_outliers(m, 0.95, fit_rows=np.array([0, 1]))
        # cap fitted on rows {0.1, 0.2} applies to rows 2 and 3 as well
        np.testing.assert_allclose(out.values[:, 0], [0.1, 0.2, 0.2, 0.2])

    def test_infinite_division_blowup_capped(self):
        m = hand_matrix([0.3, np.inf, 0.1], origin=[True, False, True])
        out = clip_outliers(m, 0.95)
        assert out.values[1, 0] == out.metas[0].cap


def select_fill_period(series):
    return single_company_fill_period(series)[0]


class TestSelectFillPeriod:
    def test_constant_series_ties_to_one(self):
        assert select_fill_period(np.array([5.0, 5.0, 5.0, 5.0])) == 1

    def test_seasonal_flow_series_picks_four(self):
        rng = np.random.default_rng(3)
        t = np.arange(48)
        series = (0.15 * t + 3.0 * np.array([0, 1, 0, -1])[t % 4]
                  + rng.normal(0, 0.8, 48))
        assert select_fill_period(series) == 4
        assert brute_fill_period(series) == 4

    def test_random_walk_prefers_forward_fill(self):
        rng = np.random.default_rng(11)
        series = np.cumsum(rng.normal(0, 1, 60))
        assert select_fill_period(series) == 1
        assert brute_fill_period(series) == 1

    def test_oracle_equivalence_seeded(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            series = rng.normal(0, 1, n) + np.linspace(0, rng.uniform(0, 3), n)
            if rng.random() < 0.5:
                series[rng.random(n) < 0.2] = np.nan
            if np.sum(~np.isnan(series)) < 2:
                continue
            assert select_fill_period(series) == brute_fill_period(series)

    def test_insufficient_data(self):
        # one present value gives no residual: forward fill, nothing audited
        assert single_company_fill_period(
            np.array([1.0, np.nan, np.nan])) == (1, None)

    def test_residual_count_same_for_every_p(self):
        series = np.array([5.0, 5.0, 5.0, 5.0])
        _, res = single_company_fill_period(series, max_p=20)
        assert res.shape == (20,)
        np.testing.assert_array_equal(res, np.zeros(20))


@st.composite
def fill_columns(draw):
    """(column, company codes, fit mask) over a few companies: missing runs
    of any length, all-missing and single-value companies, and fit masks
    from all-False up."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(("runs", "missing", "single")),
                              min_size=1, max_size=12)):
        n = draw(st.integers(1, 40))
        part = rng.normal(size=n) * draw(st.sampled_from((1e-3, 1.0, 1e6)))
        if kind == "runs":
            # a two-state chain, so missing cells come in runs
            stay = draw(st.floats(0.0, 0.95))
            missing = rng.random() < 0.3
            for t in range(n):
                if rng.random() > stay:
                    missing = not missing
                if missing:
                    part[t] = np.nan
        else:
            keep = rng.integers(n)
            part[np.arange(n) != keep] = np.nan
            if kind == "missing":
                part[keep] = np.nan
        parts.append(part)
    column = np.concatenate(parts)
    company = np.repeat(2 * np.arange(len(parts)), [len(p) for p in parts])
    fit_mask = rng.random(len(column)) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    return column, company, fit_mask


class TestFillMatchesPerCompanyLoops:
    @settings(max_examples=150, deadline=None)
    @given(data=fill_columns(), max_p=st.integers(1, 20),
           horizon_cap=st.integers(0, 8))
    def test_same_bytes_as_reference(self, data, max_p, horizon_cap):
        column, company, fit_mask = data
        cut = (np.flatnonzero(np.diff(company)) + 1).tolist()
        runs = list(zip([0] + cut, cut + [len(company)]))

        p, mse = _pooled_fill_period(column, company, fit_mask, max_p)
        ref_p, ref_mse = reference_pooled_fill_period(column, runs, fit_mask,
                                                      max_p)
        assert p == ref_p
        assert (mse is None) == (ref_mse is None)
        if mse is not None:
            assert mse.tobytes() == ref_mse.tobytes()

        filled, ref_filled = column.copy(), column.copy()
        count = _fill_gaps(filled, company, p, horizon_cap)
        ref_count = sum(reference_fill_column_runs(ref_filled[a:b], p,
                                                   horizon_cap)
                        for a, b in runs)
        assert count == ref_count
        assert filled.tobytes() == ref_filled.tobytes()

    @pytest.mark.parametrize("max_p", [1, 2, 20])
    def test_many_long_companies_same_residual_bytes(self, rng, max_p):
        # enough companies and residuals per company that pairwise and
        # sequential sums differ in the last bit
        company = np.repeat(np.arange(40), 60)
        column = rng.normal(size=len(company)) * np.repeat(
            10.0 ** rng.uniform(-3, 3, 40), 60)
        column[rng.random(len(company)) < 0.2] = np.nan
        fit_mask = rng.random(len(company)) < 0.8
        runs = [(60 * c, 60 * c + 60) for c in range(40)]
        p, mse = _pooled_fill_period(column, company, fit_mask, max_p)
        ref_p, ref_mse = reference_pooled_fill_period(column, runs, fit_mask,
                                                      max_p)
        assert p == ref_p
        assert mse.tobytes() == ref_mse.tobytes()


def panel_matrix(columns, specs, n=None):
    panel = one_company_panel(columns, n=n)
    return convert_formats(panel, specs), panel


class TestImpute:
    def _matrix(self, col, fmt=Format.PCT_ASSETS, n_extra_rows=0):
        values = np.asarray(col, dtype=np.float64).reshape(-1, 1)
        metas = [FeatureColumnMeta("x", fmt)]
        keys = [("A", q) for q in quarter_range(1990, 1, len(col))]
        return FeatureMatrix(index_from_keys(keys), values, metas)

    def test_column_over_70pct_missing_deleted(self):
        col = [1.0] * 29 + [np.nan] * 71
        m = self._matrix(col)
        out, report = impute(m, look_back=1)
        assert out.n_cols == 0
        assert report.deleted_columns == ["x_pct_assets"]

    def test_column_at_70pct_missing_kept(self):
        col = [1.0] * 30 + [np.nan] * 70
        m = self._matrix(col)
        out, report = impute(m, look_back=1)
        assert out.n_cols == 1
        assert report.deleted_columns == []

    def test_leading_run_filled_with_forward_fill(self):
        m = self._matrix([3.0, np.nan, np.nan, 4.0])
        out, report = impute(m, look_back=1)
        np.testing.assert_array_equal(out.values[:, 0], [3.0, 3.0, 3.0, 4.0])
        assert report.chosen_p["x_pct_assets"] == 1
        assert report.relevant_filled == 2

    def test_long_gap_capped_at_horizon(self):
        col = [3.0] * 4 + [np.nan] * 10 + [5.0] * 4
        m = self._matrix(col)
        out, report = impute(m, look_back=1, horizon_cap=8)
        filled = out.values[4:14, 0]
        np.testing.assert_array_equal(filled[:8], [3.0] * 8)
        np.testing.assert_array_equal(filled[8:], [CONSTANT_FILL] * 2)
        assert report.relevant_filled == 8
        assert report.constant_filled == 2

    def test_rolling_mean_uses_filled_values(self):
        m = self._matrix([1.0, 2.0, np.nan, np.nan])
        out, _ = impute(m, look_back=1, max_p=2)
        # chosen p here is 2 (smaller residual than p=1 on [1, 2])?
        # p=1 residual: (2-1)^2 = 1; p=2 residual: same single residual -> tie -> 1
        np.testing.assert_array_equal(out.values[:, 0], [1.0, 2.0, 2.0, 2.0])

    def test_no_missing_markers_after_impute(self, rng):
        col = rng.normal(size=50)
        col[rng.random(50) < 0.4] = np.nan
        m = self._matrix(col.tolist())
        out, _ = impute(m, look_back=1)
        assert not np.isnan(out.values).any()

    def test_non_pct_columns_only_constant_filled(self):
        values = np.array([[1.0], [np.nan], [2.0]])
        metas = [FeatureColumnMeta("x", Format.QOQ)]
        keys = [("A", q) for q in quarter_range(1990, 1, 3)]
        out, report = impute(FeatureMatrix(index_from_keys(keys), values, metas), look_back=1)
        assert out.values[1, 0] == CONSTANT_FILL
        assert report.relevant_filled == 0

    def test_crucial_lookback_row_deletion(self):
        specs = [simple_spec("niq", formats=(Format.RAW,), crucial=True)]
        col = [1.0, np.nan, 3.0, 4.0, 5.0]
        m, _ = panel_matrix({"niq": col}, specs)
        out, report = impute(m, look_back=2)
        # rows 0 (no lookback), 1 (missing), 2 (lookback hits missing) deleted
        kept_quarters = [q.quarter for _, q in keys_of(out.index)]
        assert kept_quarters == [4, 1]
        assert report.deleted_rows == 3

    def test_crucial_lookback_counts_missing_quarters(self):
        specs = [simple_spec("niq", formats=(Format.RAW,), crucial=True)]
        quarters = [q for i, q in enumerate(quarter_range(1990, 1, 5)) if i != 2]
        panel = grid_panel(["A", "B"], quarters, {"niq": np.ones((2, 4))})
        out, report = impute(convert_formats(panel, specs), look_back=2)
        # 1990Q4 lacks a 1990Q3 row; each company's first row has no look-back
        assert [(c, str(q)) for c, q in keys_of(out.index)] == [
            ("A", "1990Q2"), ("A", "1991Q1"), ("B", "1990Q2"), ("B", "1991Q1")]
        assert report.deleted_rows == 4

    def test_fit_rows_restrict_deletion_rate(self):
        col = [np.nan] * 8 + [1.0] * 2
        m = self._matrix(col)
        # fit on the all-missing prefix: rate 100% -> deleted
        out, _ = impute(m, look_back=1, fit_rows=np.arange(8))
        assert out.n_cols == 0
        # fit on the present suffix: rate 0 -> kept
        out2, _ = impute(m, look_back=1, fit_rows=np.arange(8, 10))
        assert out2.n_cols == 1

    @pytest.mark.parametrize("kwargs", [{"look_back": 0}, {"max_p": 0},
                                        {"horizon_cap": -1}])
    def test_out_of_range_settings_rejected(self, kwargs):
        # look_back 0 would delete no row and horizon_cap -1 fill no cell
        m = self._matrix([1.0, np.nan, 2.0])
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            impute(m, **{"look_back": 1, **kwargs})


CRUCIAL_QUARTERS = quarter_range(1990, 1, 12)


@st.composite
def crucial_panels(draw):
    """(panel, schema) over up to three companies, each stored at a random
    set of quarters (so with gaps), with missing cells and random crucial
    flags, none crucial included."""
    schema = [simple_spec(f"v{j}", crucial=draw(st.booleans()))
              for j in range(draw(st.integers(1, 3)))]
    keys = []
    for company in ("A", "B", "C")[:draw(st.integers(1, 3))]:
        stored = draw(st.lists(st.sampled_from(CRUCIAL_QUARTERS), min_size=1,
                               unique=True))
        keys += [(company, q) for q in sorted(stored)]
    columns = {spec.name: [np.nan if draw(st.integers(0, 4)) == 0 else 1.0
                           for _ in keys] for spec in schema}
    panel = RawPanel(index_from_keys(keys),
                     {name: np.array(col) for name, col in columns.items()})
    return panel, schema


def crucial_rule_oracle(panel, schema, look_back):
    """(company_id, CalendarQuarter) of each row the crucial rule keeps:
    its company has, in each of the look_back quarters ending at the row, a
    stored row with every crucial variable present. Without a crucial
    variable the rule does not run and every row stays."""
    crucial = [spec.name for spec in schema if spec.crucial]
    keys = keys_of(panel.index)
    if not crucial:
        return keys
    complete = {key for i, key in enumerate(keys)
                if not any(np.isnan(panel.columns[name][i]) for name in crucial)}
    return [(c, q) for c, q in keys
            if all((c, CalendarQuarter.from_index(q.index - k)) in complete
                   for k in range(look_back))]


class TestCrucialRule:
    @settings(max_examples=200, deadline=None)
    @given(data=crucial_panels(), look_back=st.integers(1, 4),
           last=st.sampled_from(CRUCIAL_QUARTERS))
    def test_keeps_rows_with_complete_look_back(self, data, look_back, last):
        panel, schema = data
        expected = crucial_rule_oracle(panel, schema, look_back)
        m = convert_formats(panel, schema)
        assert (m.crucial_missing is None) == \
            (not any(spec.crucial for spec in schema))
        out, report = impute(m, look_back=look_back)
        assert keys_of(out.index) == expected
        assert report.deleted_rows == panel.n_rows - len(expected)
        assert out.crucial_missing is None
        # run_subset imputes the rows up to its test quarter
        cut, _ = impute(m.take_rows(m.index.quarter <= last.index),
                        look_back=look_back)
        assert keys_of(cut.index) == [(c, q) for c, q in expected if q <= last]


def scan_margin(x, cutoff):
    """Smallest distance, over the greedy scan of x's columns, between a
    column's largest |r| against the kept columns and the cutoff, or
    between a dropped column's two largest |r|. Within a few ulps of either,
    the last bits of r decide, and those depend on the order of the sums."""
    sd = x.std(axis=0)
    varies = (sd > 0) & ~(x == x[:1]).all(axis=0)
    z = np.where(varies, (x - x.mean(axis=0)) / np.where(varies, sd, 1.0), 0.0)
    corr = np.abs(z.T @ z / len(x))
    margin = np.inf
    kept = []
    for j in range(x.shape[1]):
        if kept:
            r = np.sort(corr[kept, j])[::-1]
            margin = min(margin, abs(r[0] - cutoff))
            if r[0] > cutoff:
                if len(r) > 1:
                    margin = min(margin, r[0] - r[1])
                continue
        kept.append(j)
    return margin


@st.composite
def dedupe_cases(draw):
    """Columns built from earlier ones (duplicated, negated, scaled, or at
    r = cutoff +- delta on the fit rows), fresh normal and constant (also
    all-NaN, and constant on the fit rows only) columns, random fit rows and
    a cutoff in (0, 1]."""
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fit = draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), min_size=3,
                                             max_size=n, unique=True)))
    rows = np.arange(n) if fit is None else np.sort(np.array(fit))
    cutoff = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    kinds = draw(st.lists(st.sampled_from(
        ("normal", "constant", "duplicate", "negated", "scaled", "near")),
        min_size=1, max_size=12))
    cols = []
    for kind in kinds:
        if kind == "normal" or (kind != "constant" and not cols):
            cols.append(rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3))
            continue
        if kind == "constant":
            # NaN has no std either: such a column is constant too. 0.1,
            # 0.7 and 1/3 repeated can leave rounding in the std.
            col = np.full(n, draw(st.sampled_from(
                (0.0, 0.1, 0.7, 1 / 3, -2.6, np.nan))))
            if draw(st.booleans()):
                rest = np.setdiff1d(np.arange(n), rows)
                col[rest] = rng.normal(size=len(rest))
            cols.append(col)
            continue
        base = cols[draw(st.integers(0, len(cols) - 1))]
        if kind == "duplicate":
            cols.append(base.copy())
        elif kind == "negated":
            cols.append(-base)
        elif kind == "scaled":
            cols.append(base * rng.uniform(0.01, 100) + rng.normal())
        else:
            # base's fit-row direction mixed with an orthogonal one at the
            # angle whose cosine is cutoff +- delta
            e = base[rows] - base[rows].mean()
            u = rng.normal(size=n)
            u_fit = u[rows] - u[rows].mean()
            if not (e @ e > 0) or (e == e[0]).all():
                cols.append(u)
                continue
            u_fit -= (u_fit @ e) / (e @ e) * e
            delta = draw(st.floats(1e-7, 1e-3)) * draw(st.sampled_from((-1, 1)))
            r = cutoff + delta if cutoff + delta < 1 else cutoff - abs(delta)
            col = rng.normal(size=n)
            col[rows] = (r * e / np.linalg.norm(e)
                         + np.sqrt(1 - r * r) * u_fit / np.linalg.norm(u_fit))
            cols.append(col)
    return np.column_stack(cols), fit, cutoff


class TestCorrelationDedupe:
    @staticmethod
    def _metas(d):
        return [FeatureColumnMeta(f"v{i}", Format.RAW) for i in range(d)]

    def _dedupe(self, cols, cutoff=0.9, fit_rows=None):
        """The filter on the fit rows (default: all) of the given columns,
        passed as the block it owns."""
        values = np.column_stack(cols)
        rows = np.arange(len(values)) if fit_rows is None else fit_rows
        return correlation_dedupe_inputs(values[rows], self._metas(values.shape[1]),
                                         cutoff)

    def test_duplicate_column_dropped(self, rng):
        x = rng.normal(size=30)
        out = self._dedupe([x, x.copy()])
        assert out.kept.tolist() == [0]
        assert out.dedupe_pairs[0][0] == "v1_raw"
        assert out.dedupe_pairs[0][2] == pytest.approx(1.0)

    def test_independent_columns_kept(self, rng):
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.9
        out = self._dedupe([x, y])
        assert len(out.kept) == 2

    def test_near_duplicate_dropped(self, rng):
        x = rng.normal(size=100)
        y = 0.99 * x + rng.normal(0, 1e-3, size=100)
        assert abs(np.corrcoef(x, y)[0, 1]) > 0.9
        out = self._dedupe([x, y])
        assert len(out.kept) == 1

    def test_kept_pairs_all_below_cutoff(self, rng):
        base = rng.normal(size=(120, 4))
        cols = [base[:, 0], base[:, 1], base[:, 0] * 0.995 + 0.01 * base[:, 2],
                base[:, 2], base[:, 3], -base[:, 1] + 0.001 * base[:, 0]]
        out = self._dedupe(cols)
        corr = np.corrcoef(np.column_stack(cols)[:, out.kept].T)
        off = corr[~np.eye(len(out.kept), dtype=bool)]
        assert (np.abs(off) <= 0.9).all()

    def test_constant_column_kept(self, rng):
        x = rng.normal(size=30)
        out = self._dedupe([x, np.full(30, 2.0)])
        assert len(out.kept) == 2

    @pytest.mark.parametrize("n_fit", [30, 20])
    def test_repeated_inexact_value_counts_as_constant(self, rng, n_fit):
        # 0.1 repeated on the fit rows has a std of a few 1e-17, not 0:
        # standardised, the column would read -1 on every fit row and pair
        # with the 0.7 one. Rows outside the fit rows do not count.
        x, y = rng.normal(size=(2, 30))
        a, b = np.full(30, 0.1), np.full(30, 0.7)
        a[n_fit:], b[n_fit:] = rng.normal(size=(2, 30 - n_fit))
        assert a[:n_fit].std() > 0
        out = self._dedupe([x, y, a, b], fit_rows=np.arange(n_fit))
        assert len(out.kept) == 4
        assert out.dedupe_pairs == []

    def test_first_kept_partner_wins_a_tie(self):
        # a and b are uncorrelated, and a + b has the same r with each, to
        # the bit: every product and sum is the same
        a = np.array([1.0, 1.0, -1.0, -1.0])
        b = np.array([1.0, -1.0, 1.0, -1.0])
        out = self._dedupe([a, b, a + b], 0.5)
        assert [p[:2] for p in out.dedupe_pairs] == [("v2_raw", "v0_raw")]
        assert out.dedupe_pairs[0][2] == pytest.approx(np.sqrt(0.5))

    def test_peak_memory_below_one_and_a_half_fit_blocks(self, rng):
        # the block the filter owns (copied inside the trace) plus the
        # constant-column mask; column_std leaves no temporary of the
        # block's size, and the d x d correlations are small beside it
        values = rng.normal(size=(4000, 200))
        metas = self._metas(200)
        tracemalloc.start()
        try:
            out = correlation_dedupe_inputs(values.copy(), metas, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.kept) == 200
        assert peak < 1.5 * values.nbytes

    @settings(max_examples=300, deadline=None)
    @given(case=dedupe_cases())
    def test_matches_column_by_column_reference(self, case):
        values, fit, cutoff = case
        rows = np.arange(len(values)) if fit is None else np.array(fit)
        assume(scan_margin(values[rows], cutoff) > 1e-9)
        metas = self._metas(values.shape[1])

        out = correlation_dedupe_inputs(values[rows], metas, cutoff)
        ref = reference_correlation_dedupe(values[rows], metas, cutoff)
        assert out.kept.tolist() == ref.kept.tolist()
        assert [p[:2] for p in out.dedupe_pairs] == \
            [p[:2] for p in ref.dedupe_pairs]
        for (_, _, r), (_, _, ref_r) in zip(out.dedupe_pairs, ref.dedupe_pairs):
            assert abs(r - ref_r) <= 1e-12


class TestBuildLags:
    def _matrix(self, n_lag_bases, n_flat, n_quarters, n_companies=1):
        rng = np.random.default_rng(5)
        cols = []
        metas = []
        for i in range(n_lag_bases):
            metas.append(FeatureColumnMeta(f"f{i}", Format.YOY, expand_lags=True))
        for i in range(n_flat):
            metas.append(FeatureColumnMeta(f"m{i}", Format.RAW, expand_lags=False))
        keys = [(f"C{c}", q) for c in range(n_companies)
                for q in quarter_range(1990, 1, n_quarters)]
        values = rng.normal(size=(len(keys), n_lag_bases + n_flat))
        return FeatureMatrix(index_from_keys(keys), values, metas)

    def test_reference_schema_column_count(self):
        m = self._matrix(154, 11, 25)
        out = build_lags(m, 20)
        assert out.n_cols == 154 * 20 + 11 == 3091
        assert out.n_rows == 25 - 19
        assert out.gather(m.values).shape == (6, 3091)

    def test_single_lag_is_identity_with_no_trim(self):
        m = self._matrix(3, 2, 8)
        out = build_lags(m, 1)
        assert out.n_rows == m.n_rows
        np.testing.assert_array_equal(out.gather(m.values)[:, :3],
                                      m.values[:, :3])

    def test_company_short_of_history_emits_no_rows(self):
        m = self._matrix(2, 0, 19)
        out = build_lags(m, 20)
        assert out.n_rows == 0

    def test_lag_values_come_from_earlier_quarters(self):
        values = np.arange(6, dtype=float).reshape(-1, 1)
        metas = [FeatureColumnMeta("f", Format.YOY, expand_lags=True)]
        keys = [("A", q) for q in quarter_range(1990, 1, 6)]
        out = build_lags(FeatureMatrix(index_from_keys(keys), values, metas), 3)
        assert out.n_rows == 4
        lagged = out.gather(values)
        np.testing.assert_array_equal(lagged[0], [2.0, 1.0, 0.0])
        np.testing.assert_array_equal(lagged[3], [5.0, 4.0, 3.0])
        assert [m.lag for m in out.metas] == [0, 1, 2]

    def test_lags_never_cross_companies(self):
        m = self._matrix(1, 0, 4, n_companies=2)
        out = build_lags(m, 2)
        assert [c for c, _ in keys_of(out.index)] == ["C0"] * 3 + ["C1"] * 3
        np.testing.assert_array_equal(out.gather(m.values)[3],
                                      [m.values[5, 0], m.values[4, 0]])

    def test_gather_refuses_values_of_another_shape(self):
        m = self._matrix(2, 1, 6)
        plan = build_lags(m, 3)
        with pytest.raises(DimensionMismatchError, match=r"\(6, 3\).*\(6, 2\)"):
            plan.gather(m.values[:, :2])

    def test_quarter_gap_drops_incomplete_rows(self):
        quarters = [q for i, q in enumerate(quarter_range(1990, 1, 6)) if i != 2]
        values = np.arange(5, dtype=float).reshape(-1, 1)
        metas = [FeatureColumnMeta("f", Format.YOY, expand_lags=True)]
        keys = [("A", q) for q in quarters]
        out = build_lags(FeatureMatrix(index_from_keys(keys), values, metas), 2)
        out_quarters = [str(q) for _, q in keys_of(out.index)]
        # 1990Q4 lacks 1990Q3; 1991Q1 and 1991Q2 have their immediate priors
        assert out_quarters == ["1990Q2", "1991Q1", "1991Q2"]


@st.composite
def lag_cases(draw):
    """A lag-0 matrix of one to four companies, each on its own quarters
    out of twelve (gaps anywhere), with lag-flagged and flat (macro)
    columns holding normals, NaN and -0.0, and n_lags in 1..6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = []
    for c in range(draw(st.integers(1, 4))):
        gaps = draw(st.sets(st.integers(0, 11), max_size=4))
        keys += [(f"C{c}", q) for i, q in enumerate(quarter_range(1990, 1, 12))
                 if i not in gaps]
    n_lagged = draw(st.integers(0, 3))
    n_flat = draw(st.integers(0 if n_lagged else 1, 2))
    metas = ([FeatureColumnMeta(f"f{i}", Format.YOY, expand_lags=True)
              for i in range(n_lagged)]
             + [FeatureColumnMeta(f"m{i}", Format.RAW, expand_lags=False)
                for i in range(n_flat)])
    values = rng.normal(size=(len(keys), len(metas)))
    values[rng.random(values.shape) < 0.1] = np.nan
    values[rng.random(values.shape) < 0.1] = -0.0
    return (FeatureMatrix(index_from_keys(keys), values, metas),
            draw(st.integers(1, 6)))


class TestLagGatherOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=lag_cases(), data=st.data())
    def test_gathered_blocks_equal_the_written_out_lags(self, case, data):
        m, n_lags = case
        plan = build_lags(m, n_lags)
        ref = reference_build_lags(m, n_lags)
        assert plan.index.key.tolist() == ref.index.key.tolist()
        assert plan.metas == ref.metas
        assert [meta.name for meta in plan.metas] == \
            [meta.name for meta in ref.metas]
        assert plan.n_cols == ref.n_cols and plan.n_rows == ref.n_rows
        assert plan.gather(m.values).tobytes() == ref.values.tobytes()

        rows = np.array(data.draw(st.lists(st.integers(0, max(ref.n_rows - 1, 0)),
                                           max_size=ref.n_rows * 2)
                                  if ref.n_rows else st.just([])), dtype=np.int64)
        cols = np.array(data.draw(st.lists(st.integers(0, ref.n_cols - 1),
                                           max_size=ref.n_cols * 2)),
                        dtype=np.int64)
        block = plan.gather(m.values, rows, cols)
        assert block.shape == (len(rows), len(cols))
        assert block.tobytes() == ref.values[np.ix_(rows, cols)].tobytes()


class TestBuildLabels:
    def _panel(self, ni_grid, atq_grid=None, companies=None):
        companies = companies or [f"C{i}" for i in range(len(ni_grid))]
        n = len(ni_grid[0])
        atq_grid = atq_grid or [[10.0] * n for _ in companies]
        return grid_panel(companies, quarter_range(2000, 1, n),
                          {"niq": ni_grid, "atq": atq_grid})

    def test_rank_order_three_targets(self):
        # targets for Q1 across three companies: -5, 0, 9 (assets 10)
        panel = self._panel([[0.0, -50.0], [0.0, 0.0], [0.0, 90.0]])
        labels = build_labels(panel, "qoq", 3)
        q1 = [labels[i] for i, (_, q) in enumerate(keys_of(panel.index))
              if q.quarter == 1]
        assert q1 == [0.0, 1.0, 2.0]

    def test_sign_scheme_zero_is_class_zero(self):
        panel = self._panel([[5.0, 5.0]])
        labels = build_labels(panel, "qoq", 2, "sign")
        assert labels[0] == 0.0

    def test_sign_scheme_increase_is_one(self):
        panel = self._panel([[5.0, 6.0]])
        labels = build_labels(panel, "qoq", 2, "sign")
        assert labels[0] == 1.0

    def test_nine_samples_three_per_class(self, rng):
        ni = np.column_stack([np.zeros(9), rng.permutation(9.0 * np.arange(1, 10))])
        panel = self._panel(ni.tolist())
        labels = build_labels(panel, "qoq", 3)
        first = [labels[i] for i, (_, q) in enumerate(keys_of(panel.index))
                 if q.quarter == 1]
        assert sorted(first).count(0.0) == 3
        assert sorted(first).count(1.0) == 3
        assert sorted(first).count(2.0) == 3

    def test_missing_future_income_missing_label(self):
        panel = self._panel([[1.0, 2.0]])
        labels = build_labels(panel, "qoq", 3)
        assert np.isnan(labels[1])

    def test_qoq_target_formula(self):
        # (NI(T+1) - NI(T)) / assets(T) = (30 - 10) / 50
        panel = self._panel([[10.0, 30.0]], atq_grid=[[50.0, 999.0]])
        labels = build_labels(panel, "qoq", 2, "sign")
        assert labels[0] == 1.0
        # verify the target value itself through a rank cut of two companies
        panel2 = self._panel([[10.0, 30.0], [10.0, 20.0]],
                             atq_grid=[[50.0, 1.0], [50.0, 1.0]])
        labels2 = build_labels(panel2, "qoq", 3)
        q1 = [labels2[i] for i, (_, q) in enumerate(keys_of(panel2.index))
              if q.quarter == 1]
        assert q1[0] > q1[1]

    def test_yoy_target_window(self):
        # yoy target at T0: (sum NI(T1..T4) - sum NI(T-3..T0)) / assets(T0)
        ni = [[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 5.0]]
        panel = self._panel(ni)
        labels = build_labels(panel, "yoy", 2, "sign")
        # at index 3 (T0 = Q4): future sum 8, past sum 4 -> increase
        assert labels[3] == 1.0
        # at index 4: future = 2+2+2+5=11 vs past 1+1+1+2=5 -> increase
        assert labels[4] == 1.0
        # final four quarters lack the full future window
        assert np.isnan(labels[5])

    def test_quantile_monotone_and_balanced(self, rng):
        for _ in range(10):
            k = int(rng.integers(6, 40))
            targets = rng.normal(size=k)
            keys = [(f"C{i:04d}", quarter_range(2001, 1, 1)[0]) for i in range(k)]
            classes = quantile_rank_classes(index_from_keys(keys), targets, 3)
            counts = np.bincount(classes.astype(int), minlength=3)
            assert counts.max() - counts.min() <= 1
            order = np.argsort(targets)
            assert (np.diff(classes[order]) >= 0).all()

    def test_quantile_ties_break_on_company_id(self):
        q = quarter_range(2001, 1, 1)[0]
        keys = [(name, q) for name in ("A", "B", "C")]
        classes = quantile_rank_classes(index_from_keys(keys), np.zeros(3), 3)
        np.testing.assert_array_equal(classes, [0.0, 1.0, 2.0])

    def test_unknown_horizon_rejected(self):
        panel = self._panel([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        income, assets = panel.columns["niq"], panel.columns["atq"]
        with pytest.raises(ValueError, match="horizon .*'qoy'"):
            relative_change_targets(panel.index, income, income, assets, "qoy")

    @pytest.mark.parametrize("n_classes, scheme, message", [
        (4, "quantile_rank", "n_classes .*got 4"),
        (3, "signs", "scheme .*got 'signs'"),
        (3, "sign", "sign scheme requires n_classes=2")])
    def test_cut_classes_rejects_unknown_settings(self, n_classes, scheme,
                                                  message):
        keys = [("A", q) for q in quarter_range(2001, 1, 2)]
        with pytest.raises(ValueError, match=message):
            cut_classes(index_from_keys(keys), np.array([1.0, -1.0]),
                        n_classes, scheme)

    def test_labels_are_one_float_per_panel_row(self):
        panel = self._panel([[0.0, 5.0, 1.0], [0.0, -5.0, 2.0]])
        labels = build_labels(panel, "qoq", 2, "sign")
        assert labels.dtype == np.float64
        np.testing.assert_array_equal(labels, [1.0, 0.0, np.nan,
                                               0.0, 1.0, np.nan])

    def test_zero_assets_gives_missing(self):
        panel = self._panel([[1.0, 5.0]], atq_grid=[[0.0, 1.0]])
        labels = build_labels(panel, "qoq", 2, "sign")
        assert np.isnan(labels[0])

    def test_uniform_random_predictor_base_rate(self, rng):
        # quantile labels are balanced per quarter, so a random predictor
        # scores 1/n_classes up to binomial noise
        k, n_classes = 3000, 3
        targets = rng.normal(size=k)
        keys = [(f"C{i:04d}", quarter_range(2001, 1, 1)[0]) for i in range(k)]
        classes = quantile_rank_classes(index_from_keys(keys), targets, n_classes)
        guesses = rng.integers(0, n_classes, size=k)
        acc = (guesses == classes).mean()
        sigma = np.sqrt((1 / 3) * (2 / 3) / k)
        assert abs(acc - 1 / 3) < 5 * sigma


class TestLagCountClosedForm:
    def test_column_count_over_random_shapes(self, rng):
        for _ in range(10):
            n_lagged = int(rng.integers(0, 12))
            n_flat = int(rng.integers(0, 6))
            n_lags = int(rng.integers(1, 8))
            if n_lagged + n_flat == 0:
                continue
            metas = ([FeatureColumnMeta(f"f{i}", Format.YOY, expand_lags=True)
                      for i in range(n_lagged)]
                     + [FeatureColumnMeta(f"m{i}", Format.RAW, expand_lags=False)
                        for i in range(n_flat)])
            keys = [("A", q) for q in quarter_range(1990, 1, n_lags + 3)]
            values = rng.normal(size=(n_lags + 3, n_lagged + n_flat))
            out = build_lags(FeatureMatrix(index_from_keys(keys), values, metas), n_lags)
            assert out.n_cols == n_lagged * n_lags + n_flat
