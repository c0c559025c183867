import numpy as np
import pytest

from fundcast.errors import InvalidSpecError
from conftest import keys_of
from fundcast.panel_ingest import (
    RawPanel,
    load_panel,
    load_schema,
    save_panel,
)
from fundcast.synthgen import (
    SignalSpec,
    default_schema,
    generate_consensus_rows,
    generate_panel,
    write_schema_csv,
)


def small_spec(**kw):
    base = dict(n_companies=15, n_quarters=30, seed=9)
    base.update(kw)
    return SignalSpec(**base)


class TestSpecValidation:
    def test_too_few_quarters(self):
        with pytest.raises(InvalidSpecError):
            small_spec(n_quarters=10).validate()

    def test_mismatched_coefficients(self):
        with pytest.raises(InvalidSpecError):
            small_spec(driver_variables=("a", "b"),
                       coefficients=(1.0,)).validate()

    def test_missing_rate_bounds(self):
        with pytest.raises(InvalidSpecError):
            small_spec(missing_rate=1.5).validate()

    @pytest.mark.parametrize("field", ["noise_sd", "seasonality_amplitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=f"{field} must be finite"):
            small_spec(**{field: value}).validate()


class TestGeneratePanel:
    def test_noiseless_target_recoverable_from_drivers(self):
        spec = small_spec(noise_sd=0.0, missing_rate=0.0,
                          seasonality_amplitude=0.0)
        panel, truth = generate_panel(spec)
        runs = panel.index.runs()
        atq = panel.columns["atq"]
        # regressors: per-driver one-quarter change scaled by current assets
        cols = []
        for name in spec.driver_variables:
            col = panel.columns[name]
            prev = np.full_like(col, np.nan)
            for s, e in runs:
                prev[s + 1:e] = col[s:e - 1]
            cols.append((col - prev) / atq)
        x = np.column_stack(cols)
        ok = ~np.isnan(truth) & ~np.isnan(x).any(axis=1)
        beta, *_ = np.linalg.lstsq(x[ok], truth[ok], rcond=None)
        resid = truth[ok] - x[ok] @ beta
        ss_res = float(np.sum(resid ** 2))
        ss_tot = float(np.sum((truth[ok] - truth[ok].mean()) ** 2))
        assert 1.0 - ss_res / ss_tot > 1.0 - 1e-10

    def test_noiseless_realized_target_equals_truth(self):
        spec = small_spec(noise_sd=0.0, missing_rate=0.0)
        panel, truth = generate_panel(spec)
        from fundcast.feature_forge import relative_change_targets
        realized = relative_change_targets(
            panel.index, panel.columns["niq"], panel.columns["niq"],
            panel.columns["atq"], "qoq")
        ok = ~np.isnan(truth)
        np.testing.assert_allclose(realized[ok], truth[ok], atol=1e-10)

    def test_same_seed_identical_panels(self):
        a, ta = generate_panel(small_spec())
        b, tb = generate_panel(small_spec())
        assert keys_of(a.index) == keys_of(b.index)
        for name in a.columns:
            np.testing.assert_array_equal(a.columns[name], b.columns[name])
        np.testing.assert_array_equal(ta, tb)

    def test_different_seed_differs(self):
        a, _ = generate_panel(small_spec(seed=1))
        b, _ = generate_panel(small_spec(seed=2))
        assert not np.array_equal(a.columns["niq"], b.columns["niq"])

    def test_missing_rate_realized_within_tolerance(self):
        spec = small_spec(missing_rate=0.3, n_companies=60, n_quarters=40)
        panel, _ = generate_panel(spec)
        for name in spec.driver_variables + ("aux_capex",):
            frac = np.isnan(panel.columns[name]).mean()
            assert frac == pytest.approx(0.3, abs=0.05)

    def test_crucial_variables_never_missing(self):
        spec = small_spec(missing_rate=0.3)
        panel, _ = generate_panel(spec)
        for name in ("atq", "ltq", "seqq", "cheq", "revtq", "niq"):
            assert not np.isnan(panel.columns[name]).any()

    def test_seasonality_exact_period_four(self):
        spec = small_spec(coefficients=(0.0, 0.0, 0.0), noise_sd=0.0,
                          seasonality_amplitude=1.0, missing_rate=0.0)
        panel, truth = generate_panel(spec)
        series = truth[:spec.n_quarters - 1]  # first company

        def autocorr(x, lag):
            x = x - x.mean()
            return float(np.sum(x[lag:] * x[:-lag]) / np.sum(x * x))

        assert autocorr(series, 4) > autocorr(series, 1)
        assert autocorr(series, 4) > 0.5

    def test_panel_passes_validation_and_roundtrip(self, tmp_path):
        spec = small_spec(missing_rate=0.1)
        panel, _ = generate_panel(spec)
        assert isinstance(panel, RawPanel)
        schema = default_schema(spec)
        path = tmp_path / "panel.csv"
        save_panel(panel, path, schema=schema)
        back = load_panel(path, schema)
        assert keys_of(back.index) == keys_of(panel.index)
        for name in panel.columns:
            np.testing.assert_array_equal(back.columns[name],
                                          panel.columns[name])

    def test_schema_csv_matches_default_schema(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "schema.csv"
        write_schema_csv(spec, path)
        assert load_schema(path) == default_schema(spec)

    def test_negative_excursions_present(self):
        panel, _ = generate_panel(small_spec(n_companies=40, n_quarters=60))
        assert (panel.columns["drv_backlog"] < 0).any() or \
               (panel.columns["aux_capex"] < 0).any()


class TestConsensus:
    def test_perfect_skill_reproduces_actuals(self):
        panel, _ = generate_panel(small_spec(noise_sd=0.2))
        rows = generate_consensus_rows(panel, skill=1.0)
        for _, _, _, mean_est, median_est, actual in rows:
            assert mean_est == pytest.approx(actual)
            assert median_est == pytest.approx(actual)

    def test_rows_cover_panel_keys(self):
        panel, _ = generate_panel(small_spec())
        rows = generate_consensus_rows(panel)
        assert len(rows) == panel.n_rows
