"""Acceptance gate.

One test per criterion; each prints a `PASS criterion N` line with the
measured quantities (run with `pytest -s` to see the lines live). The
end-to-end scenario is shared by criteria 8 and 9 through a session fixture.
"""

import time

import numpy as np
import pytest

from conftest import (
    consensus_table,
    index_from_keys,
    level_wise_growth,
    quarter_range,
    single_company_fill_period,
    split_gain,
)
from fundcast import (
    boostwood,
    feature_forge,
    panel_ingest,
    rollcast,
    spectral_reduce,
    synthgen,
    tuner,
)
from fundcast.boostwood import HyperParams
from fundcast.cli import main as cli_main
from fundcast.errors import InsufficientHistoryError
from fundcast.feature_forge import FeatureColumnMeta, FeatureMatrix
from fundcast.panel_ingest import Format


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def align_signs(a, b):
    flip = np.sign(np.sum(a * b, axis=0))
    flip[flip == 0] = 1.0
    return b * flip


class TestCriterion1PcaCorrectness:
    def test_pca_against_brute_force_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1234)
        worst_eig = worst_load = worst_orth = worst_recon = worst_trace = 0.0
        for _ in range(20):
            m = int(rng.integers(60, 201))
            d = int(rng.integers(5, 51))
            x = rng.normal(size=(m, d)) @ rng.normal(size=(d, d))
            model, _ = spectral_reduce.fit_pca(x.copy(), 1.0)
            xc = x - x.mean(axis=0)
            cov = xc.T @ xc / m
            # independent solver: the SVD of the centred matrix, whose
            # singular values come in descending order; eigenvalues s^2/m
            _, so, vto = np.linalg.svd(xc, full_matrices=False)
            wo, vo = so ** 2 / m, vto.T
            eig_err = np.max(np.abs(model.eigenvalues - wo))
            load_err = np.max(np.abs(model.loadings
                                     - align_signs(model.loadings, vo)))
            orth_err = np.max(np.abs(model.loadings.T @ model.loadings
                                     - np.eye(d)))
            recon = (spectral_reduce.transform(model, x) @ model.loadings.T
                     + model.mean)
            recon_err = np.max(np.abs(recon - x))
            trace_err = abs(model.eigenvalues.sum() - np.trace(cov))
            worst_eig = max(worst_eig, eig_err)
            worst_load = max(worst_load, load_err)
            worst_orth = max(worst_orth, orth_err)
            worst_recon = max(worst_recon, recon_err)
            worst_trace = max(worst_trace, trace_err)
        elapsed = time.perf_counter() - t0
        assert worst_eig <= 1e-8
        assert worst_load <= 1e-8
        assert worst_orth <= 1e-10
        assert worst_recon <= 1e-8
        assert worst_trace <= 1e-8
        assert elapsed < 10.0
        report(1, f"20 matrices vs SVD: eigenvalues<={worst_eig:.2e}, "
                  f"loadings<={worst_load:.2e}, "
                  f"orth<={worst_orth:.2e}, recon<={worst_recon:.2e}, "
                  f"trace<={worst_trace:.2e}, {elapsed:.1f}s")


class TestCriterion2ExplainedVarianceSelection:
    def test_choose_components_matches_cumsum_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(100):
            d = int(rng.integers(1, 25))
            raw = np.sort(rng.uniform(0.01, 1.0, size=d))[::-1]
            ratios = raw / raw.sum()
            model = spectral_reduce.PcaModel(
                np.zeros(d), np.eye(d), ratios.copy(), ratios, kept=d)
            threshold = float(rng.uniform(0.05, 1.0))
            got = spectral_reduce.choose_components(model, threshold)
            cum, expect = 0.0, d
            for i, r in enumerate(ratios):
                cum += r
                if cum >= threshold - 1e-12:
                    expect = i + 1
                    break
            assert got == expect
            checked += 1
        # the two documented operating thresholds on correlated data
        x = rng.normal(size=(300, 30)) @ rng.normal(size=(30, 30))
        model, _ = spectral_reduce.fit_pca(x, 1.0)
        for threshold in (0.66, 0.75):
            kept = spectral_reduce.choose_components(model, threshold)
            assert 1 <= kept < 30
        report(2, f"{checked} random ratio vectors exact; "
                  f"thresholds 0.66/0.75 keep a strict subset")


def replay_losses(model, bm, y):
    scores = np.tile(model.base_score, (bm.n_rows, 1))
    losses = [boostwood.log_loss(scores, y)]
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            if tree is not None:
                scores[:, c] += tree.predict(bm.codes, model.miss_code)
        losses.append(boostwood.log_loss(scores, y))
    return losses


class TestCriterion3GbdtDescent:
    def test_training_loss_monotone_and_gradient_check(self):
        fixtures = [(0.1, 0.0, 0), (0.3, 0.0, 1), (0.5, 0.0, 2),
                    (0.8, 1.0, 3), (1.0, 1.0, 4)]
        for lr, l2, seed in fixtures:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(150, 4))
            logits = x @ rng.normal(size=(4, 3))
            y = np.argmax(logits + rng.normal(0, 1.0, logits.shape), axis=1)
            bm = boostwood.bin_features(x, max_bin=16)
            params = HyperParams(learning_rate=lr, lambda_l2=l2, num_leaves=8,
                                 min_data_in_leaf=5, n_rounds=100, seed=seed)
            model = boostwood.fit(bm, y, params)
            diffs = np.diff(replay_losses(model, bm, y))
            assert (diffs <= 1e-12).all(), f"ascent in fixture lr={lr}"

        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(20):
            scores = rng.normal(0, 2.0, size=(1, 3))
            y = np.array([int(rng.integers(0, 3))])
            p = boostwood.softmax(scores)[0]
            analytic = p.copy()
            analytic[y[0]] -= 1.0
            eps = 1e-6
            for c in range(3):
                up, down = scores.copy(), scores.copy()
                up[0, c] += eps
                down[0, c] -= eps
                fd = (boostwood.log_loss(up, y)
                      - boostwood.log_loss(down, y)) / (2 * eps)
                rel = abs(fd - analytic[c]) / max(abs(analytic[c]), 1e-8)
                worst = max(worst, rel)
        assert worst <= 1e-5
        report(3, f"5 fixtures non-increasing over 100 rounds; "
                  f"gradient reldiff<={worst:.2e} at 20 points")


def oracle_best_split(gs, hs, cnt, nb, params):
    width = gs.shape[1]
    g_tot, h_tot, c_tot = gs.sum(), hs.sum(), cnt.sum()
    best = None
    for t in range(nb - 1):
        for direction in (0, 1):
            gl = gs[0, :t + 1].sum()
            hl = hs[0, :t + 1].sum()
            cl = cnt[0, :t + 1].sum()
            if direction == 1:
                gl += gs[0, width - 1]
                hl += hs[0, width - 1]
                cl += cnt[0, width - 1]
            if cl < params.min_data_in_leaf or (c_tot - cl) < params.min_data_in_leaf:
                continue
            gain = split_gain((g_tot, h_tot), (gl, hl), params)
            if gain > params.min_gain_to_split and (best is None or gain > best[0]):
                best = (gain, t, direction == 1)
    return best


class TestCriterion4SplitOracle:
    def test_best_first_split_equals_exhaustive_enumeration(self):
        rng = np.random.default_rng(55)
        agreements = 0
        for _ in range(50):
            nb = int(rng.integers(2, 9))
            width = 10
            gs = np.zeros((1, width))
            hs = np.zeros((1, width))
            cnt = np.zeros((1, width), dtype=np.int64)
            gs[0, :nb] = rng.normal(0, 5, nb)
            hs[0, :nb] = rng.uniform(0.1, 3.0, nb)
            cnt[0, :nb] = rng.integers(1, 50, nb)
            if rng.random() < 0.5:
                gs[0, width - 1] = rng.normal(0, 2)
                hs[0, width - 1] = rng.uniform(0.1, 1.0)
                cnt[0, width - 1] = rng.integers(1, 20)
            params = HyperParams(
                min_data_in_leaf=int(rng.integers(1, 10)),
                min_gain_to_split=float(rng.uniform(0, 0.5)),
                lambda_l1=float(rng.choice([0.0, 0.5])),
                lambda_l2=float(rng.choice([0.0, 2.0])))
            totals = (gs.sum(), hs.sum(), int(cnt.sum()))
            got = boostwood._best_split(np.stack([gs, hs, cnt]), np.array([nb]),
                                        params, totals)
            want = oracle_best_split(gs, hs, cnt, nb, params)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == pytest.approx(want[0], rel=1e-12)
                assert (got[2], got[3]) == (want[1], want[2])
            agreements += 1
        report(4, f"{agreements}/50 single-feature problems match exactly")


class TestCriterion5LeafWiseDominance:
    def test_leaf_wise_no_worse_than_level_wise(self):
        margins = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(200, 5))
            y = ((x[:, 0] > 0).astype(int)
                 + (x[:, 1] * x[:, 2] > 0.2)).astype(np.int64)
            bm = boostwood.bin_features(x, max_bin=16)
            params = HyperParams(learning_rate=0.3, num_leaves=8,
                                 min_data_in_leaf=5, n_rounds=5, seed=seed)
            leaf = boostwood.fit(bm, y, params)
            with level_wise_growth():
                level = boostwood.fit(bm, y, params)
            loss_leaf = replay_losses(leaf, bm, y)[-1]
            loss_level = replay_losses(level, bm, y)[-1]
            assert loss_leaf <= loss_level + 1e-12
            margins.append(loss_level - loss_leaf)
        report(5, f"10 fixtures, leaf-wise better by up to {max(margins):.4f} "
                  f"log-loss at equal leaf budget")


def brute_fill_period(series, max_p=20):
    vals = [v for v in series if not np.isnan(v)]
    best_p, best_mse = None, None
    for p in range(1, max_p + 1):
        errs = [(vals[i] - np.mean(vals[max(0, i - p):i])) ** 2
                for i in range(1, len(vals))]
        mse = np.mean(errs)
        if best_mse is None or mse < best_mse:
            best_p, best_mse = p, mse
    return best_p


class TestCriterion6FillPeriodOracle:
    def test_select_fill_period_equals_brute_force(self):
        assert single_company_fill_period(np.array([5.0] * 4))[0] == 1
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 50:
            n = int(rng.integers(5, 60))
            kind = rng.integers(0, 3)
            if kind == 0:
                series = np.cumsum(rng.normal(0, 1, n))
            elif kind == 1:
                t = np.arange(n)
                series = (0.15 * t + 3.0 * np.array([0, 1, 0, -1])[t % 4]
                          + rng.normal(0, 0.8, n))
            else:
                series = rng.normal(0, 1, n)
            if rng.random() < 0.4:
                series[rng.random(n) < 0.2] = np.nan
            if np.sum(~np.isnan(series)) < 2:
                continue
            assert (single_company_fill_period(series)[0]
                    == brute_fill_period(series))
            checked += 1
        report(6, f"{checked}/50 fixtures match brute force; constant ties to p=1")


class TestCriterion7HarnessArithmetic:
    def test_subset_count_and_feature_count(self):
        quarters = quarter_range(1988, 1, 120)
        splits = rollcast.enumerate_subsets(quarters, 80)
        assert len(splits) == 40
        for a, b in zip(splits, splits[1:]):
            assert b.test_quarter.index == a.test_quarter.index + 1
        with pytest.raises(InsufficientHistoryError):
            rollcast.enumerate_subsets(quarter_range(1988, 1, 80), 80)

        rng = np.random.default_rng(0)
        metas = ([FeatureColumnMeta(f"f{i}", Format.YOY, expand_lags=True)
                  for i in range(154)]
                 + [FeatureColumnMeta(f"m{i}", Format.RAW, expand_lags=False)
                    for i in range(11)])
        keys = [("A", q) for q in quarter_range(1990, 1, 25)]
        matrix = FeatureMatrix(index_from_keys(keys), rng.normal(size=(25, 165)), metas)
        lagged = feature_forge.build_lags(matrix, 20)
        assert lagged.n_cols == 3091
        report(7, "120 quarters -> 40 advancing subsets; "
                  "154 lagged + 11 flat -> 3091 columns")


E2E_SPEC = synthgen.SignalSpec(n_companies=300, n_quarters=120, seed=42,
                               noise_sd=1.0, missing_rate=0.05)


@pytest.fixture(scope="session")
def e2e_run():
    """Full pipeline over the first 5 rolling subsets of the planted panel."""
    t0 = time.perf_counter()
    panel, _ = synthgen.generate_panel(E2E_SPEC)
    schema = synthgen.default_schema(E2E_SPEC)
    panel = panel_ingest.apply_sample_filters(panel, panel_ingest.FilterRules())
    panel = panel_ingest.shift_forward_aligned(panel, schema)
    features = feature_forge.convert_formats(panel, schema)
    labels = feature_forge.build_labels(panel, "qoq", 3, "quantile_rank")
    table = consensus_table({
        (row[0], panel_ingest.CalendarQuarter(row[1], row[2])): tuple(row[3:6])
        for row in synthgen.generate_consensus_rows(panel, seed=1)})
    config = rollcast.ExperimentConfig(
        n_lags=8, look_back=8, pca_threshold=0.75, standardize=True,
        validation_size=8, search_budget=4,
        search_space_overrides={
            "learning_rate": tuner.ParamRange(0.08, 0.3),
            "num_leaves": tuner.ParamRange(16, 63, "integer"),
            "min_data_in_leaf": tuner.ParamRange(50, 300, "integer"),
            "feature_fraction": tuner.ParamRange(0.7, 1.0),
        },
        # the parameters not searched, pinned at HyperParams' defaults
        # except max_bin
        gbdt_overrides={
            "max_bin": 63, "bagging_fraction": 1.0, "bagging_freq": 0,
            "min_gain_to_split": 0.0, "lambda_l1": 0.0, "lambda_l2": 0.0,
        },
        n_rounds=60, early_stopping=12, seed=17)
    consensus = rollcast.build_consensus_vectors(table, panel, config)
    splits = rollcast.enumerate_subsets(panel.quarters(), 80)[:5]
    results = [rollcast.run_subset(s, features, labels, config, consensus)
               for s in splits]
    elapsed = time.perf_counter() - t0
    return results, elapsed


class TestCriterion8EndToEndSignalRecovery:
    @pytest.mark.slow
    def test_pipeline_recovers_planted_signal(self, e2e_run):
        results, elapsed = e2e_run
        accs = [r.record["metrics"]["accuracy"] for r in results]
        mean_acc = float(np.mean(accs))
        assert mean_acc >= 0.45, f"mean accuracy {mean_acc:.3f} < 0.45"
        drivers_seen = set()
        for r in results:
            assert r.record["importance"] is not None
            for comp in r.record["importance"]["entries"]:
                for entry in comp:
                    for d in E2E_SPEC.driver_variables:
                        if entry["column"].startswith(d):
                            drivers_seen.add(d)
        assert drivers_seen, "no planted driver in the importance decomposition"
        assert elapsed < 300.0, f"runtime {elapsed:.0f}s >= 5 min"
        report(8, f"mean acc {mean_acc:.3f} over 5 subsets (chance 0.333), "
                  f"drivers {sorted(drivers_seen)} in decomposition, "
                  f"{elapsed:.0f}s")


class TestCriterion9ConditionalAccuracyAlgebra:
    @pytest.mark.slow
    def test_hand_table_and_decomposition_identity(self, e2e_run):
        model = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2, 0])
        cons = np.array([0, 1, 2, 0, 1, 2, 2, 0, 1, 0, 1, 2])
        actual = np.array([0, 1, 2, 0, 0, 1, 0, 1, 2, 0, 1, 2])
        m = rollcast.conditional_accuracy(model, cons, actual)
        assert m["n_converge"] == 6 and m["n_diverge"] == 6
        assert m["converge_model_acc"] == pytest.approx(4 / 6)
        assert m["diverge_model_acc"] == pytest.approx(3 / 6)
        assert m["diverge_consensus_acc"] == pytest.approx(3 / 6)
        assert m["accuracy"] == pytest.approx(7 / 12)

        results, _ = e2e_run
        for r in results:
            mb = r.record["metrics"]
            assert mb["consensus_available"]
            assert mb["n_converge"] + mb["n_diverge"] == mb["n_scored"]
            recomposed = (mb["n_converge"] * mb["converge_model_acc"]
                          + mb["n_diverge"] * mb["diverge_model_acc"]) \
                / mb["n_scored"]
            assert recomposed == pytest.approx(mb["accuracy"], abs=1e-12)
        report(9, "12-row hand table exact; decomposition identity holds "
                  "on all 5 backtest subsets")


class TestCriterion10Determinism:
    def test_backtest_reports_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "exp.cfg"
        config.write_text(f"""
paths.output_dir = {out}
paths.schema = {out}/schema.csv
paths.panel = {out}/panel.csv
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
seed = 3
""")
        assert cli_main(["synth", "--config", str(config)]) == 0
        assert cli_main(["backtest", "--config", str(config)]) == 0
        first = (out / "report.jsonl").read_bytes()
        assert cli_main(["backtest", "--config", str(config)]) == 0
        assert (out / "report.jsonl").read_bytes() == first
        report(10, f"two runs byte-identical ({len(first)} bytes)")


class TestCriterion11CleansingContracts:
    def test_impute_clip_dedupe_contracts(self):
        spec = synthgen.SignalSpec(n_companies=40, n_quarters=40, seed=6,
                                   missing_rate=0.15)
        panel, _ = synthgen.generate_panel(spec)
        schema = synthgen.default_schema(spec)
        panel = panel_ingest.shift_forward_aligned(panel, schema)
        m = feature_forge.convert_formats(panel, schema)
        clipped = feature_forge.clip_outliers(m, 0.95)
        for j, meta in enumerate(clipped.metas):
            if meta.cap is None:
                continue
            col = clipped.values[:, j]
            finite = np.isfinite(col)
            assert (col[finite] <= meta.cap + 1e-12).all()
        imputed, _ = feature_forge.impute(clipped, look_back=8)
        assert not np.isnan(imputed.values).any()
        plan = feature_forge.build_lags(imputed, 6)
        lagged = plan.gather(imputed.values)
        kept = feature_forge.correlation_dedupe_inputs(
            lagged.copy(), plan.metas, 0.9).kept
        corr = np.corrcoef(lagged[:, kept].T)
        off = corr[~np.eye(len(kept), dtype=bool)]
        off = off[~np.isnan(off)]
        assert (np.abs(off) <= 0.9 + 1e-12).all()
        report(11, f"zero missing after impute; {clipped.n_cols} capped columns "
                   f"respect caps; {len(kept)} deduped columns max |r| "
                   f"{np.max(np.abs(off)):.3f}")
