import json
import multiprocessing
import os
import signal
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    consensus_table,
    deadline,
    grid_panel,
    index_from_keys,
    keys_of,
    quarter_range,
    simple_spec,
    total_entries,
)
from fundcast import boostwood, feature_forge, rollcast, synthgen, tuner
from fundcast.boostwood import HyperParams
from fundcast.errors import (
    ConfigError,
    DimensionMismatchError,
    InsufficientHistoryError,
    InvalidParamsError,
    ReportError,
    SubsetError,
    WindowTooSmallError,
)
from fundcast.feature_forge import FeatureColumnMeta
from fundcast.panel_ingest import CalendarQuarter, Format
from fundcast.rollcast import (
    ExperimentConfig,
    build_consensus_vectors,
    build_records,
    conditional_accuracy,
    decompose_importance,
    enumerate_subsets,
    read_jsonl,
    render_text,
    run_all_subsets,
    run_subset,
    write_jsonl,
)
from fundcast.spectral_reduce import PcaModel
from fundcast.tuner import ParamRange


class TestEnumerateSubsets:
    def test_120_quarters_yield_40_advancing_splits(self):
        quarters = quarter_range(1988, 1, 120)
        splits = enumerate_subsets(quarters, 80)
        assert len(splits) == 40
        for a, b in zip(splits, splits[1:]):
            assert b.test_quarter.index == a.test_quarter.index + 1
        for s in splits:
            assert len(s.train_quarters) == 80
            assert s.test_quarter.index == s.train_quarters[-1].index + 1

    def test_81_quarters_single_split(self):
        splits = enumerate_subsets(quarter_range(1988, 1, 81), 80)
        assert len(splits) == 1
        assert splits[0].index == 1

    def test_80_quarters_insufficient(self):
        with pytest.raises(InsufficientHistoryError):
            enumerate_subsets(quarter_range(1988, 1, 80), 80)

    def test_gap_rejected(self):
        quarters = quarter_range(1988, 1, 90)
        del quarters[40]
        with pytest.raises(InsufficientHistoryError, match="consecutive"):
            enumerate_subsets(quarters, 80)


class TestSearchBox:
    def test_overrides_keep_the_default_draw_order(self):
        lr = ParamRange(0.1, 0.4)
        space, base = ExperimentConfig(
            search_space_overrides={"learning_rate": lr},
            gbdt_overrides={"max_bin": 16, "lambda_l1": 0.0}).search_box()
        expected = [name for name in tuner.default_space()
                    if name not in ("max_bin", "lambda_l1")]
        assert list(space) == expected
        assert space["learning_rate"] is lr
        assert (base.max_bin, base.lambda_l1) == (16, 0.0)

    def test_pinned_parameter_outside_the_space_is_kept(self):
        space, base = ExperimentConfig(
            gbdt_overrides={"max_depth": 3}).search_box()
        assert list(space) == list(tuner.default_space())
        assert base.max_depth == 3

    # configs built in code keep the rules parse_config applies to a file
    @pytest.mark.parametrize("ranges, pinned, error, message", [
        ({"num_leaves": ParamRange(16, 63, "linear")}, {}, ValueError,
         "num_leaves takes scale integer, got 'linear'"),
        ({"learning_rate": ParamRange(0.5, 1.0, "integer")}, {}, ValueError,
         "learning_rate takes scale linear or log, got 'integer'"),
        ({"max_bin": ParamRange(100, 200.5, "integer")}, {}, ValueError,
         "max_bin is an integer, got 200.5"),
        ({"num_leaves": ParamRange(1, 8, "integer")}, {}, InvalidParamsError,
         "num_leaves must be >= 2: 1"),
        ({}, {"bagging_fraction": 1.5}, InvalidParamsError,
         r"bagging_fraction must be in \(0, 1\]: 1.5"),
        ({"seed": ParamRange(1, 2, "integer")}, {}, ConfigError,
         "unknown search parameter 'seed'"),
        ({"num_leaves": ParamRange(4, 12, "integer")}, {"num_leaves": 8},
         ConfigError, "gbdt.num_leaves and search.space.num_leaves cannot "
                      "both be set")])
    def test_bad_overrides_rejected(self, ranges, pinned, error, message):
        config = ExperimentConfig(search_space_overrides=ranges,
                                  gbdt_overrides=pinned)
        with pytest.raises(error, match=f"^{message}"):
            config.search_box()


class TestConditionalAccuracy:
    def hand_table(self):
        model = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2, 0])
        cons = np.array([0, 1, 2, 0, 1, 2, 2, 0, 1, 0, 1, 2])
        actual = np.array([0, 1, 2, 0, 0, 1, 0, 1, 2, 0, 1, 2])
        return model, cons, actual

    def test_twelve_row_hand_counts(self):
        model, cons, actual = self.hand_table()
        m = conditional_accuracy(model, cons, actual)
        assert m["n_converge"] == 6
        assert m["n_diverge"] == 6
        assert m["converge_model_acc"] == pytest.approx(4 / 6)
        assert m["diverge_model_acc"] == pytest.approx(3 / 6)
        assert m["diverge_consensus_acc"] == pytest.approx(3 / 6)
        assert m["accuracy"] == pytest.approx(7 / 12)

    def test_total_accuracy_decomposition_identity(self):
        model, cons, actual = self.hand_table()
        m = conditional_accuracy(model, cons, actual)
        recomposed = (m["n_converge"] * m["converge_model_acc"]
                      + m["n_diverge"] * m["diverge_model_acc"]) \
            / m["n_scored"]
        assert recomposed == pytest.approx(m["accuracy"])

    def test_converge_set_model_equals_consensus_accuracy(self):
        model, cons, actual = self.hand_table()
        m = conditional_accuracy(model, cons, actual)
        # identical predictions on the converge set, same actuals
        assert m["converge_model_acc"] == pytest.approx(
            m["converge_consensus_acc"])

    def test_model_identical_to_consensus(self):
        model = np.array([0, 1, 2, 1])
        actual = np.array([0, 1, 1, 1])
        m = conditional_accuracy(model, model.copy(), actual)
        assert m["n_diverge"] == 0
        assert m["diverge_model_acc"] is None
        assert m["converge_model_acc"] == pytest.approx(m["accuracy"])

    def test_fully_disjoint_predictions(self):
        model = np.array([0, 0, 0])
        cons = np.array([1, 1, 1])
        actual = np.array([0, 1, 2])
        m = conditional_accuracy(model, cons, actual)
        assert m["n_converge"] == 0
        assert m["converge_model_acc"] is None

    def test_split_pairing_uses_second_actual(self):
        model = np.array([0, 1])
        cons = np.array([0, 1])
        actual = np.array([0, 0])
        actual_cons = np.array([0, 1])
        m = conditional_accuracy(model, cons, actual, actual_cons)
        assert m["accuracy"] == pytest.approx(0.5)
        assert m["consensus_accuracy"] == pytest.approx(1.0)


def consensus_panel(n_companies=9, n_quarters=3):
    quarters = quarter_range(2000, 1, n_quarters)
    companies = [f"C{i}" for i in range(1, n_companies + 1)]
    ni = [[10.0 + i] * n_quarters for i in range(n_companies)]
    atq = [[10.0] * n_quarters for _ in range(n_companies)]
    return grid_panel(companies, quarters, {"niq": ni, "atq": atq})


def mean_and_actual_classes(table, panel):
    classes = build_consensus_vectors(table, panel, ExperimentConfig())
    return classes["mean"], classes["actual"]


class TestConsensusClasses:
    def test_consensus_equal_to_actual_everywhere(self):
        panel = consensus_panel()
        rows = {}
        for i, (company, q) in enumerate(keys_of(panel.index)):
            actual = float(panel.columns["niq"][i]) * 1.1
            rows[(company, q)] = (actual, actual, actual)
        table = consensus_table(rows)
        cons, actual = mean_and_actual_classes(table, panel)
        ok = ~np.isnan(cons)
        assert ok.any()
        assert (cons[ok] == actual[ok]).all()

    def test_rank_reversal_middle_bin_survives(self):
        panel = consensus_panel(n_companies=9, n_quarters=2)
        q1, q2 = quarter_range(2000, 1, 2)
        rows = {}
        for k, company in enumerate(sorted(set(panel.index.company_names())), start=1):
            rows[(company, q1)] = (np.nan, np.nan, 0.0)
            # actual rises with k, consensus estimate falls with k
            rows[(company, q2)] = (10.0 - k, 10.0 - k, float(k))
        table = consensus_table(rows)
        cons, actual = mean_and_actual_classes(table, panel)
        at_q1 = [i for i, (_, q) in enumerate(keys_of(panel.index)) if q == q1]
        cons_q1 = cons[at_q1]
        act_q1 = actual[at_q1]
        assert not np.isnan(cons_q1).any()
        assert (cons_q1 == act_q1).mean() == pytest.approx(1 / 3)

    def test_unknown_estimate_rejected(self):
        table = consensus_table({})
        with pytest.raises(ValueError, match="estimate"):
            build_consensus_vectors(table, consensus_panel(),
                                    ExperimentConfig(consensus_estimate="mode"))

    def test_unknown_pairing_rejected(self):
        table = consensus_table({})
        with pytest.raises(ValueError, match="pairing 'splitt'"):
            build_consensus_vectors(table, consensus_panel(),
                                    ExperimentConfig(consensus_pairing="splitt"))

    def assets_panel(self, **assets):
        """Nine companies over two quarters whose assets columns are given
        by name as one value per company."""
        companies = [f"C{i}" for i in range(1, 10)]
        columns = {"niq": [[1.0, 1.0]] * 9}
        columns.update({name: [[a, a] for a in values]
                        for name, values in assets.items()})
        return grid_panel(companies, quarter_range(2000, 1, 2), columns)

    def assets_table(self):
        # the k-th company's change is k, so its target is k over its assets
        q1, q2 = quarter_range(2000, 1, 2)
        rows = {}
        for k in range(1, 10):
            rows[(f"C{k}", q1)] = (0.0, 0.0, 0.0)
            rows[(f"C{k}", q2)] = (float(k), float(k), float(k))
        return consensus_table(rows)

    def test_assets_var_read_from_config(self):
        # assets rising faster than the change reverse the ranks
        rising = [float(k * k) for k in range(1, 10)]
        table = self.assets_table()
        expected = build_consensus_vectors(
            table, self.assets_panel(atq=rising), ExperimentConfig())
        renamed = build_consensus_vectors(
            table, self.assets_panel(at=rising), ExperimentConfig(assets_var="at"))
        assert list(renamed) == ["mean", "median", "actual"]
        for name in renamed:
            np.testing.assert_array_equal(renamed[name], expected[name])

    def test_consensus_classes_follow_configured_assets(self):
        flat = [1.0] * 9
        rising = [float(k * k) for k in range(1, 10)]
        table = self.assets_table()
        on_at = build_consensus_vectors(
            table, self.assets_panel(atq=rising, at=flat),
            ExperimentConfig(assets_var="at"))["mean"]
        on_atq = build_consensus_vectors(
            table, self.assets_panel(atq=rising, at=flat),
            ExperimentConfig())["mean"]
        # quantile ranks of k / 1 and of k / k**2 over the first quarter
        np.testing.assert_array_equal(on_at[0::2], [0, 0, 0, 1, 1, 1, 2, 2, 2])
        np.testing.assert_array_equal(on_atq[0::2], [2, 2, 2, 1, 1, 1, 0, 0, 0])

    def test_empty_overlap_all_missing(self):
        panel = consensus_panel()
        other_q = CalendarQuarter(1950, 1)
        table = consensus_table({("ZZ", other_q): (1.0, 1.0, 1.0)})
        cons, actual = mean_and_actual_classes(table, panel)
        assert np.isnan(cons).all()
        assert np.isnan(actual).all()


def make_stump_tree(feature, gain):
    tree = boostwood.Tree()
    root = tree.add_node()
    left = tree.add_node()
    right = tree.add_node()
    tree.feature[root] = feature
    tree.threshold[root] = 0
    tree.left[root] = left
    tree.right[root] = right
    tree.gain[root] = gain
    return tree


class TestDecomposeImportance:
    def _model(self, d, splits):
        trees = [[make_stump_tree(f, g) for f, g in splits]]
        return boostwood.GbdtModel(n_classes=len(splits), n_features=d,
                                   miss_code=255, base_score=np.zeros(len(splits)),
                                   trees=trees, params=HyperParams())

    def _identity_pca(self, d):
        return PcaModel(np.zeros(d), np.eye(d), np.ones(d),
                        np.full(d, 1 / d), kept=d)

    def _metas(self, d):
        formats = [Format.QOQ, Format.YOY, Format.PCT_ASSETS, Format.PCT_REVENUE]
        return [FeatureColumnMeta(f"v{i}", formats[i % 4], lag=i % 20)
                for i in range(d)]

    def test_identity_loadings_follow_model_ranking(self):
        d = 12
        model = self._model(d, [(2, 5.0), (0, 3.0)])
        dec = decompose_importance(model, self._identity_pca(d), self._metas(d),
                                   top_c=2, top_v=1)
        assert dec["components"] == [2, 0]
        assert dec["entries"][0][0]["column"] == "v2_pct_assets_l02"
        assert dec["entries"][1][0]["column"] == "v0_qoq"

    def test_tally_counts_sum_to_fifty(self):
        d = 24
        model = self._model(d, [(i, float(10 - i)) for i in range(5)])
        dec = decompose_importance(model, self._identity_pca(d), self._metas(d),
                                   top_c=5, top_v=10)
        assert total_entries(dec) == 50
        assert np.sum(dec["tally"]) == 50

    def test_bucket_layout_from_lags(self):
        d = 24
        model = self._model(d, [(0, 1.0)])
        dec = decompose_importance(model, self._identity_pca(d), self._metas(d))
        assert dec["bucket_labels"] == ["0-3", "4-7", "8-11", "12-15", "16-19"]

    def test_record_roundtrips_through_json(self):
        d = 12
        model = self._model(d, [(1, 2.0)])
        dec = decompose_importance(model, self._identity_pca(d), self._metas(d),
                                   top_c=2, top_v=3)
        assert json.loads(json.dumps(dec)) == dec


def small_pipeline(seed=5, n_companies=20, n_quarters=34):
    spec = synthgen.SignalSpec(n_companies=n_companies, n_quarters=n_quarters,
                               seed=seed, noise_sd=0.6, missing_rate=0.04)
    panel, _ = synthgen.generate_panel(spec)
    schema = synthgen.default_schema(spec)
    from fundcast.panel_ingest import shift_forward_aligned
    panel = shift_forward_aligned(panel, schema)
    feats = feature_forge.convert_formats(panel, schema)
    labels = feature_forge.build_labels(panel, "qoq", 3, "quantile_rank")
    splits = enumerate_subsets(panel.quarters(), 26)
    cfg = ExperimentConfig(
        n_lags=4, look_back=4, validation_size=4, search_budget=2,
        search_space_overrides={
            "learning_rate": ParamRange(0.1, 0.4),
            "num_leaves": ParamRange(4, 12, "integer"),
        },
        # the parameters not searched, pinned at HyperParams' defaults
        # except max_bin and min_data_in_leaf
        gbdt_overrides={
            "max_bin": 16, "min_data_in_leaf": 5, "feature_fraction": 1.0,
            "bagging_fraction": 1.0, "bagging_freq": 0,
            "min_gain_to_split": 0.0, "lambda_l1": 0.0, "lambda_l2": 0.0,
        },
        n_rounds=10, early_stopping=4, seed=19)
    return splits, feats, labels, cfg, schema


def predicted(result) -> np.ndarray:
    return np.array([p["predicted"] for p in result.record["predictions"]])


def actual(result) -> np.ndarray:
    return np.array([p["actual"] for p in result.record["predictions"]])


def scored_companies(result) -> list:
    return [p["company_id"] for p in result.record["predictions"]]


class TestRunSubset:
    def test_deterministic_under_same_seed(self):
        splits, feats, labels, cfg, schema = small_pipeline()
        a = run_subset(splits[0], feats, labels, cfg)
        b = run_subset(splits[0], feats, labels, cfg)
        assert a.model_text == b.model_text
        np.testing.assert_array_equal(predicted(a), predicted(b))
        assert a.record == b.record

    def test_removing_test_rows_leaves_model_byte_identical(self):
        splits, feats, labels, cfg, schema = small_pipeline()
        split = splits[0]
        full = run_subset(split, feats, labels, cfg)
        mask = np.array([q != split.test_quarter for _, q in keys_of(feats.index)])
        cut = run_subset(split, feats.take_rows(mask), labels[mask], cfg)
        assert cut.model_text == full.model_text
        assert cut.record["n_test"] == 0
        assert cut.record["metrics"]["accuracy"] is None  # a rate over no rows

    def test_single_class_training_labels_degenerate(self):
        splits, feats, labels, cfg, schema = small_pipeline()
        split = splits[0]
        train_set = {q.index for q in split.train_quarters}
        forced = labels.copy()
        for i, (_, q) in enumerate(keys_of(feats.index)):
            if q.index in train_set and not np.isnan(forced[i]):
                forced[i] = 1.0
        with pytest.warns(UserWarning, match="single class"):
            res = run_subset(split, feats, forced, cfg)
        share = (actual(res) == 1).mean()
        assert res.record["metrics"]["accuracy"] == pytest.approx(share)

    @pytest.mark.parametrize("setting, stage, cause", [
        ({"pca_threshold": 0.0}, "pca", ValueError),
        ({"validation_size": 30}, "search", WindowTooSmallError)])
    def test_stage_failure_names_subset_and_stage(self, setting, stage, cause):
        splits, feats, labels, cfg, schema = small_pipeline()
        with pytest.raises(SubsetError, match=f"^subset 2, stage {stage}: ") as info:
            run_subset(splits[1], feats, labels, replace(cfg, **setting))
        assert info.value.stage == stage
        assert isinstance(info.value.__cause__, cause)
        assert info.value.cause is info.value.__cause__

    def test_prediction_count_matches_surviving_test_rows(self):
        splits, feats, labels, cfg, schema = small_pipeline()
        res = run_subset(splits[0], feats, labels, cfg)
        assert len(predicted(res)) == res.record["n_test"]
        assert len(scored_companies(res)) == res.record["n_test"]
        assert res.record["n_test"] > 0

    def test_label_count_must_match_features_rows(self):
        splits, feats, labels, cfg, schema = small_pipeline()
        with pytest.raises(DimensionMismatchError,
                           match=f"^labels: {feats.n_rows - 1} values for "
                                 f"{feats.n_rows} features rows$"):
            run_subset(splits[0], feats, labels[1:], cfg)

    def test_consensus_count_must_match_features_rows(self):
        splits, feats, labels, cfg, schema = small_pipeline()
        consensus = random_consensus(labels, seed=3)
        consensus["median"] = consensus["median"][:-2]
        with pytest.raises(DimensionMismatchError,
                           match=f"^consensus median: {feats.n_rows - 2} "
                                 f"values for {feats.n_rows} features rows$"):
            run_subset(splits[0], feats, labels, cfg, consensus)


class TestPooledTrials:
    """Subsets whose search runs its trials in forked workers (budget 6,
    two usable CPUs, so two workers), each under a deadline so that a hung
    pool fails the test instead of the run."""

    def test_one_and_two_workers_write_the_same_bytes(self, usable_cpus):
        splits, feats, labels, cfg, schema = small_pipeline()
        cfg = replace(cfg, search_budget=6)
        written = []
        for n in (1, 2):
            usable_cpus(n)
            with deadline(120):
                res = run_subset(splits[1], feats, labels, cfg,
                                 random_consensus(labels, seed=3))
            written.append((
                json.dumps(res.record, sort_keys=True), res.model_text,
                res.pca_text,
                json.dumps(res.fill_report.to_records(), sort_keys=True),
                [{k: v for k, v in t.to_record().items() if k != "wall_time"}
                 for t in res.trials]))
        assert written[0] == written[1]
        assert len(written[0][4]) == 6

    def test_no_worker_outlives_run_all_subsets(self, usable_cpus):
        splits, feats, labels, cfg, schema = small_pipeline()
        usable_cpus(2)
        with deadline(120):
            results = run_all_subsets(splits[:2], feats, labels,
                                      replace(cfg, search_budget=4))
        assert [r.record["subset"] for r in results] == [1, 2]
        assert multiprocessing.active_children() == []

    def test_killed_worker_is_the_subsets_search_error(self, usable_cpus,
                                                       monkeypatch):
        splits, feats, labels, cfg, schema = small_pipeline()
        parent, fit = os.getpid(), boostwood.fit

        def fit_or_die(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return fit(*args, **kwargs)

        monkeypatch.setattr(boostwood, "fit", fit_or_die)
        usable_cpus(2)
        with deadline(120), pytest.raises(
                SubsetError, match="^subset 1, stage search: ") as info:
            run_all_subsets(splits[:2], feats, labels,
                            replace(cfg, search_budget=4))
        assert info.value.stage == "search"
        assert isinstance(info.value.cause, BrokenProcessPool)
        assert multiprocessing.active_children() == []


class TestSubsetMemory:
    def test_filter_and_pca_each_hold_one_owned_block(self, monkeypatch):
        # Traced peaks above each stage's entry and above run_subset's
        # start. The correlation filter owns one block of every lagged
        # column's training rows and fit_pca one block of the kept columns'
        # training rows, which both overwrite. Gathers, column_std's
        # buffer, the d x d Gram matrix and the components add little.
        splits, feats, labels, cfg, schema = small_pipeline(n_companies=120,
                                                            n_quarters=40)
        cfg = replace(cfg, n_lags=8, look_back=8, standardize=True)
        added, tops = {}, []
        stage = rollcast._stage

        @contextmanager
        def traced(index, name):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with stage(index, name):
                yield
            tops.append(tracemalloc.get_traced_memory()[1])
            added[name] = tops[-1] - start

        monkeypatch.setattr(rollcast, "_stage", traced)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = run_subset(splits[-1], feats, labels, cfg)
            whole = max(tops + [tracemalloc.get_traced_memory()[1]]) - start
        finally:
            tracemalloc.stop()
        kept = int(res.pca_text.split("n_features=")[1].split()[0])
        lagged_block = res.record["n_train"] * 8 * (
            kept + res.record["dedupe_dropped"])
        kept_block = res.record["n_train"] * 8 * kept
        assert added["correlation_dedupe"] < 1.5 * lagged_block
        assert added["pca"] < 1.5 * kept_block
        assert whole < 2 * lagged_block


def random_consensus(labels, seed):
    """Consensus classes as build_consensus_vectors returns them: random
    classes on the labels' rows, a fifth of them missing."""
    rng = np.random.default_rng(seed)
    consensus = {}
    for name in ("mean", "median", "actual"):
        values = rng.integers(0, 3, len(labels)).astype(np.float64)
        values[rng.random(len(values)) < 0.2] = np.nan
        consensus[name] = values
    return consensus


def hand_rate(hits):
    return float(hits.mean()) if len(hits) else float("nan")


class TestConsensusScoring:
    """Every consensus metric of run_subset against a recount from the
    consensus vectors, the predictions and the test labels."""

    @pytest.mark.parametrize("pairing", ["split", "shared"])
    @pytest.mark.parametrize("estimate", ["mean", "median"])
    def test_metrics_match_hand_count(self, estimate, pairing):
        splits, feats, labels, cfg, schema = small_pipeline()
        consensus = random_consensus(labels, seed=3)
        cfg = replace(cfg, consensus_estimate=estimate,
                      consensus_pairing=pairing)
        res = run_subset(splits[0], feats, labels, cfg, consensus)
        test_keys = [(c, splits[0].test_quarter) for c in scored_companies(res)]
        rows = feats.index.find(index_from_keys(test_keys))
        assert (rows >= 0).all()
        pred, y = predicted(res), actual(res)
        actual_ng = consensus["actual"][rows]

        def scored(classes):
            est = classes[rows]
            ok = ~np.isnan(est) & ~np.isnan(actual_ng)
            truth = actual_ng[ok] if pairing == "split" else y[ok]
            return ok, est[ok], truth

        ok, cons, truth = scored(consensus[estimate])
        converge = pred[ok] == cons
        model_hits = pred[ok] == y[ok]
        cons_hits = cons == truth
        m = res.record["metrics"]
        assert 0 < converge.sum() < ok.sum() < len(y)
        assert m["consensus_available"]
        assert m["accuracy"] == hand_rate(pred == y)
        assert m["n_scored"] == len(y)
        assert m["consensus_accuracy"] == hand_rate(cons_hits)
        assert m["n_converge"] == converge.sum()
        assert m["n_diverge"] == (~converge).sum()
        assert m["converge_model_acc"] == hand_rate(model_hits[converge])
        assert m["converge_consensus_acc"] == hand_rate(cons_hits[converge])
        assert m["diverge_model_acc"] == hand_rate(model_hits[~converge])
        assert m["diverge_consensus_acc"] == hand_rate(cons_hits[~converge])
        for name in ("mean", "median"):
            _, est, ref = scored(consensus[name])
            assert m[f"consensus_{name}_accuracy"] == hand_rate(est == ref)

    @pytest.mark.parametrize("estimate", ["mean", "median"])
    def test_estimate_without_test_rows_leaves_consensus_unscored(self, estimate):
        splits, feats, labels, cfg, schema = small_pipeline()
        consensus = random_consensus(labels, seed=3)
        consensus[estimate][feats.index.quarter ==
                            splits[0].test_quarter.index] = np.nan
        res = run_subset(splits[0], feats, labels,
                         replace(cfg, consensus_estimate=estimate),
                         consensus)
        metrics = res.record["metrics"]
        assert res.record["n_test"] > 0
        assert metrics["consensus_available"] is False
        assert metrics["consensus_mean_accuracy"] is None
        assert metrics["consensus_median_accuracy"] is None
        assert metrics["n_converge"] == metrics["n_diverge"] == 0


METRIC_KEYS = {
    "accuracy", "n_scored", "per_class", "consensus_available",
    "consensus_accuracy", "consensus_mean_accuracy",
    "consensus_median_accuracy", "n_converge", "n_diverge",
    "converge_model_acc", "converge_consensus_acc", "diverge_model_acc",
    "diverge_consensus_acc",
}


class TestMetricsRecord:
    """The record's metrics hold the same 13 keys whichever consensus
    branch scored them, and round-trip through strict JSON unchanged: no
    NaN, and per_class keyed by str."""

    @pytest.mark.parametrize("case", ["no_consensus", "consensus_scored",
                                      "estimate_without_test_rows"])
    def test_key_set_and_no_nan(self, case):
        splits, feats, labels, cfg, schema = small_pipeline()
        consensus = None if case == "no_consensus" \
            else random_consensus(labels, seed=3)
        if case == "estimate_without_test_rows":
            consensus["mean"][feats.index.quarter ==
                              splits[0].test_quarter.index] = np.nan
        res = run_subset(splits[0], feats, labels, cfg, consensus)
        metrics = res.record["metrics"]
        assert set(metrics) == METRIC_KEYS
        assert metrics["consensus_available"] is (case == "consensus_scored")
        assert sorted(metrics["per_class"]) == ["0", "1", "2"]
        assert json.loads(json.dumps(res.record, allow_nan=False)) \
            == res.record


def fake_record(idx, acc, quarter="2001Q1"):
    return {
        "record_type": "subset", "subset": idx, "train_start": "1990Q1",
        "train_end": "2000Q4", "test_quarter": quarter, "horizon": "qoq",
        "n_classes": 3, "scheme": "quantile_rank", "pca_kept": 4,
        "n_train": 100, "n_test": 10, "tuned_params": {},
        "predictions": [],
        "metrics": {"accuracy": acc, "n_scored": 10,
                    "per_class": {}, "consensus_available": False,
                    "consensus_accuracy": None,
                    "consensus_mean_accuracy": None,
                    "consensus_median_accuracy": None,
                    "n_converge": 0, "n_diverge": 0,
                    "converge_model_acc": None, "converge_consensus_acc": None,
                    "diverge_model_acc": None, "diverge_consensus_acc": None},
        "importance": None, "dedupe_dropped": 0,
        "impute": {"deleted_rows": 0, "deleted_columns": [],
                   "relevant_filled": 0, "constant_filled": 0},
    }


class TestReportRendering:
    def test_two_subsets_mean_accuracy(self):
        records = [{"record_type": "config", "config": {"seed": 1}},
                   fake_record(1, 0.4), fake_record(2, 0.6, "2001Q2")]
        text = render_text(records)
        assert "0.5000" in text

    def test_single_subset_report_equals_its_metrics(self):
        records = [fake_record(1, 0.42)]
        text = render_text(records)
        assert "0.4200" in text

    def test_no_subsets_rejected(self):
        with pytest.raises(ReportError):
            render_text([{"record_type": "config", "config": {}}])

    def test_rendering_is_deterministic(self):
        records = [fake_record(1, 0.4), fake_record(2, 0.6)]
        assert render_text(records) == render_text(records)

    def test_jsonl_roundtrip(self, tmp_path):
        records = [{"record_type": "config", "config": {"seed": 3}},
                   fake_record(1, 0.5)]
        path = tmp_path / "report.jsonl"
        write_jsonl(records, path)
        assert read_jsonl(path) == records

    def test_corrupted_line_names_line_number(self, tmp_path):
        path = tmp_path / "report.jsonl"
        path.write_text('{"record_type": "config", "config": {}}\nnot-json\n')
        with pytest.raises(ReportError, match="line 2"):
            read_jsonl(path)

    def test_build_records_sorted_by_subset(self):
        splits, feats, labels, cfg, schema = small_pipeline()
        r1 = run_subset(splits[0], feats, labels, cfg)
        r2 = run_subset(splits[1], feats, labels, cfg)
        records = build_records([r2, r1], {"seed": 19})
        assert records[0]["record_type"] == "config"
        assert [r["subset"] for r in records[1:]] == [1, 2]
        rendered = render_text(records)
        assert "per-quarter accuracy" in rendered


class TestAggregateReport:
    """The aggregated report as `fundcast backtest` writes it: build_records,
    then render_text."""

    def test_single_subset_report_matches_its_metrics(self):
        splits, feats, labels, cfg, schema = small_pipeline()
        result = run_subset(splits[0], feats, labels, cfg)
        records = build_records([result], {"seed": 19})
        assert len(records) == 2
        assert records[1]["metrics"]["accuracy"] == pytest.approx(
            result.record["metrics"]["accuracy"])
        assert records[1]["test_quarter"] == str(splits[0].test_quarter)

    def test_mean_of_two_accuracies(self):
        text = render_text([fake_record(1, 0.4), fake_record(2, 0.6)])
        lines = text.splitlines()
        row = lines[lines.index("-- average multi-class accuracy --") + 2]
        assert row.split()[:3] == ["qoq", "3", "0.5000"]
        assert row.split()[-1] == "2"

    def test_accuracy_series_emitted_per_subset(self):
        records = [fake_record(i, 0.3 + 0.01 * i, f"2001Q{(i % 4) + 1}")
                   for i in range(1, 11)]
        lines = render_text(records).splitlines()
        start = lines.index("-- per-quarter accuracy --") + 1
        series = lines[start:lines.index("", start)]
        assert len(series) == 10

    def test_empty_results_rejected(self):
        with pytest.raises(ReportError):
            render_text(build_records([], {}))
