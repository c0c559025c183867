import numpy as np
import pytest

from conftest import level_wise_growth, model_from_text, n_leaves, split_gain
from fundcast import boostwood
from fundcast.boostwood import (
    BinnedMatrix,
    GbdtModel,
    HyperParams,
    _best_split,
    _flat_index,
    _histograms,
    bin_features,
    feature_importance,
    fit,
    log_loss,
    predict,
    predict_raw,
    softmax,
    to_text,
)
from fundcast.errors import DimensionMismatchError, InvalidParamsError


def make_separable(n_per=20, seed=0):
    """Three axis-separable clusters on two features."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c, center in enumerate((0.0, 5.0, 10.0)):
        xs.append(np.column_stack([
            center + rng.normal(0, 0.3, n_per),
            rng.normal(0, 1.0, n_per),
        ]))
        ys.append(np.full(n_per, c))
    return np.vstack(xs), np.concatenate(ys).astype(np.int64)


class TestBinFeatures:
    def test_constant_feature_single_bin(self):
        bm = bin_features(np.full((10, 1), 3.0), max_bin=8)
        assert bm.n_bins[0] == 1
        assert (bm.codes == 0).all()

    def test_hundred_values_four_near_equal_bins(self):
        x = np.arange(1.0, 101.0).reshape(-1, 1)
        bm = bin_features(x, max_bin=4)
        counts = np.bincount(bm.codes[:, 0], minlength=4)
        np.testing.assert_array_equal(counts[:4], [25, 25, 25, 25])

    def test_test_value_below_training_range_maps_to_bin_zero(self):
        bm = bin_features(np.arange(10.0, 20.0).reshape(-1, 1), max_bin=4)
        new = bm.map_new(np.array([[-100.0]]))
        assert new.codes[0, 0] == 0

    def test_test_value_above_training_range_maps_to_top_bin(self):
        bm = bin_features(np.arange(10.0, 20.0).reshape(-1, 1), max_bin=4)
        new = bm.map_new(np.array([[1e9]]))
        assert new.codes[0, 0] == bm.n_bins[0] - 1

    def test_nan_maps_to_missing_bin(self):
        x = np.arange(10.0).reshape(-1, 1)
        x[3, 0] = np.nan
        bm = bin_features(x, max_bin=4)
        assert bm.codes[3, 0] == bm.bins_total - 1

    def test_edges_frozen_for_new_rows(self):
        train = np.arange(1.0, 101.0).reshape(-1, 1)
        bm = bin_features(train, max_bin=4)
        new = bm.map_new(train)
        np.testing.assert_array_equal(new.codes, bm.codes)

    def test_max_bin_validation(self):
        with pytest.raises(InvalidParamsError):
            bin_features(np.zeros((3, 1)), max_bin=1)


class TestSplitGain:
    def test_hand_algebra_example(self):
        params = HyperParams(lambda_l1=0.0, lambda_l2=0.0)
        gain = split_gain((0.0, 2.0), (-1.0, 1.0), params)
        assert gain == pytest.approx(2.0)

    def test_identical_children_no_information(self):
        params = HyperParams()
        # children carry half the parent stats each
        gain = split_gain((4.0, 2.0), (2.0, 1.0), params)
        assert gain == pytest.approx(0.0)

    def test_l1_soft_threshold(self):
        params = HyperParams(lambda_l1=1.0, lambda_l2=0.0)
        # parent (0, 2) into (-1, 1) and (1, 1): soft(1)=0 -> gain 0
        gain = split_gain((0.0, 2.0), (-1.0, 1.0), params)
        assert gain == pytest.approx(0.0)

    def test_l2_shrinks_scores(self):
        no_reg = split_gain((0.0, 2.0), (-1.0, 1.0), HyperParams())
        reg = split_gain((0.0, 2.0), (-1.0, 1.0), HyperParams(lambda_l2=3.0))
        assert reg < no_reg


def oracle_best_split(gs, hs, cnt, n_bins, params):
    """Exhaustive enumeration over (threshold, missing-direction) pairs."""
    width = gs.shape[1]
    g_tot, h_tot, c_tot = gs.sum(), hs.sum(), cnt.sum()
    best = None
    for t in range(n_bins[0] - 1):
        for direction in (0, 1):  # 0: missing right, 1: missing left
            gl = gs[0, :t + 1].sum()
            hl = hs[0, :t + 1].sum()
            cl = cnt[0, :t + 1].sum()
            if direction == 1:
                gl += gs[0, width - 1]
                hl += hs[0, width - 1]
                cl += cnt[0, width - 1]
            cr = c_tot - cl
            if cl < params.min_data_in_leaf or cr < params.min_data_in_leaf:
                continue
            gain = split_gain((g_tot, h_tot), (gl, hl), params)
            if gain > params.min_gain_to_split and (best is None or gain > best[0]):
                best = (gain, 0, t, direction == 1)
    return best


class TestSplitOracle:
    def test_matches_exhaustive_enumeration(self, rng):
        for case in range(50):
            nb = int(rng.integers(2, 9))
            width = 10  # nb real bins + padding + missing slot at width-1
            gs = np.zeros((1, width))
            hs = np.zeros((1, width))
            cnt = np.zeros((1, width), dtype=np.int64)
            gs[0, :nb] = rng.normal(0, 5, nb)
            hs[0, :nb] = rng.uniform(0.1, 3.0, nb)
            cnt[0, :nb] = rng.integers(1, 50, nb)
            if rng.random() < 0.5:  # sometimes missing values present
                gs[0, width - 1] = rng.normal(0, 2)
                hs[0, width - 1] = rng.uniform(0.1, 1.0)
                cnt[0, width - 1] = rng.integers(1, 20)
            params = HyperParams(
                min_data_in_leaf=int(rng.integers(1, 10)),
                min_gain_to_split=float(rng.uniform(0, 0.5)),
                lambda_l1=float(rng.choice([0.0, 0.5])),
                lambda_l2=float(rng.choice([0.0, 2.0])))
            totals = (gs.sum(), hs.sum(), int(cnt.sum()))
            got = _best_split(np.stack([gs, hs, cnt]), np.array([nb]),
                              params, totals)
            want = oracle_best_split(gs, hs, cnt, np.array([nb]), params)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == pytest.approx(want[0], rel=1e-12)
                assert got[2] == want[2]
                assert got[3] == want[3]


class TestHistograms:
    def test_subtraction_identity(self, rng):
        codes = rng.integers(0, 6, size=(200, 4)).astype(np.uint8)
        index = _flat_index(codes, 8)
        g = rng.normal(size=200)
        h = rng.uniform(0.1, 1.0, size=200)
        rows = np.arange(200)
        left = rows[:70]
        right = rows[70:]
        parent = _histograms(index, g, h, 8)
        direct_left = _histograms(index[left], g[left], h[left], 8)
        direct_right = _histograms(index[right], g[right], h[right], 8)
        # feature j's histogram counts its own codes
        for j in range(4):
            np.testing.assert_array_equal(
                parent[2][j], np.bincount(codes[:, j], minlength=8))
        for p, l, r in zip(parent, direct_left, direct_right):
            np.testing.assert_allclose(p - l, r, atol=1e-12)
        # counts are exact integers
        np.testing.assert_array_equal(parent[2] - direct_left[2], direct_right[2])


class TestFit:
    def test_separable_clusters_reach_perfect_train_accuracy(self):
        x, y = make_separable()
        bm = bin_features(x, max_bin=16)
        params = HyperParams(learning_rate=0.5, num_leaves=4,
                             min_data_in_leaf=1, n_rounds=20, seed=1)
        model = fit(bm, y, params)
        assert (predict(model, bm) == y).mean() == 1.0

    def test_num_leaves_two_yields_stumps(self):
        x, y = make_separable()
        bm = bin_features(x, max_bin=16)
        params = HyperParams(num_leaves=2, min_data_in_leaf=1, n_rounds=5, seed=1)
        model = fit(bm, y, params)
        for round_trees in model.trees:
            for tree in round_trees:
                if tree is not None:
                    assert n_leaves(tree) == 2
                    assert sum(left >= 0 for left in tree.left) == 1

    def test_infinite_min_gain_no_trees_prior_prediction(self):
        x, y = make_separable(n_per=10)
        bm = bin_features(x, max_bin=8)
        params = HyperParams(min_gain_to_split=np.inf, n_rounds=5,
                             min_data_in_leaf=1, seed=0)
        model = fit(bm, y, params)
        assert all(t is None for row in model.trees for t in row)
        proba = softmax(predict_raw(model, bm))
        prior = np.bincount(y) / len(y)
        np.testing.assert_allclose(proba, np.tile(prior, (len(y), 1)), atol=1e-12)

    def test_invalid_params_rejected(self):
        x, y = make_separable(n_per=5)
        bm = bin_features(x, max_bin=8)
        with pytest.raises(InvalidParamsError):
            fit(bm, y, HyperParams(num_leaves=1))
        with pytest.raises(InvalidParamsError):
            fit(bm, y, HyperParams(feature_fraction=0.0))

    def test_single_class_warns_base_only(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        y = np.zeros(30, dtype=np.int64)
        bm = bin_features(x, max_bin=8)
        with pytest.warns(UserWarning, match="single class"):
            model = fit(bm, y, HyperParams(n_rounds=3), n_classes=2)
        assert model.trees == []
        assert (predict(model, bm) == 0).all()

    def test_missing_labels_rejected(self):
        x = np.zeros((4, 1))
        bm = bin_features(x, max_bin=4)
        with pytest.raises(ValueError, match="missing"):
            fit(bm, np.array([0.0, 1.0, np.nan, 0.0]), HyperParams())

    def test_zero_rows_rejected(self):
        bm = bin_features(np.zeros((0, 2)), max_bin=8)
        with pytest.raises(DimensionMismatchError, match="0 rows"):
            fit(bm, np.zeros(0, dtype=np.int64), HyperParams(), n_classes=3)

    def test_determinism_bit_identical(self):
        x, y = make_separable(seed=5)
        bm = bin_features(x, max_bin=16)
        params = HyperParams(learning_rate=0.3, num_leaves=6, min_data_in_leaf=2,
                             feature_fraction=0.5, bagging_fraction=0.7,
                             bagging_freq=2, n_rounds=12, seed=9)
        a = fit(bm, y, params)
        b = fit(bm, y, params)
        assert to_text(a) == to_text(b)

    def test_serialization_roundtrip_preserves_predictions(self):
        x, y = make_separable(seed=2)
        bm = bin_features(x, max_bin=16)
        model = fit(bm, y, HyperParams(num_leaves=5, min_data_in_leaf=2,
                                       n_rounds=8, seed=3))
        back = model_from_text(to_text(model))
        np.testing.assert_allclose(predict_raw(back, bm), predict_raw(model, bm),
                                   atol=0)

    def test_early_stopping_trims_to_best_round(self, rng):
        x = rng.normal(size=(300, 3))
        beta = np.array([2.0, -1.0, 0.5])
        y = (x @ beta + rng.normal(0, 0.5, 300) > 0).astype(np.int64)
        bm = bin_features(x[:200], max_bin=16)
        valid = bm.map_new(x[200:])
        params = HyperParams(learning_rate=0.8, num_leaves=16, min_data_in_leaf=2,
                             n_rounds=80, seed=4)
        model = fit(bm, y[:200], params, valid=(valid, y[200:]),
                    early_stopping_rounds=5)
        assert model.best_round is not None
        assert len(model.trees) == model.best_round + 1
        assert len(model.trees) < 80

    def test_min_data_in_leaf_respected(self):
        x, y = make_separable(n_per=30, seed=7)
        bm = bin_features(x, max_bin=16)
        params = HyperParams(num_leaves=8, min_data_in_leaf=25, n_rounds=3, seed=0)
        model = fit(bm, y, params)
        # count rows reaching each leaf of the first tree
        for tree in model.trees[0]:
            if tree is None:
                continue
            codes = bm.codes
            idx_all = np.arange(len(y))
            stack = [(0, idx_all)]
            while stack:
                node, rows = stack.pop()
                if tree.left[node] < 0:
                    assert len(rows) >= 25
                    continue
                c = codes[rows, tree.feature[node]]
                go = c <= tree.threshold[node]
                if tree.default_left[node]:
                    go |= c == model.miss_code
                stack.append((tree.left[node], rows[go]))
                stack.append((tree.right[node], rows[~go]))


class TestSplitBound:
    """Nodes with fewer than 2 * min_data_in_leaf rows cannot split, so
    training builds no histogram for them. Root histograms come from one
    root pass per round, shared by every class; only children call
    _histograms."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"histograms": [], "root_pass": [], "grow_tree": 0, "softmax": 0}
        real_histograms = boostwood._histograms
        real_grow_tree = boostwood._grow_tree
        real_softmax = boostwood.softmax

        def histograms(index, g, h, width):
            calls["histograms"].append(len(index))
            return real_histograms(index, g, h, width)

        class RootPass(boostwood._RootPass):
            def __init__(self, bag, *args):
                calls["root_pass"].append(len(bag.rows))
                super().__init__(bag, *args)

        def grow_tree(*args):
            calls["grow_tree"] += 1
            return real_grow_tree(*args)

        def softmax(scores):
            calls["softmax"] += 1
            return real_softmax(scores)

        monkeypatch.setattr(boostwood, "_histograms", histograms)
        monkeypatch.setattr(boostwood, "_RootPass", RootPass)
        monkeypatch.setattr(boostwood, "_grow_tree", grow_tree)
        monkeypatch.setattr(boostwood, "softmax", softmax)
        return calls

    def test_small_bagged_root_builds_no_histogram(self, calls):
        x = np.arange(100.0).reshape(-1, 1)
        y = (x[:, 0] >= 50).astype(np.int64)
        # bagged roots of 50 rows, below 2 * 30
        params = HyperParams(min_data_in_leaf=30, bagging_fraction=0.5,
                             bagging_freq=1, n_rounds=3, seed=0)
        model = fit(bin_features(x, max_bin=16), y, params)
        assert all(tree is None for row in model.trees for tree in row)
        assert calls["histograms"] == []
        assert calls["root_pass"] == []

    def test_small_bag_skips_every_round(self, calls):
        x, y = make_separable(n_per=40, seed=3)
        bm = bin_features(x[::2], max_bin=16)
        # bags of 30 rows, below 2 * 20: the model is known without a tree
        params = HyperParams(min_data_in_leaf=20, bagging_fraction=0.5,
                             bagging_freq=2, n_rounds=30, seed=0)
        model = fit(bm, y[::2], params, valid=(bm.map_new(x[1::2]), y[1::2]),
                    early_stopping_rounds=5)
        assert model.best_round == 0
        assert model.trees == [[None] * 3]
        assert calls["grow_tree"] == 0
        # one log-loss of the base scores; no gradients
        assert calls["softmax"] == 1
        assert calls["root_pass"] == []

    def test_two_small_children_build_no_histogram(self, calls):
        x = np.arange(100.0).reshape(-1, 1)
        y = (x[:, 0] >= 50).astype(np.int64)
        # the root splits 50 / 50; each child is below 2 * 30
        params = HyperParams(min_data_in_leaf=30, num_leaves=8, n_rounds=1,
                             seed=0)
        model = fit(bin_features(x, max_bin=16), y, params)
        trees = model.trees[0]
        assert all(tree is not None and n_leaves(tree) == 2 for tree in trees)
        assert calls["root_pass"] == [100]
        assert calls["grow_tree"] == len(trees)
        assert calls["histograms"] == []

    def test_null_round_reuses_gradients_and_root_pass(self, calls):
        x, y = make_separable(n_per=20, seed=4)
        # no root clears this gain, so the scores never move
        params = HyperParams(min_data_in_leaf=2, min_gain_to_split=1e9,
                             n_rounds=6, seed=0)
        model = fit(bin_features(x, max_bin=16), y, params)
        assert all(tree is None for row in model.trees for tree in row)
        assert calls["softmax"] == 1
        assert calls["root_pass"] == [60]
        assert calls["grow_tree"] == 0


def replay_train_losses(model, bm, y):
    """Per-round training log-loss reconstructed from the stored trees."""
    scores = np.tile(model.base_score, (bm.n_rows, 1))
    losses = [log_loss(scores, y)]
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            if tree is not None:
                scores[:, c] += tree.predict(bm.codes, model.miss_code)
        losses.append(log_loss(scores, y))
    return losses


class TestDescent:
    # raw Newton steps overshoot at high learning rates without the L2
    # damping they are always paired with in the search box, so the upper
    # rates carry a small lambda_l2
    @pytest.mark.parametrize("lr,l2,seed", [(0.1, 0.0, 0), (0.3, 0.0, 1),
                                            (0.5, 0.0, 2), (0.8, 1.0, 3),
                                            (1.0, 1.0, 4)])
    def test_train_logloss_nonincreasing(self, lr, l2, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(150, 4))
        logits = x @ rng.normal(size=(4, 3))
        y = np.argmax(logits + rng.normal(0, 1.0, logits.shape), axis=1)
        bm = bin_features(x, max_bin=16)
        params = HyperParams(learning_rate=lr, lambda_l2=l2, num_leaves=8,
                             min_data_in_leaf=5, n_rounds=100, seed=seed)
        model = fit(bm, y, params)
        losses = replay_train_losses(model, bm, y)
        diffs = np.diff(losses)
        assert (diffs <= 1e-12).all(), f"loss increased at {np.argmax(diffs)}"


class TestGradientCheck:
    def test_softmax_gradient_matches_finite_differences(self, rng):
        k = 3
        for _ in range(20):
            scores = rng.normal(0, 2.0, size=(1, k))
            y = np.array([int(rng.integers(0, k))])
            p = softmax(scores)[0]
            analytic = p.copy()
            analytic[y[0]] -= 1.0
            eps = 1e-6
            for c in range(k):
                up = scores.copy()
                up[0, c] += eps
                down = scores.copy()
                down[0, c] -= eps
                fd = (log_loss(up, y) - log_loss(down, y)) / (2 * eps)
                assert fd == pytest.approx(analytic[c], rel=1e-5, abs=1e-8)


class TestLeafWiseVsLevelWise:
    def test_leaf_wise_training_loss_no_worse(self, rng):
        wins = []
        for seed in range(10):
            gen = np.random.default_rng(seed)
            x = gen.normal(size=(200, 5))
            y = ((x[:, 0] > 0).astype(int) + (x[:, 1] * x[:, 2] > 0.2)).astype(np.int64)
            bm = bin_features(x, max_bin=16)
            params = HyperParams(learning_rate=0.3, num_leaves=8,
                                 min_data_in_leaf=5, n_rounds=5, seed=seed)
            leaf = fit(bm, y, params)
            with level_wise_growth():
                level = fit(bm, y, params)
            loss_leaf = replay_train_losses(leaf, bm, y)[-1]
            loss_level = replay_train_losses(level, bm, y)[-1]
            wins.append(loss_leaf <= loss_level + 1e-12)
        assert all(wins)


class TestPredict:
    def test_probabilities_sum_to_one(self, rng):
        x, y = make_separable(seed=8)
        bm = bin_features(x, max_bin=16)
        model = fit(bm, y, HyperParams(num_leaves=4, min_data_in_leaf=2,
                                       n_rounds=10, seed=0))
        proba = softmax(predict_raw(model, bm))
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(len(y)), atol=1e-12)

    def test_empty_model_uniform_from_zero_base(self):
        model = GbdtModel(n_classes=3, n_features=2, miss_code=16,
                          base_score=np.zeros(3), trees=[], params=HyperParams())
        bm = bin_features(np.zeros((4, 2)), max_bin=8)
        proba = softmax(predict_raw(model, bm))
        np.testing.assert_allclose(proba, np.full((4, 3), 1 / 3), atol=1e-12)

    def test_dimension_mismatch(self):
        x, y = make_separable(n_per=5)
        bm = bin_features(x, max_bin=8)
        model = fit(bm, y, HyperParams(n_rounds=2, min_data_in_leaf=1, seed=0))
        other = bin_features(np.zeros((3, 5)), max_bin=8)
        with pytest.raises(DimensionMismatchError):
            predict_raw(model, other)


class TestFeatureImportance:
    def test_empty_model_all_zeros(self):
        model = GbdtModel(n_classes=2, n_features=4, miss_code=16,
                          base_score=np.zeros(2), trees=[], params=HyperParams())
        np.testing.assert_array_equal(feature_importance(model), np.zeros(4))

    def test_planted_signal_ranks_first(self, rng):
        x = rng.normal(size=(300, 5))
        y = (x[:, 3] > 0).astype(np.int64)
        bm = bin_features(x, max_bin=16)
        model = fit(bm, y, HyperParams(num_leaves=4, min_data_in_leaf=5,
                                       n_rounds=10, seed=0))
        gain = feature_importance(model)
        assert np.argmax(gain) == 3
        assert (gain >= 0).all()
