"""Property tests of boostwood against plain-numpy oracles.

Binning: bin_features reads each max_bin's quantile edges from columns
sorted once (sort_columns), by np.quantile's own linear rule; the edges and
codes must equal the per-column np.quantile oracle in conftest. Fitting:
the scores fit hands back for its training and validation rows must equal
predict_raw of the returned model on those rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_codes, quantile_bin_edges
from fundcast.boostwood import (
    HyperParams,
    bin_features,
    fit,
    log_loss,
    predict,
    predict_raw,
    sort_columns,
)

SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e-300, 1e300)


@st.composite
def awkward_columns(draw):
    """Matrices with NaN, +-inf, ties, signed zeros, constant and all-NaN
    columns, from one row up."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)) * draw(st.sampled_from((1e-3, 1.0, 1e6)))
    if draw(st.booleans()):
        x = np.round(x, draw(st.integers(0, 2)))  # ties
    for j in range(d):
        kind = draw(st.sampled_from(("keep", "special", "constant", "nan")))
        if kind == "special":
            cells = rng.random(n) < draw(st.floats(0.05, 0.9))
            x[cells, j] = rng.choice(SPECIAL, size=cells.sum())
        elif kind == "constant":
            x[:, j] = draw(st.sampled_from(SPECIAL))
        elif kind == "nan":
            x[:, j] = np.nan
    return x


def zero_signless(edges):
    # -0.0 and 0.0 compare equal, so the oracle's partition and a full sort
    # may leave either sign at a tied zero; no code can tell them apart
    return (np.asarray(edges) + 0.0).tobytes()


class TestBinningOracle:
    @settings(max_examples=300, deadline=None)
    @given(x=awkward_columns(), new=awkward_columns(),
           max_bin=st.integers(2, 255), presorted=st.booleans())
    def test_edges_and_codes_equal_np_quantile(self, x, new, max_bin, presorted):
        binned = bin_features(sort_columns(x) if presorted else x, max_bin)
        want = quantile_bin_edges(x, max_bin)
        assert [zero_signless(e) for e in binned.bin_edges] == \
            [zero_signless(e) for e in want]
        np.testing.assert_array_equal(binned.n_bins, [len(e) + 1 for e in want])
        miss = binned.bins_total - 1
        np.testing.assert_array_equal(binned.codes, edge_codes(x, want, miss))
        new = np.resize(new, (new.shape[0], x.shape[1]))
        np.testing.assert_array_equal(binned.map_new(new).codes,
                                      edge_codes(new, want, miss))


class TestFittedScores:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(20, 120),
           min_data_in_leaf=st.integers(1, 30),
           feature_fraction=st.sampled_from((0.4, 1.0)),
           bagging=st.sampled_from(((1.0, 0), (0.5, 1), (0.7, 3))),
           min_gain_to_split=st.sampled_from((0.0, 0.5, 5.0)),
           early_stopping=st.sampled_from((None, 2)),
           growth=st.sampled_from(("leaf_wise", "level_wise")))
    def test_handed_back_scores_equal_predict(self, seed, n, min_data_in_leaf,
                                              feature_fraction, bagging,
                                              min_gain_to_split, early_stopping,
                                              growth):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n + 30, 3))
        x[rng.random(x.shape) < 0.1] = np.nan
        y = np.argmax(np.nan_to_num(x) + rng.normal(0, 1.0, x.shape), axis=1)
        binned = bin_features(x[:n], 16)
        binned_va = binned.map_new(x[n:])
        params = HyperParams(
            learning_rate=0.5, num_leaves=6, min_data_in_leaf=min_data_in_leaf,
            feature_fraction=feature_fraction, bagging_fraction=bagging[0],
            bagging_freq=bagging[1], min_gain_to_split=min_gain_to_split,
            n_rounds=12, seed=seed)
        model = fit(binned, y[:n], params, n_classes=3,
                    valid=(binned_va, y[n:]),
                    early_stopping_rounds=early_stopping, growth=growth)
        np.testing.assert_array_equal(model.train_scores, predict_raw(model, binned))
        np.testing.assert_array_equal(model.valid_scores,
                                      predict_raw(model, binned_va))
        np.testing.assert_array_equal(np.argmax(model.valid_scores, axis=1),
                                      predict(model, binned_va))
        if model.best_round is not None:
            assert model.best_valid_loss == log_loss(model.valid_scores, y[n:])
