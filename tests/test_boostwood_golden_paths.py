"""More golden models: the to_text SHA-256 of fit on cases that take the
round loop's shortcuts (null rounds, shared root splits, missing-left roots
under a feature subset, level-wise growth on a feature subset).

Like tests/test_boostwood_golden.py, each case asserts the property that
makes it worth pinning, and the bytes must not change with any speedup.
"""

import hashlib
from contextlib import nullcontext

import pytest

from conftest import level_wise_growth
from fundcast.boostwood import HyperParams, bin_features, fit, to_text
from test_boostwood_golden import make_data, n_null_trees, split_lines


def null_rounds(text):
    """Per round, whether every tree of the round is null."""
    per_round = {}
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "tree":
            per_round.setdefault(int(parts[1]), []).append(parts[3] == "none")
    return [all(nulls) for _, nulls in sorted(per_round.items())]


def null_bag_then_split(period):
    """Some bag draw grows only null trees and the next draw splits."""
    def check(text):
        nulls = null_rounds(text)
        return any(all(nulls[s:s + period]) and not all(nulls[s + period:s + 2 * period])
                   for s in range(0, len(nulls) - period, period))
    return check


def root_default_left(text):
    return any(parts[1] == "0" and parts[4] == "1" for parts in split_lines(text))


CASES = {
    # rounds 3-5 share one bag on which no root clears min_gain_to_split;
    # the redraw at round 6 splits again
    "null_bag_then_redraw_splits": dict(
        data=dict(n=300, d=4, seed=9),
        params=dict(learning_rate=0.3, num_leaves=6, min_data_in_leaf=10,
                    bagging_fraction=0.5, bagging_freq=3,
                    min_gain_to_split=8.0, n_rounds=12, seed=9),
        max_bin=16,
        valid_rows=100,
        early_stopping_rounds=6,
        check=null_bag_then_split(3),
    ),
    "feature_fraction_missing_left_root": dict(
        data=dict(n=300, d=6, seed=1, nan_fraction=0.3),
        params=dict(learning_rate=0.3, num_leaves=8, min_data_in_leaf=5,
                    feature_fraction=0.5, n_rounds=8, seed=1, lambda_l2=1.0),
        max_bin=16,
        check=root_default_left,
    ),
    "level_wise_feature_fraction": dict(
        data=dict(n=300, d=6, seed=10, nan_fraction=0.1),
        params=dict(learning_rate=0.3, num_leaves=6, min_data_in_leaf=5,
                    feature_fraction=0.5, bagging_fraction=0.7,
                    bagging_freq=2, n_rounds=8, seed=10, lambda_l2=1.0),
        max_bin=16,
        level_wise=True,
        check=lambda text: len(split_lines(text)) > 0,
    ),
    # a bagged root of 60 rows is below 2 * 60: the validation loss never
    # moves, so round 0 is best and patience 5 stops after round 5
    "root_below_split_bound_early_stopping": dict(
        data=dict(n=300, d=4, seed=11),
        params=dict(learning_rate=0.3, num_leaves=8, min_data_in_leaf=60,
                    bagging_fraction=0.3, bagging_freq=2, n_rounds=20,
                    seed=11),
        max_bin=16,
        valid_rows=100,
        early_stopping_rounds=5,
        check=lambda text: "best_round=0\n" in text and n_null_trees(text) == 3,
    ),
    # without bagging_freq every tree grows on all 300 rows, although
    # bagging_fraction * 300 is below 2 * min_data_in_leaf
    "bagging_fraction_without_freq": dict(
        data=dict(n=300, d=4, seed=12),
        params=dict(learning_rate=0.3, num_leaves=8, min_data_in_leaf=60,
                    bagging_fraction=0.3, bagging_freq=0, n_rounds=4, seed=12),
        max_bin=16,
        check=lambda text: n_null_trees(text) < 12,
    ),
}

GOLDEN_SHA256 = {
    "null_bag_then_redraw_splits":
        "6cceafdccb8437cf5c48f1b8ccbee563244eea511ed9c0be34c5586614ebb8c1",
    "feature_fraction_missing_left_root":
        "6fe57f4c7cd59de86bd625d0580cbf6580eeb270d68b596e03455a312f41343c",
    "level_wise_feature_fraction":
        "daef0851bbef0612a8a48973dfbc541d6baf3d3738fbbb35ec76d0d72697fbe8",
    "root_below_split_bound_early_stopping":
        "ad034a9879bb8d8468d3915c52fd30d24697cca18970c18564351307f65cbb1b",
    "bagging_fraction_without_freq":
        "22cd760b1be69f67bbc20581091177809b74d3729d8ee23e4fea8d532a16af0f",
}


def fit_case(case):
    x, y = make_data(**case["data"])
    n_valid = case.get("valid_rows", 0)
    n_train = len(y) - n_valid
    binned = bin_features(x[:n_train], case["max_bin"])
    kwargs = {}
    if n_valid:
        kwargs = dict(valid=(binned.map_new(x[n_train:]), y[n_train:]),
                      early_stopping_rounds=case["early_stopping_rounds"])
    growth = level_wise_growth() if case.get("level_wise") else nullcontext()
    with growth:
        model = fit(binned, y[:n_train], HyperParams(**case["params"]),
                    n_classes=3, **kwargs)
    return to_text(model)


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_bytes_match_golden(name):
    text = fit_case(CASES[name])
    assert CASES[name]["check"](text)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]
