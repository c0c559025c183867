"""Golden models: the to_text SHA-256 of fit on a small grid of cases.

Any speedup of the training loop must leave these bytes unchanged. Each
case also asserts the property that makes it worth pinning, so a case
cannot silently stop exercising its code path.
"""

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest

from conftest import level_wise_growth
from fundcast.boostwood import HyperParams, bin_features, fit, to_text


def make_data(n, d, seed, nan_fraction=0.0):
    """Three classes from a noisy linear score; optional NaN cells."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    logits = x @ rng.normal(size=(d, 3))
    y = np.argmax(logits + rng.normal(0, 1.0, logits.shape), axis=1)
    if nan_fraction:
        x[rng.random(x.shape) < nan_fraction] = np.nan
    return x, y.astype(np.int64)


def split_lines(text):
    return [line.split() for line in text.splitlines() if line.startswith("split ")]


def has_default_left(text):
    return any(parts[4] == "1" for parts in split_lines(text))


def n_null_trees(text):
    return sum(line.endswith(" none") for line in text.splitlines())


def max_depth_of(text):
    """Deepest split level over all trees, root at depth 0."""
    deepest = -1
    depth = {}
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "tree":
            depth = {0: 0}
        elif parts[0] == "split":
            node, left, right = int(parts[1]), int(parts[5]), int(parts[6])
            deepest = max(deepest, depth[node])
            depth[left] = depth[right] = depth[node] + 1
    return deepest


CASES = {
    "nan_missing_left": dict(
        data=dict(n=300, d=4, seed=1, nan_fraction=0.2),
        params=dict(learning_rate=0.3, num_leaves=8, min_data_in_leaf=5,
                    n_rounds=10, seed=1, lambda_l2=1.0),
        max_bin=16,
        check=has_default_left,
    ),
    "bagging_feature_fraction": dict(
        data=dict(n=300, d=6, seed=2),
        params=dict(learning_rate=0.3, num_leaves=8, min_data_in_leaf=4,
                    feature_fraction=0.5, bagging_fraction=0.6,
                    bagging_freq=2, n_rounds=12, seed=2, lambda_l1=0.5,
                    lambda_l2=2.0),
        max_bin=32,
        check=lambda text: len(split_lines(text)) > 0,
    ),
    "max_depth": dict(
        data=dict(n=300, d=4, seed=3),
        params=dict(learning_rate=0.3, num_leaves=16, min_data_in_leaf=3,
                    max_depth=2, n_rounds=8, seed=3),
        max_bin=16,
        check=lambda text: max_depth_of(text) == 1,
    ),
    "level_wise": dict(
        data=dict(n=300, d=4, seed=4, nan_fraction=0.1),
        params=dict(learning_rate=0.3, num_leaves=6, min_data_in_leaf=5,
                    n_rounds=8, seed=4, lambda_l2=1.0),
        max_bin=16,
        level_wise=True,
        check=lambda text: len(split_lines(text)) > 0,
    ),
    "no_regularisation": dict(
        data=dict(n=300, d=4, seed=5),
        params=dict(learning_rate=0.2, num_leaves=8, min_data_in_leaf=2,
                    lambda_l1=0.0, lambda_l2=0.0, n_rounds=10, seed=5),
        max_bin=16,
        check=lambda text: len(split_lines(text)) > 0,
    ),
    # a bagged root of 90 rows is below 2 * 50: every tree is null
    "root_below_split_bound": dict(
        data=dict(n=300, d=4, seed=6),
        params=dict(learning_rate=0.3, num_leaves=8, min_data_in_leaf=50,
                    bagging_fraction=0.3, bagging_freq=1, n_rounds=4, seed=6),
        max_bin=16,
        check=lambda text: n_null_trees(text) == 12,
    ),
    # 300 rows at min_data_in_leaf 60: roots split, children soon cannot
    "children_below_split_bound": dict(
        data=dict(n=300, d=4, seed=7, nan_fraction=0.05),
        params=dict(learning_rate=0.3, num_leaves=16, min_data_in_leaf=60,
                    n_rounds=6, seed=7),
        max_bin=16,
        check=lambda text: len(split_lines(text)) > 0,
    ),
    "early_stopping": dict(
        data=dict(n=400, d=5, seed=8, nan_fraction=0.1),
        params=dict(learning_rate=0.8, num_leaves=12, min_data_in_leaf=4,
                    feature_fraction=0.6, bagging_fraction=0.7,
                    bagging_freq=3, n_rounds=40, seed=8, lambda_l1=1.0,
                    lambda_l2=5.0),
        max_bin=24,
        valid_rows=100,
        check=lambda text: "best_round=\n" not in text,
    ),
}

GOLDEN_SHA256 = {
    "nan_missing_left":
        "68fc6c5bb49b3f0a95074047c0f81fcff04e177fbc51c2d86b2ce0db423587d7",
    "bagging_feature_fraction":
        "262530475ecf6208f52bedbb19adc5a381f0eb8e9369aad68f4c6dc90e7f2fda",
    "max_depth":
        "2d9c3795824f661328b7a3eeab36ca50706e8a740ef50fac45f32b3f28707239",
    "level_wise":
        "bdac53f98d7a192ce3725abe1211227ea30f97a637a6ee819eed6ad37b4ac563",
    "no_regularisation":
        "45f30c7733cafce3ee6998b82cf0328bbcf62a7536553d7d22d5f8a990e493da",
    "root_below_split_bound":
        "007ea150a6bf865dca13e1a2281cccca8a0e3aecc23b013e5fd5ee5494b415fe",
    "children_below_split_bound":
        "d0275004be5c1e633d991d0a62ba0de222e24c0e918f1155ced977c7a9040134",
    "early_stopping":
        "ac6795e955599c273673f19a6316502ac85543fdea35d52e4dda82b9bba51c6b",
}


def fit_case(case):
    x, y = make_data(**case["data"])
    n_valid = case.get("valid_rows", 0)
    n_train = len(y) - n_valid
    binned = bin_features(x[:n_train], case["max_bin"])
    kwargs = {}
    if n_valid:
        kwargs = dict(valid=(binned.map_new(x[n_train:]), y[n_train:]),
                      early_stopping_rounds=5)
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
