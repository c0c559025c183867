import numpy as np
import pytest

from conftest import quarter_range
from fundcast.boostwood import HyperParams
from fundcast.errors import SearchError, WindowTooSmallError
from fundcast.tuner import (
    ParamRange,
    default_space,
    make_validation_split,
    search,
)


def keys_over(quarters, n_companies=3):
    return [(f"C{i}", q) for i in range(n_companies) for q in quarters]


def split_keys(keys, size):
    """make_validation_split over the keys' quarter indexes."""
    return make_validation_split([q.index for _, q in keys], size)


class TestValidationSplit:
    def test_chronological_tail_takes_last_quarters(self):
        quarters = quarter_range(1988, 1, 80)
        keys = keys_over(quarters)
        train_idx, valid_idx = split_keys(keys, 4)
        held = {keys[i][1] for i in valid_idx}
        assert held == set(quarters[-4:])
        kept = {keys[i][1] for i in train_idx}
        assert kept == set(quarters[:-4])

    def test_boundary_single_training_quarter(self):
        quarters = quarter_range(1990, 1, 6)
        keys = keys_over(quarters)
        train_idx, valid_idx = split_keys(keys, 5)
        assert {keys[i][1] for i in train_idx} == {quarters[0]}

    def test_partition_disjoint_exhaustive(self):
        # rows in no particular quarter order
        keys = keys_over(quarter_range(1990, 1, 10))[::-1]
        train_idx, valid_idx = split_keys(keys, 3)
        merged = np.sort(np.concatenate([train_idx, valid_idx]))
        np.testing.assert_array_equal(merged, np.arange(len(keys)))

    def test_window_too_small(self):
        keys = keys_over(quarter_range(1990, 1, 4))
        with pytest.raises(WindowTooSmallError):
            split_keys(keys, 4)

    @pytest.mark.parametrize("size", [0, -2])
    def test_size_below_one_rejected(self, size):
        # 30 rows over 10 quarters: size 0 used to hold out all 30 rows,
        # size -2 the last 8 quarters
        keys = keys_over(quarter_range(1990, 1, 10))
        with pytest.raises(ValueError, match="size must be >= 1"):
            split_keys(keys, size)


class TestParamRange:
    def test_integer_scale_integral(self, rng):
        r = ParamRange(2, 9, "integer")
        for _ in range(50):
            v = r.sample(rng)
            assert isinstance(v, int)
            assert 2 <= v <= 9

    def test_log_scale_requires_positive(self):
        with pytest.raises(ValueError):
            ParamRange(0.0, 1.0, "log")

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            ParamRange(2.0, 1.0)


class TestSearch:
    def _lr_space(self):
        return {"learning_rate": ParamRange(0.01, 1.0)}

    def test_budget_one_returns_single_trial(self):
        best, trials = search(self._lr_space(), 1,
                              lambda p: (0.5, 0.6), seed=0)
        assert len(trials) == 1
        assert best == trials[0].params

    def test_planted_unimodal_objective(self):
        target = 0.37

        def objective(params):
            val = 1.0 - (params.learning_rate - target) ** 2
            return val, val

        best, trials = search(self._lr_space(), 50, objective, seed=3)
        best_val = max(t.validation_metric for t in trials if t.ok)
        assert best_val >= 0.9 * 1.0
        assert abs(best.learning_rate - target) < 0.2

    def test_tie_goes_to_earliest_trial(self):
        best, trials = search(self._lr_space(), 5, lambda p: (0.8, 0.8), seed=0)
        assert best == trials[0].params

    def test_all_samples_inside_box(self):
        space = default_space()
        seen = []

        def objective(params):
            seen.append(params)
            return 0.5, 0.5

        search(space, 30, objective, seed=11)
        for params in seen:
            for name, rng_ in space.items():
                value = getattr(params, name)
                assert rng_.lo <= value <= rng_.hi, (name, value)
                if rng_.scale == "integer":
                    assert float(value).is_integer()

    def test_failed_trials_recorded_not_fatal(self):
        calls = {"n": 0}

        def objective(params):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("boom")
            return 0.4, 0.4

        best, trials = search(self._lr_space(), 6, objective, seed=0)
        assert sum(not t.ok for t in trials) == 3
        assert all(t.error == "boom" for t in trials if not t.ok)
        assert best is not None

    def test_failed_trial_metrics_are_none_in_memory_and_record(self):
        def objective(params):
            if params.learning_rate > 0.5:
                raise RuntimeError("boom")
            return 0.4, 0.3

        _, trials = search(self._lr_space(), 8, objective, seed=0)
        failed = [t for t in trials if not t.ok]
        assert failed and len(failed) < len(trials)
        for t in failed:
            assert (t.validation_metric, t.train_metric) == (None, None)
            record = t.to_record()
            assert (record["validation_metric"], record["train_metric"]) \
                == (None, None)

    def test_all_failures_raise(self):
        def objective(params):
            raise RuntimeError("nope")

        with pytest.raises(SearchError):
            search(self._lr_space(), 3, objective, seed=0)

    def test_all_failures_name_the_last_error(self):
        def objective(params):
            raise RuntimeError(f"no tree at learning_rate {params.learning_rate}")

        with pytest.raises(SearchError) as info:
            search(self._lr_space(), 3, objective, seed=0)
        _, trials = search(self._lr_space(), 3, lambda p: (0.5, 0.5), seed=0)
        last_rate = trials[-1].params.learning_rate
        assert str(info.value) == (f"all 3 trials failed; last error: no tree "
                                   f"at learning_rate {last_rate}")

    def test_zero_budget_rejected(self):
        with pytest.raises(SearchError):
            search(self._lr_space(), 0, lambda p: (0, 0), seed=0)

    def test_deterministic_under_seed(self):
        def objective(params):
            return params.learning_rate, params.learning_rate

        a = search(self._lr_space(), 8, objective, seed=21)
        b = search(self._lr_space(), 8, objective, seed=21)
        assert a[0] == b[0]
        assert [t.params for t in a[1]] == [t.params for t in b[1]]

    def test_base_params_carried_through(self):
        base = HyperParams(n_rounds=37, max_bin=64)
        best, _ = search(self._lr_space(), 2, lambda p: (0.1, 0.1),
                         seed=0, base_params=base)
        assert best.n_rounds == 37
        assert best.max_bin == 64

    def test_default_space_covers_the_ten_parameters(self):
        space = default_space()
        assert set(space) == {
            "learning_rate", "max_bin", "num_leaves", "min_data_in_leaf",
            "feature_fraction", "bagging_fraction", "bagging_freq",
            "min_gain_to_split", "lambda_l1", "lambda_l2"}
        assert space["min_gain_to_split"].lo == 0.5
        assert space["min_gain_to_split"].hi == 0.72
        assert space["lambda_l2"].lo == 350.0

    def test_default_space_draws_integers_for_exactly_the_integer_fields(self):
        defaults = HyperParams()
        space = default_space()
        assert {name for name, range_ in space.items()
                if range_.scale == "integer"} == {
            name for name in space
            if isinstance(getattr(defaults, name), int)}
