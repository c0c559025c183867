"""Hold-out validation splits and hyperparameter search.

Uniform random search over a box of per-parameter ranges, validated on the
last quarters of the training window. Every trial is seeded from
(seed, trial_index) so trials are reproducible and order-independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .boostwood import HyperParams
from .errors import SearchError, WindowTooSmallError

SCALES = ("linear", "log", "integer")


@dataclass(frozen=True)
class ParamRange:
    lo: float
    hi: float
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.lo > self.hi:
            raise ValueError(f"range lo {self.lo} > hi {self.hi}")
        if self.scale == "log" and self.lo <= 0:
            raise ValueError("log scale requires a positive lower bound")

    def sample(self, rng: np.random.Generator) -> float:
        if self.scale == "integer":
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        if self.scale == "log":
            return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))
        return float(rng.uniform(self.lo, self.hi))


def default_space() -> dict:
    """Default search box: a ParamRange per tuned parameter, ten of them, in
    the order every trial draws them."""
    return {
        "learning_rate": ParamRange(0.6, 1.0),
        "max_bin": ParamRange(127, 255, "integer"),
        "num_leaves": ParamRange(50, 200, "integer"),
        "min_data_in_leaf": ParamRange(500, 1400, "integer"),
        "feature_fraction": ParamRange(0.3, 0.8),
        "bagging_fraction": ParamRange(0.4, 0.8),
        "bagging_freq": ParamRange(2, 8, "integer"),
        "min_gain_to_split": ParamRange(0.5, 0.72),
        "lambda_l1": ParamRange(1.0, 20.0),
        "lambda_l2": ParamRange(350.0, 450.0),
    }


@dataclass
class TrialRecord:
    index: int
    params: HyperParams
    validation_metric: float
    train_metric: float
    wall_time: float
    error: str | None = None
    # training facts of the trial's model, when the objective reports them
    best_round: int | None = None
    rounds_fitted: int | None = None
    null_trees: int | None = None
    best_valid_loss: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_record(self) -> dict:
        out = {
            "index": self.index,
            "validation_metric": None if np.isnan(self.validation_metric)
                else float(self.validation_metric),
            "train_metric": None if np.isnan(self.train_metric)
                else float(self.train_metric),
            "wall_time": float(self.wall_time),
            "error": self.error,
            "best_round": self.best_round,
            "rounds_fitted": self.rounds_fitted,
            "null_trees": self.null_trees,
            "best_valid_loss": self.best_valid_loss,
        }
        out["params"] = {k: (v if not isinstance(v, float) else float(v))
                         for k, v in vars(self.params).items()}
        return out


def make_validation_split(quarters, size_quarters: int):
    """Partition training rows into (train_idx, validation_idx) by quarter.

    quarters holds each row's CalendarQuarter.index. The last size_quarters
    calendar quarters are held out wholesale; size_quarters must be >= 1.
    No row lands on both sides.
    """
    if size_quarters < 1:
        raise ValueError(f"validation size must be >= 1, got {size_quarters}")
    quarters = np.asarray(quarters)
    distinct = np.unique(quarters)
    if len(distinct) < size_quarters + 1:
        raise WindowTooSmallError(
            f"window spans {len(distinct)} quarters; "
            f"need >= {size_quarters + 1} for a {size_quarters}-quarter split")
    in_valid = np.isin(quarters, distinct[-size_quarters:])
    idx = np.arange(len(quarters))
    return idx[~in_valid], idx[in_valid]


def search(space: dict, budget: int, objective, seed: int, *,
           base_params: HyperParams | None = None):
    """Sample budget parameter vectors and keep the best validation metric.

    space maps each searched HyperParams field to its ParamRange; a trial
    draws them in the dict's order.
    objective(params) returns (validation_metric, train_metric), optionally
    followed by a dict of training facts (TrialRecord's best_round,
    rounds_fitted, null_trees, best_valid_loss); a trial exception is
    recorded, not fatal, unless every trial fails, and then the last
    trial's error names the cause. Ties on the metric go to the earliest
    trial.
    """
    if budget < 1:
        raise SearchError(f"budget must be >= 1, got {budget}")
    base = base_params if base_params is not None else HyperParams()

    trials = []
    last_error = None
    for index in range(budget):
        rng = np.random.default_rng([seed, index])
        params = replace(base, **{name: range_.sample(rng)
                                  for name, range_ in space.items()})
        params = replace(params, seed=int(np.random.default_rng(
            [seed, index, 1]).integers(0, 2 ** 31)))
        t0 = time.perf_counter()
        try:
            val, train, *facts = objective(params)
            record = TrialRecord(index, params, float(val), float(train),
                                 time.perf_counter() - t0,
                                 **(facts[0] if facts else {}))
        except Exception as exc:  # per-trial failures are recorded
            last_error = exc
            record = TrialRecord(index, params, float("nan"), float("nan"),
                                 time.perf_counter() - t0, error=str(exc))
        trials.append(record)

    ok = [record for record in trials if record.ok]
    if not ok:
        raise SearchError(
            f"all {budget} trials failed; last error: {last_error}") from last_error
    # max keeps the earliest of equal metrics
    best = max(ok, key=lambda record: record.validation_metric)
    return best.params, trials
