import numpy as np
import pytest

from fundcast.feature_forge import _pooled_fill_period
from fundcast.panel_ingest import (
    CalendarQuarter,
    CompanyMeta,
    Format,
    RawPanel,
    StatementGroup,
    VariableSpec,
)


def quarter_range(start_year: int, start_q: int, n: int):
    start = CalendarQuarter(start_year, start_q)
    return [CalendarQuarter.from_index(start.index + i) for i in range(n)]


def grid_panel(companies, quarters, columns, meta=None) -> RawPanel:
    """Panel from per-variable (n_companies, n_quarters) value grids."""
    keys = [(c, q) for c in companies for q in quarters]
    cols = {name: np.asarray(grid, dtype=np.float64).reshape(-1)
            for name, grid in columns.items()}
    meta = meta or {c: CompanyMeta() for c in companies}
    return RawPanel(keys, cols, meta)


def simple_spec(name, group="income", formats=(Format.RAW,), crucial=False,
                aligned=False) -> VariableSpec:
    return VariableSpec(name, StatementGroup(group), frozenset(formats),
                        crucial, aligned)


def single_company_fill_period(series, max_p=20):
    """(p, mean squared residuals) that impute's fill-period choice gives one
    company's series when every row is a fit row."""
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    return _pooled_fill_period(series, [("A", 0, n)], np.ones(n, dtype=bool),
                               max_p)


def split_gain(parent_stats, left_stats, params) -> float:
    """Gain of splitting a node with (G, H) sums into left and right = parent - left.

    gain = score(left) + score(right) - score(parent) with
    score(G, H) = soft_threshold(G, lambda_l1)^2 / (H + lambda_l2), and 0
    where H + lambda_l2 is not positive.
    """
    def score(g, h):
        t = max(abs(g) - params.lambda_l1, 0.0)
        denom = h + params.lambda_l2
        return t * t / denom if denom > 0 else 0.0

    gp, hp = parent_stats
    gl, hl = left_stats
    return score(gl, hl) + score(gp - gl, hp - hl) - score(gp, hp)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
