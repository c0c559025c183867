"""Deterministic synthetic quarterly panel with a plantable earnings signal.

Fundamentals follow AR(1) levels with positive drift around a per-company
scale; net income is a linear function of lagged driver variables plus a
period-4 seasonal term plus Gaussian noise. The generator returns the
noiseless target alongside the panel so every pipeline stage has a
ground-truth fixture. Missingness is injected cell-wise on non-crucial
variables only (a 20-quarter crucial look-back would otherwise delete
nearly every row).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .panel_ingest import (
    CONSENSUS_HEADER,
    SCHEMA_HEADER,
    CalendarQuarter,
    CompanyMeta,
    PanelIndex,
    RawPanel,
    schema_spec,
)

SEASON_PATTERN = (0.0, 1.0, 0.0, -1.0)

TRUTH_HEADER = ["company_id", "year", "quarter", "target_true"]


@dataclass(frozen=True)
class SignalSpec:
    """Knobs for the synthetic panel and its planted signal."""

    driver_variables: tuple = ("drv_orders", "drv_backlog", "drv_costs")
    coefficients: tuple = (1.5, -1.0, 0.8)
    seasonality_amplitude: float = 0.6
    noise_sd: float = 1.0
    missing_rate: float = 0.05
    n_companies: int = 300
    n_quarters: int = 120
    seed: int = 7
    start_year: int = 1988

    def validate(self) -> None:
        if len(self.driver_variables) != len(self.coefficients):
            raise InvalidSpecError("driver_variables and coefficients differ in length")
        if len(self.driver_variables) == 0:
            raise InvalidSpecError("at least one driver variable required")
        if len(set(self.driver_variables)) != len(self.driver_variables):
            raise InvalidSpecError("driver names must be unique")
        if not 0 <= self.missing_rate <= 1:
            raise InvalidSpecError(f"missing_rate outside [0,1]: {self.missing_rate}")
        if self.noise_sd < 0:
            raise InvalidSpecError(f"noise_sd must be >= 0: {self.noise_sd}")
        if self.n_companies < 1:
            raise InvalidSpecError(f"n_companies must be >= 1: {self.n_companies}")
        if self.n_quarters < 25:
            raise InvalidSpecError(
                f"n_quarters must be >= 25 (lag window + horizon): {self.n_quarters}")


_BASE_ROWS = [
    # name, group, yoy, qoq, pct_assets, pct_revenue, crucial, aligned
    ("atq", "balance", 1, 1, 0, 0, 1, 0),
    ("ltq", "balance", 1, 0, 1, 0, 1, 0),
    ("seqq", "balance", 1, 0, 1, 0, 1, 0),
    ("cheq", "balance", 1, 0, 1, 0, 1, 0),
    ("revtq", "income", 1, 1, 0, 0, 1, 0),
    ("niq", "income", 1, 1, 0, 1, 1, 0),
    ("aux_capex", "cashflow", 0, 1, 0, 1, 0, 0),
    ("macro_gdp_qoq", "macro", 0, 0, 0, 0, 0, 0),
    ("macro_rate_short", "macro", 0, 0, 0, 0, 0, 1),
    ("mkt_excess_ret", "market", 0, 0, 0, 0, 0, 1),
]


def schema_rows(spec: SignalSpec) -> list:
    rows = list(_BASE_ROWS[:6])
    for name in spec.driver_variables:
        rows.append((name, "income", 0, 1, 1, 0, 0, 0))
    rows.extend(_BASE_ROWS[6:])
    return rows


def default_schema(spec: SignalSpec) -> list:
    """VariableSpec list matching what load_schema reads from write_schema_csv."""
    return [schema_spec(row) for row in schema_rows(spec)]


def write_schema_csv(spec: SignalSpec, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEMA_HEADER)
        for row in schema_rows(spec):
            writer.writerow(row)


def _ar1(rng, shape, phi: float) -> np.ndarray:
    """Stationary unit-variance AR(1) paths along the last axis."""
    e = rng.normal(size=shape)
    out = np.empty(shape)
    out[..., 0] = e[..., 0]
    scale = np.sqrt(1.0 - phi * phi)
    for t in range(1, shape[-1]):
        out[..., t] = phi * out[..., t - 1] + scale * e[..., t]
    return out


def generate_panel(spec: SignalSpec):
    """Generate (RawPanel, ground-truth target vector aligned to its rows).

    The realized net income is NI(c,t) = S_c * (0.5 + sum_j coef_j *
    u_j(c,t-1) + seasonal(t) + eps(c,t)); the returned target is the
    noiseless relative change (NI_clean(T+1) - NI_clean(T)) / assets(T),
    NaN on each company's final quarter.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    nc, nq = spec.n_companies, spec.n_quarters
    quarters = [CalendarQuarter.from_index(
        CalendarQuarter(spec.start_year, 1).index + t) for t in range(nq)]
    season = np.array([spec.seasonality_amplitude * SEASON_PATTERN[q.quarter - 1]
                       for q in quarters])

    gdp = 0.02 + 0.01 * _ar1(rng, (nq,), 0.8)
    rate = 0.03 + 0.01 * _ar1(rng, (nq,), 0.9)

    size = np.exp(rng.normal(0.0, 0.25, size=nc))[:, None]
    drift = np.exp(0.008 * np.arange(nq))[None, :]
    atq = size * drift * np.exp(0.15 * _ar1(rng, (nc, nq), 0.9))
    ltq = 0.6 * atq * np.exp(0.10 * _ar1(rng, (nc, nq), 0.9))
    seqq = atq - ltq
    cheq = 0.15 * atq * np.exp(0.30 * _ar1(rng, (nc, nq), 0.8))
    revtq = 0.8 * size * drift * np.exp(0.20 * _ar1(rng, (nc, nq), 0.9))

    n_drv = len(spec.driver_variables)
    u = _ar1(rng, (nc, n_drv, nq + 1), 0.7)  # index t+1 holds u(t), t from -1
    drivers = {name: size * (1.5 + u[:, j, 1:])
               for j, name in enumerate(spec.driver_variables)}
    aux = size * (0.3 + 0.6 * _ar1(rng, (nc, nq), 0.7))
    mkt = rng.normal(0.0, 0.05, size=(nc, nq))
    eps = rng.normal(0.0, 1.0, size=(nc, nq)) * spec.noise_sd

    coefs = np.asarray(spec.coefficients)
    signal = np.einsum("j,cjt->ct", coefs, u[:, :, :nq])  # uses u(t-1) at t
    ni_clean = size * (0.5 + signal + season[None, :])
    niq = ni_clean + size * eps

    truth_grid = np.full((nc, nq), np.nan)
    truth_grid[:, :-1] = (ni_clean[:, 1:] - ni_clean[:, :-1]) / atq[:, :-1]

    values = {
        "atq": atq, "ltq": ltq, "seqq": seqq, "cheq": cheq,
        "revtq": revtq, "niq": niq, "aux_capex": aux,
        "macro_gdp_qoq": np.broadcast_to(gdp, (nc, nq)).copy(),
        "macro_rate_short": np.broadcast_to(rate, (nc, nq)).copy(),
        "mkt_excess_ret": mkt,
    }
    values.update(drivers)

    if spec.missing_rate > 0:
        injectable = list(spec.driver_variables) + ["aux_capex"]
        for name in injectable:
            mask = rng.random(size=(nc, nq)) < spec.missing_rate
            col = values[name].copy()
            col[mask] = np.nan
            values[name] = col

    # Panel rows go in company-id order, which is generation order unless
    # there are more than 99999 companies.
    ids = [f"C{i:05d}" for i in range(1, nc + 1)]
    order = sorted(range(nc), key=ids.__getitem__)
    companies = [ids[i] for i in order]
    first = quarters[0].index
    index = PanelIndex(companies, np.repeat(np.arange(nc), nq),
                       np.tile(np.arange(first, first + nq), nc))
    columns = {name: grid[order].reshape(-1).astype(np.float64)
               for name, grid in values.items()}
    meta = {c: CompanyMeta(sector_code=20, min_share_price=5.0,
                           fiscal_alignment_flag=True, reporting_gap_flag=False)
            for c in companies}
    panel = RawPanel(index, columns, meta)
    return panel, truth_grid[order].reshape(-1)


def write_truth_csv(panel: RawPanel, truth: np.ndarray, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        index = panel.index
        for company, q, value in zip(index.company_names(), index.quarter.tolist(),
                                     truth.tolist()):
            writer.writerow([company, q // 4, q % 4 + 1,
                             "" if value != value else repr(value)])


def generate_consensus_rows(panel: RawPanel, *, income_var: str = "niq",
                            skill: float = 0.8, seed: int = 0) -> list:
    """Synthetic analyst table: non-GAAP actuals plus noisy estimates of them.

    skill in [0, 1] scales the estimate noise down; 1.0 reproduces the
    actuals exactly.
    """
    rng = np.random.default_rng(seed)
    ni = panel.columns[income_var]
    actual_ng = ni * 1.05
    sd = float(np.nanstd(ni)) * max(0.0, 1.0 - skill)
    mean_est = actual_ng + rng.normal(0.0, sd if sd > 0 else 0.0, size=len(ni))
    median_est = actual_ng + rng.normal(0.0, sd if sd > 0 else 0.0, size=len(ni))
    index = panel.index
    return [(company, q // 4, q % 4 + 1, mean, median, actual)
            for company, q, mean, median, actual in zip(
                index.company_names(), index.quarter.tolist(), mean_est.tolist(),
                median_est.tolist(), actual_ng.tolist())
            if actual == actual]


def write_consensus_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONSENSUS_HEADER)
        for company, year, quarter, mean_est, median_est, actual in rows:
            writer.writerow([company, year, quarter, repr(mean_est),
                             repr(median_est), repr(actual)])
