import numpy as np
import pytest

from fundcast.feature_forge import _pooled_fill_period
from fundcast.panel_ingest import (
    CalendarQuarter,
    CompanyMeta,
    Format,
    PanelIndex,
    RawPanel,
    StatementGroup,
    VariableSpec,
)
from fundcast.rollcast import ConsensusTable


def quarter_range(start_year: int, start_q: int, n: int):
    start = CalendarQuarter(start_year, start_q)
    return [CalendarQuarter.from_index(start.index + i) for i in range(n)]


def index_from_keys(keys) -> PanelIndex:
    """PanelIndex of (company_id, CalendarQuarter) keys, sorted by company
    id and then quarter."""
    names = sorted({company for company, _ in keys})
    code = {name: i for i, name in enumerate(names)}
    return PanelIndex(names, [code[company] for company, _ in keys],
                      [q.index for _, q in keys])


def keys_of(index: PanelIndex) -> list:
    """(company_id, CalendarQuarter) of each index row."""
    return [(company, CalendarQuarter.from_index(q))
            for company, q in zip(index.company_names(), index.quarter.tolist())]


def grid_panel(companies, quarters, columns, meta=None) -> RawPanel:
    """Panel from per-variable (n_companies, n_quarters) value grids."""
    keys = [(c, q) for c in companies for q in quarters]
    cols = {name: np.asarray(grid, dtype=np.float64).reshape(-1)
            for name, grid in columns.items()}
    meta = meta or {c: CompanyMeta() for c in companies}
    return RawPanel(index_from_keys(keys), cols, meta)


def consensus_table(rows: dict) -> ConsensusTable:
    """ConsensusTable from {(company_id, CalendarQuarter): (mean, median,
    actual)}."""
    keys = sorted(rows, key=lambda k: (k[0], k[1].index))
    values = np.array([rows[k] for k in keys], dtype=np.float64).reshape(-1, 3)
    return ConsensusTable(index_from_keys(keys), values)


def simple_spec(name, group="income", formats=(Format.RAW,), crucial=False,
                aligned=False) -> VariableSpec:
    return VariableSpec(name, StatementGroup(group), frozenset(formats),
                        crucial, aligned)


def single_company_fill_period(series, max_p=20):
    """(p, mean squared residuals) that impute's fill-period choice gives one
    company's series when every row is a fit row."""
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    return _pooled_fill_period(series, [(0, n)], np.ones(n, dtype=bool), max_p)


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


def quantile_bin_edges(x, max_bin):
    """Per-column bin edges by np.quantile on the finite values: up to
    max_bin - 1 distinct k/max_bin quantiles below the column's maximum,
    none for a column without a finite value."""
    probs = np.arange(1, max_bin) / max_bin
    edges = []
    for col in np.asarray(x, dtype=np.float64).T:
        finite = col[np.isfinite(col)]
        if len(finite) == 0:
            edges.append(np.empty(0))
            continue
        q = np.unique(np.quantile(finite, probs))
        edges.append(q[q < finite.max()])
    return edges


def edge_codes(x, edges, miss_code):
    """Bin code of every cell: edges below the value, or miss_code for NaN."""
    x = np.asarray(x, dtype=np.float64)
    codes = np.empty(x.shape, dtype=np.int64)
    for f, col in enumerate(x.T):
        codes[:, f] = np.searchsorted(edges[f], col, side="left")
        codes[np.isnan(col), f] = miss_code
    return codes


def reference_jacobi_eigh(a, tol=1e-12, max_sweeps=60):
    """Cyclic Jacobi with one copy per row and column and a fresh array per
    product: the plain form of spectral_reduce.jacobi_eigh, which must give
    the same output bytes on every input this one converges on."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    a = (a + a.T) / 2.0
    v = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), v

    norm = np.linalg.norm(a)
    if norm == 0:
        return np.zeros(n), v
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * norm / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = a[p, :].copy()
                rot_q = a[q, :].copy()
                a[p, :] = c * rot_p - s * rot_q
                a[q, :] = s * rot_p + c * rot_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
