"""Quarterly panel ingestion.

Loads schema-described long-format CSVs onto a calendar-quarter grid, applies
company-level sample-elimination filters, and shifts next-quarter-aligned
series. Column vectors use NaN as the distinguished missing marker; no
numeric sentinel appears before the imputation stage downstream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import PanelError, SchemaError

SCHEMA_HEADER = [
    "name",
    "statement_group",
    "yoy",
    "qoq",
    "pct_assets",
    "pct_revenue",
    "crucial",
    "next_quarter_aligned",
]

PANEL_HEADER = ["company_id", "year", "quarter", "variable", "value"]

# Reserved per-company attribute rows inside the panel CSV.
META_PREFIX = "meta_"
META_FIELDS = (
    "sector_code",
    "min_share_price",
    "fiscal_alignment_flag",
    "reporting_gap_flag",
)

# Variables whose raw level is always kept as a scale indicator.
DEFAULT_SCALE_VARS = ("atq", "revtq")


class StatementGroup(str, Enum):
    INCOME = "income"
    BALANCE = "balance"
    CASHFLOW = "cashflow"
    MACRO = "macro"
    MARKET = "market"


FINANCIAL_GROUPS = frozenset(
    {StatementGroup.INCOME, StatementGroup.BALANCE, StatementGroup.CASHFLOW}
)


class Format(str, Enum):
    YOY = "yoy"
    QOQ = "qoq"
    PCT_ASSETS = "pct_assets"
    PCT_REVENUE = "pct_revenue"
    RAW = "raw"


GROWTH_FORMATS = frozenset({Format.YOY, Format.QOQ})
RATIO_FORMATS = frozenset({Format.PCT_ASSETS, Format.PCT_REVENUE})
CONVERTED_FORMATS = GROWTH_FORMATS | RATIO_FORMATS


@dataclass(frozen=True, order=True)
class CalendarQuarter:
    """A calendar quarter with exact integer arithmetic."""

    year: int
    quarter: int

    def __post_init__(self):
        if not 1 <= self.quarter <= 4:
            raise ValueError(f"quarter must be in 1..4, got {self.quarter}")

    @property
    def index(self) -> int:
        return self.year * 4 + (self.quarter - 1)

    @classmethod
    def from_index(cls, idx: int) -> "CalendarQuarter":
        return cls(idx // 4, idx % 4 + 1)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"


@dataclass(frozen=True)
class VariableSpec:
    """One schema row: a raw variable and the formats derived from it."""

    name: str
    statement_group: StatementGroup
    formats: frozenset
    crucial: bool = False
    next_quarter_aligned: bool = False

    @property
    def is_financial(self) -> bool:
        return self.statement_group in FINANCIAL_GROUPS


@dataclass
class CompanyMeta:
    """Pre-computed per-company filter attributes; None means unknown (pass)."""

    sector_code: int | None = None
    min_share_price: float | None = None
    fiscal_alignment_flag: bool | None = None
    reporting_gap_flag: bool | None = None


@dataclass(frozen=True)
class FilterRules:
    """Company-level elimination rules; None / False disables a rule."""

    require_company_id: bool = True
    min_share_price: float | None = 1.0
    excluded_sectors: frozenset = frozenset({40, 55})
    require_fiscal_alignment: bool = True
    exclude_reporting_gaps: bool = True


def company_slices(keys) -> list:
    """Contiguous (company, start, stop) runs over keys sorted by company."""
    out = []
    start = 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i][0] != keys[start][0]:
            out.append((keys[start][0], start, i))
            start = i
    return out


def _shifted(values: np.ndarray, q_idx: np.ndarray, start: int, stop: int,
             shift: int) -> np.ndarray:
    """Per row of one company's slice, the company's value shift calendar
    quarters earlier (later when shift is negative), NaN where that quarter
    has no row."""
    qi = q_idx[start:stop]
    want = qi - shift
    pos = np.searchsorted(qi, want)
    pos_clipped = np.minimum(pos, len(qi) - 1)
    ok = (want >= qi[0]) & (qi[pos_clipped] == want)
    out = np.full(stop - start, np.nan)
    out[ok] = values[start:stop][pos_clipped[ok]]
    return out


@dataclass
class RawPanel:
    """Per-(company, quarter) raw values on a calendar grid.

    keys are sorted by (company_id, quarter); every column vector holds one
    float per key with NaN marking missing. meta carries the per-company
    filter attributes.
    """

    keys: list
    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.keys)
        seen = set()
        last = {}
        for company, quarter in self.keys:
            if (company, quarter) in seen:
                raise PanelError(f"duplicate key ({company}, {quarter})")
            seen.add((company, quarter))
            prev = last.get(company)
            if prev is not None and quarter.index <= prev:
                raise PanelError(f"quarters not increasing for {company}")
            last[company] = quarter.index
        for name, col in self.columns.items():
            if len(col) != n:
                raise PanelError(
                    f"column {name} has {len(col)} entries for {n} keys"
                )

    @property
    def n_rows(self) -> int:
        return len(self.keys)

    def quarters(self) -> list:
        """Sorted distinct quarters present anywhere in the panel."""
        return sorted({q for _, q in self.keys})

    def take_rows(self, mask: np.ndarray) -> "RawPanel":
        keys = [k for k, keep in zip(self.keys, mask) if keep]
        columns = {name: col[mask] for name, col in self.columns.items()}
        companies = {c for c, _ in keys}
        meta = {c: m for c, m in self.meta.items() if c in companies}
        return RawPanel(keys, columns, meta)


def _parse_flag(text: str, row_num: int, what: str) -> bool:
    if text in ("0", "1"):
        return text == "1"
    raise SchemaError(f"row {row_num}: {what} must be 0 or 1, got {text!r}")


def load_schema(path, scale_vars=DEFAULT_SCALE_VARS) -> list:
    """Load the variable schema CSV.

    Variables named in scale_vars keep their raw level in addition to any
    converted formats; variables with no format flags at all are raw
    pass-throughs (macro rates, market returns).
    """
    specs = []
    names = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("schema file is empty") from None
        if header != SCHEMA_HEADER:
            raise SchemaError(f"bad schema header {header!r}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SCHEMA_HEADER):
                raise SchemaError(f"row {row_num}: expected 8 fields, got {len(row)}")
            name = row[0].strip()
            if not name:
                raise SchemaError(f"row {row_num}: empty variable name")
            if name.startswith(META_PREFIX):
                raise SchemaError(
                    f"row {row_num}: names may not start with {META_PREFIX!r}"
                )
            if name in names:
                raise SchemaError(f"row {row_num}: duplicate variable name {name!r}")
            names.add(name)
            try:
                group = StatementGroup(row[1].strip())
            except ValueError:
                raise SchemaError(
                    f"row {row_num}: unknown statement_group {row[1]!r}"
                ) from None
            formats = set()
            for flag, fmt in zip(row[2:6], (Format.YOY, Format.QOQ,
                                            Format.PCT_ASSETS, Format.PCT_REVENUE)):
                if _parse_flag(flag.strip(), row_num, "format flag"):
                    formats.add(fmt)
            if name in scale_vars or not formats:
                formats.add(Format.RAW)
            crucial = _parse_flag(row[6].strip(), row_num, "crucial")
            aligned = _parse_flag(row[7].strip(), row_num, "next_quarter_aligned")
            if aligned and group in FINANCIAL_GROUPS:
                raise SchemaError(
                    f"row {row_num}: next_quarter_aligned requires macro/market group"
                )
            specs.append(VariableSpec(name, group, frozenset(formats), crucial, aligned))
    return specs


def _parse_meta_value(field_name: str, text: str):
    if text == "":
        return None
    if field_name == "sector_code":
        return int(float(text))
    if field_name == "min_share_price":
        return float(text)
    return text == "1" or text.lower() == "true"


def load_panel(path, schema) -> RawPanel:
    """Load a long-format panel CSV against a schema.

    Rows: company_id,year,quarter,variable,value. Empty value cells become
    the missing marker. Reserved meta_* variables populate company meta.
    """
    known = {spec.name for spec in schema}
    cells = {}
    meta = {}
    companies_seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError("panel file is empty") from None
        if header != PANEL_HEADER:
            raise PanelError(f"bad panel header {header!r}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise PanelError(f"row {row_num}: expected 5 fields, got {len(row)}")
            company, year_s, quarter_s, variable, value_s = row
            try:
                year = int(year_s)
                quarter = int(quarter_s)
                cq = CalendarQuarter(year, quarter)
            except ValueError as exc:
                raise PanelError(
                    f"row {row_num}: malformed quarter {year_s!r},{quarter_s!r}"
                ) from exc
            companies_seen.add(company)
            if variable.startswith(META_PREFIX):
                field_name = variable[len(META_PREFIX):]
                if field_name not in META_FIELDS:
                    raise PanelError(
                        f"row {row_num}: unknown meta attribute {variable!r}"
                    )
                cm = meta.setdefault(company, CompanyMeta())
                if getattr(cm, field_name) is None:
                    setattr(cm, field_name, _parse_meta_value(field_name, value_s))
                continue
            if variable not in known:
                raise PanelError(f"row {row_num}: unknown variable {variable!r}")
            if value_s == "":
                value = np.nan
            else:
                try:
                    value = float(value_s)
                except ValueError as exc:
                    raise PanelError(
                        f"row {row_num}: bad value {value_s!r}"
                    ) from exc
            key = (company, cq)
            cell = (key, variable)
            if cell in cells:
                raise PanelError(
                    f"row {row_num}: duplicate cell for {variable!r} at {company},{cq}"
                )
            cells[cell] = value

    keys = sorted({key for key, _ in cells},
                  key=lambda k: (k[0], k[1].index))
    key_pos = {key: i for i, key in enumerate(keys)}
    columns = {
        spec.name: np.full(len(keys), np.nan, dtype=np.float64) for spec in schema
    }
    for (key, variable), value in cells.items():
        columns[variable][key_pos[key]] = value
    panel_meta = {c: meta.get(c, CompanyMeta()) for c in sorted(companies_seen)}
    return RawPanel(keys, columns, panel_meta)


def _format_value(value: float) -> str:
    if np.isnan(value):
        return ""
    return repr(float(value))


def save_panel(panel: RawPanel, path, schema=None) -> None:
    """Write a RawPanel to the long CSV format load_panel reads.

    Every (key, variable) cell is written (empty string for missing) so
    reloading reproduces the panel exactly, keys included.
    """
    names = [s.name for s in schema] if schema is not None else sorted(panel.columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_HEADER)
        first_key = {}
        for company, quarter in panel.keys:
            first_key.setdefault(company, quarter)
        for company in sorted(first_key):
            cm = panel.meta.get(company)
            if cm is None:
                continue
            q = first_key[company]
            for field_name in META_FIELDS:
                value = getattr(cm, field_name)
                if value is None:
                    continue
                if isinstance(value, bool):
                    text = "1" if value else "0"
                else:
                    text = repr(value) if isinstance(value, float) else str(value)
                writer.writerow([company, q.year, q.quarter,
                                 META_PREFIX + field_name, text])
        for i, (company, quarter) in enumerate(panel.keys):
            for name in names:
                writer.writerow([
                    company, quarter.year, quarter.quarter, name,
                    _format_value(panel.columns[name][i]),
                ])


def _company_fails(company: str, meta: CompanyMeta, rules: FilterRules) -> bool:
    if rules.require_company_id and not company.strip():
        return True
    if (
        rules.min_share_price is not None
        and meta.min_share_price is not None
        and meta.min_share_price < rules.min_share_price
    ):
        return True
    if meta.sector_code is not None and meta.sector_code in rules.excluded_sectors:
        return True
    if rules.require_fiscal_alignment and meta.fiscal_alignment_flag is False:
        return True
    if rules.exclude_reporting_gaps and meta.reporting_gap_flag is True:
        return True
    return False


def apply_sample_filters(panel: RawPanel, rules: FilterRules) -> RawPanel:
    """Remove whole companies that fail any enabled rule; absent meta passes."""
    failing = {
        company
        for company, _, _ in company_slices(panel.keys)
        if _company_fails(company, panel.meta.get(company, CompanyMeta()), rules)
    }
    if not failing:
        return panel
    mask = np.array([c not in failing for c, _ in panel.keys], dtype=bool)
    return panel.take_rows(mask)


def shift_forward_aligned(panel: RawPanel, schema) -> RawPanel:
    """Replace next-quarter-aligned series with their next-quarter value.

    Within each company, the value at quarter q becomes the value stored at
    calendar quarter q + 1, or missing when that quarter has no row (after
    a gap, and at the company's last quarter). Key set and column count are
    preserved.
    """
    aligned = [s.name for s in schema if s.next_quarter_aligned]
    if not aligned:
        return panel
    columns = dict(panel.columns)
    q_idx = np.array([q.index for _, q in panel.keys], dtype=np.int64)
    slices = company_slices(panel.keys)
    for name in aligned:
        col = columns[name].copy()
        for _, start, stop in slices:
            col[start:stop] = _shifted(columns[name], q_idx, start, stop, -1)
        columns[name] = col
    return RawPanel(list(panel.keys), columns, dict(panel.meta))
