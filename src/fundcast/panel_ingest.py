"""Quarterly panel ingestion.

Reads the schema, panel and consensus CSVs through one row reader, puts the
panel and consensus rows on a calendar-quarter grid, applies company-level
sample-elimination filters, and shifts next-quarter-aligned series. Column
vectors use NaN as the distinguished missing marker; no numeric sentinel
appears before the imputation stage downstream.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
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

CONSENSUS_HEADER = ["company_id", "year", "quarter", "consensus_mean",
                    "consensus_median", "actual_nongaap"]

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


# The formats of the schema's four flag columns, in column order.
FLAG_FORMATS = (Format.YOY, Format.QOQ, Format.PCT_ASSETS, Format.PCT_REVENUE)
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


def _row_key(company: np.ndarray, quarter: np.ndarray) -> np.ndarray:
    """One int64 per row, ordered by company code and then quarter."""
    return (company << 32) | quarter


def take_or_nan(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """values[rows] as floats, NaN where rows is -1."""
    out = np.full(len(rows), np.nan)
    hit = rows >= 0
    out[hit] = values[rows[hit]]
    return out


@dataclass(frozen=True, eq=False)
class PanelIndex:
    """Which panel row is which: a company code and a quarter per row.

    names holds each company id once, sorted in Python str order; company
    holds each row's int64 code into names, and quarter its
    CalendarQuarter.index, in [0, 2**31). Rows are sorted by (company,
    quarter) without repeats, so key = company << 32 | quarter is strictly
    increasing and every alignment is a searchsorted on it. A key minus a
    few quarters never reaches another company's keys.
    """

    names: tuple
    company: np.ndarray
    quarter: np.ndarray
    key: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = tuple(self.names)
        company = np.asarray(self.company, dtype=np.int64)
        quarter = np.asarray(self.quarter, dtype=np.int64)
        if company.ndim != 1 or company.shape != quarter.shape:
            raise PanelError("company and quarter arrays differ in shape")
        if any(a >= b for a, b in zip(names, names[1:])):
            raise PanelError("company names are not sorted and distinct")
        if len(company) and (company.min() < 0 or company.max() >= len(names)):
            raise PanelError("company code outside the names table")
        if len(quarter) and (quarter.min() < 0 or quarter.max() >= 2 ** 31):
            raise PanelError("quarter index outside [0, 2**31)")
        key = _row_key(company, quarter)
        bad = np.flatnonzero(np.diff(key) <= 0)
        if len(bad):
            i = int(bad[0]) + 1
            where = (f"({names[company[i]]}, "
                     f"{CalendarQuarter.from_index(int(quarter[i]))})")
            if key[i] == key[i - 1]:
                raise PanelError(f"duplicate key {where}")
            raise PanelError(f"rows not sorted by company and quarter at {where}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "company", company)
        object.__setattr__(self, "quarter", quarter)
        object.__setattr__(self, "key", key)

    def __len__(self) -> int:
        return len(self.key)

    def take(self, rows) -> "PanelIndex":
        """The index of the selected rows (a boolean mask or increasing
        positions); names stay, so codes stay comparable."""
        return PanelIndex(self.names, self.company[rows], self.quarter[rows])

    def runs(self) -> list:
        """(start, stop) of each company's contiguous rows."""
        if not len(self.company):
            return []
        cut = (np.flatnonzero(np.diff(self.company)) + 1).tolist()
        return list(zip([0] + cut, cut + [len(self.company)]))

    def company_names(self, rows=slice(None)) -> list:
        return [self.names[c] for c in self.company[rows].tolist()]

    def locate(self, key: np.ndarray) -> np.ndarray:
        """Row holding each key, -1 where there is none."""
        if not len(self.key):
            return np.full(np.shape(key), -1, dtype=np.int64)
        pos = np.searchsorted(self.key, key)
        np.minimum(pos, len(self.key) - 1, out=pos)
        return np.where(self.key[pos] == key, pos, -1)

    def find(self, other: "PanelIndex") -> np.ndarray:
        """Row of this index with each row's company id and quarter in
        other, -1 where there is none."""
        code = {name: i for i, name in enumerate(self.names)}
        recode = np.array([code.get(name, -1) for name in other.names],
                          dtype=np.int64)
        company = recode[other.company]
        rows = self.locate(_row_key(company, other.quarter))
        rows[company < 0] = -1
        return rows

    def shifted(self, values: np.ndarray, shift: int) -> np.ndarray:
        """Per row, the same company's value shift calendar quarters earlier
        (later when shift is negative), NaN where that quarter has no row."""
        return take_or_nan(values, self.locate(self.key - shift))


@dataclass
class RawPanel:
    """Per-(company, quarter) raw values on a calendar grid.

    Every column vector holds one float per index row, NaN marking missing.
    meta carries the per-company filter attributes, keyed by company id.
    """

    index: PanelIndex
    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.index)
        for name, col in self.columns.items():
            if len(col) != n:
                raise PanelError(
                    f"column {name} has {len(col)} entries for {n} rows"
                )

    @property
    def n_rows(self) -> int:
        return len(self.index)

    def quarters(self) -> list:
        """Sorted distinct quarters present anywhere in the panel."""
        return [CalendarQuarter.from_index(q)
                for q in np.unique(self.index.quarter).tolist()]

    def take_rows(self, mask: np.ndarray) -> "RawPanel":
        index = self.index.take(mask)
        columns = {name: col[mask] for name, col in self.columns.items()}
        present = {index.names[c] for c in np.unique(index.company).tolist()}
        meta = {c: m for c, m in self.meta.items() if c in present}
        return RawPanel(index, columns, meta)


def _parse_flag(text: str, row_num: int, what: str) -> bool:
    if text in ("0", "1"):
        return text == "1"
    raise SchemaError(f"row {row_num}: {what} must be 0 or 1, got {text!r}")


def schema_spec(row) -> VariableSpec:
    """The VariableSpec of a schema row whose fields are already parsed:
    (name, group, the four format flags, crucial, next_quarter_aligned).

    Variables named in DEFAULT_SCALE_VARS keep their raw level in addition
    to any converted formats; variables with no format flags at all are raw
    pass-throughs (macro rates, market returns).
    """
    name, group, *flags, crucial, aligned = row
    formats = {fmt for flag, fmt in zip(flags, FLAG_FORMATS) if flag}
    if name in DEFAULT_SCALE_VARS or not formats:
        formats.add(Format.RAW)
    return VariableSpec(name, StatementGroup(group), frozenset(formats),
                        bool(crucial), bool(aligned))


def load_schema(path) -> list:
    """Load the variable schema CSV; schema_spec turns each row into a
    VariableSpec."""
    specs = []
    names = set()
    with open(path, newline="", encoding="utf-8") as fh:
        for row_num, row in _data_rows(fh, SCHEMA_HEADER, "schema", SchemaError):
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
            flags = [_parse_flag(flag.strip(), row_num, "format flag")
                     for flag in row[2:6]]
            crucial = _parse_flag(row[6].strip(), row_num, "crucial")
            aligned = _parse_flag(row[7].strip(), row_num, "next_quarter_aligned")
            if aligned and group in FINANCIAL_GROUPS:
                raise SchemaError(
                    f"row {row_num}: next_quarter_aligned requires macro/market group"
                )
            specs.append(schema_spec((name, group, *flags, crucial, aligned)))
    return specs


_FLAG_VALUES = {"0": False, "1": True, "false": False, "true": True}


def _parse_meta_value(field_name: str, text: str, row_num: int):
    """A meta_* cell's value; an empty cell is None (unknown)."""
    if text == "":
        return None
    try:
        if field_name == "sector_code":
            number = float(text)
            if not number.is_integer():
                raise ValueError(text)
            return int(number)
        if field_name == "min_share_price":
            number = float(text)
            if not math.isfinite(number):
                raise ValueError(text)
            return number
        return _FLAG_VALUES[text.lower()]
    except (ValueError, KeyError):
        raise PanelError(
            f"row {row_num}: bad {META_PREFIX}{field_name} value {text!r}"
        ) from None


def _set_meta(meta: dict, company: str, variable: str, text: str,
              row_num: int) -> None:
    field_name = variable[len(META_PREFIX):]
    if field_name not in META_FIELDS:
        raise PanelError(f"row {row_num}: unknown meta attribute {variable!r}")
    value = _parse_meta_value(field_name, text, row_num)
    if value is None:
        return
    cm = meta.setdefault(company, CompanyMeta())
    known = getattr(cm, field_name)
    if known is None:
        setattr(cm, field_name, value)
    elif known != value:
        raise PanelError(
            f"row {row_num}: conflicting {variable} for {company}: "
            f"{known!r} and {text!r}"
        )


def _parse_value(text: str, row_num: int) -> float:
    if text == "":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise PanelError(f"row {row_num}: bad value {text!r}") from None


def _data_rows(fh, header: list, what: str, error=PanelError):
    """(row number, fields) of each non-blank row of a CSV with the given
    header; the header is row 1 and blank lines count. A missing or wrong
    header and a row of the wrong width raise error."""
    reader = csv.reader(fh)
    try:
        first = next(reader)
    except StopIteration:
        raise error(f"{what} file is empty") from None
    if first != header:
        raise error(f"bad {what} header {first!r}")
    for row_num, row in enumerate(reader, start=2):
        if len(row) != len(header):
            if not row:
                continue
            raise error(
                f"row {row_num}: expected {len(header)} fields, got {len(row)}")
        yield row_num, row


class _RowCodes:
    """Company and quarter codes of a long CSV's rows, appended while it
    streams.

    Companies get codes in first-seen order (companies), each distinct
    (year, quarter) text pair is parsed once (quarter_of), and row_num
    keeps each row's CSV row number for error messages.
    """

    def __init__(self):
        self.companies = {}
        self.quarters = {}
        self.company = array("q")
        self.quarter = array("q")
        self.row_num = array("q")

    def quarter_of(self, year_s: str, quarter_s: str, row_num: int) -> int:
        """CalendarQuarter.index of a (year, quarter) text pair."""
        index = self.quarters.get((year_s, quarter_s))
        if index is None:
            try:
                index = CalendarQuarter(int(year_s), int(quarter_s)).index
            except ValueError:
                index = -1
            if not 0 <= index < 2 ** 31:
                raise PanelError(
                    f"row {row_num}: malformed quarter {year_s!r},{quarter_s!r}")
            self.quarters[year_s, quarter_s] = index
        return index

    def sorted_codes(self) -> tuple:
        """(company ids in str order, each row's code into them)."""
        names = sorted(self.companies)
        rank = np.empty(len(names), dtype=np.int64)
        rank[[self.companies[name] for name in names]] = np.arange(len(names))
        return tuple(names), rank[np.frombuffer(self.company, dtype=np.int64)]

    def provisional_codes(self) -> tuple:
        """(company ids in first-seen order, each row's code into them)."""
        return list(self.companies), np.frombuffer(self.company, dtype=np.int64)

    def keys(self, company: np.ndarray) -> np.ndarray:
        """Each row's key under the given company codes."""
        return _row_key(company, np.frombuffer(self.quarter, dtype=np.int64))

    def raise_first_repeat(self, cell: np.ndarray, names, company, what) -> None:
        """Raise for the first row, in file order, whose cell an earlier row
        holds already; what(i) names row i's cell."""
        order = np.argsort(cell, kind="stable")
        repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
        if len(repeats):
            i = int(repeats.min())
            cq = CalendarQuarter.from_index(self.quarter[i])
            raise PanelError(f"row {self.row_num[i]}: duplicate {what(i)} "
                             f"at {names[company[i]]},{cq}")


def load_panel(path, schema) -> RawPanel:
    """Load a long-format panel CSV against a schema.

    Rows: company_id,year,quarter,variable,value, in any order. Empty value
    cells become the missing marker. Reserved meta_* variables populate
    company meta. One streaming pass turns each row into codes; errors name
    the CSV row, counting the header as row 1 and blank lines too.
    """
    var_names = [spec.name for spec in schema]
    var_code = {name: j for j, name in enumerate(var_names)}
    coded = _RowCodes()
    companies = coded.companies
    variable = array("q")
    value = array("d")
    meta = {}

    def cells(names, company) -> tuple:
        """(first cell of each distinct row in key order, each cell's row);
        raises for a repeated cell."""
        variables = np.frombuffer(variable, dtype=np.int64)
        _, first, rows = np.unique(coded.keys(company), return_index=True,
                                   return_inverse=True)
        coded.raise_first_repeat(
            rows * len(var_names) + variables, names, company,
            lambda i: f"cell for {var_names[variables[i]]!r}")
        return first, rows

    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for row_num, row in _data_rows(fh, PANEL_HEADER, "panel"):
                company, year_s, quarter_s, var, value_s = row
                q = coded.quarter_of(year_s, quarter_s, row_num)
                c = companies.setdefault(company, len(companies))
                j = var_code.get(var)
                if j is None:
                    if not var.startswith(META_PREFIX):
                        raise PanelError(f"row {row_num}: unknown variable {var!r}")
                    _set_meta(meta, company, var, value_s, row_num)
                    continue
                v = _parse_value(value_s, row_num)
                coded.company.append(c)
                coded.quarter.append(q)
                coded.row_num.append(row_num)
                variable.append(j)
                value.append(v)
        except PanelError:
            # a repeated cell on an earlier row is the first error in the file
            cells(*coded.provisional_codes())
            raise

    names, company = coded.sorted_codes()
    first, rows = cells(names, company)
    grid = np.full((len(var_names), len(first)), np.nan)
    grid[np.frombuffer(variable, dtype=np.int64), rows] = np.frombuffer(value)
    index = PanelIndex(names, company[first],
                       np.frombuffer(coded.quarter, dtype=np.int64)[first])
    return RawPanel(index, {name: grid[j] for j, name in enumerate(var_names)},
                    {c: meta.get(c, CompanyMeta()) for c in names})


def load_consensus(path) -> RawPanel:
    """Load the consensus CSV in one streaming pass, as a RawPanel with the
    consensus_mean, consensus_median and actual_nongaap columns, NaN where a
    cell is blank. Rows may come in any order, and errors name the CSV row
    as load_panel's do."""
    coded = _RowCodes()
    companies = coded.companies
    values = array("d")

    def check_repeats(names, company) -> np.ndarray:
        """Each row's key; raises for a repeated (company, quarter)."""
        key = coded.keys(company)
        coded.raise_first_repeat(key, names, company, lambda i: "key")
        return key

    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for row_num, row in _data_rows(fh, CONSENSUS_HEADER, "consensus"):
                q = coded.quarter_of(row[1], row[2], row_num)
                # coded before its values, so a repeated key is named first
                coded.company.append(companies.setdefault(row[0], len(companies)))
                coded.quarter.append(q)
                coded.row_num.append(row_num)
                for text in row[3:6]:
                    values.append(_parse_value(text, row_num))
        except PanelError:
            check_repeats(*coded.provisional_codes())
            raise

    names, company = coded.sorted_codes()
    order = np.argsort(check_repeats(names, company), kind="stable")
    index = PanelIndex(names, company[order],
                       np.frombuffer(coded.quarter, dtype=np.int64)[order])
    grid = np.frombuffer(values).reshape(-1, 3)[order]
    return RawPanel(index, {name: grid[:, j]
                            for j, name in enumerate(CONSENSUS_HEADER[3:])})


def _csv_field(text: str) -> str:
    """text as csv.writer writes it inside a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]


def save_panel(panel: RawPanel, path, schema=None) -> None:
    """Write a RawPanel to the long CSV format load_panel reads.

    Meta rows come first, at each company's first quarter; then every
    (row, variable) cell, row by row (empty string for missing), so
    reloading reproduces the panel exactly. Floats are written with repr.
    """
    names = [s.name for s in schema] if schema is not None else sorted(panel.columns)
    index = panel.index
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        end = writer.dialect.lineterminator
        writer.writerow(PANEL_HEADER)
        for start, _ in index.runs():
            company = index.names[index.company[start]]
            cm = panel.meta.get(company)
            if cm is None:
                continue
            year, quarter = divmod(int(index.quarter[start]), 4)
            for field_name in META_FIELDS:
                value = getattr(cm, field_name)
                if value is None:
                    continue
                if isinstance(value, bool):
                    text = "1" if value else "0"
                else:
                    text = repr(value) if isinstance(value, float) else str(value)
                writer.writerow([company, year, quarter + 1,
                                 META_PREFIX + field_name, text])
        companies = [_csv_field(name) for name in index.names]
        prefixes = [f"{companies[c]},{q // 4},{q % 4 + 1},"
                    for c, q in zip(index.company.tolist(), index.quarter.tolist())]
        cells = []
        for name in names:
            field_text = _csv_field(name) + ","
            cells.append([f"{field_text}{'' if v != v else repr(v)}{end}"
                          for v in panel.columns[name].tolist()])
        for prefix, row_cells in zip(prefixes, zip(*cells)):
            fh.write("".join([prefix + cell for cell in row_cells]))


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
    index = panel.index
    failing = [
        code for code in np.unique(index.company).tolist()
        if _company_fails(index.names[code],
                          panel.meta.get(index.names[code], CompanyMeta()), rules)
    ]
    if not failing:
        return panel
    return panel.take_rows(~np.isin(index.company, failing))


def shift_forward_aligned(panel: RawPanel, schema) -> RawPanel:
    """Replace next-quarter-aligned series with their next-quarter value.

    Within each company, the value at quarter q becomes the value stored at
    calendar quarter q + 1, or missing when that quarter has no row (after
    a gap, and at the company's last quarter). Index and column count are
    preserved.
    """
    aligned = [s.name for s in schema if s.next_quarter_aligned]
    if not aligned:
        return panel
    columns = dict(panel.columns)
    for name in aligned:
        columns[name] = panel.index.shifted(columns[name], -1)
    return RawPanel(panel.index, columns, dict(panel.meta))
