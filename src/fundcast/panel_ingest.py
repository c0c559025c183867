"""Quarterly panel ingestion.

Reads the schema, panel and consensus CSVs through one reader that decodes
a block of rows at a time, puts the panel and consensus rows on a
calendar-quarter grid, applies company-level sample-elimination filters,
and shifts next-quarter-aligned series. Column vectors use NaN as the
distinguished missing marker; no numeric sentinel appears before the
imputation stage downstream.
"""

from __future__ import annotations

import csv
import io
import math
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

    def add(block: _Block) -> None:
        for i, row_num in enumerate(block.row.tolist()):
            row = block.texts(i)
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

    _read(path, SCHEMA_HEADER, "schema", add, SchemaError)
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


# The CSV reader. It takes csv.writer's dialect: fields separated by commas,
# records ended by CRLF, LF or CR, and a field that starts with a quote runs
# to the next quote not doubled inside it. It finds these boundaries for a
# block of the file at a time with numpy, and decodes columns of fields, not
# rows: each distinct company, year, quarter or variable field once, and all
# short value fields in one bytes-to-float cast.
_COMMA, _LF, _CR, _QUOTE = b',\n\r"'
# Bytes read per block. A record longer than a block makes the next read as
# long as the bytes carried over, so every record is read whole.
_BLOCK_BYTES = 1 << 18
# Fields up to this many bytes are decoded as columns, through zero-padded
# fixed-width copies; a longer field is decoded on its own.
_SHORT_FIELD = 32
_PADDING = bytes(_SHORT_FIELD)
# A quote opening a field follows one of these, and one closing it precedes
# one; the quote case is a doubled quote.
_BOUNDARY = np.zeros(256, dtype=bool)
_BOUNDARY[[_COMMA, _LF, _CR, _QUOTE]] = True
# _LOW_BYTES[n] keeps the first n bytes of a little-endian word.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _text(raw: bytes) -> str:
    """A field's text from its bytes: outer quotes removed, doubled ones
    undoubled."""
    if raw[:1] == b'"':
        raw = raw[1:-1].replace(b'""', b'"')
    return raw.decode("utf-8")


def _fixed_width(buf: np.ndarray, start: np.ndarray,
                 length: np.ndarray) -> np.ndarray:
    """The fields at start as rows of a uint8 array, zero after each one's
    length; the row width is a multiple of 8 bytes. A field of at most
    _SHORT_FIELD bytes is whole, so a NUL-free field equals another exactly
    when their rows do."""
    width = 8 * max(1, (int(length.max(initial=0)) + 7) // 8)
    windows = np.ndarray((len(buf) - width + 1, width), dtype=np.uint8,
                         buffer=buf, strides=(1, 1))
    raw = windows[start]
    words = raw.view("<u8")
    for w in range(width // 8):
        rest = np.clip(length - 8 * w, 0, 8)
        words[:, w] &= _LOW_BYTES[rest]
    return raw


def _distinct(raw: np.ndarray) -> tuple:
    """(code of each row, first row of each code) of a 2-D uint8 array
    whose width is a multiple of 8; equal rows share a code."""
    words = raw.view("<u8")
    order = np.lexsort(words.T)
    ranked = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    code = np.empty(len(order), dtype=np.int64)
    code[order] = np.cumsum(new) - 1
    return code, order[new]


class _Block:
    """Consecutive data records of a CSV file, all of one width.

    buf holds the block's bytes and _PADDING; start and stop give each
    field's byte range in buf, quotes included, a row per record; row holds
    each record's row number in the file.
    """

    def __init__(self, buf, start, stop, row):
        self.buf = buf
        self.start = start
        self.stop = stop
        self.row = row

    def __len__(self) -> int:
        return len(self.row)

    def text(self, i: int, j: int) -> str:
        return _text(self.buf[self.start[i, j]:self.stop[i, j]].tobytes())

    def texts(self, i: int) -> list:
        return [self.text(i, j) for j in range(self.start.shape[1])]

    def lookup(self, j: int, parse) -> np.ndarray:
        """parse(text) of field j of each record, an integer; parse runs
        once per distinct field, in the order they first appear."""
        start = self.start[:, j]
        length = self.stop[:, j] - start
        short = np.flatnonzero(length <= _SHORT_FIELD)
        wide = np.flatnonzero(length > _SHORT_FIELD)
        code = np.empty(len(start), dtype=np.int64)
        code[short], first = _distinct(
            _fixed_width(self.buf, start[short], length[short]))
        first = np.concatenate((short[first], wide))
        code[wide] = np.arange(len(first) - len(wide), len(first))
        table = np.empty(len(first), dtype=np.int64)
        for c in np.argsort(first).tolist():
            table[c] = parse(self.text(first[c], j))
        return table[code]

    def floats(self, j: int, rows=True) -> tuple:
        """(values, bad): field j of the records rows marks (all by default)
        as float() reads it, NaN where empty or not asked for; bad marks the
        fields float() rejects."""
        start = self.start[:, j]
        length = self.stop[:, j] - start
        values = np.full(len(start), np.nan)
        bad = np.zeros(len(start), dtype=bool)
        asked = rows & (length > 0)
        cast = asked & (length <= _SHORT_FIELD) & (self.buf[start] != _QUOTE)
        one_by_one = asked & ~cast
        if cast.any():
            raw = _fixed_width(self.buf, start[cast], length[cast])
            try:
                values[cast] = raw.view(f"S{raw.shape[1]}")[:, 0].astype(np.float64)
            except ValueError:
                # float() also reads what the cast does not, such as
                # non-ASCII digits; it decides
                one_by_one = asked
        for i in np.flatnonzero(one_by_one).tolist():
            text = self.text(i, j)
            try:
                values[i] = float(text) if text else np.nan
            except ValueError:
                bad[i] = True
        return values, bad

    def value_error(self, i: int, j: int) -> PanelError:
        return PanelError(f"row {self.row[i]}: bad value {self.text(i, j)!r}")


def _split(data: bytes, final: bool) -> tuple:
    """The fields of the complete records at the start of data.

    A comma, CR, LF or CRLF outside quotes ends a field, and all but the
    comma end a record; a byte is outside quotes when an even number of
    quotes precede it. Returns (buf, start, stop, last, used, fault): buf
    is data and _PADDING as uint8, start and stop each field's byte range,
    last the index of each record's last field, used the bytes the records
    take, and fault None or the message for the record after them, which
    holds a NUL byte or a stray quote.
    """
    buf = np.frombuffer(data + _PADDING, dtype=np.uint8)
    size = len(data)
    body = buf[:size]
    sep = np.flatnonzero((body == _COMMA) | (body == _LF) | (body == _CR))
    faults = []
    if b"\0" in data:
        faults.append((data.index(b"\0"), "NUL byte"))
    if b'"' in data:
        quotes = np.flatnonzero(body == _QUOTE)
        sep = sep[np.searchsorted(quotes, sep) % 2 == 0]
        opening, closing = quotes[::2], quotes[1::2]
        stray = opening[(opening > 0) & ~_BOUNDARY[buf[opening - 1]]]
        if len(stray):
            faults.append((int(stray[0]), "quote inside an unquoted field"))
        trailing = closing[(closing + 1 < size) & ~_BOUNDARY[buf[closing + 1]]]
        if len(trailing):
            faults.append((int(trailing[0]), "text after a closing quote"))
    at, fault = min(faults, default=(size, None))
    sep = sep[sep < at]
    byte = buf[sep]
    # the LF of a CRLF ends nothing more, and a CR at the end of the data
    # waits for the next block, which may start with its LF
    keep = (byte != _LF) | (buf[sep - 1] != _CR)
    if not final and len(sep) and sep[-1] == size - 1 and byte[-1] == _CR:
        keep[-1] = False
    sep, byte = sep[keep], byte[keep]
    last = np.flatnonzero(byte != _COMMA)
    n = int(last[-1]) + 1 if len(last) else 0
    after = sep[:n] + 1 + ((byte[:n] == _CR) & (buf[sep[:n] + 1] == _LF))
    start = np.concatenate(([0], after[:-1]))[:n]
    used = int(after[-1]) if n else 0
    return buf, start, sep[:n], last, used, fault


def _read(path, header: list, what: str, add, error=PanelError) -> None:
    """Pass the data records of a CSV file with the given header to add, as
    _Blocks of width len(header), reading about _BLOCK_BYTES at a time.

    The header is row 1 and every record after it counts, blank ones too;
    blank records are skipped. An empty file, a wrong header, a record of
    the wrong width, a NUL byte and a quote inside an unquoted field or
    after a closing one raise error, after the records before it are added.
    At the end of the file an open quote ends, as in csv.reader.
    """
    width = len(header)
    done = 0  # records read
    carry = b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(max(_BLOCK_BYTES, len(carry)))
            data = carry + chunk
            final = not chunk
            if final:
                if not data:
                    break
                if data.count(b'"') % 2:
                    data += b'"'
                if data[-1] not in b"\r\n":
                    data += b"\n"
            buf, start, stop, last, used, fault = _split(data, final)
            carry = data[used:]
            count = np.diff(last, prepend=-1)
            blank = (count == 1) & (start[last] == stop[last])
            row = done + 1 + np.arange(len(last))
            if done == 0 and len(last):
                fields = [] if blank[0] else [
                    _text(buf[a:b].tobytes())
                    for a, b in zip(start[:count[0]], stop[:count[0]])]
                if fields != header:
                    raise error(f"bad {what} header {fields!r}")
                blank[0] = True
            done += len(last)
            wrong = np.flatnonzero(~blank & (count != width))
            end = int(wrong[0]) if len(wrong) else len(last)
            keep = np.flatnonzero(~blank[:end])
            if len(keep):
                field = last[keep, None] + np.arange(1 - width, 1)
                add(_Block(buf, start[field], stop[field], row[keep]))
            if len(wrong):
                raise error(f"row {row[end]}: expected {width} fields, "
                            f"got {count[end]}")
            if fault is not None:
                raise error(f"row {done + 1}: {fault}")
            if final:
                break
    if done == 0:
        raise error(f"{what} file is empty")


class _Table:
    """A wide table filled block by block from the rows of a long CSV.

    Companies get codes in first-seen order (companies), and each (company,
    quarter) key a table row the first time it appears (row_of). values
    holds column j of table row r at [r, j], NaN until written; written
    marks the cells set so far, so a repeated cell is found in the block
    that repeats it.
    """

    def __init__(self, width: int):
        self.companies = {}
        self.row_of = {}
        self.values = np.full((0, width), np.nan)
        self.written = np.zeros((0, width), dtype=bool)

    def codes(self, block: _Block) -> tuple:
        """(company code, CalendarQuarter.index) of each record of a block
        whose first three fields are company_id, year and quarter; the
        index is -1 where the quarter is malformed."""
        company = block.lookup(
            0, lambda text: self.companies.setdefault(text, len(self.companies)))
        # year * 4 + quarter - 1 lies in [0, 2**31) for these
        year = block.lookup(1, lambda text: _integer(text, 0, 2 ** 29))
        quarter = block.lookup(2, lambda text: _integer(text, 1, 5))
        index = np.where((year >= 0) & (quarter >= 0), year * 4 + quarter - 1, -1)
        return company, index

    def rows(self, company: np.ndarray, quarter: np.ndarray) -> np.ndarray:
        """The table row of each (company code, quarter index), a new one
        for a key not seen before; a run of equal keys is looked up once."""
        key = _row_key(company, quarter)
        start = np.flatnonzero(np.diff(key, prepend=-1))
        row_of = self.row_of
        rows = np.array([row_of.setdefault(k, len(row_of))
                         for k in key[start].tolist()], dtype=np.int64)
        have = len(self.values)
        if len(row_of) > have:
            grow = ((0, max(len(row_of), 2 * have) - have), (0, 0))
            self.values = np.pad(self.values, grow, constant_values=np.nan)
            self.written = np.pad(self.written, grow)
        return np.repeat(rows, np.diff(start, append=len(key)))

    def put(self, row, column, value: np.ndarray) -> int:
        """Write value to the cells (row, column), row and column broadcast
        to value's shape and taken in C order, up to the first cell written
        before or repeated earlier among these; returns the number written."""
        cell = np.ravel(row * self.values.shape[1] + column)
        again = np.ones(len(cell), dtype=bool)
        again[np.unique(cell, return_index=True)[1]] = False
        repeat = np.flatnonzero(again | self.written.reshape(-1)[cell])
        n = int(repeat[0]) if len(repeat) else len(cell)
        self.values.reshape(-1)[cell[:n]] = np.ravel(value)[:n]
        self.written.reshape(-1)[cell[:n]] = True
        return n

    def sorted_rows(self) -> tuple:
        """(PanelIndex of the table rows, sorted by company id in str order
        and then quarter; each column's values in that row order)."""
        names = sorted(self.companies)
        rank = np.empty(len(names), dtype=np.int64)
        rank[[self.companies[name] for name in names]] = np.arange(len(names))
        key = np.fromiter(self.row_of, dtype=np.int64, count=len(self.row_of))
        company, quarter = rank[key >> 32], key & 0xFFFFFFFF
        order = np.argsort(_row_key(company, quarter))
        return (PanelIndex(names, company[order], quarter[order]),
                [self.values[order, j] for j in range(self.values.shape[1])])


def _integer(text: str, low: int, high: int) -> int:
    """int(text) when it lies in [low, high), else -1."""
    try:
        number = int(text)
    except ValueError:
        return -1
    return number if low <= number < high else -1


def _duplicate(block: _Block, i: int, quarter: np.ndarray, what: str) -> PanelError:
    cq = CalendarQuarter.from_index(int(quarter[i]))
    return PanelError(f"row {block.row[i]}: duplicate {what} at {block.text(i, 0)},{cq}")


def _malformed_quarter(block: _Block, i: int) -> PanelError:
    return PanelError(f"row {block.row[i]}: malformed quarter "
                      f"{block.text(i, 1)!r},{block.text(i, 2)!r}")


# Variable codes of panel rows that hold no schema variable.
_META, _UNKNOWN = -1, -2


def load_panel(path, schema) -> RawPanel:
    """Load a long-format panel CSV against a schema.

    Rows: company_id,year,quarter,variable,value, in any order. Empty value
    cells become the missing marker. Reserved meta_* variables populate
    company meta. Each block of rows is folded into the table as it is
    read; the error raised is the one on the earliest row, and errors name
    the CSV row, counting the header as row 1 and blank lines too.
    """
    var_names = [spec.name for spec in schema]
    var_code = {name: j for j, name in enumerate(var_names)}
    table = _Table(len(var_names))
    meta = {}

    def code_of(variable: str) -> int:
        if variable in var_code:
            return var_code[variable]
        return _META if variable.startswith(META_PREFIX) else _UNKNOWN

    def add(block: _Block) -> None:
        """Write a block's cells and meta rows up to its earliest bad row,
        and raise for that row."""
        company, quarter = table.codes(block)
        variable = block.lookup(3, code_of)
        value, bad_value = block.floats(4, variable >= 0)
        bad = np.flatnonzero((quarter < 0) | (variable == _UNKNOWN) | bad_value)
        end = int(bad[0]) if len(bad) else len(block)
        cells = np.flatnonzero(variable[:end] >= 0)
        stored = table.put(table.rows(company[cells], quarter[cells]),
                           variable[cells], value[cells])
        repeat = stored < len(cells)
        if repeat:
            end = int(cells[stored])
        for i in np.flatnonzero(variable[:end] == _META).tolist():
            _set_meta(meta, block.text(i, 0), block.text(i, 3),
                      block.text(i, 4), block.row[i])
        if end == len(block):
            return
        if repeat:
            raise _duplicate(block, end, quarter,
                             f"cell for {var_names[variable[end]]!r}")
        if quarter[end] < 0:
            raise _malformed_quarter(block, end)
        if variable[end] == _UNKNOWN:
            raise PanelError(f"row {block.row[end]}: unknown variable "
                             f"{block.text(end, 3)!r}")
        raise block.value_error(end, 4)

    _read(path, PANEL_HEADER, "panel", add)
    index, columns = table.sorted_rows()
    return RawPanel(index, dict(zip(var_names, columns)),
                    {c: meta.get(c, CompanyMeta()) for c in index.names})


def load_consensus(path) -> RawPanel:
    """Load the consensus CSV block by block, as a RawPanel with the
    consensus_mean, consensus_median and actual_nongaap columns, NaN where a
    cell is blank. Rows may come in any order, and errors name the CSV row
    as load_panel's do."""
    names = CONSENSUS_HEADER[3:]
    table = _Table(len(names))

    def add(block: _Block) -> None:
        """Write a block's rows up to its earliest bad row, and raise for
        that row."""
        company, quarter = table.codes(block)
        values, bad = zip(*[block.floats(j) for j in (3, 4, 5)])
        bad_row = np.flatnonzero((quarter < 0) | np.any(bad, axis=0))
        end = int(bad_row[0]) if len(bad_row) else len(block)
        # a row is keyed before its values, so a repeated key is named first
        keyed = end + (end < len(block) and quarter[end] >= 0)
        stored = table.put(table.rows(company[:keyed], quarter[:keyed])[:, None],
                           np.arange(len(names)), np.column_stack(values)[:keyed])
        if stored < keyed * len(names):
            raise _duplicate(block, stored // len(names), quarter, "key")
        if end < len(block):
            if quarter[end] < 0:
                raise _malformed_quarter(block, end)
            raise block.value_error(end, 3 + [b[end] for b in bad].index(True))

    _read(path, CONSENSUS_HEADER, "consensus", add)
    index, columns = table.sorted_rows()
    return RawPanel(index, dict(zip(names, columns)))


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
