"""Sparse sheet storage by column, A1 addressing, CSV and array spill.

load_csv parses and bounds-checks every field but converts none: below
a header, and unless force_text makes it text already, each column of
each block of rows waits in the sheet as its row keys and texts, and
the sheet converts a column the first time anything reads or writes it.
A formula reads one or two columns of a table, so a call that loads a
table pays only for the columns it touches.

parse_cell and parse_range memoise what they decode by lexeme (a cell,
or a pair of corners), so the parser, the script runner and the CLI
share one rule and one cache, and the few cells and ranges that a
formula pasted together from helper steps names again and again are
decoded once per process.  Sharing the values is safe because
CellAddress and RangeRef are frozen.  A GridError is never kept, so a
bad address fails afresh each time.  Each memo keeps its last
ADDRESS_MEMO entries, and only lexemes of at most LONGEST_CELL
characters (a longer cell lexeme has leading zeros and is decoded each
time), so at full size the two hold about 1 MB on CPython 3.11.
"""

from __future__ import annotations

import csv
import io
import re
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from .values import (
    ArrayValue,
    BLANK,
    OMITTED,
    Scalar,
    read_numbers,
    render_column,
)

MAX_COLS = 16384
MAX_ROWS = 1048576

#: The most cells one range may materialize: one full column.  A
#: whole-sheet range would be 1.7e10 cells.
MAX_RANGE_CELLS = MAX_ROWS

#: The CSV rows load_csv reads at once, and so the most texts one
#: values.read_numbers call converts: beyond the sheet it builds, a
#: load holds one block's rows.
BLOCK_ROWS = 256


class GridError(Exception):
    """Raised for bad addresses, out-of-bounds spills and CSV problems."""


class IngestError(GridError):
    """Raised when a file or stream cannot be read, decoded or parsed."""


def column_letters(col: int) -> str:
    """1-based column index to letters: 1 -> A, 27 -> AA."""
    if col < 1:
        raise GridError(f"column index {col} out of range")
    out = ""
    while col:
        col, rem = divmod(col - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def letters_to_column(letters: str) -> int:
    col = 0
    for ch in letters.upper():
        col = col * 26 + (ord(ch) - ord("A") + 1)
    return col


@dataclass(frozen=True)
class CellAddress:
    """1-based (column, row) position."""

    col: int
    row: int

    def __post_init__(self):
        if not (1 <= self.col <= MAX_COLS and 1 <= self.row <= MAX_ROWS):
            raise GridError(f"address out of range: col={self.col} row={self.row}")

    @property
    def a1(self) -> str:
        return f"{column_letters(self.col)}{self.row}"

    def offset(self, d_rows: int, d_cols: int) -> "CellAddress":
        return CellAddress(self.col + d_cols, self.row + d_rows)


@dataclass(frozen=True)
class RangeRef:
    """A rectangle of cells, normalized so top_left really is top-left."""

    top_left: CellAddress
    bottom_right: CellAddress

    @classmethod
    def make(cls, a: CellAddress, b: CellAddress) -> "RangeRef":
        return cls(
            CellAddress(min(a.col, b.col), min(a.row, b.row)),
            CellAddress(max(a.col, b.col), max(a.row, b.row)),
        )

    @classmethod
    def cell(cls, addr: CellAddress) -> "RangeRef":
        return cls(addr, addr)

    @property
    def rows(self) -> int:
        return self.bottom_right.row - self.top_left.row + 1

    @property
    def cols(self) -> int:
        return self.bottom_right.col - self.top_left.col + 1

    @property
    def a1(self) -> str:
        if self.rows == 1 and self.cols == 1:
            return self.top_left.a1
        return f"{self.top_left.a1}:{self.bottom_right.a1}"

    def check_size(self) -> None:
        """Raise GridError for a rectangle of more than MAX_RANGE_CELLS."""
        if self.rows * self.cols > MAX_RANGE_CELLS:
            raise GridError(
                f"range {self.a1} has {self.rows * self.cols} cells, "
                f"more than the {MAX_RANGE_CELLS} one range may hold")


#: One A1 cell such as C2 or $C$2, grouping its letters and its digits.
CELL_PATTERN = r"\$?([A-Za-z]{1,3})\$?([0-9]+)"
_A1_RE = re.compile(CELL_PATTERN + r"\Z")

#: Distinct lexemes (or corner pairs) each address memo keeps.
ADDRESS_MEMO = 1024
#: The longest cell lexeme the memos keep: $XFD$1048576.
LONGEST_CELL = 12


def _decode_cell(token: str) -> CellAddress:
    m = _A1_RE.match(token)
    if not m:
        raise GridError(f"not a cell address: {token!r}")
    col = letters_to_column(m.group(1))
    row = int(m.group(2))
    if not (1 <= col <= MAX_COLS and 1 <= row <= MAX_ROWS):
        raise GridError(f"cell address out of range: {token!r}")
    return CellAddress(col, row)


def _decode_range(first: str, second: str) -> RangeRef:
    return RangeRef.make(parse_cell(first), parse_cell(second))


_cell_memo = lru_cache(ADDRESS_MEMO)(_decode_cell)
_range_memo = lru_cache(ADDRESS_MEMO)(_decode_range)


def parse_cell(token: str) -> CellAddress:
    """Parse one A1 cell token such as C2 or $C$2 (case-insensitive)."""
    if len(token) > LONGEST_CELL:
        return _decode_cell(token)
    return _cell_memo(token)


def parse_range(first: str, second: str) -> RangeRef:
    """The normalised range between two A1 corner tokens, such as C15
    and B2; a GridError names the first corner that is no address."""
    if len(first) > LONGEST_CELL or len(second) > LONGEST_CELL:
        return _decode_range(first, second)
    return _range_memo(first, second)


def parse_a1(text: str) -> Union[CellAddress, RangeRef]:
    """Parse an A1 token: a bare cell gives a CellAddress, a
    colon-separated pair gives a normalized RangeRef."""
    if ":" in text:
        first, _, second = text.partition(":")
        return parse_range(first, second)
    return parse_cell(text)


def as_range(parsed: Union[CellAddress, RangeRef]) -> RangeRef:
    if isinstance(parsed, CellAddress):
        return RangeRef.cell(parsed)
    return parsed


#: What an unwritten column reads as; never written to.
_NO_CELLS: dict[int, Scalar] = {}

#: A column's unconverted blocks, in load order: row keys and texts.
Pending = list[tuple[tuple[int, ...], tuple[str, ...]]]


@dataclass(eq=False)
class Sheet:
    """Sparse cell values, stored by column: column -> row -> value.

    Unset cells read as BLANK, and writing BLANK unsets the cell, so
    the stored mapping never contains blanks (or Omitted, which is an
    argument placeholder rather than data) nor an empty column.  A
    range is read column by column.  A dense read (get_range) looks up
    every row, so it is paid per row.  A read of the stored cells only
    (stored) sorts a column with fewer stored cells than the range has
    rows and looks up every row of any other, so it is paid the fewer
    of its rows and its stored cells.

    A column can also hold pending blocks, each the row keys and
    non-empty texts of one block of a CSV load, still unconverted.
    Every read and write of a column goes through _column, which
    converts its pending blocks in order over its stored cells the
    first time anything touches it, so a later write still wins.  Two
    sheets are equal when their converted columns are.
    """

    _columns: dict[int, dict[int, Scalar]] = field(default_factory=dict)
    _pending: dict[int, Pending] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sheet):
            return NotImplemented
        for sheet in (self, other):
            for col in list(sheet._pending):
                sheet._column(col)
        return self._columns == other._columns

    def _column(self, col: int) -> dict[int, Scalar]:
        """One column's stored cells, its pending blocks converted first;
        _NO_CELLS for a column that holds none."""
        if col in self._pending:
            column = self._columns.setdefault(col, {})
            for rows, texts in self._pending.pop(col):
                column.update(zip(rows, read_numbers(texts, True)))
        return self._columns.get(col, _NO_CELLS)

    def get(self, addr: CellAddress) -> Scalar:
        return self._column(addr.col).get(addr.row, BLANK)

    def set(self, addr: CellAddress, value: Scalar) -> None:
        if value is OMITTED:
            raise GridError("cannot store an omitted-argument placeholder")
        self._write(addr.col, ((addr.row, value),))

    def _write(self, col: int, cells: Iterable[tuple[int, Scalar]]) -> None:
        """Store (row, value) pairs in one column; BLANK unsets."""
        # a stored column is never empty, so only _NO_CELLS is falsy
        column = self._column(col) or self._columns.setdefault(col, {})
        for row, value in cells:
            if value is BLANK:
                column.pop(row, None)
            else:
                column[row] = value
        if not column:
            del self._columns[col]

    def get_range(self, rng: RangeRef) -> ArrayValue:
        """Dense row-major snapshot of a rectangle; missing cells appear
        as BLANK.  Raises GridError for a rectangle above MAX_RANGE_CELLS.
        """
        rng.check_size()
        rows = range(rng.top_left.row, rng.bottom_right.row + 1)
        series = [map(self._column(col).get, rows, repeat(BLANK))
                  for col in range(rng.top_left.col, rng.bottom_right.col + 1)]
        if len(series) > 1:
            return ArrayValue(len(rows), rng.cols,
                              tuple(chain.from_iterable(zip(*series))))
        return ArrayValue(len(rows), 1, tuple(series[0]))

    def stored(self, rng: RangeRef) -> list[Scalar]:
        """The values a rectangle holds, row-major, its blanks left out.
        Raises GridError for a rectangle above MAX_RANGE_CELLS.  A
        column set in row order, as most are, sorts in one pass.
        """
        rng.check_size()
        top, bottom = rng.top_left.row, rng.bottom_right.row
        rows = range(top, bottom + 1)
        held = []  # (column, its rows in the rectangle, in order)
        for col in range(rng.top_left.col, rng.bottom_right.col + 1):
            column = self._column(col)
            if len(column) < len(rows):
                keys = sorted(column)
                keys = keys[bisect_left(keys, top):bisect_right(keys, bottom)]
            else:
                keys = list(filter(column.__contains__, rows))
            if keys:
                held.append((column, keys))
        if len(held) == 1:
            column, keys = held[0]
            return list(map(column.__getitem__, keys))
        lines = sorted(set().union(*(keys for _, keys in held)))
        return [value for row in lines for column, _ in held
                if (value := column.get(row)) is not None]

    def spill(self, top_left: CellAddress, array: ArrayValue) -> RangeRef:
        """Write an array with its first element at top_left.

        The write is all-or-nothing: bounds and placeholders are
        checked up front so a failed spill leaves the sheet untouched.
        """
        top, left = top_left.row, top_left.col
        bottom = top + array.rows - 1
        right = left + array.cols - 1
        if bottom > MAX_ROWS or right > MAX_COLS:
            raise GridError(
                f"spill of {array.rows}x{array.cols} at {top_left.a1} "
                "exceeds the sheet bounds")
        if OMITTED in array.cells:  # _Sentinel compares by identity
            raise GridError("cannot store an omitted-argument placeholder")
        for offset, col in enumerate(range(left, right + 1)):
            self._write(col, zip(range(top, bottom + 1),
                                 array.cells[offset::array.cols]))
        return RangeRef.make(top_left, CellAddress(right, bottom))

    def update(self, other: "Sheet") -> None:
        """Copy every cell of another sheet over this one.  Its pending
        blocks come over unconverted, after every cell stored here."""
        for col, column in other._columns.items():
            self._write(col, column.items())
        for col, blocks in other._pending.items():
            self._pending.setdefault(col, []).extend(blocks)

    def used_cells(self) -> set[tuple[int, int]]:
        """The (row, col) position of every cell, pending or not,
        converting nothing."""
        used = {(row, col) for col, column in self._columns.items()
                for row in column}
        used.update((row, col) for col, blocks in self._pending.items()
                    for rows, _ in blocks for row in rows)
        return used

    def cell_count(self) -> int:
        """How many cells the sheet holds, converting nothing."""
        return len(self.used_cells())


CsvSource = Union[str, Path, IO[bytes], IO[str]]


@contextmanager
def open_text(source: CsvSource, what: str) -> Iterator[IO[str]]:
    """A path or stream as UTF-8 text less the byte-order mark Excel's "CSV
    UTF-8" starts with, line ends kept; an OSError or bad UTF-8 (naming
    what) raises IngestError.  It closes only a file it opened."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8-sig", newline="") as stream:
                yield stream
        elif isinstance(source, io.TextIOBase):
            yield source
        else:
            stream = io.TextIOWrapper(source, encoding="utf-8-sig",
                                      newline="")
            try:
                yield stream
            finally:
                stream.detach()  # keep the caller's byte stream open
    except OSError as exc:
        raise IngestError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{what} is not valid UTF-8: {exc}") from exc


def _check_block(block: list[list[str]], top: int,
                 column_offset: int) -> None:
    """Raise GridError for the first non-empty field, row by row, of a
    block of CSV rows from row top that lands off the sheet; empty
    fields are never stored."""
    if (top + len(block) - 1 <= MAX_ROWS
            and column_offset + max(map(len, block)) <= MAX_COLS):
        return
    for row, fields in enumerate(block, start=top):
        for col, text in enumerate(fields, start=column_offset + 1):
            if text != "" and (row > MAX_ROWS or col > MAX_COLS):
                raise GridError(f"address out of range: col={col} row={row}")


def _block_columns(block: list[list[str]], rows: tuple[int, ...],
                   first: int
                   ) -> Iterator[tuple[int, tuple[int, ...], tuple[str, ...]]]:
    """(column, row keys, fields) for each column of a block of CSV rows
    whose first fields land in column first, the row keys those of the
    rows that reach the column.  Columns come in bands, each the columns
    that every row left holds, so a short row is never padded out to a
    long one and a block costs its fields: the first band is the block
    transposed, and each later one the rows longer than the band
    before, sliced to it.
    """
    bands, start = [], 0
    while True:
        end = min(map(len, block))
        band = [fields[start:end] for fields in block] if start else block
        bands.append(zip(count(first + start), repeat(rows), zip(*band)))
        if end == max(map(len, block)):
            return chain.from_iterable(bands)
        longer = list(map(end.__lt__, map(len, block)))
        block = list(compress(block, longer))
        rows, start = tuple(compress(rows, longer)), end


def load_csv(
    source: CsvSource,
    *,
    header: bool = True,
    force_text: bool = False,
    column_offset: int = 0,
) -> Sheet:
    """Ingest a CSV file into a fresh sheet.

    Fields that parse completely as numbers become Numbers unless
    force_text is set; everything else stays Text.  Empty fields stay
    Blank.  With header set, row 1 is kept as Text regardless.  The
    column_offset shifts the whole table right, leaving the first
    columns free for derived series.  The source is read by open_text.

    Rows are read in blocks of BLOCK_ROWS.  Every field is parsed and
    checked against the sheet's bounds here, and malformed CSV or bad
    UTF-8 raises IngestError here, but no field is converted: each
    column of a block is kept pending as its row keys and non-empty
    texts, and the sheet converts them with one values.read_numbers
    call the first time anything touches the column.  The header row
    and force_text columns are text already, so they are stored as is.
    """
    if column_offset < 0:
        raise IngestError("column offset must be non-negative")
    columns: dict[int, dict[int, Scalar]] = {}
    pending: dict[int, Pending] = {}
    try:
        with open_text(source, "CSV source") as stream:
            reader = csv.reader(stream)
            # a header is a block of its own, kept as text
            top, size = 1, 1 if header else BLOCK_ROWS
            numeric = not (header or force_text)
            while block := list(islice(reader, size)):
                _check_block(block, top, column_offset)
                rows = tuple(range(top, top + len(block)))
                for col, keys, fields in _block_columns(block, rows,
                                                        column_offset + 1):
                    # empty fields are neither converted nor stored; the
                    # columns that have none share one tuple of row keys
                    if texts := tuple(filter(None, fields)):
                        if len(texts) < len(keys):
                            keys = tuple(compress(keys, fields))
                        if numeric:
                            pending.setdefault(col, []).append((keys, texts))
                        else:
                            columns.setdefault(col, {}).update(
                                zip(keys, texts))
                top, size = top + len(block), BLOCK_ROWS
                numeric = not force_text
    except csv.Error as exc:
        raise IngestError(f"malformed CSV: {exc}") from exc
    return Sheet(columns, pending)


def render_rows(array: ArrayValue) -> Iterator[tuple[str, ...]]:
    """The display text of every cell, one tuple per row."""
    return zip(*[iter(render_column(array.cells))] * array.cols)


def range_to_csv(sheet: Sheet, rng: RangeRef) -> str:
    """Render a rectangle back to RFC 4180 CSV text.

    Values are written with the canonical rendering, so a force_text
    load followed by an export reproduces every field's text.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        render_rows(sheet.get_range(rng)))
    return out.getvalue()
