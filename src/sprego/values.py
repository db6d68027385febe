"""Scalar value model: numbers, text, booleans, blanks and error values.

Cell values are represented with native Python types where one exists
(float, str, bool) so that arithmetic and comparisons stay cheap.  The
two stateless placeholders Blank and Omitted are module-level
singletons, and spreadsheet errors are small frozen wrappers around an
ErrorKind.  Everything here is immutable and hashable.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass
from typing import Union


class ErrorKind(enum.Enum):
    """The closed set of spreadsheet error conditions."""

    VALUE = "#VALUE!"
    DIV0 = "#DIV/0!"
    NUM = "#NUM!"
    NA = "#N/A"
    REF = "#REF!"
    NAME = "#NAME?"


@dataclass(frozen=True)
class CellError:
    """An error value.

    Errors are ordinary values: they sit in cells, flow through
    formulas and absorb almost every operation applied to them.  Only
    ISERROR consumes them.
    """

    kind: ErrorKind

    def __str__(self) -> str:
        return self.kind.value


VALUE_ERR = CellError(ErrorKind.VALUE)
DIV0_ERR = CellError(ErrorKind.DIV0)
NUM_ERR = CellError(ErrorKind.NUM)
NA_ERR = CellError(ErrorKind.NA)
REF_ERR = CellError(ErrorKind.REF)
NAME_ERR = CellError(ErrorKind.NAME)

ERROR_BY_LABEL = {err.kind.value: err for err in
                  (VALUE_ERR, DIV0_ERR, NUM_ERR, NA_ERR, REF_ERR, NAME_ERR)}

#: Boolean literals, which formulas and expectation data read in any case.
BOOLEAN_BY_LABEL = {"TRUE": True, "FALSE": False}


class _Sentinel:
    """Identity-compared singleton placeholder."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: The value of an unset cell.  Writing BLANK to a sheet deletes the cell.
BLANK = _Sentinel("BLANK")

#: A skipped argument slot, as in IF(A1,,0).  Never stored in a cell.
OMITTED = _Sentinel("OMITTED")

Scalar = Union[float, str, bool, CellError, _Sentinel]

#: Longest text & and SUBSTITUTE build (Excel's cell limit); past it, #VALUE!
MAX_TEXT = 32767


def is_number(value: Scalar) -> bool:
    # bool is not a float subclass, so booleans do not slip through
    return isinstance(value, float)


#: An unsigned number: the grammar of number literals in formulas and,
#: with an optional sign, of numeric text in cells and CSV fields.
#: Digits are ASCII only (a str pattern's \d would take any script's).
NUMBER_PATTERN = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_NUMBER_RE = re.compile(r"[+-]?" + NUMBER_PATTERN + r"\Z")


def parse_number(text: str) -> float | None:
    """Parse text as a complete number, or return None.

    Leading and trailing whitespace is tolerated; anything else, such
    as "1.1k" or "", is not a number.  Values that overflow a double
    are rejected because cells never hold non-finite numbers.
    """
    stripped = text.strip()
    if not _NUMBER_RE.match(stripped):
        return None
    result = float(stripped)
    if not math.isfinite(result):
        return None
    return result


def _finite(value: float) -> float | CellError:
    """A computed number, or #NUM! when it overflowed to infinity or NaN."""
    return value if math.isfinite(value) else NUM_ERR


def render_number(value: float) -> str:
    """Shortest decimal text that parses back to exactly this double."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def render(value: Scalar) -> str:
    """Canonical display text for any scalar.

    This is the single rendering used by cell display, text coercion,
    trace tables and the CLI, so a number always prints the same way
    everywhere.
    """
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return render_number(value)
    if isinstance(value, str):
        return value
    if isinstance(value, CellError):
        return value.kind.value
    return ""  # BLANK and OMITTED display as empty


def coerce_to_number(value: Scalar) -> float | CellError:
    """Coerce a scalar to a number.

    Booleans become 1/0, Blank and Omitted become 0, text must parse
    fully as a number and errors pass through unchanged.
    """
    if isinstance(value, float):  # bool is not a float subclass
        return value
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, str):
        parsed = parse_number(value)
        return VALUE_ERR if parsed is None else parsed
    if isinstance(value, CellError):
        return value
    return 0.0


def coerce_to_text(value: Scalar) -> str | CellError:
    """Coerce a scalar to text; errors pass through unchanged."""
    if isinstance(value, (str, CellError)):
        return value
    return render(value)


def is_truthy(value: Scalar) -> bool | CellError:
    """Interpret a scalar as a condition.

    Numbers count as true when non-zero, Blank and Omitted as false,
    and text is not a valid condition at all.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0.0
    if isinstance(value, CellError):
        return value
    if isinstance(value, str):
        return VALUE_ERR
    return False


_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _rank_and_key(value: Scalar):
    # cross-type ordering: numbers < text < booleans
    if isinstance(value, bool):
        return 2, value
    if isinstance(value, float):
        return 0, value
    return 1, value.lower()


def compare(left: Scalar, right: Scalar, op: str) -> bool | CellError:
    """Evaluate a comparison operator over two scalars.

    Text compares case-insensitively, FALSE sorts before TRUE, values
    of different types order by type (numbers < text < booleans) and a
    Blank operand adapts to the other side's type before comparing.
    Errors propagate.
    """
    test = _COMPARISONS.get(op)
    if test is None:
        raise ValueError(f"unknown comparison operator {op!r}")
    if left.__class__ is float and right.__class__ is float:
        return test(left, right)
    if left.__class__ is str and right.__class__ is str:
        return test(left.lower(), right.lower())
    if isinstance(left, CellError):
        return left
    if isinstance(right, CellError):
        return right
    left = _adapt_blank(left, right)
    right = _adapt_blank(right, left)
    lrank, lkey = _rank_and_key(left)
    rrank, rkey = _rank_and_key(right)
    if lrank != rrank:
        return test(lrank, rrank)
    return test(lkey, rkey)


def _adapt_blank(value: Scalar, other: Scalar) -> Scalar:
    if value is not BLANK and value is not OMITTED:
        return value
    if isinstance(other, bool):
        return False
    if isinstance(other, str):
        return ""
    return 0.0


@dataclass(frozen=True)
class ArrayValue:
    """A dense, immutable rows x cols rectangle of scalars.

    Cells are stored row-major.  Elements are never Omitted; a cell
    that was empty in the source range appears as BLANK.
    """

    rows: int
    cols: int
    cells: tuple[Scalar, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array dimensions must be at least 1x1")
        if len(self.cells) != self.rows * self.cols:
            raise ValueError("cell count does not match dimensions")

    def get(self, row: int, col: int) -> Scalar:
        """Element at 0-based (row, col)."""
        return self.cells[row * self.cols + col]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def first(self) -> Scalar:
        return self.cells[0]

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.cells[r * self.cols:(r + 1) * self.cols])
                for r in range(self.rows)]

    @classmethod
    def from_rows(cls, rows: list[list[Scalar]]) -> "ArrayValue":
        height = len(rows)
        width = len(rows[0]) if rows else 0
        flat: list[Scalar] = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(height, width, tuple(flat))

    @classmethod
    def column(cls, values: list[Scalar]) -> "ArrayValue":
        return cls(len(values), 1, tuple(values))


Value = Union[Scalar, ArrayValue]
