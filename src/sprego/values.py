"""Scalar value model: numbers, text, booleans, blanks and error values.

Cell values are represented with native Python types where one exists
(float, str, bool) so that arithmetic and comparisons stay cheap.  The
two stateless placeholders Blank and Omitted are module-level
singletons, and each spreadsheet error is one interned CellError named
by its label.  Everything here is immutable and hashable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, partial
from math import isfinite
from typing import Callable, Sequence, Union


@dataclass(frozen=True, eq=False)
class CellError:
    """An error value, named by its label.

    Errors are ordinary values: they sit in cells, flow through
    formulas and absorb almost every operation applied to them.  Only
    ISERROR consumes them.  ERROR_BY_LABEL holds the only instances,
    so errors compare by identity.
    """

    label: str

    def __str__(self) -> str:
        return self.label


ERROR_BY_LABEL = {label: CellError(label) for label in
                  ("#VALUE!", "#DIV/0!", "#NUM!", "#N/A", "#REF!", "#NAME?")}

VALUE_ERR, DIV0_ERR, NUM_ERR, NA_ERR, REF_ERR, NAME_ERR = ERROR_BY_LABEL.values()

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


#: An unsigned number: the grammar of number literals in formulas and,
#: with an optional sign, of numeric text in cells and CSV fields.
#: Digits are ASCII only (a str pattern's \d would take any script's).
NUMBER_PATTERN = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

#: The characters of a signed NUMBER_PATTERN.  Over them, float() reads
#: exactly that grammar: its other words (inf, nan, 1_000) need others.
_NUMBER_CHARS = "0123456789+-.eE"

#: The inside of a quoted text, in formulas and in script fields, where
#: "" is an escaped quote.  It repeats runs, not single characters, so a
#: match keeps no state per character.
QUOTED_BODY = r'[^"]*(?:""[^"]*)*'


def unquote(body: str) -> str:
    """The text a QUOTED_BODY match stands for."""
    return body.replace('""', '"')


def parse_number(text: str) -> float | None:
    """Parse text as a complete number, or return None.

    The text must be a signed NUMBER_PATTERN amid what str.strip()
    removes, as a CSV field must: "1.1k", "inf" or "" is no number.
    Values that overflow a double are rejected because cells never
    hold non-finite numbers.
    """
    text = text.strip()  # float() alone would reject U+001C..U+001F
    # a character outside the alphabet, or no digit ("", "-"), fails
    # here rather than in float(), whose exception costs far more; so
    # does a sign past the first character with no exponent for it to
    # belong to ("555-1234", "1-2", "2024-01-05")
    if text.strip(_NUMBER_CHARS) or not text.strip("+-.eE") or (
            ("-" in text[1:] or "+" in text[1:])
            and not text.strip("0123456789+-.")):
        return None
    try:
        result = float(text)
    except ValueError:
        return None
    return result if isfinite(result) else None


def finite(op: Callable[[float, float], float]) -> Callable:
    """op over two numbers, giving #NUM! where its result overflowed to
    infinity or NaN (cells hold neither).  The check runs in the
    returned function's own frame, so an element pays one call; its
    column form (checked.column) applies op down two whole columns."""
    def checked(x: float, y: float) -> float | CellError:
        value = op(x, y)
        return value if isfinite(value) else NUM_ERR

    def column(xs, ys) -> list:
        values = list(map(op, xs, ys))  # a term inf or NaN makes the sum so
        return values if isfinite(sum(values)) else [
            value if isfinite(value) else NUM_ERR for value in values]
    checked.column = column
    return checked


#: One computed number under finite's rule (1.0 * x is x, exactly).
_finite = partial(finite(operator.mul), 1.0)


def render_number(value: float) -> str:
    """Shortest decimal text that parses back to exactly this double."""
    return (str(int(value)) if value.is_integer() and -1e16 < value < 1e16
            else repr(value))


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
        return value.label
    return ""  # BLANK and OMITTED display as empty


class _NumberTexts(dict):
    """render_number's text by float, each made at its first lookup."""

    __slots__ = ()

    def __missing__(self, value: float) -> str:
        self[value] = text = render_number(value)
        return text


def _text_column(values: Sequence[Scalar], other: Callable) -> list:
    """Display text down a column: text as it is, a blank as "", a
    boolean as TRUE or FALSE and each distinct float rendered once, all
    without a call; any other value is other's.  The memo holds floats
    only, since True == 1.0 and they hash alike."""
    memo = _NumberTexts()
    return [value if value.__class__ is str
            else "" if value is BLANK
            else memo[value] if value.__class__ is float
            else ("TRUE" if value else "FALSE") if value.__class__ is bool
            else other(value) for value in values]


def render_column(values: Sequence[Scalar]) -> list:
    """render over a column in one call, each distinct float once."""
    return _text_column(values, render)


def coerce_to_number(value: Scalar) -> float | CellError:
    """Coerce a scalar to a number.

    Booleans become 1/0, Blank and Omitted become 0, text must parse
    fully as a number and errors pass through unchanged.  Its column
    form (coerce_to_number.column) coerces a whole column in one call.
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


def read_numbers(values: Sequence[Scalar], keep_text: bool) -> list:
    """parse_number's rule down a column, written out so a text costs
    no call: numeric text becomes its number, and any other text stays
    itself with keep_text (CSV ingest) or is #VALUE! without it
    (coerce_to_number.column).  Any other value is coerce_to_number's,
    a float's or a blank's without a call."""
    try:
        return [(number if not (text := value.strip()).strip(_NUMBER_CHARS)
                 and text.strip("+-.eE") and isfinite(number := float(text))
                 else value if keep_text else VALUE_ERR)
                if value.__class__ is str
                else value if value.__class__ is float
                else 0.0 if value is BLANK
                else coerce_to_number(value) for value in values]
    except ValueError:  # float() refused text the alphabet admits
        # ("2024-01-05", "1.2.3"): that text and the rest of its block
        # go through parse_number, which refuses most such text unraised
        return [coerce_to_number(value) if value.__class__ is not str
                else number if (number := parse_number(value)) is not None
                else value if keep_text else VALUE_ERR for value in values]


coerce_to_number.column = lambda values: read_numbers(values, False)


def coerce_to_text(value: Scalar) -> str | CellError:
    """Coerce a scalar to text; errors pass through unchanged.  Its
    column form coerces a whole column as render_column does."""
    if isinstance(value, (str, CellError)):
        return value
    return render(value)


coerce_to_text.column = lambda values: _text_column(values, coerce_to_text)


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


#: What a blank stands for against a value of each type: it takes the
#: other side's type.
_BLANK_AS = {float: 0.0, str: "", bool: False}


def _rank_and_key(value: Scalar, other: Scalar):
    """value's rank in the cross-type order, numbers < text < booleans,
    and its key within its type.  A blank takes the type of other."""
    if value is BLANK or value is OMITTED:
        value = _BLANK_AS.get(other.__class__, 0.0)
    if isinstance(value, bool):
        return 2, value
    if isinstance(value, float):
        return 0, value
    return 1, value.lower()


def _comparison(test: Callable) -> Callable:
    """The comparison operator that orders two scalars by test, one of
    operator's comparisons, bound once so an element pays one call.
    Its column form compares two numbers, two texts or a blank and a
    number, a text or a boolean without a call."""
    def compare_by(left: Scalar, right: Scalar) -> bool | CellError:
        if left.__class__ is float and right.__class__ is float:
            return test(left, right)
        if left.__class__ is str and right.__class__ is str:
            return test(left.lower(), right.lower())
        if isinstance(left, CellError):
            return left
        if isinstance(right, CellError):
            return right
        lrank, lkey = _rank_and_key(left, right)
        rrank, rkey = _rank_and_key(right, left)
        if lrank != rrank:
            return test(lrank, rrank)
        return test(lkey, rkey)

    def column(lefts, rights) -> list:
        # against "", only whether a text is empty counts, not its case
        return [test(left, right)
                if left.__class__ is float and right.__class__ is float
                else test(left.lower(), right.lower())
                if left.__class__ is str and right.__class__ is str
                else test(_BLANK_AS[right.__class__], right)
                if left is BLANK and right.__class__ in _BLANK_AS
                else test(left, _BLANK_AS[left.__class__])
                if right is BLANK and left.__class__ in _BLANK_AS
                else compare_by(left, right)
                for left, right in zip(lefts, rights)]
    compare_by.column = column
    return compare_by


#: Each comparison operator over two scalars: text folds case, FALSE sorts
#: before TRUE, types order numbers < text < booleans, a Blank adapts to
#: the other side's type, and errors propagate.
COMPARISONS = {op: _comparison(test) for op, test in (
    ("=", operator.eq), ("<>", operator.ne), ("<", operator.lt),
    ("<=", operator.le), (">", operator.gt), (">=", operator.ge))}


@dataclass(frozen=True)
class ArrayValue:
    """A dense, immutable rows x cols rectangle of scalars.

    Cells are stored row-major.  A cell that was empty in the source
    range appears as BLANK; only as_array wraps an Omitted slot.
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

    @cached_property
    def kinds(self) -> frozenset[type]:
        """The exact types of the elements, found once per array (an
        array a formula repeats is read by each of its users)."""
        return frozenset(map(type, self.cells))

    @classmethod
    def column(cls, values: list[Scalar]) -> "ArrayValue":
        return cls(len(values), 1, tuple(values))


Value = Union[Scalar, ArrayValue]


def unwrap(value: Value) -> Value:
    """A 1x1 array's element; any other value as it is.  A larger
    array has no single value (there is no implicit intersection)."""
    if isinstance(value, ArrayValue) and value.rows == 1 and value.cols == 1:
        return value.cells[0]
    return value


def as_array(value: Value) -> ArrayValue:
    """The converse of unwrap: a scalar as a 1x1 array, an array as it
    is.  OMITTED stays itself; INDEX reads an empty slot as BLANK."""
    if isinstance(value, ArrayValue):
        return value
    return ArrayValue(1, 1, (value,))
