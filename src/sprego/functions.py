"""The built-in worksheet functions.

A deliberately small, composable set: aggregates, text slicing and
searching, the conditional, lookup, logic, structure helpers and a
few numeric utilities.  Every function is described by a
FunctionDescriptor that tells the evaluator how to prepare each
argument:

* NUMBER, TEXT and LOGICAL arguments are lifted element-wise over
  arrays and coerced (COERCION): kernels see floats, strs and bools,
  one element per call.  SCALAR arguments are lifted uncoerced.
* ARRAY arguments arrive whole (scalars stay scalars; kernels that
  need a rectangle wrap them as 1x1).
* REF arguments are never evaluated; the evaluator resolves the
  argument expression to a range and passes the range itself.

Coercion is written once: evaluator.lift applies it before the kernel
runs.  Five sites coerce for themselves, as each must look at another
argument first: SMALL/LARGE's k and MATCH's mode (the ARRAY argument's
errors win), SUBSTITUTE's instance (an empty old string returns the
text unread), OFFSET's height and width (an empty slot means the
reference's own size) and _collect_numbers (the aggregate rule).

Every kernel is called as impl(ctx, *args): the evaluation context,
then one positional parameter per argument written in the formula.
An optional parameter's Python default stands in only for an argument
that is left out, as in LEFT("abc"); an empty slot, as in LEFT("abc",),
still arrives as OMITTED and coerces like a blank.

Unless a descriptor sets captures_errors, the evaluator propagates an
error found in a lifted argument, or made by coercing one, before the
kernel runs, so kernels only defend against errors coming out of
ARRAY elements and the five sites above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP, localcontext
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .grid import CellAddress, GridError, MAX_COLS, MAX_ROWS, RangeRef, Sheet
from .values import (
    ArrayValue,
    BLANK,
    CellError,
    DIV0_ERR,
    MAX_TEXT,
    NA_ERR,
    NUM_ERR,
    OMITTED,
    REF_ERR,
    Scalar,
    VALUE_ERR,
    Value,
    _finite,
    compare,
    is_truthy,
    coerce_to_number,
    coerce_to_text,
)

if TYPE_CHECKING:
    from .evaluator import EvalContext

SCALAR = "scalar"
NUMBER = "number"
TEXT = "text"
LOGICAL = "logical"
ARRAY = "array"
REF = "ref"

#: The lifted modes and the coercion each applies (None: none).
COERCION: dict[str, Optional[Callable]] = {
    SCALAR: None,
    NUMBER: coerce_to_number,
    TEXT: coerce_to_text,
    LOGICAL: is_truthy,
}


@dataclass(frozen=True)
class FunctionDescriptor:
    name: str
    min_args: int
    max_args: Optional[int]  # None means unlimited
    modes: tuple[str, ...]  # per position; the last mode repeats
    impl: Optional[Callable]
    captures_errors: bool = False
    lazy: bool = False  # evaluated by special-case logic, not a kernel

    def mode_for(self, index: int) -> str:
        if index < len(self.modes):
            return self.modes[index]
        return self.modes[-1] if self.modes else SCALAR


# ---------------------------------------------------------------- text

def fn_left(ctx: "EvalContext", text: str, count: float = 1.0) -> Value:
    """LEFT(text, count=1): leading characters of text.

    A fractional count is truncated; a negative count is an error and
    a count beyond the length returns the whole text.
    """
    n = int(count)
    if n < 0:
        return VALUE_ERR
    return text[:n]


def fn_right(ctx: "EvalContext", text: str, count: float = 1.0) -> Value:
    """RIGHT(text, count=1): trailing characters of text."""
    n = int(count)
    if n < 0:
        return VALUE_ERR
    if n == 0:
        return ""
    return text[-n:]


def fn_len(ctx: "EvalContext", text: str) -> Value:
    return float(len(text))


def _find_core(needle: str, hay: str, start: float, fold: bool) -> Value:
    at = int(start)
    if at < 1 or at > len(hay) + 1:
        return VALUE_ERR
    if needle == "":
        return float(at)
    if fold:
        needle, hay = needle.lower(), hay.lower()
    index = hay.find(needle, at - 1)
    if index < 0:
        return VALUE_ERR
    return float(index + 1)


def fn_find(ctx: "EvalContext", needle: str, text: str,
            start: float = 1.0) -> Value:
    """FIND(needle, text, start=1): case-sensitive position, 1-based.

    A miss is an error value, which is what makes ISERROR(FIND(...))
    a usable containment test.
    """
    return _find_core(needle, text, start, fold=False)


def fn_search(ctx: "EvalContext", needle: str, text: str,
              start: float = 1.0) -> Value:
    """SEARCH(needle, text, start=1): like FIND but case-insensitive."""
    return _find_core(needle, text, start, fold=True)


def fn_substitute(ctx: "EvalContext", text: str, old: str, new: str,
                  instance: Optional[Scalar] = None) -> Value:
    """SUBSTITUTE(text, old, new, instance?).

    Replaces every occurrence, or only the instance-th when given.
    An instance below 1 is an error; one beyond the number of
    occurrences, or an empty old string, leaves the text unchanged.
    A result longer than MAX_TEXT is #VALUE!, found before it is built.
    """
    if old == "":
        return text
    if instance is None:
        grown = len(text) + text.count(old) * (len(new) - len(old))
        return VALUE_ERR if grown > MAX_TEXT else text.replace(old, new)
    instance = coerce_to_number(instance)
    if isinstance(instance, CellError):
        return instance
    which = int(instance)
    if which < 1:
        return VALUE_ERR
    index = -1
    for _ in range(which):
        index = text.find(old, index + 1)
        if index < 0:
            return text
    if len(text) + len(new) - len(old) > MAX_TEXT:
        return VALUE_ERR
    return text[:index] + new + text[index + len(old):]


# ------------------------------------------------------------ aggregates

def _collect_numbers(args: Sequence) -> list[float] | CellError:
    """Flatten aggregate arguments into the numbers they contribute.

    Inside arrays only numbers count; text, booleans and blanks are
    skipped.  A direct scalar argument other than a blank coerces as a
    number would.  The first error (row-major, in argument order)
    becomes the result.
    """
    numbers: list[float] = []
    for arg in args:
        if isinstance(arg, ArrayValue):
            for element in arg.cells:
                if isinstance(element, CellError):
                    return element
                if isinstance(element, float):
                    numbers.append(element)
        elif arg is not BLANK and arg is not OMITTED:
            number = coerce_to_number(arg)
            if isinstance(number, CellError):
                return number
            numbers.append(number)
    return numbers


def fn_sum(ctx: "EvalContext", *args: Value) -> Value:
    numbers = _collect_numbers(args)
    if isinstance(numbers, CellError):
        return numbers
    return _finite(math.fsum(numbers))


def fn_average(ctx: "EvalContext", *args: Value) -> Value:
    numbers = _collect_numbers(args)
    if isinstance(numbers, CellError):
        return numbers
    if not numbers:
        return DIV0_ERR
    return _finite(math.fsum(numbers) / len(numbers))


def fn_min(ctx: "EvalContext", *args: Value) -> Value:
    numbers = _collect_numbers(args)
    if isinstance(numbers, CellError):
        return numbers
    return min(numbers) if numbers else 0.0


def fn_max(ctx: "EvalContext", *args: Value) -> Value:
    numbers = _collect_numbers(args)
    if isinstance(numbers, CellError):
        return numbers
    return max(numbers) if numbers else 0.0


def _kth(values: Value, k: Scalar, smallest: bool) -> Value:
    numbers = _collect_numbers((values,))
    if isinstance(numbers, CellError):
        return numbers
    k_value = coerce_to_number(k)
    if isinstance(k_value, CellError):
        return k_value
    k = int(k_value)
    if k < 1 or k > len(numbers):
        return NUM_ERR
    numbers.sort()
    return numbers[k - 1] if smallest else numbers[len(numbers) - k]


def fn_small(ctx: "EvalContext", values: Value, k: Scalar) -> Value:
    """SMALL(values, k): k-th smallest of the numeric elements."""
    return _kth(values, k, smallest=True)


def fn_large(ctx: "EvalContext", values: Value, k: Scalar) -> Value:
    """LARGE(values, k): k-th largest of the numeric elements."""
    return _kth(values, k, smallest=False)


# ----------------------------------------------------------------- logic

def _iter_conditions(args: Sequence):
    """Yield the boolean reading of every usable element, or an error."""
    for arg in args:
        elements = arg.cells if isinstance(arg, ArrayValue) else (arg,)
        for element in elements:
            if isinstance(element, CellError):
                yield element
            elif isinstance(element, bool):
                yield element
            elif isinstance(element, float):
                yield element != 0.0
            # text and blanks contribute nothing, matching how the
            # aggregates treat non-numeric array elements


def fn_and(ctx: "EvalContext", *args: Value) -> Value:
    found = False
    for condition in _iter_conditions(args):
        if isinstance(condition, CellError):
            return condition
        found = True
        if not condition:
            return False
    return True if found else VALUE_ERR


def fn_or(ctx: "EvalContext", *args: Value) -> Value:
    found = False
    for condition in _iter_conditions(args):
        if isinstance(condition, CellError):
            return condition
        found = True
        if condition:
            return True
    return False if found else VALUE_ERR


def fn_not(ctx: "EvalContext", truth: bool) -> Value:
    return not truth


def fn_iserror(ctx: "EvalContext", value: Scalar) -> Value:
    # the one consumer of error values
    return isinstance(value, CellError)


# ---------------------------------------------------------------- lookup

def _vector_elements(value: Value) -> list | None:
    if not isinstance(value, ArrayValue):
        return [value]
    if value.rows != 1 and value.cols != 1:
        return None
    return list(value.cells)


def _same_kind(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float)
    return isinstance(a, str) and isinstance(b, str)


def fn_match(ctx: "EvalContext", needle: Scalar, vector: Value,
             mode: Scalar = 1.0) -> Value:
    """MATCH(needle, vector, mode=1): 1-based position in a vector.

    Mode 0 finds the first exact match (text folds case).  Positive
    mode finds the last element <= needle, negative the last element
    >= needle, scanning linearly; no sortedness is assumed.  Elements
    of a different type than the needle, blanks and error elements
    are ignored.
    """
    if isinstance(vector, CellError):
        return vector
    elements = _vector_elements(vector)
    if elements is None:
        return VALUE_ERR
    mode = coerce_to_number(mode)
    if isinstance(mode, CellError):
        return mode
    op = "=" if mode == 0 else ("<=" if mode > 0 else ">=")
    best: int | None = None
    for position, element in enumerate(elements, start=1):
        if isinstance(element, CellError) or element is BLANK:
            continue
        if not _same_kind(element, needle):
            continue
        if compare(element, needle, op) is True:
            if op == "=":
                return float(position)
            best = position
    return NA_ERR if best is None else float(best)


def _as_array(value: Value) -> ArrayValue:
    if isinstance(value, ArrayValue):
        return value
    return ArrayValue(1, 1, (value,))


def read_range(sheet: Sheet, rng: RangeRef) -> Value:
    """A range's values inside a formula.  A range above
    grid.MAX_RANGE_CELLS is #NUM! (#REF! already means off the sheet)."""
    try:
        return sheet.get_range(rng)
    except GridError:
        return NUM_ERR


def _unwrap(array: ArrayValue) -> Value:
    return array.first() if array.rows == 1 and array.cols == 1 else array


def fn_index(ctx: "EvalContext", array: Value, row: float,
             col: float = 1.0) -> Value:
    """INDEX(array, row, col=1): one element, or a whole row/column.

    Row or column 0 selects the entire column/row; indexes past the
    edge are reference errors.
    """
    array = _as_array(array)
    r = int(row)
    c = int(col)
    if r < 0 or c < 0:
        return VALUE_ERR
    if r > array.rows or c > array.cols:
        return REF_ERR
    if r == 0 and c == 0:
        return _unwrap(array)
    if r == 0:
        column = [array.get(i, c - 1) for i in range(array.rows)]
        return _unwrap(ArrayValue(array.rows, 1, tuple(column)))
    if c == 0:
        row = [array.get(r - 1, j) for j in range(array.cols)]
        return _unwrap(ArrayValue(1, array.cols, tuple(row)))
    return array.get(r - 1, c - 1)


def fn_offset(ctx: "EvalContext", base: RangeRef, rows: float, cols: float,
              height: Scalar = OMITTED, width: Scalar = OMITTED) -> Value:
    """OFFSET(ref, rows, cols, height?, width?): a shifted range's values.

    The result is read through the sheet, resized when height/width
    are given; anything that lands outside the grid is a reference
    error.
    """
    height = base.rows if height is OMITTED else coerce_to_number(height)
    width = base.cols if width is OMITTED else coerce_to_number(width)
    for number in (height, width):
        if isinstance(number, CellError):
            return number
    d_rows, d_cols, height, width = map(int, (rows, cols, height, width))
    if height < 1 or width < 1:
        return VALUE_ERR
    top_row = base.top_left.row + d_rows
    left_col = base.top_left.col + d_cols
    if top_row < 1 or left_col < 1:
        return REF_ERR
    if top_row + height - 1 > MAX_ROWS or left_col + width - 1 > MAX_COLS:
        return REF_ERR
    shifted = RangeRef.make(
        CellAddress(left_col, top_row),
        CellAddress(left_col + width - 1, top_row + height - 1),
    )
    values = read_range(ctx.sheet, shifted)
    return _unwrap(values) if isinstance(values, ArrayValue) else values


def fn_row(ctx: "EvalContext", rng: Optional[RangeRef] = None) -> Value:
    """ROW(ref?): the row number; of the formula's own cell with no
    argument, of a range's rows (as a column vector, when array
    entered) with one."""
    if rng is None:
        return float(ctx.anchor.row)
    if ctx.array_entered and rng.rows > 1:
        rows = [float(r) for r in
                range(rng.top_left.row, rng.bottom_right.row + 1)]
        return ArrayValue.column(rows)
    return float(rng.top_left.row)


def fn_column(ctx: "EvalContext", rng: Optional[RangeRef] = None) -> Value:
    if rng is None:
        return float(ctx.anchor.col)
    if ctx.array_entered and rng.cols > 1:
        cols = tuple(float(c) for c in
                     range(rng.top_left.col, rng.bottom_right.col + 1))
        return ArrayValue(1, len(cols), cols)
    return float(rng.top_left.col)


def fn_transpose(ctx: "EvalContext", value: Value) -> Value:
    if not isinstance(value, ArrayValue):
        return value
    cells = tuple(value.get(r, c)
                  for c in range(value.cols)
                  for r in range(value.rows))
    return ArrayValue(value.cols, value.rows, cells)


# --------------------------------------------------------------- numeric

def fn_round(ctx: "EvalContext", x: float, digits: float) -> Value:
    """ROUND(x, digits): decimal rounding with half away from zero.

    Works on the shortest decimal form of x, so ROUND(2.345, 2) is
    2.35 even though the double below 2.345 is what is stored.
    Negative digit counts round left of the decimal point.
    """
    digits = int(digits)
    if digits > 330:
        return x  # finer than any double, nothing to do
    if digits < -330:
        return 0.0
    with localcontext() as decimal_ctx:
        decimal_ctx.prec = 700
        quantum = Decimal(1).scaleb(-digits)
        result = Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP)
    return _finite(float(result))


def fn_int(ctx: "EvalContext", x: float) -> Value:
    """INT(x): floor, so INT(-1.5) is -2."""
    return float(math.floor(x))


def fn_rand(ctx: "EvalContext") -> Value:
    """RAND(): uniform draw from [0, 1) using the context's generator."""
    return ctx.rng.random()


# -------------------------------------------------------------- registry

REGISTRY: dict[str, FunctionDescriptor] = {d.name: d for d in [
    FunctionDescriptor("SUM", 1, None, (ARRAY,), fn_sum),
    FunctionDescriptor("AVERAGE", 1, None, (ARRAY,), fn_average),
    FunctionDescriptor("MIN", 1, None, (ARRAY,), fn_min),
    FunctionDescriptor("MAX", 1, None, (ARRAY,), fn_max),
    FunctionDescriptor("SMALL", 2, 2, (ARRAY, SCALAR), fn_small),
    FunctionDescriptor("LARGE", 2, 2, (ARRAY, SCALAR), fn_large),
    FunctionDescriptor("LEFT", 1, 2, (TEXT, NUMBER), fn_left),
    FunctionDescriptor("RIGHT", 1, 2, (TEXT, NUMBER), fn_right),
    FunctionDescriptor("LEN", 1, 1, (TEXT,), fn_len),
    FunctionDescriptor("FIND", 2, 3, (TEXT, TEXT, NUMBER), fn_find),
    FunctionDescriptor("SEARCH", 2, 3, (TEXT, TEXT, NUMBER), fn_search),
    FunctionDescriptor("SUBSTITUTE", 3, 4, (TEXT, TEXT, TEXT, SCALAR),
                       fn_substitute),
    FunctionDescriptor("IF", 2, 3, (LOGICAL, SCALAR, SCALAR), None, lazy=True),
    FunctionDescriptor("MATCH", 2, 3, (SCALAR, ARRAY, SCALAR), fn_match),
    FunctionDescriptor("INDEX", 2, 3, (ARRAY, NUMBER, NUMBER), fn_index),
    FunctionDescriptor("ISERROR", 1, 1, (SCALAR,), fn_iserror, captures_errors=True),
    FunctionDescriptor("AND", 1, None, (ARRAY,), fn_and),
    FunctionDescriptor("OR", 1, None, (ARRAY,), fn_or),
    FunctionDescriptor("NOT", 1, 1, (LOGICAL,), fn_not),
    FunctionDescriptor("ROW", 0, 1, (REF,), fn_row),
    FunctionDescriptor("COLUMN", 0, 1, (REF,), fn_column),
    FunctionDescriptor("OFFSET", 3, 5, (REF, NUMBER, NUMBER, SCALAR, SCALAR),
                       fn_offset),
    FunctionDescriptor("TRANSPOSE", 1, 1, (ARRAY,), fn_transpose),
    FunctionDescriptor("ROUND", 2, 2, (NUMBER, NUMBER), fn_round),
    FunctionDescriptor("INT", 1, 1, (NUMBER,), fn_int),
    FunctionDescriptor("RAND", 0, 0, (), fn_rand),
]}

FUNCTION_NAMES = tuple(sorted(REGISTRY))


def lookup(name: str) -> Optional[FunctionDescriptor]:
    return REGISTRY.get(name.upper())
