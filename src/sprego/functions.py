"""The built-in worksheet functions.

A deliberately small, composable set: aggregates, text slicing and
searching, the conditional, lookup, logic, structure helpers and a
few numeric utilities.  Every function is described by a
FunctionDescriptor that tells the evaluator how to prepare each
argument:

* NUMBER, TEXT and LOGICAL arguments are lifted element-wise over
  arrays and coerced, each mode being its coercion (coerce_to_number,
  coerce_to_text, is_truthy): kernels see floats, strs and bools, one
  element per call.  SCALAR (None) arguments are lifted uncoerced.
  FIND, LEFT, RIGHT, LEN, IF and ISERROR also have a column form,
  kernel.column: their rule over whole columns in one call (an iterable
  per argument), as the two value coercions and the comparisons do.
* ARRAY arguments arrive whole (scalars stay scalars; kernels that
  need a rectangle wrap them as 1x1, an empty slot as a blank cell).
* CELLS arguments are ARRAY arguments that a range literal reaches
  unread: the evaluator passes its RangeRef, and the kernel reads only
  the cells the range stores (read_stored), row-major, so an aggregate
  over a whole column costs the cells it holds.  Any other expression,
  a single-cell reference included, arrives evaluated, as for ARRAY.
* REF arguments are never evaluated; the evaluator resolves the
  argument expression to a range and passes the range itself.

A descriptor builds its call plans when it is made, one per argument
count up to the number of its modes; an unlimited function's repeating
last mode is CELLS, never lifted, so longer calls share the last plan.
IF's kernel is ordinary too: being lazy only lets the evaluator choose
which of its arguments to evaluate (evaluator.eval_if).

Functions that share a rule share one kernel, made or bound per
function: SUM, AVERAGE, MIN and MAX are _aggregate of each one's
finish over the numbers _collect_numbers takes; SMALL and LARGE are
_kth, AND and OR are _logical, and ROW and COLUMN are _position.

Coercion is written once: evaluator.lift applies it before the kernel
runs.  Five sites coerce for themselves, as each must look at another
argument first: _kth's k and MATCH's mode (the ARRAY argument's
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
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP, localcontext
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .grid import CellAddress, GridError, MAX_COLS, MAX_ROWS, RangeRef, Sheet
from .values import (
    ArrayValue,
    BLANK,
    COMPARISONS,
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
    as_array,
    is_truthy,
    coerce_to_number,
    coerce_to_text,
    unwrap,
)

if TYPE_CHECKING:
    from .evaluator import EvalContext

#: The lifted modes, each the coercion it applies (SCALAR: none), and
#: the three markers of arguments that are not lifted.
SCALAR, NUMBER, TEXT = None, coerce_to_number, coerce_to_text
LOGICAL, ARRAY, REF, CELLS = is_truthy, "array", "ref", "cells"

#: The element types each coercion returns as they are (the same object).
UNCHANGED_BY = {coerce_to_number: {float, CellError},
                coerce_to_text: {str, CellError}, is_truthy: {bool, CellError}}


@dataclass(frozen=True)
class FunctionDescriptor:
    name: str
    min_args: int
    max_args: Optional[int]  # None means unlimited
    modes: tuple  # per position; unlimited repeats the last, CELLS
    impl: Callable
    captures_errors: bool = False
    lazy: bool = False  # the evaluator picks the arguments to evaluate

    #: plans[n]: the lifted positions of an n-argument call, with their
    #: coercions, as lift takes them; longer calls use the last plan
    plans: tuple = field(init=False, repr=False, compare=False)
    #: the positions whose argument must be a reference
    refs: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        modes = self.modes
        object.__setattr__(self, "plans", tuple(
            {i: m for i, m in enumerate(modes[:n])
             if m not in (ARRAY, REF, CELLS)}
            for n in range(len(modes) + 1)))
        object.__setattr__(self, "refs", frozenset(
            i for i, m in enumerate(modes) if m is REF))

    def mode(self, index: int):
        """The mode of the argument at index (0-based); an unlimited
        function repeats its last."""
        return self.modes[min(index, len(self.modes) - 1)]


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


fn_left.column = lambda texts, counts=repeat(1.0): [
    text[:n] if n >= 0 else VALUE_ERR
    for text, n in zip(texts, map(int, counts))]


def fn_right(ctx: "EvalContext", text: str, count: float = 1.0) -> Value:
    """RIGHT(text, count=1): trailing characters of text."""
    n = int(count)
    if n < 0:
        return VALUE_ERR
    if n == 0:
        return ""
    return text[-n:]


fn_right.column = lambda texts, counts=repeat(1.0): [
    (text[-n:] if n else "") if n >= 0 else VALUE_ERR
    for text, n in zip(texts, map(int, counts))]


def fn_len(ctx: "EvalContext", text: str) -> Value:
    return float(len(text))


fn_len.column = lambda texts: list(map(float, map(len, texts)))


def fn_find(ctx: "EvalContext", needle: str, text: str,
            start: float = 1.0) -> Value:
    """FIND(needle, text, start=1): case-sensitive position, 1-based.

    start may be one past the end, where only an empty needle is found
    (at start).  A miss is an error value, which is what makes
    ISERROR(FIND(...)) a usable containment test.
    """
    at = int(start)
    if at < 1 or at > len(text) + 1:
        return VALUE_ERR
    index = text.find(needle, at - 1)
    return VALUE_ERR if index < 0 else float(index + 1)


fn_find.column = lambda needles, texts, starts=None: [
    VALUE_ERR if index < 0 else float(index + 1) for index in (
        map(str.find, texts, needles) if starts is None  # start 1 is valid
        else (text.find(needle, at - 1) if 0 < at <= len(text) + 1 else -1
              for needle, text, at in zip(needles, texts, map(int, starts))))]


def fn_search(ctx: "EvalContext", needle: str, text: str,
              start: float = 1.0) -> Value:
    """SEARCH(needle, text, start=1): FIND over case-folded text.  start
    is checked against the text as written, as folding can lengthen it
    ("\u0130".lower() is two characters)."""
    if int(start) > len(text) + 1:
        return VALUE_ERR
    return fn_find(ctx, needle.lower(), text.lower(), start)


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

def read_stored(sheet: Sheet, rng: RangeRef) -> Sequence[Scalar]:
    """The values a CELLS argument's range stores, row-major, blanks
    left out; a range above grid.MAX_RANGE_CELLS is #NUM! alone, as
    read_range makes it."""
    try:
        return sheet.stored(rng)
    except GridError:
        return (NUM_ERR,)


def _collect_numbers(sheet: Sheet, args: Sequence) -> list[float] | CellError:
    """Flatten aggregate arguments into the numbers they contribute.

    Inside arrays and ranges only numbers count; text, booleans and
    blanks are skipped.  A direct scalar argument other than a blank
    coerces as a number would.  The first error (row-major, in argument
    order) becomes the result.
    """
    numbers: list[float] = []
    for arg in args:
        if arg.__class__ is RangeRef:
            cells = read_stored(sheet, arg)
            kinds = set(map(type, cells))
        elif isinstance(arg, ArrayValue):
            cells, kinds = arg.cells, arg.kinds
        else:
            if arg is not BLANK and arg is not OMITTED:
                number = coerce_to_number(arg)
                if isinstance(number, CellError):
                    return number
                numbers.append(number)
            continue
        if CellError in kinds:
            return next(e for e in cells if e.__class__ is CellError)
        numbers += (cells if kinds <= {float}
                    else [e for e in cells if e.__class__ is float])
    return numbers


def _total(numbers: list[float]) -> Value:
    """The exact sum, or #NUM! when it, or fsum's running sum, overflows."""
    try:
        return _finite(math.fsum(numbers))
    except OverflowError:  # fsum raises instead of returning inf
        return NUM_ERR


def _mean(numbers: list[float]) -> Value:
    if not numbers:
        return DIV0_ERR
    total = _total(numbers)
    return total if isinstance(total, CellError) else total / len(numbers)


def _aggregate(finish: Callable[[list[float]], Value]) -> Callable:
    """The kernel of an aggregate: finish over the numbers that
    _collect_numbers takes from its arguments, or their first error."""
    def kernel(ctx: "EvalContext", *args: Value) -> Value:
        numbers = _collect_numbers(ctx.sheet, args)
        return numbers if isinstance(numbers, CellError) else finish(numbers)
    return kernel


def _kth(smallest: bool, ctx: "EvalContext", values: Value,
         k: Scalar) -> Value:
    """SMALL(values, k) and LARGE(values, k): the k-th smallest or
    largest of the numbers an aggregate takes from values."""
    numbers = _collect_numbers(ctx.sheet, (values,))
    if isinstance(numbers, CellError):
        return numbers
    k = coerce_to_number(k)
    if isinstance(k, CellError):
        return k
    k = int(k)
    if k < 1 or k > len(numbers):
        return NUM_ERR
    numbers.sort()
    return numbers[k - 1] if smallest else numbers[-k]


# ----------------------------------------------------------------- logic

def _logical(stop: bool) -> Callable:
    """The kernel of AND (stop False) or OR (stop True): the first error
    or the first condition that is stop, in argument order; otherwise
    not stop, or #VALUE! when no element is a condition.  A number is
    one (non-zero is TRUE); text and blanks are not, as the aggregates
    skip what is not a number."""
    def kernel(ctx: "EvalContext", *args: Value) -> Value:
        found = False
        for arg in args:
            elements = (read_stored(ctx.sheet, arg)
                        if arg.__class__ is RangeRef else arg.cells
                        if isinstance(arg, ArrayValue) else (arg,))
            for element in elements:
                if element.__class__ is float:
                    element = element != 0.0
                elif element.__class__ is CellError:
                    return element
                elif element.__class__ is not bool:
                    continue
                if element is stop:
                    return stop
                found = True
        return (not stop) if found else VALUE_ERR
    return kernel


def fn_if(ctx: "EvalContext", truth: bool, then: Value,
          otherwise: Value = False) -> Value:
    """IF(condition, then, else=FALSE); an empty slot gives 0.  The
    branch not chosen is never read, so an error there goes unseen."""
    chosen = then if truth else otherwise
    return 0.0 if chosen is OMITTED else chosen


fn_if.column = lambda truths, thens, otherwises=repeat(False): [
    0.0 if (chosen := then if truth else otherwise) is OMITTED else chosen
    for truth, then, otherwise in zip(truths, thens, otherwises)]


def fn_not(ctx: "EvalContext", truth: bool) -> Value:
    return not truth


def fn_iserror(ctx: "EvalContext", value: Scalar) -> Value:
    # the one consumer of error values
    return isinstance(value, CellError)


fn_iserror.column = lambda values: [
    value.__class__ is CellError for value in values]


# ---------------------------------------------------------------- lookup

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
    vector = as_array(vector)
    if 1 not in vector.shape:
        return VALUE_ERR
    mode = coerce_to_number(mode)
    if isinstance(mode, CellError):
        return mode
    exact = mode == 0
    matches = COMPARISONS["=" if exact else ("<=" if mode > 0 else ">=")]
    best: int | None = None
    for position, element in enumerate(vector.cells, start=1):
        if isinstance(element, CellError) or element is BLANK:
            continue
        if type(element) is not type(needle):
            continue
        if matches(element, needle) is True:
            if exact:
                return float(position)
            best = position
    return NA_ERR if best is None else float(best)


def read_range(sheet: Sheet, rng: RangeRef) -> Value:
    """A range's values inside a formula.  A range above
    grid.MAX_RANGE_CELLS is #NUM! (#REF! already means off the sheet)."""
    try:
        return sheet.get_range(rng)
    except GridError:
        return NUM_ERR


def fn_index(ctx: "EvalContext", array: Value, row: float,
             col: float = 1.0) -> Value:
    """INDEX(array, row, col=1): one element, or a whole row/column.

    Row or column 0 selects the entire column/row; indexes past the
    edge are reference errors.
    """
    array = as_array(BLANK if array is OMITTED else array)
    r = int(row)
    c = int(col)
    if r < 0 or c < 0:
        return VALUE_ERR
    if r > array.rows or c > array.cols:
        return REF_ERR
    if r == 0 and c == 0:
        return unwrap(array)
    cells, cols = array.cells, array.cols
    if r == 0:
        return unwrap(ArrayValue(array.rows, 1, cells[c - 1::cols]))
    if c == 0:
        return unwrap(ArrayValue(1, cols, cells[(r - 1) * cols:r * cols]))
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
    return unwrap(read_range(ctx.sheet, shifted))


def _position(axis: str) -> Callable:
    """The kernel of ROW (axis "row") or COLUMN ("col"): the number of
    the formula's own cell with no argument, of a range's first row or
    column with one; array entered, of each of its rows (a column
    vector) or columns (a row vector)."""
    def kernel(ctx: "EvalContext", rng: Optional[RangeRef] = None) -> Value:
        if rng is None:
            return float(getattr(ctx.anchor, axis))
        first = getattr(rng.top_left, axis)
        last = getattr(rng.bottom_right, axis)
        if not ctx.array_entered or first == last:
            return float(first)
        numbers = tuple(map(float, range(first, last + 1)))
        return (ArrayValue(len(numbers), 1, numbers) if axis == "row"
                else ArrayValue(1, len(numbers), numbers))
    return kernel


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
    FunctionDescriptor("SUM", 1, None, (CELLS,), _aggregate(_total)),
    FunctionDescriptor("AVERAGE", 1, None, (CELLS,), _aggregate(_mean)),
    FunctionDescriptor("MIN", 1, None, (CELLS,),
                       _aggregate(partial(min, default=0.0))),
    FunctionDescriptor("MAX", 1, None, (CELLS,),
                       _aggregate(partial(max, default=0.0))),
    FunctionDescriptor("SMALL", 2, 2, (CELLS, SCALAR), partial(_kth, True)),
    FunctionDescriptor("LARGE", 2, 2, (CELLS, SCALAR), partial(_kth, False)),
    FunctionDescriptor("LEFT", 1, 2, (TEXT, NUMBER), fn_left),
    FunctionDescriptor("RIGHT", 1, 2, (TEXT, NUMBER), fn_right),
    FunctionDescriptor("LEN", 1, 1, (TEXT,), fn_len),
    FunctionDescriptor("FIND", 2, 3, (TEXT, TEXT, NUMBER), fn_find),
    FunctionDescriptor("SEARCH", 2, 3, (TEXT, TEXT, NUMBER), fn_search),
    FunctionDescriptor("SUBSTITUTE", 3, 4, (TEXT, TEXT, TEXT, SCALAR),
                       fn_substitute),
    FunctionDescriptor("IF", 2, 3, (LOGICAL, SCALAR, SCALAR), fn_if,
                       captures_errors=True, lazy=True),
    FunctionDescriptor("MATCH", 2, 3, (SCALAR, ARRAY, SCALAR), fn_match),
    FunctionDescriptor("INDEX", 2, 3, (ARRAY, NUMBER, NUMBER), fn_index),
    FunctionDescriptor("ISERROR", 1, 1, (SCALAR,), fn_iserror, captures_errors=True),
    FunctionDescriptor("AND", 1, None, (CELLS,), _logical(False)),
    FunctionDescriptor("OR", 1, None, (CELLS,), _logical(True)),
    FunctionDescriptor("NOT", 1, 1, (LOGICAL,), fn_not),
    FunctionDescriptor("ROW", 0, 1, (REF,), _position("row")),
    FunctionDescriptor("COLUMN", 0, 1, (REF,), _position("col")),
    FunctionDescriptor("OFFSET", 3, 5, (REF, NUMBER, NUMBER, SCALAR, SCALAR),
                       fn_offset),
    FunctionDescriptor("TRANSPOSE", 1, 1, (ARRAY,), fn_transpose),
    FunctionDescriptor("ROUND", 2, 2, (NUMBER, NUMBER), fn_round),
    FunctionDescriptor("INT", 1, 1, (NUMBER,), fn_int),
    FunctionDescriptor("RAND", 0, 0, (), fn_rand),
]}


def lookup(name: str) -> Optional[FunctionDescriptor]:
    return REGISTRY.get(name.upper())
