"""Expression evaluation with element-wise lifting over arrays.

Scalar operations are written once, for scalars; when an array turns
up in a scalar position the evaluation is repeated per element with
broadcasting (scalars pair with everything, a 1xN or Mx1 operand
stretches along its short axis).  Outside array entry a multi-cell
array in a scalar position is a #VALUE! error instead; there is no
implicit intersection.

Errors are values, not exceptions: they flow out of individual
elements and poison exactly the results that depend on them.
Evaluation never mutates the sheet.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, repeat
from typing import Callable, Optional

from .functions import REF, SCALAR, lookup, read_range
from .grid import MAX_RANGE_CELLS, CellAddress, RangeRef, Sheet
from .parser import Binary, Call, Expr, Formula, Literal, RangeLit, Ref, Unary
from .values import (
    ArrayValue,
    CellError,
    DIV0_ERR,
    MAX_TEXT,
    NAME_ERR,
    NUM_ERR,
    OMITTED,
    Scalar,
    VALUE_ERR,
    Value,
    _finite,
    coerce_to_number,
    coerce_to_text,
    compare,
    is_truthy,
)


@dataclass
class EvalContext:
    """Everything one evaluation needs: the sheet snapshot, the entry
    mode, the formula's own cell (for ROW/COLUMN) and the random
    stream backing RAND.  When node_values is set, evaluate stores in
    it the value of each operator and call node under id(node)."""

    sheet: Sheet
    array_entered: bool = False
    anchor: CellAddress = CellAddress(1, 1)
    rng: random.Random = field(default_factory=random.Random)
    node_values: Optional[dict[int, Value]] = None


def _operator_kernel(combine: Callable[..., Value], arity: int = 2,
                     text: bool = False) -> Callable[..., Value]:
    """Scalar kernel for an operator: coerce each operand (to text for
    &, else to a number), pass the first error on, else combine.  Two
    float operands of an arithmetic operator need no coercion."""
    if arity == 1:
        def unary(a: Scalar) -> Value:
            x = coerce_to_number(a)
            if isinstance(x, CellError):
                return x
            return combine(x)
        return unary

    def binary(a: Scalar, b: Scalar) -> Value:
        if not text and a.__class__ is float and b.__class__ is float:
            return combine(a, b)
        x = coerce_to_text(a) if text else coerce_to_number(a)
        if isinstance(x, CellError):
            return x
        y = coerce_to_text(b) if text else coerce_to_number(b)
        if isinstance(y, CellError):
            return y
        return combine(x, y)
    return binary


def _divide(x: float, y: float) -> Value:
    if y == 0.0:
        return DIV0_ERR
    return _finite(x / y)


def _power(x: float, y: float) -> Value:
    if x == 0.0 and y == 0.0:
        return NUM_ERR
    if x == 0.0 and y < 0.0:
        return DIV0_ERR
    try:
        result = x ** y
    except (OverflowError, ValueError, ZeroDivisionError):
        return NUM_ERR
    if isinstance(result, complex):
        return NUM_ERR
    return _finite(result)


def _comparison_kernel(op: str) -> Callable[[Scalar, Scalar], Value]:
    def kernel(a: Scalar, b: Scalar) -> Value:
        return compare(a, b, op)
    return kernel


_NEGATE = _operator_kernel(operator.neg, arity=1)
_PERCENT = _operator_kernel(lambda x: x / 100.0, arity=1)

_BINARY_KERNELS: dict[str, Callable[[Scalar, Scalar], Value]] = {
    "+": _operator_kernel(lambda x, y: _finite(x + y)),
    "-": _operator_kernel(lambda x, y: _finite(x - y)),
    "*": _operator_kernel(lambda x, y: _finite(x * y)),
    "/": _operator_kernel(_divide),
    "^": _operator_kernel(_power),
    "&": _operator_kernel(lambda x, y: VALUE_ERR if len(x) + len(y) > MAX_TEXT
                          else x + y, text=True),
    **{op: _comparison_kernel(op) for op in ("=", "<>", "<", "<=", ">", ">=")},
}


def broadcast_shape(shapes: list[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """Common shape of the given array shapes, or None if they clash.

    An axis of length 1 stretches to match; two different lengths
    above 1 on the same axis are incompatible.
    """
    rows, cols = 1, 1
    for r, c in shapes:
        if r != 1:
            if rows == 1:
                rows = r
            elif r != rows:
                return None
        if c != 1:
            if cols == 1:
                cols = c
            elif c != cols:
                return None
    return rows, cols


def _only_element(array: ArrayValue) -> Optional[Scalar]:
    """The element of a 1x1 array.  A larger array has no single value
    (there is no implicit intersection): None, which callers turn
    into #VALUE!."""
    if array.rows == 1 and array.cols == 1:
        return array.first()
    return None


def _spread(array: ArrayValue, rows: int, cols: int) -> tuple[Scalar, ...]:
    """The array's cells stretched to rows x cols, row-major.  An array
    already of that shape comes back as it is; a single column repeats
    across, a single row repeats down."""
    cells = array.cells
    if array.cols != cols:
        cells = tuple(chain.from_iterable(map(repeat, cells, repeat(cols))))
    if array.rows != rows:
        cells *= rows
    return cells


def _element_result(value: Value) -> Scalar:
    """A kernel's result for one element: an array per element cannot
    nest inside the result, so only a 1x1 array stands for its value."""
    if isinstance(value, ArrayValue):
        value = _only_element(value)
        return VALUE_ERR if value is None else value
    return value


def lift(
    kernel: Callable[..., Value],
    args: list[Value],
    ctx: EvalContext,
    *,
    lifted: Optional[list[int]] = None,
    captures_errors: bool = False,
) -> Value:
    """Apply a scalar kernel, repeating it element-wise over arrays.

    Only the positions named in `lifted` (ascending; all of them by
    default) participate; other arguments pass through whole on every
    element call.  Unless the kernel captures errors, an error in a
    lifted argument short-circuits that element (first error in
    argument order wins).  A kernel that produces an array for a
    single element cannot be represented and yields #VALUE! there.
    A broadcast result above MAX_RANGE_CELLS elements is #NUM!.

    The element loop does only per-element work: a stretched array is
    expanded once per call, and a lifted scalar that is an error is
    found once, before the loop.
    """
    if lifted is None:
        lifted = range(len(args))
    arrays = [i for i in lifted if isinstance(args[i], ArrayValue)]

    if arrays and not ctx.array_entered:
        args = list(args)
        for i in arrays:
            args[i] = _only_element(args[i])
            if args[i] is None:
                return VALUE_ERR
        arrays = []

    checked = () if captures_errors else lifted
    stop = None  # the first lifted scalar that is an error
    for i in checked:
        if isinstance(args[i], CellError):
            stop = i
            break
    if not arrays:
        # single application: the kernel may legitimately produce a
        # whole array (TRANSPOSE, a resized OFFSET, ROW over a range)
        return kernel(*args) if stop is None else args[stop]

    shape = broadcast_shape([args[i].shape for i in arrays])
    if shape is None:
        return VALUE_ERR
    rows, cols = shape
    if rows * cols > MAX_RANGE_CELLS:
        return NUM_ERR  # checked before any array is expanded
    # one row-major sequence per argument, so zip yields each
    # element's argument tuple
    columns: list = [repeat(arg) for arg in args]
    for i in arrays:
        columns[i] = _spread(args[i], rows, cols)
    # arrays that can decide an element before the scalar error does
    watched = [i for i in arrays
               if i in checked and (stop is None or i < stop)
               and any(map(isinstance, columns[i], repeat(CellError)))]
    if stop is None and not watched:
        cells = list(map(kernel, *columns))
    else:
        cells = []
        for call_args in zip(*columns):
            for i in watched:
                if isinstance(call_args[i], CellError):
                    cells.append(call_args[i])
                    break
            else:
                cells.append(kernel(*call_args) if stop is None
                             else args[stop])
    if any(map(isinstance, cells, repeat(ArrayValue))):
        cells = [_element_result(value) for value in cells]
    return ArrayValue(rows, cols, tuple(cells))


def display_value(value: Value) -> Scalar:
    """What a single cell shows: an array displays its first element."""
    if isinstance(value, ArrayValue):
        return value.first()
    return value


def _branch_result(expr: Optional[Expr], ctx: EvalContext,
                   absent_default: Value) -> Value:
    if expr is None:
        return absent_default
    if isinstance(expr, Literal) and expr.value is OMITTED:
        return 0.0  # IF(c,,x): present-but-empty slot counts as 0
    return evaluate(expr, ctx)


def _choose(condition: Scalar, then_value: Scalar,
            else_value: Scalar) -> Value:
    truth = is_truthy(condition)
    if isinstance(truth, CellError):
        return truth
    return then_value if truth else else_value


def eval_if(args: tuple[Expr, ...], ctx: EvalContext) -> Value:
    """IF(condition, then, else?).

    With a scalar condition only the selected branch is evaluated.
    With an array condition (array entry) both branches are computed
    once and chosen element-wise by lifting; since errors are plain
    values this is observationally the same, element by element, and
    an error in the branch not chosen goes unseen.  A false condition
    with no else argument gives FALSE, and an empty slot gives 0.
    """
    condition = evaluate(args[0], ctx)
    then_expr = args[1]
    else_expr = args[2] if len(args) > 2 else None

    if isinstance(condition, ArrayValue):
        if ctx.array_entered:
            branches = [_branch_result(then_expr, ctx, absent_default=0.0),
                        _branch_result(else_expr, ctx, absent_default=False)]
            return lift(_choose, [condition, *branches], ctx,
                        captures_errors=True)
        condition = _only_element(condition)
        if condition is None:
            return VALUE_ERR

    truth = is_truthy(condition)
    if isinstance(truth, CellError):
        return truth
    if truth:
        return _branch_result(then_expr, ctx, absent_default=0.0)
    return _branch_result(else_expr, ctx, absent_default=False)


def _eval_call(call: Call, ctx: EvalContext) -> Value:
    descriptor = lookup(call.name)
    if descriptor is None:
        return NAME_ERR
    count = len(call.args)
    if count < descriptor.min_args:
        return VALUE_ERR
    if descriptor.max_args is not None and count > descriptor.max_args:
        return VALUE_ERR
    if descriptor.lazy:
        return eval_if(call.args, ctx)

    prepared: list = []
    lifted: list[int] = []
    for index, arg_expr in enumerate(call.args):
        mode = descriptor.mode_for(index)
        if mode == REF:
            if isinstance(arg_expr, Ref):
                prepared.append(RangeRef.cell(arg_expr.addr))
            elif isinstance(arg_expr, RangeLit):
                prepared.append(arg_expr.rng)
            else:
                return VALUE_ERR  # these arguments must be references
        else:
            prepared.append(evaluate(arg_expr, ctx))
            if mode == SCALAR:
                lifted.append(index)

    return lift(partial(descriptor.impl, ctx), prepared, ctx, lifted=lifted,
                captures_errors=descriptor.captures_errors)


def evaluate(expr: Expr, ctx: EvalContext) -> Value:
    """Evaluate an expression tree against the context's sheet."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Ref):
        return ctx.sheet.get(expr.addr)
    if isinstance(expr, RangeLit):
        return read_range(ctx.sheet, expr.rng)
    if isinstance(expr, Unary):
        value = evaluate(expr.operand, ctx)
        if expr.op != "+":  # unary plus is a sign-preserving no-op
            value = lift(_NEGATE if expr.op == "-" else _PERCENT, [value], ctx)
    elif isinstance(expr, Binary):
        operands = [evaluate(expr.left, ctx), evaluate(expr.right, ctx)]
        value = lift(_BINARY_KERNELS[expr.op], operands, ctx)
    elif isinstance(expr, Call):
        value = _eval_call(expr, ctx)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    if ctx.node_values is not None:
        ctx.node_values[id(expr)] = value
    return value


def evaluate_formula(formula: Formula, ctx: EvalContext) -> Value:
    """Evaluate with the formula's own entry mode."""
    return evaluate(formula.expr,
                    replace(ctx, array_entered=formula.array_entered))
