"""Expression evaluation with element-wise lifting over arrays.

Scalar operations are written once, for scalars; when an array turns
up in a scalar position the evaluation is repeated per element with
broadcasting (scalars pair with everything, a 1xN or Mx1 operand
stretches along its short axis).  Outside array entry a multi-cell
array in a scalar position is a #VALUE! error instead; there is no
implicit intersection.

lift also coerces each lifted argument as its mode says (a function's
descriptor, or _OPERATORS), so kernels see numbers or text already.
Over arrays every step is a call per column, not a Python frame per
element: a coercion's column form coerces an array, the elements an
error decides are found column by column, and a kernel's column form
(FIND, LEFT, RIGHT, LEN, IF, ISERROR, binary + - * and the
comparisons) makes all the other elements in one call.

Errors are values, not exceptions: they flow out of individual
elements and poison exactly the results that depend on them.
Evaluation never mutates the sheet.

A formula's twins (parser.intern: structurally equal subtrees, such as
a range a pasted helper step repeats) are computed once per evaluation:
given intern()'s keys, evaluate keeps every range, operator and call
value in the evaluation's own memo, under its first twin's id.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat
from typing import Callable, Optional

from .functions import (CELLS, NUMBER, REF, SCALAR, TEXT, UNCHANGED_BY,
                        FunctionDescriptor, lookup, read_range)
from .grid import MAX_RANGE_CELLS, CellAddress, RangeRef, Sheet
from .parser import Binary, Call, Expr, Formula, Literal, RangeLit, Ref, Unary
from .values import (
    ArrayValue,
    COMPARISONS,
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
    as_array,
    finite,
    unwrap,
)


@dataclass
class EvalContext:
    """Everything one evaluation needs: the sheet snapshot, the entry
    mode, the formula's own cell (for ROW/COLUMN) and the random
    stream backing RAND.

    twins, when set, is intern()'s keys of the tree being evaluated,
    and node_values is the evaluation's own memo: evaluate stores the
    value of each range, operator and call node under its key (the id
    of the node's first twin), and a node whose key holds a value is
    not evaluated again.  The memo then holds every step's value."""

    sheet: Sheet
    array_entered: bool = False
    anchor: CellAddress = CellAddress(1, 1)
    rng: random.Random = field(default_factory=random.Random)
    twins: Optional[dict[int, int]] = None
    node_values: dict[int, Value] = field(default_factory=dict, init=False)


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


#: (operator, operand count) -> (combine, the lifted operands' coercions).
#: Combine functions take operands already coerced by their mode, which
#: is the coercion itself; + - * carry a column form (values.finite).
_OPERATORS = {
    (op, arity): (combine, dict.fromkeys(range(arity), mode))
    for (op, arity), (combine, mode) in {
        ("-", 1): (operator.neg, NUMBER),
        ("%", 1): (lambda x: x / 100.0, NUMBER),
        ("+", 2): (finite(operator.add), NUMBER),
        ("-", 2): (finite(operator.sub), NUMBER),
        ("*", 2): (finite(operator.mul), NUMBER),
        ("/", 2): (_divide, NUMBER),
        ("^", 2): (_power, NUMBER),
        ("&", 2): (lambda x, y: VALUE_ERR if len(x) + len(y) > MAX_TEXT
                   else x + y, TEXT),
        **{(op, 2): (comparison, SCALAR)
           for op, comparison in COMPARISONS.items()},
    }.items()
}


def broadcast_shape(shapes: list[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """Common shape of the given array shapes, or None if they clash.

    An axis of length 1 stretches to match: on each axis, the lengths
    other than 1 must agree.
    """
    rows, cols = (set(axis) - {1} or {1} for axis in zip((1, 1), *shapes))
    return (*rows, *cols) if len(rows) == len(cols) == 1 else None


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
    value = unwrap(value)
    return VALUE_ERR if isinstance(value, ArrayValue) else value


def lift(
    kernel: Callable[..., Value],
    args: list[Value],
    ctx: EvalContext,
    *,
    lifted: dict[int, Optional[Callable]],
    captures_errors: bool = False,
) -> Value:
    """Apply a scalar kernel, repeating it element-wise over arrays.

    Only the positions that `lifted` maps (ascending, each to its
    coercion or to None) participate; other arguments pass through
    whole on every element call.  For each element the result is:

    1. the first error among the lifted arguments, in argument order
       (skipped when the kernel captures errors);
    2. otherwise, the first error that a coercion made, in argument
       order;
    3. otherwise, the kernel's result on the coerced values.

    A kernel that produces an array for a single element cannot be
    represented and yields #VALUE! there.  A broadcast result above
    MAX_RANGE_CELLS elements is #NUM!.
    """
    values = list(args)
    arrays = []
    for i in lifted:
        if isinstance(values[i], ArrayValue):
            if ctx.array_entered:
                arrays.append(i)
            else:
                values[i] = unwrap(values[i])
                if isinstance(values[i], ArrayValue):
                    return VALUE_ERR
    if arrays:
        return _broadcast(kernel, values, arrays, lifted, captures_errors)

    # single application: the kernel may legitimately produce a whole
    # array (TRANSPOSE, a resized OFFSET, ROW over a range)
    made = None  # the first error a coercion made
    for i, coerce in lifted.items():
        value = values[i]
        if isinstance(value, CellError) and not captures_errors:
            return value
        if coerce is not None:
            value = values[i] = coerce(value)
            if made is None and isinstance(value, CellError):
                made = value
    return kernel(*values) if made is None else made


def _broadcast(kernel: Callable[..., Value], values: list, arrays: list[int],
               lifted: dict[int, Optional[Callable]],
               captures_errors: bool) -> Value:
    """lift's element loop, for lifted arrays under array entry.

    Every step is a call per column, not per element: a lifted scalar
    is coerced once, then repeated; an array is expanded once, row-major,
    then coerced by its coercion's column form unless the coercion
    returns its element types unchanged.  The elements an error decides
    are found column by column; the rest go, compressed, through the
    kernel's column form (or map over the kernel, which has none) in
    one call, and the results are scattered back between the errors.
    """
    shape = broadcast_shape([values[i].shape for i in arrays])
    if shape is None:
        return VALUE_ERR
    rows, cols = shape
    if rows * cols > MAX_RANGE_CELLS:
        return NUM_ERR  # checked before any array is expanded
    # what decides an element before the kernel does, in lift's order:
    # held, the columns with an error as they came; made, those with one
    # after their coercion (exact types: CellError has no subclasses)
    held, made = [], []
    for i, coerce in lifted.items():
        value = values[i]
        if i not in arrays:
            if value.__class__ is CellError:
                held.append(repeat(value))
            if coerce:
                value = values[i] = coerce(value)
                if value.__class__ is CellError:
                    made.append(repeat(value))
            continue
        kinds = value.kinds
        value = values[i] = _spread(value, rows, cols)
        if CellError in kinds:
            held.append(value)
        if coerce and not kinds.issubset(UNCHANGED_BY.get(coerce, ())):
            form = getattr(coerce, "column", None)
            value = values[i] = tuple(form(value) if form
                                      else map(coerce, value))
            kinds = set(map(type, value))
        if coerce and CellError in kinds:
            made.append(value)
    deciders = made if captures_errors else held + made
    columns = [values[i] if i in arrays else repeat(value)
               for i, value in enumerate(values)]
    # a swapped or wrapped impl has no form, so it sees every element
    column = getattr(getattr(kernel, "func", kernel), "column", None)
    if deciders:
        # each element's first deciding error (errors are truthy), or None
        errors = [None] * (rows * cols)
        for decider in deciders:
            errors = [error or (value if value.__class__ is CellError
                                else None)
                      for error, value in zip(errors, decider)]
        keep = [error is None for error in errors]
        columns = [compress(cells, keep) for cells in columns]
    cells = column(*columns) if column else list(map(kernel, *columns))
    if deciders:
        made = iter(cells)
        cells = [error or next(made) for error in errors]
    # a kernel fed only scalars returns a scalar: only one with an argument
    # passed whole (INDEX, OFFSET, ROW, COLUMN, TRANSPOSE) makes arrays
    if len(lifted) < len(values) and ArrayValue in set(map(type, cells)):
        cells = [_element_result(value) for value in cells]
    return ArrayValue(rows, cols, tuple(cells))


def display_value(value: Value) -> Scalar:
    """What a single cell shows: an array displays its first element."""
    return as_array(value).first()


def _apply(descriptor: FunctionDescriptor, args: list[Value],
           ctx: EvalContext) -> Value:
    """Lift a built-in's kernel over its prepared arguments."""
    return lift(partial(descriptor.impl, ctx), args, ctx,
                lifted=descriptor.plans[min(len(args), len(descriptor.modes))],
                captures_errors=descriptor.captures_errors)


def eval_if(args: tuple[Expr, ...], ctx: EvalContext,
            descriptor: FunctionDescriptor) -> Value:
    """IF(condition, then, else?), by the descriptor's kernel.

    Under a scalar condition only the chosen branch is evaluated, and
    it comes back whole.  Under an array condition (array entry) every
    argument is evaluated and the call lifts like any other; errors
    being values, one in the branch not chosen goes unseen.
    """
    condition = evaluate(args[0], ctx)
    if ctx.array_entered and isinstance(condition, ArrayValue):
        return _apply(descriptor, [condition, *(evaluate(arg, ctx)
                                                for arg in args[1:])], ctx)
    # the condition alone, coerced by IF's own mode for it
    truth = lift(bool, [condition], ctx, lifted=descriptor.plans[1])
    if isinstance(truth, CellError):
        return truth
    taken = 1 if truth else 2
    # the kernel never reads the branch not taken, left unevaluated
    branches = [evaluate(arg, ctx) if index == taken else OMITTED
                for index, arg in enumerate(args[1:], start=1)]
    return descriptor.impl(ctx, truth, *branches)


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
        return eval_if(call.args, ctx, descriptor)

    # a range literal reaches a REF or CELLS argument unread, as its
    # range: the kernel reads it, a CELLS one by its stored cells only
    prepared: list = []
    for index, arg_expr in enumerate(call.args):
        if isinstance(arg_expr, RangeLit) and \
                descriptor.mode(index) in (REF, CELLS):
            prepared.append(arg_expr.rng)
        elif index not in descriptor.refs:
            prepared.append(evaluate(arg_expr, ctx))
        elif isinstance(arg_expr, Ref):
            prepared.append(RangeRef.cell(arg_expr.addr))
        else:
            return VALUE_ERR  # these arguments must be references
    return _apply(descriptor, prepared, ctx)


def evaluate(expr: Expr, ctx: EvalContext) -> Value:
    """Evaluate an expression tree against the context's sheet."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Ref):
        return ctx.sheet.get(expr.addr)
    twins = ctx.twins
    if twins is not None:
        key, memo = twins[id(expr)], ctx.node_values
        if key in memo:
            return memo[key]
    if isinstance(expr, RangeLit):
        value = read_range(ctx.sheet, expr.rng)
    elif isinstance(expr, Unary):
        value = evaluate(expr.operand, ctx)
        if expr.op != "+":  # unary plus is a sign-preserving no-op
            combine, lifted = _OPERATORS[expr.op, 1]
            value = lift(combine, [value], ctx, lifted=lifted)
    elif isinstance(expr, Binary):
        combine, lifted = _OPERATORS[expr.op, 2]
        operands = [evaluate(expr.left, ctx), evaluate(expr.right, ctx)]
        value = lift(combine, operands, ctx, lifted=lifted)
    elif isinstance(expr, Call):
        value = _eval_call(expr, ctx)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    if twins is not None:
        memo[key] = value
    return value


def evaluate_formula(formula: Formula, ctx: EvalContext) -> Value:
    """Evaluate with the formula's own entry mode and a memo of its own,
    computing each twin once if parse_formula interned the formula."""
    # built field by field, in order: dataclasses.replace costs about
    # three times as much, over 1% of a short formula's evaluation
    return evaluate(formula.expr, EvalContext(
        ctx.sheet, formula.array_entered, ctx.anchor, ctx.rng,
        formula.interning and formula.interning.keys))
