"""Stepwise formula traces.

A multilevel formula is easiest to understand inside-out.  decompose()
lists every distinct non-leaf sub-expression in post-order (children
before parents, repeats dropped at first sight), and trace() lays out
the value each of those nodes took in the formula's one evaluation,
in columns from the innermost call to the complete formula.  A step
the evaluation never reached shows empty cells: IF's untaken branch
under a scalar condition, and the arguments of a call refused before
they are evaluated (an unknown name, a wrong argument count, or a
value where ROW, COLUMN or OFFSET takes a reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .evaluator import EvalContext, evaluate
from .grid import RangeRef, render_rows
from .parser import Expr, Formula, Interning, RangeLit, intern, parse_formula
from .values import (ArrayValue, BLANK, Scalar, Value, as_array, render,
                     render_column)


class TraceError(Exception):
    """Raised when a formula cannot be laid out as a row-per-input table;
    value is the formula's, from the evaluation made before the layout."""
    value: Value = None


def decompose(expr: Expr) -> list[Expr]:
    """Distinct non-leaf sub-expressions, innermost first.

    Post-order guarantees every step only builds on earlier ones; the
    last step is the whole expression.  Literals and references are
    not steps, and a subtree that occurs twice (like the repeated
    RIGHT(...) argument when trimming a trailing character) is listed
    once, where it first appears: the steps are the first twins of
    parser.intern, so LEN(1) and LEN(TRUE) are two steps, although
    1.0 == True, and RAND()-RAND() has one RAND() step.
    """
    return _steps(intern(expr))


def _steps(interning: Interning) -> list[Expr]:
    return [node for node in interning.firsts
            if not isinstance(node, RangeLit)]


@dataclass(frozen=True)
class TraceStep:
    label: str
    expr: Expr
    results: ArrayValue  # one row per input row


@dataclass(frozen=True)
class TraceTable:
    input_header: Optional[str]
    input_values: tuple[Scalar, ...]
    steps: tuple[TraceStep, ...]
    rows: int
    value: Value  # the formula's, as evaluate_formula returns it


def _normalize(value, rows: int) -> ArrayValue:
    value = as_array(value)
    if value.rows == rows:
        return value
    if value.rows == 1:
        return ArrayValue(rows, value.cols, value.cells * rows)
    raise TraceError(
        f"step produced {value.rows} rows where the trace has {rows}")


def trace(
    source: Union[str, Formula],
    ctx: EvalContext,
    input_range: Optional[RangeRef] = None,
) -> TraceTable:
    """Evaluate a formula once, as entered, and lay out its steps.

    The input column defaults to the first range in the formula, as
    the evaluation read it (or read here, when an aggregate took it
    unread); a formula with no range traces as a single row.  The evaluation computes each set of twins (parser.intern)
    once and keeps every step's value, so a step shows the value its
    subtree took wherever the evaluation reached it.  A subtree holding
    RAND is never shared: its step shows its first occurrence, and
    =RAND()-RAND() is not 0.  Scalars repeat down the column.  The
    table's value, and a TraceError's, is what evaluate_formula returns.
    """
    formula = parse_formula(source) if isinstance(source, str) else source
    interning = formula.interning or intern(formula.expr)
    # every step's value is kept, under its first twin's id
    traced = EvalContext(ctx.sheet, formula.array_entered, ctx.anchor,
                         ctx.rng, interning.keys)
    values = traced.node_values
    value = values[id(formula.expr)] = evaluate(formula.expr, traced)
    # constants and bare refs still trace
    raw = [(expr, values.get(id(expr), BLANK))
           for expr in _steps(interning) or [formula.expr]]
    # post-order lists leaves left to right: this is the leftmost range
    first = None if input_range is not None else next(
        (node for node in interning.firsts if isinstance(node, RangeLit)),
        None)
    if first is not None:
        input_range = first.rng
    header: Optional[str] = None
    input_values: tuple[Scalar, ...] = ()
    try:
        if input_range is not None:
            if input_range.cols != 1:
                raise TraceError("the input range must be a single column")
            header = input_range.a1
            top = input_range.top_left
            if top.row > 1:
                above = ctx.sheet.get(top.offset(-1, 0))
                if above is not BLANK:
                    header = render(above)
            rows = input_range.rows
            # the evaluation's read of a default input column, if it made one
            column = first and values.get(id(first))
            input_values = (column if isinstance(column, ArrayValue)
                            else ctx.sheet.get_range(input_range)).cells
        else:
            rows = max((v.rows for _, v in raw if isinstance(v, ArrayValue)),
                       default=1)
        steps = tuple(
            TraceStep(f"S{i}", expr, _normalize(step_value, rows))
            for i, (expr, step_value) in enumerate(raw, start=1))
    except TraceError as exc:
        exc.value = value
        raise
    return TraceTable(header, input_values, steps, rows, value)


def render_tsv(table: TraceTable) -> str:
    """Trace table as TSV: a label header row, then one row per input.

    It is rendered by column (a step of several columns shows each row
    joined by ", ") and the columns are zipped into rows.
    """
    header = [step.label for step in table.steps]
    columns = [render_column(step.results.cells) if step.results.cols == 1
               else map(", ".join, render_rows(step.results))
               for step in table.steps]
    if table.input_header is not None:
        header.insert(0, table.input_header)
        columns.insert(0, render_column(table.input_values))
    rows = map("\t".join, zip(*columns))
    return "\n".join(["\t".join(header), *rows]) + "\n"
