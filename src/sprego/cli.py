"""Command-line front end.

    sprego eval [workbook.csv] "{=SUM(IF(I2:I15>H1003,1))}" [--set H1003=500]
    sprego run task1.sprego
    sprego trace workbook.csv "{=LEFT(C2:C15,FIND(\"(\",C2:C15)-2)}" [C2:C15]
    sprego export workbook.csv A1:F15

Exit codes: 0 success, 1 failed expectation or (with --strict) an
error value in the result, 2 formula parse error (or usage error), 3
evaluation or addressing error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Optional

from . import data_path
from .evaluator import EvalContext, display_value, evaluate_formula
from .grid import (Sheet, as_range, load_csv, parse_a1, parse_cell,
                   range_to_csv, render_rows)
from .parser import parse_formula
from .script import (
    EXPECT_FAILED,
    IO_FAILED,
    OK,
    REPORTED_FAILURES,
    ScriptError,
    _parse_set_literal,
    describe_failure,
    run_script,
)
from .tracer import render_tsv, trace
from .values import ArrayValue, CellError, as_array, render

def _add_workbook_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--at", type=int, default=0, metavar="N",
                        help="shift loaded columns right by N (default 0)")
    parser.add_argument("--no-header", action="store_true",
                        help="treat row 1 like any other row when loading")
    parser.add_argument("--text", action="store_true",
                        help="load every CSV field as text")
    parser.add_argument("--set", action="append", default=[],
                        metavar="CELL=VALUE", dest="assignments",
                        help="set a cell before evaluating (repeatable)")
    # what these flags and the positionals get wrong exits 2, as usage
    parser.set_defaults(usage_error=parser.error)


def _build_sheet(options, workbook: Optional[str]) -> Sheet:
    """The workbook, if any, with each --set applied.  A negative --at
    or a malformed --set is a usage error, found before any file is read."""
    if options.at < 0:
        options.usage_error(f"argument --at: {options.at} is negative")
    assignments = []
    for text in options.assignments:
        target, eq, literal = text.partition("=")
        if not eq:
            options.usage_error(f"malformed --set {text!r}")
        try:
            assignments.append((target.strip(),
                                _parse_set_literal(literal, None, "--set")))
        except ScriptError as exc:
            options.usage_error(str(exc))
    if workbook is None:
        sheet = Sheet()
    else:
        sheet = load_csv(workbook,
                         header=not options.no_header,
                         force_text=options.text,
                         column_offset=options.at)
    for target, value in assignments:
        sheet.set(parse_cell(target), value)
    return sheet


def _positional_workbook(options, most: int):
    """Disambiguate [workbook] formula [range] by argument count."""
    args = options.args
    if len(args) > most:
        options.usage_error("too many positional arguments")
    if len(args) == 1:
        return None, args[0], None
    return args[0], args[1], args[2] if len(args) == 3 else None


def cmd_eval(options) -> int:
    workbook, formula_text, _ = _positional_workbook(options, most=2)
    sheet = _build_sheet(options, workbook)
    formula = parse_formula(formula_text)
    ctx = EvalContext(sheet, rng=random.Random(options.seed))
    value = evaluate_formula(formula, ctx)
    if options.cell or not isinstance(value, ArrayValue):
        print(render(display_value(value)))
    else:
        print("\n".join(map("\t".join, render_rows(value))))
    if options.strict:
        if any(isinstance(v, CellError) for v in as_array(value).cells):
            return EXPECT_FAILED
    return OK


def cmd_run(options) -> int:
    path = Path(options.script)
    if not path.exists() and data_path(options.script).exists():
        path = data_path(options.script)
    report = run_script(path, seed=options.seed,
                        keep_going=options.keep_going)
    print(report.render(), end="")
    return report.exit_code


def cmd_trace(options) -> int:
    workbook, formula_text, range_text = _positional_workbook(options, most=3)
    sheet = _build_sheet(options, workbook)
    input_range = (as_range(parse_a1(range_text))
                   if range_text is not None else None)
    ctx = EvalContext(sheet, rng=random.Random(options.seed))
    table = trace(formula_text, ctx, input_range)
    print(render_tsv(table), end="")
    return OK


def cmd_export(options) -> int:
    sheet = _build_sheet(options, options.workbook)
    rng = as_range(parse_a1(options.range))
    print(range_to_csv(sheet, rng), end="")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprego",
        description="A small array-first spreadsheet formula engine.")
    commands = parser.add_subparsers(dest="command", required=True)

    eval_cmd = commands.add_parser(
        "eval", help="evaluate one formula, optionally against a CSV workbook",
        usage="%(prog)s [options] [workbook.csv] formula")
    eval_cmd.add_argument("args", nargs="+",
                          metavar="[workbook.csv] formula")
    eval_cmd.add_argument("--cell", action="store_true",
                          help="print only the displayed (first) component")
    eval_cmd.add_argument("--strict", action="store_true",
                          help="exit 1 if the result contains an error value")
    _add_workbook_flags(eval_cmd)
    eval_cmd.set_defaults(handler=cmd_eval)

    run_cmd = commands.add_parser(
        "run", help="run a task script and check its expectations")
    run_cmd.add_argument("script",
                         help="script path (bare names also resolve against "
                              "the packaged examples)")
    run_cmd.add_argument("--keep-going", action="store_true",
                         help="continue past a failed directive")
    run_cmd.set_defaults(handler=cmd_run)

    trace_cmd = commands.add_parser(
        "trace", help="print the step-by-step table of a formula",
        usage="%(prog)s [options] [workbook.csv] formula [input-range]")
    trace_cmd.add_argument("args", nargs="+",
                           metavar="[workbook.csv] formula [input-range]")
    _add_workbook_flags(trace_cmd)
    trace_cmd.set_defaults(handler=cmd_trace)

    for command in (eval_cmd, run_cmd, trace_cmd):
        command.add_argument("--seed", type=int, default=None,
                             help="seed for RAND()")

    export_cmd = commands.add_parser(
        "export", help="print a workbook range back as CSV")
    export_cmd.add_argument("workbook")
    export_cmd.add_argument("range")
    _add_workbook_flags(export_cmd)
    export_cmd.set_defaults(handler=cmd_export)

    return parser


#: Built once: parsing leaves it unchanged (--set appends to a copy of
#: its default list), so every call of main can share it.
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    options = _PARSER.parse_args(argv)
    try:
        return options.handler(options)
    except REPORTED_FAILURES as exc:
        code, message = describe_failure(exc)
    except OSError as exc:
        code, message = IO_FAILED, str(exc)
    print(f"sprego: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
