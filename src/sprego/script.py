"""Task scripts: reproducible formula pipelines with expectations.

A script is a plain-text file of directives, one per line:

    LOAD <file.csv> [AT <column-offset>] [TEXT]
    SET <cell> = <literal>
    STEP <label> <range> = <formula>
    TRACE <label>
    EXPECT <range> = @<file.csv>
    EXPECT <range> = <cell>[,<cell>...][;<row>...]

Lines starting with # are comments.  STEP evaluates its formula once
(braces request array entry) and spills the result over the declared
range, which must match the result's shape exactly.  TRACE prints a
step's trace, made from that evaluation: over the sheet it read, at its
anchor, with its RAND draws.  EXPECT compares a previously written
range cell-by-cell: text, booleans, blanks and errors must match
exactly, numbers within 1e-9 relative or 1e-12 absolute, whichever is
looser.  In expectation data a quoted field is always text, so "14" is
the text and 14 the number, and blanks around a quoted field are
ignored; an empty unquoted field is a blank.

EXPECT fails on a cell no directive has written.  A written cell is
one the sheet stores or one inside a STEP or SET rectangle: every
stored cell was written by some directive, and a loaded cell leaves
the sheet only when a STEP or SET writes a blank over it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .evaluator import EvalContext, evaluate_formula
from .grid import (
    CELL_PATTERN,
    CellAddress,
    GridError,
    IngestError,
    RangeRef,
    Sheet,
    as_range,
    load_csv,
    open_text,
    parse_a1,
    parse_cell,
)
from .parser import FormulaError, parse_formula
from .tracer import TraceError, TraceTable, render_tsv, trace
from .values import (
    BLANK,
    BOOLEAN_BY_LABEL,
    ERROR_BY_LABEL,
    QUOTED_BODY,
    Scalar,
    as_array,
    parse_number,
    render,
    unquote,
)


class ScriptError(Exception):
    """A malformed script line, or command line if line is None."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# exit codes shared with the CLI
OK = 0
EXPECT_FAILED = 1
PARSE_FAILED = 2
EVAL_FAILED = 3
IO_FAILED = 4

#: the failures a script directive or a CLI command reports by exit code
REPORTED_FAILURES = (FormulaError, GridError, TraceError, ScriptError)


def describe_failure(exc: Exception) -> tuple[int, str]:
    """Exit code and message for one of the REPORTED_FAILURES."""
    if isinstance(exc, FormulaError):
        return PARSE_FAILED, f"formula error: {exc}"
    if isinstance(exc, IngestError):
        return IO_FAILED, str(exc)
    return EVAL_FAILED, str(exc)


@dataclass(frozen=True)
class Load:
    path: str
    column_offset: int
    force_text: bool
    line: int


@dataclass(frozen=True)
class SetCell:
    target: str
    value: Scalar
    line: int


@dataclass(frozen=True)
class Step:
    label: str
    target: str
    formula: str
    line: int


@dataclass(frozen=True)
class Trace:
    label: str
    line: int


@dataclass(frozen=True)
class Expect:
    target: str
    rows: tuple[tuple[Scalar, ...], ...]
    source: str  # how the expectation was written, for reporting
    line: int


Directive = Union[Load, SetCell, Step, Trace, Expect]


@dataclass
class TaskScript:
    path: Path
    directives: list[Directive]


#: By row separator (";" in a script, NUL in an expectation file), one
#: match per field: quoted text and its closing quote (empty if missing)
#: or bare text up to a separator, then the next character or "" at the end.
_FIELD_RES = {separator: re.compile(
    r'[ \t]*(?:"(' + QUOTED_BODY + r')("?)[ \t]*|([^,' + separator
    + r']*))(.?)', re.S) for separator in (";", "\x00")}


def _split_fields(text: str, line: Optional[int], noun: str,
                  row_separator: str = ";"):
    """Split one line of fields, remembering which were quoted.

    Returns rows of (text, was_quoted) pairs.  Quotes follow CSV
    conventions ("" escapes a quote) and blanks around a quoted field
    are ignored; unquoted fields are stripped.  noun names what is being
    split in error messages.
    """
    field_re = _FIELD_RES[row_separator]
    rows: list[list[tuple[str, bool]]] = [[]]
    pos = 0
    while True:
        m = field_re.match(text, pos)
        quoted, closing, bare, separator = m.groups()
        if bare is not None:
            rows[-1].append((bare.strip(), False))
        elif closing:
            rows[-1].append((unquote(quoted), True))
        else:
            raise ScriptError(line, f"unterminated quote in {noun}")
        if not separator:
            return rows
        if separator == row_separator:
            rows.append([])
        elif separator != ",":
            raise ScriptError(line,
                              f"unexpected {separator!r} after closing quote")
        pos = m.end()


def parse_scalar_field(text: str, quoted: bool) -> Scalar:
    """One expectation or SET literal: quoted text stays text, TRUE and
    FALSE are booleans, error labels are errors, numbers are numbers,
    empty is blank and anything else is text."""
    if quoted:
        return text
    if text == "":
        return BLANK
    upper = text.upper()
    if upper in BOOLEAN_BY_LABEL:
        return BOOLEAN_BY_LABEL[upper]
    if text in ERROR_BY_LABEL:
        return ERROR_BY_LABEL[text]
    number = parse_number(text)
    if number is not None:
        return number
    return text


def _parse_set_literal(text: str, line: Optional[int],
                       source: str = "SET") -> Scalar:
    """The value of a SET directive, or of a --set option (source)."""
    stripped = text.strip()
    if stripped.startswith('"'):
        fields = _split_fields(stripped, line, f"{source} value")
        if len(fields) != 1 or len(fields[0]) != 1:
            raise ScriptError(line, f"{source} takes exactly one value")
        return parse_scalar_field(*fields[0][0])
    return parse_scalar_field(stripped, quoted=False)


#: The syntax of each directive after its keyword, which is matched
#: against the rest of the line with its outer blanks stripped.
_SYNTAX = {
    "LOAD": re.compile(r"(?P<path>\S+)(?:\s+AT\s+(?P<offset>[0-9]+))?"
                       r"(?P<text>\s+TEXT)?\s*\Z", re.I),
    "SET": re.compile(rf"(?P<target>{CELL_PATTERN})\s*=\s*(?P<value>.+)\Z"),
    "STEP": re.compile(rf"(?P<label>\S+)\s+"
                       rf"(?P<target>{CELL_PATTERN}(?::{CELL_PATTERN})?)"
                       r"\s*=\s*(?P<formula>.+)\Z"),
    "TRACE": re.compile(r"(?P<label>[^ ]+)\Z"),
    "EXPECT": re.compile(r"(?P<target>[^=]*)=(?P<data>.*)\Z"),
}


def parse_task_script(source: Union[str, Path]) -> TaskScript:
    """Read and parse a script file."""
    path = Path(source)
    with open_text(path, "task script") as stream:
        text = stream.read()
    directives: list[Directive] = []
    labels: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        keyword, rest = (stripped.split(maxsplit=1) + [""])[:2]
        keyword = keyword.upper()
        syntax = _SYNTAX.get(keyword)
        if syntax is None:
            raise ScriptError(line_no, f"unknown directive {keyword!r}")
        m = syntax.match(rest)
        if not m:
            raise ScriptError(line_no, f"malformed {keyword}: {stripped!r}")
        if keyword == "LOAD":
            directive = Load(m["path"], int(m["offset"] or 0), bool(m["text"]),
                             line_no)
        elif keyword == "SET":
            value = _parse_set_literal(m["value"], line_no)
            directive = SetCell(m["target"], value, line_no)
        elif keyword == "STEP":
            label = m["label"]
            if label in labels:
                raise ScriptError(line_no, f"duplicate step label {label!r}")
            labels.add(label)
            directive = Step(label, m["target"], m["formula"], line_no)
        elif keyword == "TRACE":
            directive = Trace(m["label"], line_no)
        else:  # EXPECT
            target, data = m["target"].strip(), m["data"].strip()
            if data.startswith("@"):
                directive = Expect(target, (), data, line_no)
            else:
                rows = tuple(
                    tuple(parse_scalar_field(*f) for f in row)
                    for row in _split_fields(data, line_no,
                                             "expectation data"))
                directive = Expect(target, rows, "inline", line_no)
        directives.append(directive)
    return TaskScript(path, directives)


def _load_expect_file(path: Path) -> tuple[tuple[Scalar, ...], ...]:
    rows = []
    with open_text(path, "golden file") as stream:
        for file_line in stream.read().splitlines():
            fields = _split_fields(file_line, None, "expectation file",
                                   row_separator="\x00")
            rows.append(tuple(parse_scalar_field(*f) for f in fields[0]))
    return tuple(rows)


def scalars_match(expected: Scalar, actual: Scalar) -> bool:
    """Expectation equality: exact for text (case included), booleans,
    blanks and errors; tolerant for numbers."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, float) and isinstance(actual, float):
        if expected == actual:
            return True
        return abs(actual - expected) <= max(1e-9 * abs(expected), 1e-12)
    if isinstance(expected, str) and isinstance(actual, str):
        return expected == actual
    return expected is actual  # an error, BLANK, or a type mismatch


@dataclass
class DirectiveOutcome:
    line: int
    text: str
    exit_code: int = OK


@dataclass
class RunReport:
    script: str
    outcomes: list[DirectiveOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == OK

    @property
    def exit_code(self) -> int:
        return max((o.exit_code for o in self.outcomes), default=OK)

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        body = "\n".join(o.text for o in self.outcomes)
        return f"{body}\n{self.script}: {status}\n"


class _Runner:
    def __init__(self, script: TaskScript, seed: Optional[int]):
        self.script = script
        self.base_dir = script.path.parent
        self.sheet = Sheet()
        self.rng = random.Random(seed)
        self.written: list[RangeRef] = []  # the STEP and SET rectangles
        self.traced = {d.label for d in script.directives
                       if isinstance(d, Trace)}
        # by step label: its trace (or why it has none), as the step ran
        self.tables: dict[str, Union[TraceTable, TraceError, None]] = {}
        self.report = RunReport(str(script.path))

    def note(self, line: int, text: str, exit_code: int = OK) -> bool:
        self.report.outcomes.append(DirectiveOutcome(line, text, exit_code))
        return exit_code == OK

    def run_directive(self, directive: Directive) -> bool:
        handlers = {Load: self.do_load, SetCell: self.do_set,
                    Step: self.do_step, Trace: self.do_trace,
                    Expect: self.do_expect}
        try:
            return handlers[type(directive)](directive)
        except REPORTED_FAILURES as exc:
            code, message = describe_failure(exc)
            return self.note(directive.line,
                             f"line {directive.line}: {message}", code)

    def do_load(self, directive: Load) -> bool:
        loaded = load_csv(self.base_dir / directive.path, header=True,
                          force_text=directive.force_text,
                          column_offset=directive.column_offset)
        self.sheet.update(loaded)
        return self.note(directive.line, f"LOAD {directive.path}: "
                         f"{loaded.cell_count()} cells")

    def do_set(self, directive: SetCell) -> bool:
        addr = parse_cell(directive.target)
        self.sheet.set(addr, directive.value)
        self.written.append(RangeRef.cell(addr))
        return self.note(directive.line,
                         f"SET {addr.a1} = {render(directive.value)}")

    def do_step(self, directive: Step) -> bool:
        target = as_range(parse_a1(directive.target))
        target.check_size()
        formula = parse_formula(directive.formula)
        ctx = EvalContext(self.sheet, anchor=target.top_left, rng=self.rng)
        table = None
        if directive.label in self.traced:
            # the trace's evaluation is the step's: it spills what it made
            try:
                table = trace(formula, ctx)
                value = table.value
            except TraceError as exc:
                table, value = exc, exc.value
        else:
            value = evaluate_formula(formula, ctx)
        result = as_array(value)
        if result.shape != (target.rows, target.cols):
            raise ScriptError(
                None, f"STEP {directive.label} produced {result.rows}x"
                f"{result.cols} but {target.a1} is {target.rows}x{target.cols}")
        self.sheet.spill(target.top_left, result)
        self.written.append(target)
        self.tables[directive.label] = table
        return self.note(directive.line,
                         f"STEP {directive.label} {target.a1}: "
                         f"spilled {result.rows}x{result.cols}")

    def do_trace(self, directive: Trace) -> bool:
        if directive.label not in self.tables:
            raise ScriptError(None,
                              f"TRACE of unknown step {directive.label!r}")
        table = self.tables[directive.label]
        if isinstance(table, TraceError):
            raise table
        tsv = render_tsv(table)
        return self.note(directive.line,
                         f"TRACE {directive.label}:\n{tsv.rstrip()}")

    def first_unwritten(self, target: RangeRef,
                        cells: tuple[Scalar, ...]) -> Optional[CellAddress]:
        """The first cell of target in row-major order that no directive
        has written: blank in cells, target's values in row-major order,
        and covered by no STEP or SET rectangle."""
        top, left = target.top_left.row, target.top_left.col
        width = target.cols
        # per column of target: the [start, end) rows, from top, rects cover
        spans: list[list[tuple[int, int]]] = [[] for _ in range(width)]
        for rect in self.written:
            start = max(rect.top_left.row - top, 0)
            end = rect.bottom_right.row - top + 1
            for offset in range(max(rect.top_left.col - left, 0),
                                min(rect.bottom_right.col - left + 1, width)):
                spans[offset].append((start, end))
        missing, best = None, target.rows  # a later column needs a lower row
        for offset, covered in enumerate(spans):
            column = cells[offset::width]
            row = 0  # the first row not yet covered or read
            for start, end in sorted(covered) + [(best, best)]:
                try:
                    best = column.index(BLANK, row, min(start, best))
                    missing = CellAddress(left + offset, top + best)
                    break
                except ValueError:
                    row = max(row, end)
        return missing

    def do_expect(self, directive: Expect) -> bool:
        target = as_range(parse_a1(directive.target))
        actual = self.sheet.get_range(target)
        missing = self.first_unwritten(target, actual.cells)
        if missing is not None:
            raise ScriptError(
                None, f"EXPECT {target.a1} covers {missing.a1}, "
                "which no directive has written")
        expected_rows = directive.rows
        if directive.source.startswith("@"):
            expected_rows = _load_expect_file(
                self.base_dir / directive.source[1:])
        widths = sorted({len(row) for row in expected_rows}) or [0]
        if (len(expected_rows), widths) != (target.rows, [target.cols]):
            return self.note(
                directive.line,
                f"EXPECT {target.a1}: FAIL (expected data is "
                f"{len(expected_rows)} rows of width "
                f"{'/'.join(map(str, widths))}, range is "
                f"{target.rows}x{target.cols})", exit_code=EXPECT_FAILED)
        for r, row in enumerate(expected_rows):
            for c, expected in enumerate(row):
                got = actual.get(r, c)
                if not scalars_match(expected, got):
                    addr = target.top_left.offset(r, c)
                    return self.note(
                        directive.line,
                        f"EXPECT {target.a1}: FAIL at {addr.a1}: "
                        f"expected {render(expected)!r}, got {render(got)!r}",
                        exit_code=EXPECT_FAILED)
        cell_count = target.rows * target.cols
        unit = "cell" if cell_count == 1 else "cells"
        return self.note(directive.line,
                         f"EXPECT {target.a1}: PASS ({cell_count} {unit})")


def run_script(
    source: Union[str, Path],
    *,
    seed: Optional[int] = None,
    keep_going: bool = False,
) -> RunReport:
    """Execute a task script and return its report.

    A failed directive stops the run unless keep_going is set; the
    report's exit_code distinguishes expectation mismatches from
    parse, evaluation and I/O failures.
    """
    script = parse_task_script(source)
    runner = _Runner(script, seed)
    for directive in script.directives:
        if not runner.run_directive(directive) and not keep_going:
            break
    return runner.report
