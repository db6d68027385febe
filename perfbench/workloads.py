"""The three benchmark workloads: inputs, operations and their oracles.

Each workload's setup() builds every input from the seed (nothing else
varies them) and returns a Workload: the list of operations one pass
runs, each with the check that grades its output.  The oracles use the
frozen goldens and plain-Python loops only; sprego never supplies a
reference value.  The engine is reached through module attributes at
call time (``sp.parse_formula``, ``cli.main``), so a traced run can
substitute timed wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import sprego as sp
import sprego.cli as cli
from sprego.grid import CellAddress

import mixgen
from goldens import (COLUMNS, EXPECT_COUNTS, SAMPLE_SIZE, WALKTHROUGH_TRACES,
                     cells_match, matches, render, sample_rows)


@dataclass
class Op:
    """One closed-loop operation: run() is timed, check() is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    ops: list[Op]
    units_per_op: int  # input rows, formulas or calls one op processes
    unit: str
    tail_q: float  # the tail percentile this workload reports
    sizes: dict
    digest: str  # sha256 of the generated inputs


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _choose_rows(rng: random.Random, count: int) -> list[int]:
    """Sample-row index for each generated board row, with replacement."""
    return [rng.randrange(SAMPLE_SIZE) for _ in range(count)]


def _board_csv(choice: list[int]) -> bytes:
    rows = sample_rows()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0])
    for k in choice:
        writer.writerow(rows[1 + k])
    return out.getvalue().encode("utf-8")


def _mapped(key: str, choice: list[int]) -> list:
    column = COLUMNS[key]
    return [column[k] for k in choice]


def _numbers(values: list) -> list[float]:
    return [v for v in values if type(v) is float]


# ------------------------------------------------------------ catalog-10k

CATALOG_ROWS = 10_000
SPARSE_LAST_ROW = 100_001  # aggregates read 10x the populated rows

# The 30 step formulas of the packaged walkthroughs, as listed in the
# acceptance gate's catalog, each with the golden column (or the
# aggregate over one) that grades every cell.  Ranges ending in row 1001
# and the input cells H1003/G1004 are rewritten to the board's size.
CATALOG = [
    ("board", '{=FIND("(",C2:C1001)}', "paren_at"),
    ("board", '{=FIND("(",C2:C1001)-2}', "account_len"),
    ("board", '{=LEFT(C2:C1001,FIND("(",C2:C1001)-2)}', "account"),
    ("board", '{=FIND("new",E2:E1001)}', "new_at"),
    ("board", '{=FIND("new",E2:E1001)-2}', "count_len"),
    ("board", '{=LEFT(E2:E1001,FIND("new",E2:E1001)-2)}', "count_text"),
    ("board", '{=LEFT(E2:E1001,FIND("new",E2:E1001)-2)*1}', "count"),
    ("board", '{=LEN(C2:C1001)}', "full_len"),
    ("board", '{=LEN(C2:C1001)-FIND("(",C2:C1001)}', "tail_len"),
    ("board", '{=RIGHT(C2:C1001,LEN(C2:C1001)-FIND("(",C2:C1001))}',
     "tail"),
    ("board", '{=LEN(RIGHT(C2:C1001,LEN(C2:C1001)-FIND("(",C2:C1001)))}',
     "tail_len"),
    ("board", '{=LEFT(RIGHT(C2:C1001,LEN(C2:C1001)-FIND("(",C2:C1001)),'
              'LEN(RIGHT(C2:C1001,LEN(C2:C1001)-FIND("(",C2:C1001)))-1)}',
     "server"),
    ("board", '{=FIND("V",F2:F1001)}', "v_at"),
    ("board", '{=FIND("V",F2:F1001)-2}', "view_len"),
    ("board", '{=LEFT(F2:F1001,FIND("V",F2:F1001)-2)}', "view_text"),
    ("board", '{=LEFT(F2:F1001,FIND("V",F2:F1001)-2)*1}', "view_plain"),
    ("board", '{=LEFT(F2:F1001,FIND("V",F2:F1001)-3)*1}', "view_short"),
    ("board", '{=LEFT(F2:F1001,FIND("V",F2:F1001)-3)*1000}',
     "view_thousands"),
    ("board", '{=FIND("k",F2:F1001)}', "k_at"),
    ("board", '{=ISERROR(FIND("k",F2:F1001))}', "no_k"),
    ("board", '{=IF(ISERROR(FIND("k",F2:F1001)),,)}', "zero"),
    ("board", '{=IF(ISERROR(FIND("k",F2:F1001)),'
              'LEFT(F2:F1001,FIND("V",F2:F1001)-2)*1,)}', "plain_or_zero"),
    ("board", '{=IF(ISERROR(FIND("k",F2:F1001)),'
              'LEFT(F2:F1001,FIND("V",F2:F1001)-2)*1,'
              'LEFT(F2:F1001,FIND("V",F2:F1001)-3)*1000)}', "views"),
    ("views", "{=I2:I1001>H1003}", "over_500"),
    ("views", "{=IF(I2:I1001>H1003,1)}", "mark_500"),
    ("views", "{=SUM(IF(I2:I1001>H1003,1))}", ("sum", "mark_500")),
    ("servers", "{=G2:G1001=G1004}", "is_euw"),
    ("servers", "{=IF(G2:G1001=G1004,H2:H1001)}", "euw_count"),
    ("servers", "{=AVERAGE(IF(G2:G1001=G1004,H2:H1001))}",
     ("average", "euw_count")),
    ("servers", "{=MAX(IF(G2:G1001=G1004,H2:H1001))}", ("max", "euw_count")),
]

# aggregates over a range ten times taller than the data in it
SPARSE_AGGREGATES = [
    ("views", f"=SUM(I2:I{SPARSE_LAST_ROW})", ("sum", "views")),
    ("servers", f"=AVERAGE(H2:H{SPARSE_LAST_ROW})", ("average", "count")),
    ("servers", f"=MAX(H2:H{SPARSE_LAST_ROW})", ("max", "count")),
    ("views", f"=SMALL(I2:I{SPARSE_LAST_ROW},3)", ("small3", "views")),
]


def _aggregate(how: str, values: list) -> float:
    """The aggregate over the numbers among values; booleans, text and
    errors are skipped, as spreadsheet aggregates skip them in arrays."""
    numbers = _numbers(values)
    if how == "sum":
        return sum(numbers)
    if how == "average":
        return sum(numbers) / len(numbers)
    if how == "max":
        return max(numbers, default=0.0)
    if how == "small3":
        return sorted(numbers)[2]
    raise ValueError(how)


def _resize(text: str, last_row: int) -> str:
    text = re.sub(r"([A-Z])2:([A-Z])1001\b", rf"\g<1>2:\g<2>{last_row}", text)
    input_row = last_row + 1  # just below the data
    return text.replace("H1003", f"H{input_row}").replace(
        "G1004", f"G{input_row}")


def _fill(sheet, column: int, values: list, first_row: int = 2) -> None:
    for offset, value in enumerate(values):
        sheet.set(CellAddress(column, first_row + offset), value)


def _evaluate_text(sheet, text: str):
    ctx = sp.EvalContext(sheet, rng=random.Random(0))
    return sp.evaluate_formula(sp.parse_formula(text), ctx)


def _array_check(expected: tuple) -> Callable[[Any], bool]:
    def check(value) -> bool:
        return (isinstance(value, sp.ArrayValue) and value.cols == 1
                and cells_match(expected, value.cells))
    return check


def _scalar_check(expected) -> Callable[[Any], bool]:
    def check(value) -> bool:
        if isinstance(value, sp.ArrayValue):
            if value.shape != (1, 1):
                return False
            value = value.first()
        return matches(expected, value)
    return check


def setup_catalog(seed: int, workdir: Path) -> Workload:
    rows = CATALOG_ROWS
    last = rows + 1
    choice = _choose_rows(random.Random(seed), rows)
    data = _board_csv(choice)
    path = workdir / "catalog.csv"
    path.write_bytes(data)

    boards = {name: sp.load_csv(path, column_offset=1)
              for name in ("board", "views", "servers")}
    _fill(boards["views"], 9, _mapped("views", choice))  # column I
    boards["views"].set(CellAddress(8, last + 1), 500.0)  # H, below the data
    _fill(boards["servers"], 7, _mapped("server", choice))  # column G
    _fill(boards["servers"], 8, _mapped("count", choice))  # column H
    boards["servers"].set(CellAddress(7, last + 1), "EUW")

    ops = []
    texts = []
    for board, template, spec in CATALOG + SPARSE_AGGREGATES:
        text = _resize(template, last)
        texts.append(text)
        sheet = boards[board]
        if isinstance(spec, str):
            check = _array_check(tuple(_mapped(spec, choice)))
        else:
            check = _scalar_check(_aggregate(spec[0], _mapped(spec[1], choice)))
        ops.append(Op(text, lambda s=sheet, t=text: _evaluate_text(s, t),
                      check))
    return Workload(
        ops, rows, "rows", 0.90,
        {"board_rows": rows, "formulas": len(ops),
         "sparse_range_rows": SPARSE_LAST_ROW - 1},
        _digest(data, "\n".join(texts).encode()))


# ------------------------------------------------------------ formula-mix

MIX_FORMULAS = 5000


def _mix_check(expected) -> Callable[[Any], bool]:
    if expected == mixgen.MALFORMED:
        return lambda out: isinstance(out, sp.FormulaError)
    return lambda out: matches(expected, out)


def setup_mix(seed: int, workdir: Path) -> Workload:
    formulas = mixgen.generate(seed, MIX_FORMULAS)
    sample = workdir / "sample.csv"
    sample.write_bytes(_board_csv(list(range(SAMPLE_SIZE))))
    sheet = sp.load_csv(sample, column_offset=1)
    _fill(sheet, 8, COLUMNS["count"])  # column H
    _fill(sheet, 9, COLUMNS["views"])  # column I
    ctx = sp.EvalContext(sheet, rng=random.Random(0))

    def evaluate(text: str):
        return sp.evaluate_formula(sp.parse_formula(text), ctx)

    ops = [Op(text, lambda t=text: evaluate(t), _mix_check(expected))
           for text, expected in formulas]
    malformed = sum(1 for _, e in formulas if e == mixgen.MALFORMED)
    return Workload(
        ops, 1, "formulas", 0.99,
        {"board_rows": SAMPLE_SIZE, "formulas": len(ops),
         "malformed": malformed, "max_depth": mixgen.MAX_DEPTH},
        _digest("\n".join(t for t, _ in formulas).encode()))


# ------------------------------------------------------------ cli-session

CLI_ROWS = 1000

SERVER_CUT = ('{=LEFT(RIGHT(C2:C1001,LEN(C2:C1001)-FIND("(",C2:C1001)),'
              'LEN(RIGHT(C2:C1001,LEN(C2:C1001)-FIND("(",C2:C1001)))-1)}')
ACCOUNT_CUT = '{=LEFT(C2:C1001,FIND("(",C2:C1001)-2)}'
VIEW_TOTAL = ('{=SUM(IF(ISERROR(FIND("k",F2:F1001)),'
              'LEFT(F2:F1001,FIND("V",F2:F1001)-2)*1,'
              'LEFT(F2:F1001,FIND("V",F2:F1001)-3)*1000))}')
LONG_NAMES = '{=SUM(IF(LEN(C2:C1001)>H1,1))}'
K_AT = '{=FIND("k",F2:F1001)}'
MALFORMED_CALL = '=LEFT(C2,'
CSV_TOKEN = "<board.csv>"  # stands for the generated CSV in hashed argv


def _lines(values) -> str:
    return "".join(render(v) + "\n" for v in values)


def _trace_tsv(header: str, inputs: list, columns: list[list]) -> str:
    labels = [header] + [f"S{i}" for i in range(1, len(columns) + 1)]
    lines = ["\t".join(labels)]
    for r, value in enumerate(inputs):
        lines.append("\t".join([value] + [render(c[r]) for c in columns]))
    return "\n".join(lines) + "\n"


def _run_check(task: str) -> Callable[[Any], bool]:
    """A walkthrough passes every EXPECT, and its TRACE table (if any)
    equals the goldens of each step over the 14 sample rows."""
    expected_trace = None
    if task in WALKTHROUGH_TRACES:
        label, header, inputs, keys = WALKTHROUGH_TRACES[task]
        expected_trace = (f"TRACE {label}:\n" + _trace_tsv(
            header, inputs, [COLUMNS[k] for k in keys]))

    def check(out) -> bool:
        code, stdout = out
        lines = stdout.splitlines()
        passes = sum(1 for line in lines
                     if line.startswith("EXPECT ") and ": PASS (" in line)
        return (code == 0 and bool(lines) and lines[-1].endswith(": PASS")
                and passes == EXPECT_COUNTS[task]
                and (expected_trace is None or expected_trace in stdout))
    return check


def _exact(code: int, stdout: str) -> Callable[[Any], bool]:
    return lambda out: out == (code, stdout)


def _call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue()


def setup_cli(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    choice = _choose_rows(rng, CLI_ROWS)
    data = _board_csv(choice)
    path = workdir / "board.csv"
    path.write_bytes(data)
    sp.load_csv(path, column_offset=1)  # the file must ingest cleanly
    board = str(path)
    rows = sample_rows()

    def mapped(key):
        return _mapped(key, choice)

    long_limit = 19
    k_at = mapped("k_at")
    export = io.StringIO()
    writer = csv.writer(export, lineterminator="\n")
    writer.writerow([""] + rows[0])
    for k in choice:
        writer.writerow([""] + rows[1 + k])
    accounts_full = [rows[1 + k][1] for k in choice]

    calls = [(["run", f"task{n}.sprego"], _run_check(f"task{n}"))
             for n in range(1, 7)]
    calls += [
        (["eval", board, ACCOUNT_CUT, "--at", "1"],
         _exact(0, _lines(mapped("account")))),
        (["eval", board, VIEW_TOTAL, "--at", "1"],
         _exact(0, _lines([_aggregate("sum", mapped("views"))]))),
        (["eval", board, LONG_NAMES, "--at", "1", "--set", f"H1={long_limit}"],
         _exact(0, _lines([float(sum(1 for v in mapped("full_len")
                                     if v > long_limit))]))),
        (["eval", board, K_AT, "--at", "1", "--strict"],
         _exact(1 if any(type(v) is not float for v in k_at) else 0,
                _lines(k_at))),
        (["eval", board, MALFORMED_CALL, "--at", "1"], _exact(2, "")),
        (["trace", board, SERVER_CUT, "--at", "1"],
         _exact(0, _trace_tsv(
             "Account (server)", accounts_full,
             [mapped(k) for k in WALKTHROUGH_TRACES["task3"][3]]))),
        (["trace", board, ACCOUNT_CUT, "--at", "1"],
         _exact(0, _trace_tsv(
             "Account (server)", accounts_full,
             [mapped(k) for k in WALKTHROUGH_TRACES["task1"][3]]))),
        (["export", board, "A1:F1001", "--at", "1"],
         _exact(0, export.getvalue())),
    ]
    rng.shuffle(calls)
    ops = [Op(" ".join(argv[:2]), lambda a=argv: _call_cli(a), check)
           for argv, check in calls]
    hashed = "\n".join("\x1f".join(CSV_TOKEN if a == board else a
                                   for a in argv) for argv, _ in calls)
    return Workload(
        ops, 1, "calls", 0.90,
        {"board_rows": CLI_ROWS, "calls_per_cycle": len(ops)},
        _digest(data, hashed.encode()))


SETUPS = {
    "catalog-10k": setup_catalog,
    "formula-mix": setup_mix,
    "cli-session": setup_cli,
}
