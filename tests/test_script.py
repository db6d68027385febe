"""Task script parsing and execution, plus the command line."""

import errno
import gc
import io
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import sprego.evaluator
import sprego.script
import sprego.tracer
from sprego import (
    EvalContext,
    Sheet,
    data_path,
    evaluate_formula,
    parse_formula,
    parse_task_script,
    run_script,
)
from sprego.cli import _build_sheet, build_parser, main
from sprego.grid import (CellAddress, IngestError, RangeRef, as_range,
                         parse_a1, parse_cell)
from sprego.script import (
    EVAL_FAILED,
    EXPECT_FAILED,
    Expect,
    IO_FAILED,
    Load,
    OK,
    PARSE_FAILED,
    ScriptError,
    SetCell,
    Step,
    TaskScript,
    Trace,
    _Runner,
    _split_fields,
    parse_scalar_field,
    scalars_match,
)
from sprego.values import ArrayValue, BLANK, DIV0_ERR, NA_ERR, VALUE_ERR


GOLDENS = Path(__file__).parent / "goldens"


def row_major(rect):
    """The (row, col) of every cell in the rectangle, row by row."""
    return [(row, col)
            for row in range(rect.top_left.row, rect.bottom_right.row + 1)
            for col in range(rect.top_left.col, rect.bottom_right.col + 1)]


def exit_code(argv):
    """main's exit code, argparse's usage errors included."""
    try:
        return main(argv)
    except SystemExit as exited:
        return exited.code


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL_CSV = "label,n\nfirst,3\nsecond,4\n"


@pytest.fixture
def root_evaluations(monkeypatch):
    """A call that lists how often each parsed STEP formula's root node
    was evaluated, in the order the steps ran (every formula is kept
    alive, so no node's id is reused)."""
    formulas, counts = [], {}
    parse, evaluate = sprego.script.parse_formula, sprego.evaluator.evaluate

    def parsed(text):
        formula = parse(text)
        formulas.append(formula)
        counts[id(formula.expr)] = 0
        return formula

    def counted(expr, ctx):
        if id(expr) in counts:
            counts[id(expr)] += 1
        return evaluate(expr, ctx)

    monkeypatch.setattr(sprego.script, "parse_formula", parsed)
    for module in (sprego.evaluator, sprego.tracer):
        monkeypatch.setattr(module, "evaluate", counted)
    return lambda: [counts[id(f.expr)] for f in formulas]


class TestParseDirectives:
    def test_full_grammar(self, tmp_path):
        script = parse_task_script(write(tmp_path, "t.sprego", """\
# comment and blank lines vanish

LOAD data.csv AT 1 TEXT
SET H3 = 500
STEP S1 B2:B3 = {=A2:A3*2}
TRACE S1
EXPECT B2:B3 = 6;8
EXPECT B2:B3 = @golden.csv
"""))
        kinds = [type(d) for d in script.directives]
        assert kinds == [Load, SetCell, Step, Trace, Expect, Expect]
        load = script.directives[0]
        assert (load.path, load.column_offset, load.force_text) == \
            ("data.csv", 1, True)
        step = script.directives[2]
        assert (step.label, step.target, step.formula) == \
            ("S1", "B2:B3", "{=A2:A3*2}")

    def test_load_defaults(self, tmp_path):
        script = parse_task_script(write(tmp_path, "t.sprego",
                                         "LOAD plain.csv\n"))
        load = script.directives[0]
        assert (load.column_offset, load.force_text) == (0, False)

    def test_set_literals(self, tmp_path):
        script = parse_task_script(write(tmp_path, "t.sprego", """\
SET A1 = 500
SET A2 = EUW
SET A3 = "quoted text"
SET A4 = TRUE
SET A5 = #N/A
"""))
        values = [d.value for d in script.directives]
        assert values == [500.0, "EUW", "quoted text", True, NA_ERR]

    def test_inline_expect_grid(self, tmp_path):
        script = parse_task_script(write(tmp_path, "t.sprego",
                                         'EXPECT A1:B2 = 1,2;3,"4"\n'))
        assert script.directives[0].rows == ((1.0, 2.0), (3.0, "4"))

    def test_inline_expect_quote_after_a_blank_is_text(self, tmp_path):
        script = parse_task_script(write(tmp_path, "t.sprego",
                                         'EXPECT A1:B1 = 1, "2"\n'))
        assert script.directives[0].rows == ((1.0, "2"),)

    def test_duplicate_step_labels_rejected(self, tmp_path):
        path = write(tmp_path, "t.sprego",
                     "STEP S1 A1 = =1\nSTEP S1 A2 = =2\n")
        with pytest.raises(ScriptError):
            parse_task_script(path)

    @pytest.mark.parametrize("line", [
        "LOAD",                  # no file
        "SET A1:B2 = 1",         # only single cells
        "SET = 5",
        "STEP missing-target = =1",
        "TRACE",
        "TRACE two words",
        "EXPECT A1 9",           # no equals sign
        "FROB A1 = 1",
        "LOAD data.csv AT \u0663",  # offsets are ASCII digits
    ])
    def test_malformed_lines(self, tmp_path, line):
        path = write(tmp_path, "t.sprego", line + "\n")
        with pytest.raises(ScriptError):
            parse_task_script(path)

    def test_a_keyword_ends_at_any_whitespace(self, tmp_path):
        script = parse_task_script(write(tmp_path, "t.sprego", (
            "LOAD\tdata.csv\nSET\tA1 = 5\nSTEP \t S1\tB1 = =A1\n"
            "TRACE\tS1\nEXPECT\tB1 = 5\n")))
        assert [type(d) for d in script.directives] == [
            Load, SetCell, Step, Trace, Expect]
        assert script.directives[1].value == 5.0
        assert (script.directives[2].label, script.directives[2].target,
                script.directives[2].formula) == ("S1", "B1", "=A1")
        assert script.directives[3].label == "S1"

    def test_missing_script_file(self, tmp_path):
        with pytest.raises(IngestError):
            parse_task_script(tmp_path / "absent.sprego")


class TestSplitFields:
    @pytest.mark.parametrize("text, separator, rows", [
        ('1,2;3,"4"', ";", [[("1", False), ("2", False)],
                            [("3", False), ("4", True)]]),
        ('"a" ,b', ";", [[("a", True), ("b", False)]]),
        ('ab"c', ";", [[('ab"c', False)]]),
        ('""', ";", [[("", True)]]),
        ('"say ""hi"""', ";", [[('say "hi"', True)]]),
        (",", ";", [[("", False), ("", False)]]),
        (";", ";", [[("", False)], [("", False)]]),
        (" x ", ";", [[("x", False)]]),
        ('1;2,"a;b"', "\x00", [[("1;2", False), ("a;b", True)]]),
        # blanks before an opening quote are skipped like those after it
        ('1, "2"', ";", [[("1", False), ("2", True)]]),
    ])
    def test_rows(self, text, separator, rows):
        assert _split_fields(text, 3, "data", separator) == rows

    @pytest.mark.parametrize("text, message", [
        ('"a"b', "line 3: unexpected 'b' after closing quote"),
        ('"abc', "line 3: unterminated quote in data"),
    ])
    def test_errors(self, text, message):
        with pytest.raises(ScriptError) as err:
            _split_fields(text, 3, "data")
        assert str(err.value) == message

    def test_expect_with_blank_before_open_quote(self, capsys, tmp_path):
        path = write(tmp_path, "t.sprego", 'SET A1 = 1\nEXPECT A1 = 1, "2\n')
        assert main(["run", str(path)]) == EVAL_FAILED
        assert capsys.readouterr().err == (
            "sprego: line 2: unterminated quote in expectation data\n")


class TestScalarFields:
    def test_unquoted_classification(self):
        assert parse_scalar_field("14", False) == 14.0
        assert parse_scalar_field("true", False) is True
        assert parse_scalar_field("#DIV/0!", False) is DIV0_ERR
        assert parse_scalar_field("", False) is BLANK
        assert parse_scalar_field("EUW)", False) == "EUW)"

    def test_quoted_is_always_text(self):
        assert parse_scalar_field("14", True) == "14"
        assert parse_scalar_field("TRUE", True) == "TRUE"
        assert parse_scalar_field("", True) == ""

    def test_match_tolerances(self):
        assert scalars_match(1.0, 1.0 + 1e-10)
        assert not scalars_match(1.0, 1.0 + 1e-8)
        assert scalars_match(0.0, 1e-13)  # absolute floor near zero
        assert scalars_match(293 / 12, 24.416666666666668)

    def test_match_is_type_strict(self):
        assert not scalars_match("14", 14.0)
        assert not scalars_match(True, 1.0)
        assert not scalars_match(1.0, True)
        assert not scalars_match(VALUE_ERR, NA_ERR)
        assert scalars_match(VALUE_ERR, VALUE_ERR)
        assert scalars_match(BLANK, BLANK)
        assert not scalars_match(BLANK, "")

    def test_text_match_keeps_case(self):
        assert scalars_match("EUW", "EUW")
        assert not scalars_match("EUW", "euw")


class TestRun:
    def test_pipeline_with_expectations(self, tmp_path):
        write(tmp_path, "data.csv", SMALL_CSV)
        path = write(tmp_path, "t.sprego", """\
LOAD data.csv
STEP S1 C2:C3 = {=B2:B3*10}
EXPECT C2:C3 = 30;40
""")
        report = run_script(path)
        assert report.ok and report.exit_code == OK
        assert report.render().endswith("PASS\n")

    def test_expect_file(self, tmp_path):
        write(tmp_path, "data.csv", SMALL_CSV)
        write(tmp_path, "golden.csv", "30\n40\n")
        path = write(tmp_path, "t.sprego", """\
LOAD data.csv
STEP S1 C2:C3 = {=B2:B3*10}
EXPECT C2:C3 = @golden.csv
""")
        assert run_script(path).ok

    def test_byte_order_marks_of_script_and_golden_are_dropped(self,
                                                               tmp_path):
        reports = []
        for encoding in ("utf-8", "utf-8-sig"):
            folder = tmp_path / encoding
            folder.mkdir()
            (folder / "golden.csv").write_text("5\n", encoding=encoding)
            path = folder / "t.sprego"
            path.write_text("SET A1 = 5\nEXPECT A1 = @golden.csv\n",
                            encoding=encoding)
            report = run_script(path)
            reports.append([(o.line, o.text, o.exit_code)
                            for o in report.outcomes])
        assert reports[0] == reports[1]
        assert reports[1][-1] == (2, "EXPECT A1: PASS (1 cell)", OK)

    def test_expect_mismatch_reports_first_cell(self, tmp_path):
        write(tmp_path, "data.csv", SMALL_CSV)
        path = write(tmp_path, "t.sprego", """\
LOAD data.csv
STEP S1 C2:C3 = {=B2:B3*10}
EXPECT C2:C3 = 30;41
""")
        report = run_script(path)
        assert not report.ok
        assert report.exit_code == EXPECT_FAILED
        assert "FAIL at C3" in report.render()
        assert "expected '41', got '40'" in report.render()

    def test_expect_dimension_mismatch(self, tmp_path):
        write(tmp_path, "data.csv", SMALL_CSV)
        path = write(tmp_path, "t.sprego", """\
LOAD data.csv
STEP S1 C2:C3 = {=B2:B3*10}
EXPECT C2:C3 = 30
""")
        report = run_script(path)
        assert report.exit_code == EXPECT_FAILED

    def test_ragged_expect_fails_with_the_widths_found(self, tmp_path):
        # the short second row leaves B2 unchecked, so no row may differ
        # from the range's width, however wide the widest row is
        path = write(tmp_path, "t.sprego", """\
SET A1 = 1
SET B1 = 2
SET A2 = 3
SET B2 = 99
EXPECT A1:B2 = 1,2;3
""")
        report = run_script(path)
        assert report.exit_code == EXPECT_FAILED
        assert ("EXPECT A1:B2: FAIL (expected data is 2 rows of width 1/2, "
                "range is 2x2)") in report.render()
        write(tmp_path, "golden.csv", "1,2\n3\n")
        report = run_script(write(tmp_path, "t.sprego", path.read_text()
                                  .replace("1,2;3", "@golden.csv")))
        assert report.exit_code == EXPECT_FAILED

    def test_expect_names_the_first_unwritten_cell(self, tmp_path):
        # B2 is left by the rectangles above it and beside it, and the
        # CSV's empty field at C3 is never stored, so never written
        write(tmp_path, "data.csv", "h1,h2,h3\n1,2,3\n4,5,\n")
        cases = {"SET B1 = 1\nSTEP S A1:A2 = {=A5:A6}\nEXPECT A1:B2 = 0,0;0,0\n":
                 "EXPECT A1:B2 covers B2",
                 "LOAD data.csv\nSTEP S D1:D3 = {=A1:A3}\nEXPECT B2:D3 = 1,1,1;1,1,1\n":
                 "EXPECT B2:D3 covers C3",
                 "STEP S A1:B3 = {=A5:B7}\nSET C2 = 1\nEXPECT A2:C3 = 0,0,1;0,0,0\n":
                 "EXPECT A2:C3 covers C3"}
        for script, message in cases.items():
            report = run_script(write(tmp_path, "t.sprego", script))
            assert report.exit_code == EVAL_FAILED
            assert f"{message}, which no directive has written" \
                in report.render()

    def test_written_cells_are_the_rectangles_and_the_stored_cells(self,
                                                                  tmp_path):
        # C2 and C3 are blank after the STEP, and C3 was an empty field
        write(tmp_path, "data.csv", "h1,h2,h3\n1,2,3\n4,5,\n")
        for script in ("LOAD data.csv\nSTEP S C2:C3 = {=E2:E3}\n"
                       "EXPECT B2:C3 = 2,;5,\n",
                       "LOAD data.csv\nSTEP S C3 = =A3\n"
                       "EXPECT A2:C3 = 1,2,3;4,5,4\n"):
            report = run_script(write(tmp_path, "t.sprego", script))
            assert report.ok, report.render()

    def test_first_unwritten_agrees_with_a_set_of_cells(self):
        # stored cells count as written, and so does every cell of a
        # STEP or SET rectangle, blanks spilled over stored cells too
        rng = random.Random(8)
        for _ in range(400):
            runner = _Runner(TaskScript(Path("t.sprego"), []), seed=None)
            cells = set()
            for _ in range(rng.randint(0, 8)):
                addr = CellAddress(rng.randint(1, 10), rng.randint(1, 13))
                runner.sheet.set(addr, 1.0)
                cells.add((addr.row, addr.col))
            for _ in range(rng.randint(0, 6)):
                top, left = rng.randint(1, 8), rng.randint(1, 6)
                rect = RangeRef(CellAddress(left, top), CellAddress(
                    left + rng.randint(0, 3), top + rng.randint(0, 4)))
                value = rng.choice((BLANK, 2.0))
                runner.sheet.spill(rect.top_left, ArrayValue(
                    rect.rows, rect.cols, (value,) * (rect.rows * rect.cols)))
                runner.written.append(rect)
                cells.update(row_major(rect))
            top, left = rng.randint(1, 8), rng.randint(1, 6)
            target = RangeRef(CellAddress(left, top), CellAddress(
                left + rng.randint(0, 4), top + rng.randint(0, 5)))
            missing = next((CellAddress(col, row)
                            for row, col in row_major(target)
                            if (row, col) not in cells), None)
            values = runner.sheet.get_range(target).cells
            assert runner.first_unwritten(target, values) == missing

    def test_written_cells_cost_no_memory_per_cell(self, tmp_path):
        script = parse_task_script(write(
            tmp_path, "t.sprego", "STEP S A1:A100000 = {=ROW(A1:A100000)}\n"))
        step, = script.directives
        runner = _Runner(script, seed=None)
        tracemalloc.start()
        try:
            assert runner.run_directive(step)
            runner.sheet = Sheet()  # what remains is the runner's own
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 200_000  # a set of written cells kept 12.4 MB

    def test_expect_of_unwritten_cells(self, tmp_path):
        path = write(tmp_path, "t.sprego", "EXPECT A1 = 1\n")
        report = run_script(path)
        assert report.exit_code == EVAL_FAILED
        assert "no directive has written" in report.render()

    def test_step_shape_mismatch(self, tmp_path):
        write(tmp_path, "data.csv", SMALL_CSV)
        path = write(tmp_path, "t.sprego", """\
LOAD data.csv
STEP S1 C2:C4 = {=B2:B3*10}
""")
        report = run_script(path)
        assert report.exit_code == EVAL_FAILED
        assert "2x1" in report.render() and "3x1" in report.render()

    def test_formula_parse_error(self, tmp_path):
        path = write(tmp_path, "t.sprego", "STEP S1 A1 = =LEFT(\n")
        report = run_script(path)
        assert report.exit_code == PARSE_FAILED

    def test_missing_load_file(self, tmp_path):
        path = write(tmp_path, "t.sprego", "LOAD nowhere.csv\n")
        report = run_script(path)
        assert report.exit_code == IO_FAILED

    def test_missing_expectation_file(self, tmp_path):
        path = write(tmp_path, "t.sprego",
                     "SET A1 = 1\nEXPECT A1 = @missing.csv\n")
        report = run_script(path)
        assert report.exit_code == IO_FAILED
        assert "missing.csv" in report.outcomes[-1].text

    def test_stops_at_first_failure(self, tmp_path):
        path = write(tmp_path, "t.sprego", """\
LOAD nowhere.csv
SET A1 = 1
""")
        report = run_script(path)
        assert len(report.outcomes) == 1

    def test_keep_going_runs_on(self, tmp_path):
        path = write(tmp_path, "t.sprego", """\
LOAD nowhere.csv
SET A1 = 1
""")
        report = run_script(path, keep_going=True)
        assert len(report.outcomes) == 2
        assert not report.ok
        assert report.exit_code == IO_FAILED  # the worst outcome wins

    def test_set_then_step_sees_the_value(self, tmp_path):
        path = write(tmp_path, "t.sprego", """\
SET H1 = 500
STEP S1 A1 = =H1*2
EXPECT A1 = 1000
""")
        assert run_script(path).ok

    def test_step_stores_an_index_of_an_empty_slot_as_blank(self, tmp_path):
        path = write(tmp_path, "t.sprego", "STEP S1 A1 = =INDEX(,1)\n"
                     "EXPECT A1 = \n")
        assert run_script(path).ok

    def test_trace_of_unknown_label(self, tmp_path):
        path = write(tmp_path, "t.sprego", "TRACE S9\n")
        report = run_script(path)
        assert report.exit_code == EVAL_FAILED

    def test_trace_embeds_the_table(self, tmp_path):
        write(tmp_path, "data.csv", SMALL_CSV)
        path = write(tmp_path, "t.sprego", """\
LOAD data.csv
STEP S1 C2:C3 = {=LEN(A2:A3)}
TRACE S1
""")
        report = run_script(path)
        assert report.ok
        text = report.render()
        assert "label\tS1" in text
        assert "first\t5" in text

    def test_trace_draws_what_its_step_drew(self, tmp_path):
        # the trace's evaluation is the step's, on the script's stream,
        # so the next step draws as if the trace were absent
        rng = random.Random(1)
        first, second = rng.random(), rng.random()
        path = write(tmp_path, "t.sprego", f"""\
STEP S1 A1:A3 = {{=RAND()+ROW(A1:A3)*0}}
TRACE S1
STEP S2 B1 = =RAND()
EXPECT A1:A3 = {first!r};{first!r};{first!r}
EXPECT B1 = {second!r}
""")
        report = run_script(path, seed=1)
        assert report.ok, report.render()
        rows = [line.split("\t")
                for line in report.outcomes[1].text.splitlines()[2:]]
        assert [(row[0], row[-1]) for row in rows] == [("", repr(first))] * 3

    @pytest.mark.parametrize("traced", [False, True])
    def test_a_failed_trace_spills_and_draws_as_no_trace(self, tmp_path,
                                                         traced):
        # ROW(C1:C2) is two rows under a three-row input column: the
        # trace fails after its evaluation, whose value S1 spills
        text = ("STEP S1 A1:A2 = {=RAND()+SUM(B1:B3)*0+ROW(C1:C2)*0}\n"
                + "TRACE S1\n" * traced + "STEP S2 D1 = =RAND()\n")
        script = parse_task_script(write(tmp_path, "t.sprego", text))
        runner = _Runner(script, seed=5)
        for directive in script.directives:
            runner.run_directive(directive)
        rng = random.Random(5)
        first, second = rng.random(), rng.random()
        spilled = runner.sheet.get_range(as_range(parse_a1("A1:A2")))
        assert spilled.cells == (first, first)
        assert runner.sheet.get(parse_cell("D1")) == second
        assert runner.rng.getstate() == rng.getstate()
        assert [o.text for o in runner.report.outcomes][:2] == [
            "STEP S1 A1:A2: spilled 2x1",
            "line 2: step produced 2 rows where the trace has 3"
            if traced else "STEP S2 D1: spilled 1x1"]

    def test_trace_reads_the_sheet_its_step_read(self, tmp_path):
        # S2 overwrites what S1 read and made; S1's trace shows blanks in
        # and 1 out, as S1 saw and spilled them
        path = write(tmp_path, "t.sprego", """\
STEP S1 A1:A2 = {=A1:A2+1}
STEP S2 A1:A2 = {=A1:A2+1}
TRACE S1
EXPECT A1:A2 = 2;2
""")
        report = run_script(path)
        assert report.ok, report.render()
        assert report.outcomes[2].text == "TRACE S1:\nA1:A2\tS1\n\t1\n\t1"

    def test_trace_is_anchored_at_its_step(self, tmp_path):
        path = write(tmp_path, "t.sprego", """\
STEP S1 B5:B6 = {=ROW()+0*A1:A2}
TRACE S1
EXPECT B5:B6 = 5;5
""")
        report = run_script(path)
        assert report.ok, report.render()
        assert report.outcomes[1].text.splitlines()[2:] == ["\t5\t0\t5"] * 2

    def test_untraceable_step_spills_and_fails_at_its_trace(self, tmp_path):
        path = write(tmp_path, "t.sprego", """\
STEP S1 A1 = =SUM(B1:C2)
TRACE S1
EXPECT A1 = 0
""")
        report = run_script(path, keep_going=True)
        assert report.exit_code == EVAL_FAILED
        assert [o.text for o in report.outcomes] == [
            "STEP S1 A1: spilled 1x1",
            "line 2: the input range must be a single column",
            "EXPECT A1: PASS (1 cell)"]

    def test_traced_plain_step_spills_its_own_value(self, tmp_path,
                                                    root_evaluations):
        # a plain-entered step is traced as entered: its one evaluation
        # spills 1 and its trace shows 1 in every row
        path = write(tmp_path, "t.sprego", """\
STEP S1 A1 = =ROW(B1:B3)
TRACE S1
EXPECT A1 = 1
""")
        report = run_script(path)
        assert report.ok, report.render()
        assert report.outcomes[1].text == \
            "TRACE S1:\nB1:B3\tS1\n\t1\n\t1\n\t1"
        assert root_evaluations() == [1]

    def test_trace_of_a_failed_step_names_an_unknown_step(self, tmp_path):
        path = write(tmp_path, "t.sprego", """\
STEP S1 A1:A2 = {=B1:C2}
TRACE S1
""")
        report = run_script(path, keep_going=True)
        assert report.outcomes[1].text == (
            "line 2: TRACE of unknown step 'S1'")

    def test_later_steps_read_earlier_spills(self, tmp_path):
        write(tmp_path, "data.csv", SMALL_CSV)
        path = write(tmp_path, "t.sprego", """\
LOAD data.csv
STEP S1 C2:C3 = {=B2:B3*10}
STEP S2 D2 = =SUM(C2:C3)
EXPECT D2 = 70
""")
        assert run_script(path).ok


class TestPackagedScripts:
    @pytest.mark.parametrize("name", [
        "task1.sprego", "task2.sprego", "task3.sprego",
        "task4.sprego", "task5.sprego", "task6.sprego",
    ])
    def test_all_pass(self, name):
        report = run_script(data_path(name))
        assert report.ok, report.render()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_report_matches_its_golden(self, n):
        # tests/goldens/task<n>.txt is the report less its path line,
        # TRACE tables included, byte for byte
        report = run_script(data_path(f"task{n}.sprego"))
        got = "".join(outcome.text + "\n" for outcome in report.outcomes)
        assert got.encode("utf-8") == (GOLDENS / f"task{n}.txt").read_bytes()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_a_trace_changes_nothing_else(self, n):
        # without its TRACE lines, a walkthrough reports every other
        # line as before and leaves every cell as before
        script = parse_task_script(data_path(f"task{n}.sprego"))
        untraced = TaskScript(script.path, [
            d for d in script.directives if not isinstance(d, Trace)])
        assert len(untraced.directives) < len(script.directives)
        runners = []
        for each in (script, untraced):
            runner = _Runner(each, seed=1)
            assert all(map(runner.run_directive, each.directives))
            runners.append(runner)
        traced, plain = runners
        assert [o for o in traced.report.outcomes
                if not o.text.startswith("TRACE ")] == plain.report.outcomes
        assert repr(traced.sheet._columns) == repr(plain.sheet._columns)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_a_trace_adds_no_evaluation(self, n, monkeypatch):
        # a traced array-entered step spills the value its trace's
        # evaluation computed instead of evaluating again, so a
        # walkthrough evaluates as many nodes with its TRACE lines as
        # without them
        calls, evaluate = [], sprego.evaluator.evaluate

        def counted(expr, ctx):
            calls.append(expr)
            return evaluate(expr, ctx)

        for module in (sprego.evaluator, sprego.tracer):
            monkeypatch.setattr(module, "evaluate", counted)
        script = parse_task_script(data_path(f"task{n}.sprego"))
        untraced = TaskScript(script.path, [
            d for d in script.directives if not isinstance(d, Trace)])
        counts = []
        for each in (script, untraced):
            calls.clear()
            runner = _Runner(each, seed=1)
            assert all(map(runner.run_directive, each.directives))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_step_is_evaluated_once(self, n, root_evaluations):
        # traced or not, a STEP's root is evaluated once: by its trace
        # if a TRACE names the step, else by evaluate_formula
        script = parse_task_script(data_path(f"task{n}.sprego"))
        steps = sum(isinstance(d, Step) for d in script.directives)
        runner = _Runner(script, seed=1)
        assert all(map(runner.run_directive, script.directives))
        assert root_evaluations() == [1] * steps


class TestCli:
    def test_eval_scalar(self, capsys):
        assert main(["eval", "=1+1"]) == OK
        assert capsys.readouterr().out == "2\n"

    def test_eval_array_prints_rows(self, capsys, tmp_path):
        book = write(tmp_path, "b.csv", SMALL_CSV)
        code = main(["eval", str(book), "{=B2:B3*10}"])
        assert code == OK
        assert capsys.readouterr().out == "30\n40\n"

    def test_eval_reads_past_a_byte_order_mark(self, capsys, tmp_path):
        book = tmp_path / "bom.csv"
        book.write_text("12\n", encoding="utf-8-sig")
        assert main(["eval", str(book), "=A1+1", "--no-header"]) == OK
        assert capsys.readouterr().out == "13\n"

    def test_eval_cell_flag_prints_first_component(self, capsys, tmp_path):
        book = write(tmp_path, "b.csv", SMALL_CSV)
        main(["eval", str(book), "{=B2:B3*10}", "--cell"])
        assert capsys.readouterr().out == "30\n"

    def test_eval_set_flag(self, capsys):
        assert main(["eval", "=H3*2", "--set", "H3=21"]) == OK
        assert capsys.readouterr().out == "42\n"

    def test_set_flag_does_not_carry_to_the_next_call(self, capsys):
        # main shares one parser between calls
        main(["eval", "=H3*2", "--set", "H3=21"])
        assert main(["eval", "=H3*2"]) == OK
        assert capsys.readouterr().out == "42\n0\n"

    @pytest.mark.parametrize("literal, stored", [
        ('"a,b"', "a,b"), ("5", 5.0), ("#N/A", NA_ERR)])
    def test_set_flag_reads_its_literal_like_set(self, tmp_path, literal,
                                                 stored):
        options = build_parser().parse_args(
            ["eval", "=A1", "--set", f"A1={literal}"])
        by_flag = _build_sheet(options, None).get(parse_cell("A1"))
        script = parse_task_script(
            write(tmp_path, "t.sprego", f"SET A1 = {literal}\n"))
        by_script = script.directives[0].value
        for value in (by_flag, by_script):
            assert type(value) is type(stored) and value == stored

    def test_set_flag_unquotes_text(self, capsys):
        assert main(["eval", '=LEN(A1)&"|"&A1', "--set", 'A1="a,b"']) == OK
        assert capsys.readouterr().out == "3|a,b\n"

    def test_eval_strict_flags_error_values(self, capsys):
        assert main(["eval", "=1/0"]) == OK
        assert main(["eval", "=1/0", "--strict"]) == EXPECT_FAILED
        out = capsys.readouterr().out
        assert out == "#DIV/0!\n#DIV/0!\n"

    def test_eval_seed_is_reproducible(self, capsys):
        main(["eval", "=RAND()", "--seed", "5"])
        first = capsys.readouterr().out
        main(["eval", "=RAND()", "--seed", "5"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", ["eval", "run", "trace"])
    def test_seed_is_an_option_of_each_command_that_evaluates(self, command):
        options = build_parser().parse_args([command, "x", "--seed", "5"])
        assert options.seed == 5

    @pytest.mark.parametrize("argv", [
        # the input range is the third positional; export draws nothing
        ["trace", "b.csv", "{=LEN(A2:A3)}", "B2:B3", "--range", "A2:A3"],
        ["export", "b.csv", "A1:B3", "--seed", "1"]])
    def test_options_nothing_reads_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2

    def test_eval_parse_error_exit(self, capsys):
        assert main(["eval", "=LEFT("]) == PARSE_FAILED
        assert "formula error" in capsys.readouterr().err

    def test_run_packaged_by_bare_name(self, capsys):
        assert main(["run", "task1.sprego"]) == OK
        out = capsys.readouterr().out
        assert out.endswith("task1.sprego: PASS\n")

    def test_run_missing_script(self, capsys):
        assert main(["run", "definitely-absent.sprego"]) == IO_FAILED

    def test_run_of_a_script_not_utf8_exits_4(self, capsys, tmp_path):
        path = tmp_path / "t.sprego"
        path.write_bytes(b"SET A1 = 1\nSET A2 = \xff\n")
        assert main(["run", str(path)]) == IO_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "sprego: task script is not valid UTF-8: ")
        assert captured.err.count("\n") == 1

    def test_run_of_a_golden_not_utf8_exits_4(self, capsys, tmp_path):
        (tmp_path / "golden.csv").write_bytes(b"1\n\xff\n")
        path = write(tmp_path, "t.sprego", "SET A1 = 1\nSET A2 = 2\n"
                     "EXPECT A1:A2 = @golden.csv\nSET A3 = 3\n")
        assert main(["run", str(path)]) == IO_FAILED
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 4  # the run stops at the EXPECT
        assert lines[2].startswith("line 3: golden file is not valid UTF-8: ")
        assert captured.err == ""

    def test_run_reports_failures(self, capsys, tmp_path):
        write(tmp_path, "data.csv", SMALL_CSV)
        path = write(tmp_path, "t.sprego", """\
LOAD data.csv
STEP S1 C2:C3 = {=B2:B3*10}
EXPECT C2:C3 = 30;99
""")
        assert main(["run", str(path)]) == EXPECT_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_trace_table(self, capsys, tmp_path):
        book = write(tmp_path, "b.csv", SMALL_CSV)
        assert main(["trace", str(book), "{=LEN(A2:A3)}"]) == OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label\tS1"
        assert lines[1] == "first\t5"
        assert lines[2] == "second\t6"

    def test_trace_explicit_range(self, capsys, tmp_path):
        # row labels come from column A even though the steps read B
        book = write(tmp_path, "b.csv", SMALL_CSV)
        assert main(["trace", str(book), "{=LEN(B2:B3)}", "A2:A3"]) == OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label\tS1"
        assert lines[1] == "first\t1"

    def test_trace_refuses_a_wide_input_range_before_reading_it(
            self, capsys, monkeypatch, tmp_path):
        # A1:B1048576 is above the range cap too, which a read would name
        write(tmp_path, "b.csv", SMALL_CSV)
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "b.csv", "=1", "A1:B1048576"]) == EVAL_FAILED
        assert capsys.readouterr().err == \
            "sprego: the input range must be a single column\n"

    def test_export_round_trip(self, capsys, tmp_path):
        book = write(tmp_path, "b.csv", SMALL_CSV)
        assert main(["export", str(book), "A1:B3"]) == OK
        assert capsys.readouterr().out == SMALL_CSV

    def test_export_bad_range(self, capsys, tmp_path):
        book = write(tmp_path, "b.csv", SMALL_CSV)
        assert main(["export", str(book), "A1:"]) == EVAL_FAILED

    def test_eval_missing_workbook(self, capsys):
        assert main(["eval", "/no/such.csv", "=1"]) == IO_FAILED

    @pytest.mark.parametrize("formula", ["=1e999", '=LEFT("abc",1e999)'])
    def test_non_finite_literal_prints_num_error(self, capsys, formula):
        assert main(["eval", formula]) == OK
        assert main(["trace", formula]) == OK
        out = capsys.readouterr().out
        assert out.startswith("#NUM!\n") and out.endswith("#NUM!\n")

    def test_forty_nested_substitutes_end_in_value_error(self, capsys):
        formula = '"a"'
        for _ in range(40):
            formula = f'SUBSTITUTE({formula},"a","aa")'
        code, seconds = timed(lambda: main(["eval", "=LEN(" + formula + ")"]))
        assert code == OK and capsys.readouterr().out == "#VALUE!\n"
        assert seconds < 1.0

    @pytest.mark.parametrize("script, message", [
        ("SET A1 = 1\nTRACE nope\n", "line 2: TRACE of unknown step 'nope'"),
        ("STEP S1 A1:A2 = =1\n", "line 1: STEP S1 produced 1x1 but A1:A2 is 2x1"),
        ("SET A1 = 1\nEXPECT A1:A2 = 1;2\n",
         "line 2: EXPECT A1:A2 covers A2, which no directive has written"),
    ])
    def test_directive_error_names_its_line_once(self, capsys, tmp_path,
                                                 script, message):
        path = write(tmp_path, "t.sprego", script)
        assert main(["run", str(path)]) == EVAL_FAILED
        assert message in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("literal, message", [
        ('"x', "unterminated quote in --set value"),
        ('"a","b"', "--set takes exactly one value"),
    ])
    def test_set_flag_errors_name_the_flag(self, capsys, literal, message):
        assert exit_code(["eval", "=A1", "--set", f"A1={literal}"]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"\nsprego eval: error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["eval", "=1", "--set", "A1"], "malformed --set 'A1'"),
        (["eval", "a", "b", "c"], "too many positional arguments"),
    ])
    def test_command_line_errors_exit_2(self, capsys, argv, message):
        # a malformed command line is a usage error, which exits 2
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"\nsprego eval: error: {message}\n")

    @pytest.mark.parametrize("argv, usage", [
        (["eval", "a", "b", "c"],
         "sprego eval [options] [workbook.csv] formula"),
        (["trace", "a", "b", "c", "d"],
         "sprego trace [options] [workbook.csv] formula [input-range]"),
    ], ids=["eval", "trace"])
    def test_usage_line_names_each_positional_once(self, capsys, argv, usage):
        assert exit_code(argv) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"usage: {usage}"

    @pytest.mark.parametrize("argv, code", [
        # every command: an unknown option, a missing positional, too
        # many positionals, a removed option and a bad option value
        (["run", "t.sprego", "--bogus"], 2),
        (["run"], 2),
        (["run", "t.sprego", "t.sprego"], 2),
        (["run", "t.sprego", "--seed", "x"], 2),
        (["eval", "=1", "--bogus"], 2),
        (["eval"], 2),
        (["eval", "b.csv", "=1", "A1"], 2),
        (["eval", "=1", "--seed", "1.5"], 2),
        (["eval", "b.csv", "=B2", "--at", "x"], 2),
        (["eval", "b.csv", "=B2", "--at", "-1"], 2),
        (["eval", "=1", "--set", "A1"], 2),
        (["eval", "=1", "--set", 'A1="x'], 2),
        (["eval", "=1", "--set", 'A1="a","b"'], 2),
        (["eval", "missing.csv", "=1", "--set", "A1"], 2),
        (["trace", "=1", "--bogus"], 2),
        (["trace"], 2),
        (["trace", "b.csv", "=1", "A1", "B1"], 2),
        (["trace", "b.csv", "{=LEN(A2:A3)}", "B2:B3", "--range", "A2:A3"], 2),
        (["trace", "=1", "--seed", "x"], 2),
        (["trace", "b.csv", "=B2", "--at", "-1"], 2),
        (["trace", "=1", "--set", "A1"], 2),
        (["export", "b.csv", "A1", "--bogus"], 2),
        (["export", "b.csv"], 2),
        (["export", "b.csv", "A1", "B1"], 2),
        (["export", "b.csv", "A1:B3", "--seed", "1"], 2),
        (["export", "b.csv", "A1", "--at", "-1"], 2),
        (["export", "b.csv", "A1", "--set", 'A1="x'], 2),
        # a formula over the length or depth cap does not parse
        (["eval", "=" + "1+" * 4096 + "1"], 2),
        (["trace", "=" + "(" * 200 + "1" + ")" * 200], 2),
        # an address that does not parse or lies off the sheet, and a
        # range above the cap as export or trace input
        (["eval", "=1", "--set", "ZZZZ1=1"], 3),
        (["export", "b.csv", "A1:"], 3),
        (["export", "b.csv", "A1:B1048576"], 3),
        (["trace", "b.csv", "=1", "A1:B1048576"], 3),
        # a file that cannot be read
        (["run", "missing.sprego"], 4),
        (["eval", "missing.csv", "=1"], 4),
        (["export", ".", "A1"], 4),
    ], ids=lambda v: " ".join(v)[:40] if isinstance(v, list) else str(v))
    def test_exit_code_contract(self, capsys, monkeypatch, tmp_path, argv,
                                code):
        write(tmp_path, "b.csv", SMALL_CSV)
        write(tmp_path, "t.sprego", "SET A1 = 1\n")
        monkeypatch.chdir(tmp_path)
        assert exit_code(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 2:  # argparse's usage and error lines, or a formula error
            assert re.match(r"sprego( \w+)?: (error|formula error): ",
                            err.splitlines()[-1])
        else:
            assert err.startswith("sprego: ") and err.count("\n") == 1

    def test_oversized_csv_field_exits_4(self, capsys, tmp_path):
        book = write(tmp_path, "b.csv", "a\n" + "x" * 131073 + "\n")
        assert main(["eval", str(book), "=1"]) == IO_FAILED
        assert capsys.readouterr().err == (
            "sprego: malformed CSV: field larger than field limit (131072)\n")

    def test_closed_pipe_exits_4(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["eval", "=1"]) == IO_FAILED
        assert capsys.readouterr().err == "sprego: [Errno 32] Broken pipe\n"


WHOLE_SHEET = "A1:XFD1048576"


def timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class TestRangeCap:
    """A range above grid.MAX_RANGE_CELLS (one full column) is refused
    before any cell is read: #NUM! inside a formula, exit 3 elsewhere.
    A broadcast result above it is #NUM! before it is built."""

    @pytest.mark.parametrize("formula", [
        f"=SUM({WHOLE_SHEET})",
        "=SUM(OFFSET(A1,0,0,1048576,16384))",
        "=SUM(OFFSET(A1,0,0,1048576,2))",
        f"{{=LEN({WHOLE_SHEET})}}",
        "{=A1:A1048576*A1:XFD1}",  # a broadcast result above the cap
    ])
    def test_formula_gives_num_error(self, capsys, formula):
        code, seconds = timed(lambda: main(["eval", formula]))
        assert code == OK and capsys.readouterr().out == "#NUM!\n"
        assert seconds < 1.0

    def test_range_of_exactly_the_cap_evaluates(self, capsys):
        code = main(["eval", "=SUM(A1:A1048576)+SUM(OFFSET(A1,0,0,1048576))",
                     "--set", "A1048576=5"])
        assert code == OK and capsys.readouterr().out == "10\n"

    @pytest.mark.parametrize("argv", [
        ["export", "{book}", WHOLE_SHEET],
        ["trace", "{book}", "=LEN(A2)", WHOLE_SHEET],
        ["trace", "{book}", f"=SUM({WHOLE_SHEET})"],
    ])
    def test_cli_exits_3(self, capsys, tmp_path, argv):
        book = str(write(tmp_path, "b.csv", SMALL_CSV))
        argv = [arg.replace("{book}", book) for arg in argv]
        code, seconds = timed(lambda: main(argv))
        assert code == EVAL_FAILED and seconds < 1.0

    @pytest.mark.parametrize("directive", [
        f"EXPECT {WHOLE_SHEET} = 1",
        f"STEP S1 {WHOLE_SHEET} = 1",
    ])
    def test_script_directive_exits_3(self, tmp_path, directive):
        path = write(tmp_path, "t.sprego", f"SET A1 = 1\n{directive}\n")
        report, seconds = timed(lambda: run_script(path))
        assert report.exit_code == EVAL_FAILED and seconds < 1.0
        assert "1048576 one range may hold" in report.render()


class TestWholeColumnReads:
    """A whole-column reference on an empty sheet reads every row as
    blank: aggregates see no numbers, and a lifted kernel gives one
    element per row."""

    @pytest.mark.parametrize("formula", [
        "=SUM(A1:A1048576)",
        "=SUM(A1:A1048576,B1:B1048576,C1:C1048576,D1:D1048576)",
    ])
    def test_sum_is_zero(self, capsys, formula):
        assert main(["eval", formula]) == OK
        assert capsys.readouterr().out == "0\n"

    def test_len_gives_a_zero_per_row(self):
        formula = parse_formula("{=LEN(A1:A1048576)}")
        value = evaluate_formula(formula, EvalContext(Sheet()))
        assert value.shape == (1048576, 1) and set(value.cells) == {0.0}


class TestSparseColumnReads:
    """A dense read of columns that each hold one cell looks up every
    row, and still ends well within a second."""

    def test_index_over_sixteen_sparse_columns(self):
        sheet = Sheet()
        sheet.set(parse_cell("A1"), "first")
        for col in range(2, 17):
            sheet.set(CellAddress(col, col * 1000), float(col))
        formula = parse_formula("{=INDEX(A1:P65536,1,1)}")
        value, seconds = timed(
            lambda: evaluate_formula(formula, EvalContext(sheet)))
        assert value == "first" and seconds < 1.0
