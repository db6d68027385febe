"""Task script parsing and execution, plus the command line."""

import time

import pytest

from sprego import data_path, parse_task_script, run_script
from sprego.cli import _build_sheet, build_parser, main
from sprego.grid import IngestError, parse_cell
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
    Trace,
    _split_fields,
    parse_scalar_field,
    scalars_match,
)
from sprego.values import BLANK, DIV0_ERR, NA_ERR, VALUE_ERR


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL_CSV = "label,n\nfirst,3\nsecond,4\n"


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


class TestCli:
    def test_eval_scalar(self, capsys):
        assert main(["eval", "=1+1"]) == OK
        assert capsys.readouterr().out == "2\n"

    def test_eval_array_prints_rows(self, capsys, tmp_path):
        book = write(tmp_path, "b.csv", SMALL_CSV)
        code = main(["eval", str(book), "{=B2:B3*10}"])
        assert code == OK
        assert capsys.readouterr().out == "30\n40\n"

    def test_eval_cell_flag_prints_first_component(self, capsys, tmp_path):
        book = write(tmp_path, "b.csv", SMALL_CSV)
        main(["eval", str(book), "{=B2:B3*10}", "--cell"])
        assert capsys.readouterr().out == "30\n"

    def test_eval_set_flag(self, capsys):
        assert main(["eval", "=H3*2", "--set", "H3=21"]) == OK
        assert capsys.readouterr().out == "42\n"

    @pytest.mark.parametrize("literal, stored", [
        ('"a,b"', "a,b"), ("5", 5.0), ("#N/A", NA_ERR)])
    def test_set_flag_reads_its_literal_like_set(self, literal, stored):
        options = build_parser().parse_args(
            ["eval", "=A1", "--set", f"A1={literal}"])
        by_flag = _build_sheet(options, None).get(parse_cell("A1"))
        script = parse_task_script("t.sprego", text=f"SET A1 = {literal}\n")
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

    def test_eval_parse_error_exit(self, capsys):
        assert main(["eval", "=LEFT("]) == PARSE_FAILED
        assert "formula error" in capsys.readouterr().err

    def test_run_packaged_by_bare_name(self, capsys):
        assert main(["run", "task1.sprego"]) == OK
        out = capsys.readouterr().out
        assert out.endswith("task1.sprego: PASS\n")

    def test_run_missing_script(self, capsys):
        assert main(["run", "definitely-absent.sprego"]) == IO_FAILED

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
        assert main(["trace", str(book), "=LEN(B2:B3)", "A2:A3"]) == OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label\tS1"
        assert lines[1] == "first\t1"

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
        assert main(["eval", "=A1", "--set", f"A1={literal}"]) == EVAL_FAILED
        assert capsys.readouterr().err == f"sprego: {message}\n"


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
