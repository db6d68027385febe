"""Stepwise decomposition and trace tables."""

import random

import pytest

from sprego import (ArrayValue, EvalContext, Sheet, decompose,
                    evaluate_formula, parse_formula, render_tsv, trace)
from sprego import evaluator, tracer
from sprego.grid import parse_cell, parse_a1, as_range
from sprego.parser import Call, parse_expression, unparse
from sprego.tracer import TraceError, _normalize
from test_properties import draw_expression


FULL = 'LEFT(RIGHT(C2:C4,LEN(C2:C4)-FIND("(",C2:C4)),' \
       'LEN(RIGHT(C2:C4,LEN(C2:C4)-FIND("(",C2:C4)))-1)'


@pytest.fixture
def sheet():
    s = Sheet()
    s.set(parse_cell("C1"), "Account (server)")
    s.set(parse_cell("C2"), "ReisenII (EUW)")
    s.set(parse_cell("C3"), "Maximum Kawaii (EUNE)")
    s.set(parse_cell("C4"), "DahakaGG (EUW)")
    return s


class TestDecompose:
    def test_leaves_are_not_steps(self):
        assert decompose(parse_expression("42")) == []
        assert decompose(parse_expression("C2")) == []
        assert decompose(parse_expression("C2:C15")) == []

    def test_single_call(self):
        steps = decompose(parse_expression('FIND("(",C2)'))
        assert [unparse(s) for s in steps] == ['FIND("(",C2)']

    def test_children_come_first(self):
        steps = decompose(parse_expression('LEFT(C2,FIND("(",C2)-2)'))
        assert [unparse(s) for s in steps] == [
            'FIND("(",C2)',
            'FIND("(",C2)-2',
            'LEFT(C2,FIND("(",C2)-2)',
        ]

    def test_last_step_is_the_whole_expression(self):
        expr = parse_expression("SUM(IF(I2:I5>H1,1))")
        steps = decompose(expr)
        assert steps[-1] == expr
        assert [unparse(s) for s in steps] == [
            "I2:I5>H1",
            "IF(I2:I5>H1,1)",
            "SUM(IF(I2:I5>H1,1))",
        ]

    def test_repeated_subtrees_appear_once(self):
        steps = decompose(parse_expression(FULL))
        texts = [unparse(s) for s in steps]
        assert len(texts) == len(set(texts))
        # the shared RIGHT(...) subtree feeds steps 4 and 5 but is
        # listed only at its first (innermost) appearance
        assert texts == [
            'LEN(C2:C4)',
            'FIND("(",C2:C4)',
            'LEN(C2:C4)-FIND("(",C2:C4)',
            'RIGHT(C2:C4,LEN(C2:C4)-FIND("(",C2:C4))',
            'LEN(RIGHT(C2:C4,LEN(C2:C4)-FIND("(",C2:C4)))',
            'LEN(RIGHT(C2:C4,LEN(C2:C4)-FIND("(",C2:C4)))-1',
            FULL,
        ]

    def test_literals_of_different_types_are_different_steps(self):
        # 1.0 == True and 0.0 == False, but LEN reads them as 1 and TRUE
        for formula, lens in [("=LEN(1)&LEN(TRUE)", [1.0, 4.0, "14"]),
                              ("=LEN(0)&LEN(FALSE)", [1.0, 5.0, "15"])]:
            table = trace(formula, EvalContext(Sheet()))
            assert [s.results.first() for s in table.steps] == lens

    def test_a_call_without_arguments_is_a_step(self):
        steps = decompose(parse_expression("ROW()+1"))
        assert [unparse(s) for s in steps] == ["ROW()", "ROW()+1"]

    def test_every_step_builds_on_earlier_ones(self):
        expr = parse_expression(FULL)
        steps = decompose(expr)
        seen = set()
        for step in steps:
            if isinstance(step, Call):
                for arg in step.args:
                    if isinstance(arg, Call):
                        assert arg in seen
            seen.add(step)


class TestTrace:
    def test_step_columns_progress_to_the_final_value(self, sheet):
        ctx = EvalContext(sheet)
        table = trace("{=" + FULL + "}", ctx)
        assert table.rows == 3
        assert [s.label for s in table.steps] == [
            "S1", "S2", "S3", "S4", "S5", "S6", "S7"]
        final = table.steps[-1]
        assert final.results == ArrayValue.column(["EUW", "EUNE", "EUW"])

    def test_first_row_of_each_step(self, sheet):
        # 'ReisenII (EUW)': positions and slices step by step
        table = trace("{=" + FULL + "}", EvalContext(sheet))
        firsts = [s.results.first() for s in table.steps]
        assert firsts == [14.0, 10.0, 4.0, "EUW)", 4.0, 3.0, "EUW"]

    def test_input_column_defaults_to_first_range(self, sheet):
        table = trace("{=LEN(C2:C4)}", EvalContext(sheet))
        assert table.input_values == (
            "ReisenII (EUW)", "Maximum Kawaii (EUNE)", "DahakaGG (EUW)")

    def test_header_comes_from_the_cell_above(self, sheet):
        table = trace("{=LEN(C2:C4)}", EvalContext(sheet))
        assert table.input_header == "Account (server)"

    def test_header_falls_back_to_the_range_address(self, sheet):
        table = trace("{=LEN(D2:D4)}", EvalContext(sheet))
        assert table.input_header == "D2:D4"

    def test_explicit_input_range(self, sheet):
        rng = as_range(parse_a1("C3:C4"))
        table = trace("{=LEN(C3:C4)}", EvalContext(sheet), input_range=rng)
        assert table.rows == 2

    def test_scalar_steps_repeat_down_the_column(self, sheet):
        table = trace("{=LEN(C2:C4)-LEN(C2)}", EvalContext(sheet))
        lens = table.steps[1]
        assert unparse(lens.expr) == "LEN(C2)"
        assert lens.results == ArrayValue.column([14.0, 14.0, 14.0])

    def test_rangeless_formula_traces_one_row(self):
        table = trace("=ROUND(2.5,0)+1", EvalContext(Sheet()))
        assert table.rows == 1
        assert table.input_header is None
        assert [s.results.first() for s in table.steps] == [3.0, 4.0]

    def test_constant_formula_still_has_a_step(self):
        table = trace("=42", EvalContext(Sheet()))
        assert len(table.steps) == 1
        assert table.steps[0].results.first() == 42.0

    def test_multi_column_input_is_rejected(self, sheet):
        with pytest.raises(TraceError):
            trace("{=LEN(C2:D4)}", EvalContext(sheet))

    def test_mismatched_step_height_is_rejected(self, sheet):
        sheet.set(parse_cell("E1"), 1.0)
        sheet.set(parse_cell("E2"), 2.0)
        with pytest.raises(TraceError):
            trace("{=LEN(C2:C4)+LEN(E1:E2)}",
                  EvalContext(sheet), input_range=as_range(parse_a1("C2:C4")))

    def test_row_steps_replicate_down(self, sheet):
        sheet.set(parse_cell("E1"), 1.0)
        sheet.set(parse_cell("E2"), 2.0)
        table = trace("{=LEN(C2:C4)+SUM(TRANSPOSE(E1:E2))}",
                      EvalContext(sheet),
                      input_range=as_range(parse_a1("C2:C4")))
        transposed = table.steps[1]
        assert unparse(transposed.expr) == "TRANSPOSE(E1:E2)"
        assert transposed.results.shape == (3, 2)  # 1x2 repeated per row


class TestRenderTsv:
    def test_layout(self, sheet):
        table = trace('{=FIND("(",C2:C4)-2}', EvalContext(sheet))
        text = render_tsv(table)
        lines = text.splitlines()
        assert lines[0] == "Account (server)\tS1\tS2"
        assert lines[1] == "ReisenII (EUW)\t10\t8"
        assert lines[2] == "Maximum Kawaii (EUNE)\t16\t14"
        assert text.endswith("\n")

    def test_errors_render_with_their_labels(self, sheet):
        sheet.set(parse_cell("F2"), "no views here")
        sheet.set(parse_cell("F3"), "680 Views")
        table = trace('{=FIND("V",F2:F3)}', EvalContext(sheet))
        lines = render_tsv(table).splitlines()
        assert lines[1].endswith("#VALUE!")
        assert lines[2].endswith("5")

    def test_no_input_column_for_rangeless_formulas(self):
        table = trace("=1+1", EvalContext(Sheet()))
        assert render_tsv(table).splitlines()[0] == "S1"


def typed(array):
    """Cells with their types, so 1.0 and TRUE do not compare equal."""
    return [(type(v), v) for v in array.cells]


class TestOneEvaluation:
    """A trace is a view of the formula's one evaluation."""

    def test_last_step_equals_the_evaluation(self):
        # in either entry, the trace's value is evaluate_formula's,
        # compared by repr so that -0.0 is not 0.0 and 1.0 is not TRUE
        sheet = Sheet()
        for a1, value in [("A1", 2.0), ("A2", "ab c"), ("A3", True),
                          ("A5", -1.5), ("B2", "7"), ("B3", 0.0),
                          ("C4", "x"), ("ZZ9", 3.0)]:
            sheet.set(parse_cell(a1), value)
        for array_entered in (True, False):
            rng = random.Random(11)
            compared = 0
            for k in range(1000):
                text = "=" + draw_expression(rng)
                formula = parse_formula("{" + text + "}" if array_entered
                                        else text)
                try:
                    table = trace(formula,
                                  EvalContext(sheet, rng=random.Random(k)))
                except TraceError:
                    continue  # a two-column input range, or mismatched heights
                result = evaluate_formula(
                    formula, EvalContext(sheet, rng=random.Random(k)))
                assert repr(table.value) == repr(result), \
                    (k, array_entered, text)
                expected = _normalize(result, table.rows)
                assert typed(table.steps[-1].results) == typed(expected), \
                    (k, array_entered, text)
                compared += 1
            assert compared >= 800, array_entered

    def test_a_step_reuses_its_random_draw(self):
        ctx = EvalContext(Sheet(), rng=random.Random(3))
        s1, s2 = trace("=RAND()*2", ctx).steps
        assert s2.results.first() == 2 * s1.results.first()

    def test_repeated_random_calls_stay_distinct(self):
        ctx = EvalContext(Sheet(), rng=random.Random(3))
        table = trace("=RAND()-RAND()", ctx)
        assert len(table.steps) == 2  # one RAND() step, by structure
        assert table.steps[-1].results.first() != 0.0

    @pytest.mark.parametrize("text", [
        "=RAND()-RAND()", "{=RAND()-RAND()}",
        "=RAND()-RAND()+0*SUM(A1:A2)+0*SUM(A1:A2)",
        "{=RAND()-RAND()+0*SUM(A1:A2)+0*SUM(A1:A2)}",
    ])
    def test_one_random_step_with_distinct_draws(self, text):
        for seed in range(10):
            table = trace(text, EvalContext(Sheet(), rng=random.Random(seed)))
            labels = [unparse(step.expr) for step in table.steps]
            assert labels.count("RAND()") == 1
            assert table.steps[labels.index("RAND()-RAND()")] \
                .results.first() != 0.0

    def test_a_shared_step_reached_only_in_the_untaken_branch_is_empty(self):
        sheet = Sheet()
        for a1, value in [("B1", 1.0), ("B2", 2.0), ("B3", 3.0)]:
            sheet.set(parse_cell(a1), value)
        text = "=IF(FALSE,SUM(B1:B3)*SUM(B1:B3),0)"
        assert parse_formula(text).interning
        table = trace(text, EvalContext(sheet))
        assert [unparse(step.expr) for step in table.steps] == \
            ["SUM(B1:B3)", "SUM(B1:B3)*SUM(B1:B3)", text[1:]]
        assert render_tsv(table).splitlines() == \
            ["B1:B3\tS1\tS2\tS3", "1\t\t\t0", "2\t\t\t0", "3\t\t\t0"]

    def test_a_shared_step_holds_the_value_of_its_twins(self, sheet):
        table = trace("{=" + FULL + "}", EvalContext(sheet))
        values = {unparse(step.expr): step.results.cells
                  for step in table.steps}
        assert values['FIND("(",C2:C4)'] == (10.0, 16.0, 10.0)
        assert values['RIGHT(C2:C4,LEN(C2:C4)-FIND("(",C2:C4))'] == \
            ("EUW)", "EUNE)", "EUW)")
        assert table.steps[-1].results.cells == ("EUW", "EUNE", "EUW")

    def test_unreached_steps_are_empty(self):
        table = trace('=IF(FALSE,LEN("abc"),1)', EvalContext(Sheet()))
        assert render_tsv(table).splitlines() == ["S1\tS2", "\t1"]

    def test_one_value_per_node(self, monkeypatch):
        calls = []
        original = evaluator.evaluate

        def counting(expr, ctx):
            calls.append(ctx.node_values)
            return original(expr, ctx)

        monkeypatch.setattr(evaluator, "evaluate", counting)
        monkeypatch.setattr(tracer, "evaluate", counting)
        table = trace("=" + "LEN(" * 12 + '"abc"' + ")" * 12,
                      EvalContext(Sheet()))
        assert len(table.steps) == 12
        assert len(calls) == 13  # the 12 calls and the literal, once each
        values = calls[0]
        assert len(values) == 12
        assert all(id(step.expr) in values for step in table.steps)
        assert [s.results.first() for s in table.steps] == [3.0] + [1.0] * 11


class TestInputColumnReads:
    """The default input column is the evaluation's own range read."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        original = Sheet.get_range

        def counting(sheet, rng):
            calls.append(rng.a1)
            return original(sheet, rng)

        monkeypatch.setattr(Sheet, "get_range", counting)
        return calls

    def test_the_default_input_column_is_read_once(self, sheet, reads):
        table = trace('{=LEFT(C2:C4,FIND("(",C2:C4)-2)}', EvalContext(sheet))
        assert reads == ["C2:C4"]
        assert table.input_values == (
            "ReisenII (EUW)", "Maximum Kawaii (EUNE)", "DahakaGG (EUW)")
        assert table.steps[-1].results.cells == (
            "ReisenII", "Maximum Kawaii", "DahakaGG")

    def test_a_range_the_evaluation_never_reached_is_read_for_the_input(
            self, sheet, reads):
        table = trace("=IF(FALSE,LEN(C2:C4),1)", EvalContext(sheet))
        assert reads == ["C2:C4"] and len(table.input_values) == 3
        assert render_tsv(table).splitlines()[1] == \
            "ReisenII (EUW)\t\t1"

    def test_a_reference_argument_is_read_for_the_input(self, sheet, reads):
        table = trace("{=ROW(C2:C4)}", EvalContext(sheet))
        assert reads == ["C2:C4"] and table.input_values[2] == \
            "DahakaGG (EUW)"

    def test_an_explicit_input_range_is_read_on_its_own(self, sheet, reads):
        rng = as_range(parse_a1("C3:C4"))
        table = trace("{=LEN(C3:C4)}", EvalContext(sheet), input_range=rng)
        assert reads == ["C3:C4", "C3:C4"]
        assert table.input_values == ("Maximum Kawaii (EUNE)",
                                      "DahakaGG (EUW)")

    @pytest.fixture
    def codes(self, sheet):
        for a1, value in [("D1", "Code"), ("D2", "ab1"), ("D3", "cd22"),
                          ("D4", "ef333")]:
            sheet.set(parse_cell(a1), value)
        return sheet

    def test_the_leftmost_range_is_the_input_however_deep(self, codes,
                                                          reads):
        table = trace("{=LEN(LEFT(D2:D4,2))&C2:C4}", EvalContext(codes))
        assert reads == ["D2:D4", "C2:C4"]
        assert table.input_header == "Code"
        assert table.input_values == ("ab1", "cd22", "ef333")
        assert table.steps[-1].results.cells[0] == "2ReisenII (EUW)"

    def test_a_repeated_first_range_is_the_input_read_once(self, codes,
                                                           reads):
        table = trace("{=LEN(C2:C4)&D2:D4&LEFT(C2:C4,1)}", EvalContext(codes))
        assert reads == ["C2:C4", "D2:D4"]
        assert table.input_header == "Account (server)"
        assert table.input_values == (
            "ReisenII (EUW)", "Maximum Kawaii (EUNE)", "DahakaGG (EUW)")
        assert table.steps[-1].results.cells == (
            "14ab1R", "21cd22M", "14ef333D")
