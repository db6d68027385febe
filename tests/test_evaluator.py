"""Operator semantics, element-wise lifting, broadcasting and IF."""

import random
from dataclasses import replace

import pytest

from sprego import EvalContext, Sheet, display_value, evaluate_formula, parse_formula
from sprego.evaluator import broadcast_shape, evaluate, lift
from sprego.functions import REGISTRY, UNCHANGED_BY, lookup
from sprego.grid import parse_cell
from sprego.parser import Formula
from sprego.values import (
    ArrayValue,
    BLANK,
    DIV0_ERR,
    MAX_TEXT,
    NA_ERR,
    NUM_ERR,
    VALUE_ERR,
    ERROR_BY_LABEL,
    CellError,
    coerce_to_number,
    coerce_to_text,
    COMPARISONS,
    is_truthy,
    render,
)
from test_properties import draw_expression

#: A lift plan for two arguments, both lifted and left uncoerced.
BOTH = {0: None, 1: None}


def ev(text, sheet=None, anchor="A1", rng=None):
    ctx = EvalContext(sheet if sheet is not None else Sheet(),
                      anchor=parse_cell(anchor),
                      rng=rng or random.Random(0))
    return evaluate_formula(parse_formula(text), ctx)


@pytest.fixture
def sheet():
    s = Sheet()
    for i, v in enumerate([1.0, 2.0, 3.0], start=1):
        s.set(parse_cell(f"A{i}"), v)
    s.set(parse_cell("B1"), 10.0)
    s.set(parse_cell("B2"), 20.0)
    s.set(parse_cell("B3"), 30.0)
    s.set(parse_cell("C1"), "x")
    return s


class TestArithmetic:
    def test_basics(self):
        assert ev("=1+2") == 3.0
        assert ev("=10-4-3") == 3.0
        assert ev("=6/4") == 1.5
        assert ev("=2^10") == 1024.0

    def test_text_of_other_scripts_digits_is_not_numeric(self):
        assert ev('="\u0663"+1') is VALUE_ERR

    def test_division_by_zero(self):
        assert ev("=1/0") is DIV0_ERR
        assert ev("=0/0") is DIV0_ERR

    def test_power_edge_cases(self):
        assert ev("=0^0") is NUM_ERR
        assert ev("=0^-1") is DIV0_ERR
        assert ev("=(-8)^(1/3)") is NUM_ERR  # complex result
        assert ev("=10^1000") is NUM_ERR  # overflows a double

    def test_unary(self):
        assert ev("=-3") == -3.0
        assert ev("=+3") == 3.0
        assert ev("=50%") == 0.5
        assert ev("=200%%") == 0.02
        assert ev("=-2^2") == 4.0  # sign binds tighter than power

    def test_text_operands_coerce(self):
        assert ev('="3"*"4"') == 12.0
        assert ev('="x"+1') is VALUE_ERR

    def test_booleans_count_as_numbers(self):
        assert ev("=TRUE+TRUE") == 2.0
        assert ev("=FALSE*10") == 0.0

    def test_blank_counts_as_zero(self, sheet):
        assert ev("=Z99+5", sheet) == 5.0

    def test_concat(self):
        assert ev('="a"&"b"') == "ab"
        assert ev('="n="&1') == "n=1"
        assert ev("=TRUE&2.5") == "TRUE2.5"

    def test_comparisons(self):
        assert ev("=1<2") is True
        assert ev('="euw"="EUW"') is True
        assert ev('=2>"1"') is False  # numbers sort below text


class TestErrorFlow:
    def test_errors_absorb_arithmetic(self):
        assert ev("=1/0+5") is DIV0_ERR
        assert ev("=LEN(1/0)") is DIV0_ERR
        assert ev('=(1/0)&"x"') is DIV0_ERR

    def test_first_error_in_argument_order_wins(self):
        assert ev("=(1/0)+NOPE()") is DIV0_ERR
        assert ev("=NOPE()+(1/0)").label == "#NAME?"

    def test_comparing_errors_propagates(self):
        assert ev("=1/0=1/0") is DIV0_ERR

    def test_only_iserror_consumes(self):
        assert ev("=ISERROR(1/0)") is True
        assert ev("=ISERROR(1/0+5)") is True
        assert ev("=NOT(ISERROR(7))") is True

    def test_element_local_poisoning(self, sheet):
        sheet.set(parse_cell("A2"), DIV0_ERR)
        result = ev("{=A1:A3+1}", sheet)
        assert result == ArrayValue.column([2.0, DIV0_ERR, 4.0])


class TestIntersectionRules:
    """Outside array entry a multi-cell array has no scalar meaning."""

    def test_multi_cell_range_in_scalar_slot(self, sheet):
        assert ev("=A1:A3+1", sheet) is VALUE_ERR
        assert ev("=LEN(A1:A3)", sheet) is VALUE_ERR

    def test_single_cell_range_unwraps(self, sheet):
        assert ev("=A2:A2+1", sheet) == 3.0

    def test_array_entry_lifts_instead(self, sheet):
        result = ev("{=A1:A3+1}", sheet)
        assert isinstance(result, ArrayValue)
        assert result == ArrayValue.column([2.0, 3.0, 4.0])

    def test_bare_range_at_the_root_passes_through(self, sheet):
        result = ev("=A1:A3", sheet)
        assert isinstance(result, ArrayValue) and result.shape == (3, 1)


class TestBroadcasting:
    def test_shape_rules(self):
        assert broadcast_shape([(3, 1), (1, 1)]) == (3, 1)
        assert broadcast_shape([(3, 1), (1, 4)]) == (3, 4)
        assert broadcast_shape([(3, 2), (3, 2)]) == (3, 2)
        assert broadcast_shape([(3, 1), (2, 1)]) is None
        assert broadcast_shape([]) == (1, 1)

    def test_column_times_scalar(self, sheet):
        result = ev("{=A1:A3*10}", sheet)
        assert result == ArrayValue.column([10.0, 20.0, 30.0])

    def test_column_times_row_makes_a_table(self, sheet):
        result = ev("{=A1:A3*TRANSPOSE(A1:A3)}", sheet)
        assert result.shape == (3, 3)
        assert result.cells[6:] == (3.0, 6.0, 9.0)

    def test_equal_shapes_pair_off(self, sheet):
        result = ev("{=A1:A3+B1:B3}", sheet)
        assert result == ArrayValue.column([11.0, 22.0, 33.0])

    def test_incompatible_shapes(self, sheet):
        assert ev("{=A1:A3+B1:B2}", sheet) is VALUE_ERR
        assert ev("{=A1:B1+A1:C1}", sheet) is VALUE_ERR  # columns clash

    def test_lifting_skips_array_mode_arguments(self, sheet):
        # SUM's argument is consumed whole even under array entry
        assert ev("{=SUM(A1:A3+B1:B3)}", sheet) == 66.0

    def test_text_kernel_lifts_too(self, sheet):
        sheet.set(parse_cell("D1"), "ab")
        sheet.set(parse_cell("D2"), "cde")
        result = ev("{=LEN(D1:D2)}", sheet)
        assert result == ArrayValue.column([2.0, 3.0])

    def test_an_array_made_for_one_element_is_value_error(self, sheet):
        # INDEX's row 0 selects a whole column, which cannot nest in
        # the result; row 1 selects one cell
        sheet.set(parse_cell("A2"), 0.0)
        result = ev("{=INDEX(B1:C2,A1:A2)}", sheet)
        assert result == ArrayValue.column([10.0, VALUE_ERR])

    def test_direct_lift_call(self):
        def add(a, b):
            return a + b
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(add, [ArrayValue.column([1.0, 2.0]), 10.0], ctx,
                      lifted=BOTH)
        assert result == ArrayValue.column([11.0, 12.0])


class TestLiftErrorOrder:
    """lift called directly, with a kernel that records its calls."""

    @staticmethod
    def recording(calls):
        def kernel(*args):
            calls.append(args)
            return 0.0
        return kernel

    def test_array_error_before_a_scalar_error_wins_its_element(self):
        calls = []
        column = ArrayValue.column([1.0, NA_ERR, 3.0])
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(self.recording(calls), [column, DIV0_ERR], ctx,
                      lifted=BOTH)
        assert result == ArrayValue.column([DIV0_ERR, NA_ERR, DIV0_ERR])
        assert calls == []

    def test_scalar_error_first_fills_every_element(self):
        calls = []
        column = ArrayValue.column([1.0, NA_ERR, 3.0])
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(self.recording(calls), [DIV0_ERR, column], ctx,
                      lifted=BOTH)
        assert result.cells == (DIV0_ERR,) * 3
        assert calls == []

    def test_capturing_kernel_still_sees_errors(self):
        calls = []
        column = ArrayValue.column([1.0, NA_ERR, 3.0])
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(self.recording(calls), [column, DIV0_ERR], ctx,
                      lifted=BOTH, captures_errors=True)
        assert result.cells == (0.0,) * 3
        assert calls == [(1.0, DIV0_ERR), (NA_ERR, DIV0_ERR),
                         (3.0, DIV0_ERR)]

    def test_raw_error_beats_an_earlier_coercion_error(self):
        calls = []
        column = ArrayValue.column([1.0, NA_ERR, 3.0])
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(self.recording(calls), ["x", column], ctx,
                      lifted={0: coerce_to_number, 1: coerce_to_number})
        assert result.cells == (VALUE_ERR, NA_ERR, VALUE_ERR)
        assert calls == []

    def test_scalar_coerced_once_and_array_once_per_element(self):
        seen = []

        def counting(value):
            seen.append(value)
            return coerce_to_number(value)
        calls = []
        column = ArrayValue.column(["1", "2", "3"])
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(self.recording(calls), ["5", column, "t"], ctx,
                      lifted={0: counting, 1: counting, 2: None})
        assert result.cells == (0.0,) * 3
        assert sorted(seen) == ["1", "2", "3", "5"]
        assert calls == [(5.0, 1.0, "t"), (5.0, 2.0, "t"), (5.0, 3.0, "t")]

    def test_row_by_column_stretches_to_the_outer_grid(self):
        calls = []

        def add(a, b):
            calls.append((a, b))
            return a + b
        row = ArrayValue(1, 3, (1.0, 2.0, 3.0))
        column = ArrayValue.column([10.0, 20.0])
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(add, [row, column], ctx, lifted=BOTH)
        assert result == ArrayValue(2, 3, (11.0, 12.0, 13.0, 21.0, 22.0, 23.0))
        assert len(calls) == 6


class TestCoercionErrorOrder:
    """Per element: a raw error in an argument wins over an error that
    coercing an earlier argument makes, and a coercion error wins over
    the kernel."""

    @pytest.fixture
    def mixed(self):
        """A1 = 1, A2 = #N/A, A3 = "7", B1 = 5."""
        s = Sheet()
        s.set(parse_cell("A1"), 1.0)
        s.set(parse_cell("A2"), NA_ERR)
        s.set(parse_cell("A3"), "7")
        s.set(parse_cell("B1"), 5.0)
        return s

    # ="x"+A2 with A2 = #DIV/0! is pinned by TestCrossTypeTable

    @pytest.mark.parametrize("formula", ['{="x"*A1:A3}', '{=A1:A3*"x"}'])
    def test_operator_over_a_column(self, mixed, formula):
        assert ev(formula, mixed).cells == (VALUE_ERR, NA_ERR, VALUE_ERR)

    def test_not_over_a_column(self, mixed):
        assert ev("{=NOT(A1:A3)}", mixed).cells == (False, NA_ERR, VALUE_ERR)

    def test_if_condition_over_a_column(self, mixed):
        # the condition's own error is the element's result even though
        # IF's array branch captures errors in the branches
        assert ev("{=IF(A1:A3,1,2)}", mixed).cells == (1.0, NA_ERR, VALUE_ERR)


class TestCoercionSkip:
    """An array whose element types its coercion returns unchanged
    skips the coercion; any other is coerced element by element."""

    @staticmethod
    def counting(monkeypatch, coerce):
        """A coercion that records its calls and is known to pass the
        same types through as coerce."""
        seen = []

        def counted(value):
            seen.append(value)
            return coerce(value)
        monkeypatch.setitem(UNCHANGED_BY, counted, UNCHANGED_BY[coerce])
        return counted, seen

    @pytest.mark.parametrize("coerce,cells", [
        (coerce_to_text, ["ab", "c d", NA_ERR, ""]),
        (coerce_to_number, [1.5, DIV0_ERR, -2.0, 0.0]),
        (is_truthy, [True, VALUE_ERR, False, True]),
    ])
    def test_array_reaches_the_kernel_unchanged(self, monkeypatch, coerce,
                                                cells):
        counted, seen = self.counting(monkeypatch, coerce)
        got = []
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(lambda value: got.append(value) or 0.0,
                      [ArrayValue.column(cells)], ctx, lifted={0: counted})
        assert seen == []
        kept = [v for v in cells if not isinstance(v, CellError)]
        assert len(got) == len(kept)
        assert all(a is b for a, b in zip(got, kept))
        assert result.cells == tuple(
            v if isinstance(v, CellError) else 0.0 for v in cells)

    def test_mixed_columns_coerce_per_element_in_lift_order(self,
                                                            monkeypatch):
        counted, seen = self.counting(monkeypatch, coerce_to_number)
        left = ["1", 2.0, "x", NA_ERR, True, "y", BLANK]
        right = [DIV0_ERR, "2", "3", "z", 1.0, NUM_ERR, "q"]
        plan = {0: counted, 1: counted}
        ctx = EvalContext(Sheet(), array_entered=True)
        result = lift(lambda x, y: x - y, [ArrayValue.column(left),
                                           ArrayValue.column(right)],
                      ctx, lifted=plan)
        # lift's scalar path, one element at a time, is the model
        scalar = EvalContext(Sheet())
        expected = tuple(lift(lambda x, y: x - y, [a, b], scalar,
                              lifted={0: coerce_to_number,
                                      1: coerce_to_number})
                         for a, b in zip(left, right))
        assert result.cells == expected
        assert expected[:4] == (DIV0_ERR, 0.0, VALUE_ERR, NA_ERR)
        assert len(seen) == len(left) + len(right)


class TestIf:
    def test_scalar_condition(self):
        assert ev("=IF(TRUE,1,2)") == 1.0
        assert ev("=IF(0,1,2)") == 2.0

    def test_text_condition_is_an_error(self):
        assert ev('=IF("yes",1,2)') is VALUE_ERR

    def test_error_condition_propagates(self):
        assert ev("=IF(1/0,1,2)") is DIV0_ERR

    def test_absent_else_gives_false(self):
        assert ev("=IF(FALSE,1)") is False

    def test_empty_slot_gives_zero(self):
        assert ev("=IF(FALSE,1,)") == 0.0
        assert ev("=IF(TRUE,,1)") == 0.0
        assert ev("=IF(TRUE,,)") == 0.0

    def test_lazy_scalar_condition_skips_the_other_branch(self):
        # with a false condition the then-branch RAND must not consume
        # from the stream, so the else draw is the stream's first
        expected = random.Random(11).random()
        ctx = EvalContext(Sheet(), rng=random.Random(11))
        value = evaluate_formula(parse_formula("=IF(FALSE,RAND(),RAND())"), ctx)
        assert value == expected

    def test_scalar_condition_returns_a_multi_cell_branch_whole(self, sheet):
        result = ev("=IF(TRUE,A1:A3)", sheet)
        assert isinstance(result, ArrayValue)
        assert result == ArrayValue.column([1.0, 2.0, 3.0])

    def test_array_condition_selects_element_wise(self, sheet):
        result = ev("{=IF(A1:A3>1.5,B1:B3,0)}", sheet)
        assert result == ArrayValue.column([0.0, 20.0, 30.0])

    def test_array_condition_with_scalar_branches(self, sheet):
        result = ev('{=IF(A1:A3=2,"hit","miss")}', sheet)
        assert result == ArrayValue.column(["miss", "hit", "miss"])

    def test_array_condition_without_array_entry(self, sheet):
        assert ev("=IF(A1:A3>0,1,2)", sheet) is VALUE_ERR
        assert ev("=IF(A2:A2>0,1,2)", sheet) == 1.0

    def test_array_condition_absent_else(self, sheet):
        result = ev("{=IF(A1:A3>1.5,1)}", sheet)
        assert result == ArrayValue.column([False, 1.0, 1.0])

    def test_array_condition_empty_slots(self, sheet):
        result = ev("{=IF(A1:A3>1.5,,)}", sheet)
        assert result == ArrayValue.column([0.0, 0.0, 0.0])

    def test_error_elements_pick_no_branch(self, sheet):
        sheet.set(parse_cell("A2"), NA_ERR)
        result = ev("{=IF(A1:A3>1.5,1,2)}", sheet)
        assert result == ArrayValue.column([2.0, NA_ERR, 1.0])

    def test_branch_shape_mismatch(self, sheet):
        assert ev("{=IF(A1:A3>0,B1:B2,0)}", sheet) is VALUE_ERR

    def test_condition_count_checked(self):
        assert ev("=IF(TRUE)") is VALUE_ERR
        assert ev("=IF(TRUE,1,2,3)") is VALUE_ERR


class TestDisplay:
    def test_scalars_display_as_themselves(self):
        assert display_value(1.5) == 1.5
        assert display_value(VALUE_ERR) is VALUE_ERR
        assert display_value(BLANK) is BLANK

    def test_arrays_display_their_first_component(self, sheet):
        value = ev("{=A1:A3*10}", sheet)
        assert display_value(value) == 10.0


class TestVolatileAndAnchor:
    def test_rand_draws_once_then_broadcasts(self, sheet):
        # the call evaluates to a scalar before the + lifts it
        result = ev("{=RAND()+0*A1:A3}", sheet)
        assert isinstance(result, ArrayValue)
        assert len(set(result.cells)) == 1

    def test_anchor_feeds_row(self):
        assert ev("=ROW()+COLUMN()", anchor="D7") == 11.0


# Every operator over every pair of operand types: a number, a boolean,
# numeric text, other text, empty text, a blank cell (A1) and an error
# (A2).  Each row is one left operand, each column one right operand;
# text results are quoted.
CROSS_OPERANDS = ['1.5', 'TRUE', '"2"', '"x"', '""', 'A1', 'A2']
CROSS_TABLE = {
    "+": [
        '3 2.5 3.5 #VALUE! #VALUE! 1.5 #DIV/0!',
        '2.5 2 3 #VALUE! #VALUE! 1 #DIV/0!',
        '3.5 3 4 #VALUE! #VALUE! 2 #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '1.5 1 2 #VALUE! #VALUE! 0 #DIV/0!',
        '#DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0!',
    ],
    "-": [
        '0 0.5 -0.5 #VALUE! #VALUE! 1.5 #DIV/0!',
        '-0.5 0 -1 #VALUE! #VALUE! 1 #DIV/0!',
        '0.5 1 0 #VALUE! #VALUE! 2 #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '-1.5 -1 -2 #VALUE! #VALUE! 0 #DIV/0!',
        '#DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0!',
    ],
    "*": [
        '2.25 1.5 3 #VALUE! #VALUE! 0 #DIV/0!',
        '1.5 1 2 #VALUE! #VALUE! 0 #DIV/0!',
        '3 2 4 #VALUE! #VALUE! 0 #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '0 0 0 #VALUE! #VALUE! 0 #DIV/0!',
        '#DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0!',
    ],
    "/": [
        '1 1.5 0.75 #VALUE! #VALUE! #DIV/0! #DIV/0!',
        '0.6666666666666666 1 0.5 #VALUE! #VALUE! #DIV/0! #DIV/0!',
        '1.3333333333333333 2 1 #VALUE! #VALUE! #DIV/0! #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '0 0 0 #VALUE! #VALUE! #DIV/0! #DIV/0!',
        '#DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0!',
    ],
    "^": [
        '1.8371173070873836 1.5 2.25 #VALUE! #VALUE! 1 #DIV/0!',
        '1 1 1 #VALUE! #VALUE! 1 #DIV/0!',
        '2.8284271247461903 2 4 #VALUE! #VALUE! 1 #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '#VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #VALUE! #DIV/0!',
        '0 0 0 #VALUE! #VALUE! #NUM! #DIV/0!',
        '#DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0!',
    ],
    "&": [
        '"1.51.5" "1.5TRUE" "1.52" "1.5x" "1.5" "1.5" #DIV/0!',
        '"TRUE1.5" "TRUETRUE" "TRUE2" "TRUEx" "TRUE" "TRUE" #DIV/0!',
        '"21.5" "2TRUE" "22" "2x" "2" "2" #DIV/0!',
        '"x1.5" "xTRUE" "x2" "xx" "x" "x" #DIV/0!',
        '"1.5" "TRUE" "2" "x" "" "" #DIV/0!',
        '"1.5" "TRUE" "2" "x" "" "" #DIV/0!',
        '#DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0!',
    ],
    "=": [
        'TRUE FALSE FALSE FALSE FALSE FALSE #DIV/0!',
        'FALSE TRUE FALSE FALSE FALSE FALSE #DIV/0!',
        'FALSE FALSE TRUE FALSE FALSE FALSE #DIV/0!',
        'FALSE FALSE FALSE TRUE FALSE FALSE #DIV/0!',
        'FALSE FALSE FALSE FALSE TRUE TRUE #DIV/0!',
        'FALSE FALSE FALSE FALSE TRUE TRUE #DIV/0!',
        '#DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0!',
    ],
    "<": [
        'FALSE TRUE TRUE TRUE TRUE FALSE #DIV/0!',
        'FALSE FALSE FALSE FALSE FALSE FALSE #DIV/0!',
        'FALSE TRUE FALSE TRUE FALSE FALSE #DIV/0!',
        'FALSE TRUE FALSE FALSE FALSE FALSE #DIV/0!',
        'FALSE TRUE TRUE TRUE FALSE FALSE #DIV/0!',
        'TRUE TRUE TRUE TRUE FALSE FALSE #DIV/0!',
        '#DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0! #DIV/0!',
    ],
}


class TestCrossTypeTable:
    def test_every_operator_over_every_operand_pair(self):
        sheet = Sheet()
        sheet.set(parse_cell("A2"), DIV0_ERR)

        def show(value):
            return f'"{value}"' if isinstance(value, str) else render(value)

        got = {op: [" ".join(show(ev(f"={a}{op}{b}", sheet))
                             for b in CROSS_OPERANDS)
                    for a in CROSS_OPERANDS]
               for op in CROSS_TABLE}
        assert got == CROSS_TABLE


# Operands for the comparison operators: numbers, text in two cases,
# both booleans, a blank cell and every error value
COMPARED = [0.0, 1.5, -2.0, "abc", "ABC", "b", "", True, False, BLANK,
            *ERROR_BY_LABEL.values()]


class TestComparisonOperators:
    """Each comparison operator, evaluated, agrees with values.COMPARISONS."""

    @pytest.fixture
    def compared(self):
        # the operands down A2:A<n+1> and across B1:<n>1
        sheet = Sheet()
        for i, value in enumerate(COMPARED):
            if value is not BLANK:
                sheet.set(parse_cell(f"A{i + 2}"), value)
                sheet.set(parse_cell(f"{chr(ord('B') + i)}1"), value)
        return sheet

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_plain_entry(self, compared, op):
        for i, left in enumerate(COMPARED):
            for j, right in enumerate(COMPARED):
                got = ev(f"=A{i + 2}{op}{chr(ord('B') + j)}1", compared)
                want = COMPARISONS[op](left, right)
                assert (type(got), got) == (type(want), want), (left, right)

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_array_entry(self, compared, op):
        n = len(COMPARED)
        got = ev(f"{{=A2:A{n + 1}{op}B1:{chr(ord('A') + n)}1}}", compared)
        assert got.shape == (n, n)
        for i, left in enumerate(COMPARED):
            for j, right in enumerate(COMPARED):
                want = COMPARISONS[op](left, right)
                cell = got.get(i, j)
                assert (type(cell), cell) == (type(want), want), (left, right)


class TestHostileInputs:
    @pytest.mark.parametrize("formula", [
        "=1e999", "=-1e999", "=1e999%", "=1E400*0", '=LEFT("abc",1e999)',
        '=RIGHT("abc",1e999)', '=FIND("a","abc",1e999)', "=ROUND(1,1e999)",
    ])
    def test_non_finite_number_literal_is_num_error(self, formula):
        assert ev(formula) is NUM_ERR

    def test_non_finite_literal_is_an_ordinary_error_value(self):
        assert ev("=ISERROR(1e999)") is True
        assert ev("=1.7976931348623157e308") == 1.7976931348623157e308

    def test_concat_stops_at_the_text_limit(self):
        sheet = Sheet()
        sheet.set(parse_cell("A1"), "a" * (MAX_TEXT - 1))
        assert ev('=A1&"b"', sheet) == "a" * (MAX_TEXT - 1) + "b"
        assert ev('=A1&"bc"', sheet) is VALUE_ERR
        assert ev('=LEN(A1&"b"&"c")', sheet) is VALUE_ERR


def typed_value(value):
    """A value with its type (and an array with its shape), so 1.0 and
    TRUE, or a 1x1 array and its element, do not compare equal."""
    if isinstance(value, ArrayValue):
        return value.shape, [(type(v), v) for v in value.cells]
    return type(value), value


def unshared(text, sheet, seed=0):
    """The formula evaluated node by node, with no memo."""
    formula = parse_formula(text)
    ctx = EvalContext(sheet, array_entered=formula.array_entered,
                      rng=random.Random(seed))
    return evaluate(formula.expr, ctx)


class TestSharedSubtrees:
    """A formula's twins are evaluated once per evaluation."""

    @pytest.fixture
    def servers(self):
        s = Sheet()
        for i, text in enumerate(["ReisenII (EUW)", "Maximum Kawaii (EUNE)",
                                  "DahakaGG (EUW)"], start=2):
            s.set(parse_cell(f"C{i}"), text)
        return s

    @pytest.fixture
    def reads(self, monkeypatch):
        # a range is read densely, or by its stored cells (an aggregate)
        calls = []
        for method in ("get_range", "stored"):
            def counting(sheet, rng, original=getattr(Sheet, method)):
                calls.append(rng.a1)
                return original(sheet, rng)

            monkeypatch.setattr(Sheet, method, counting)
        return calls

    def test_a_repeated_range_is_read_once(self, servers, reads):
        result = ev('{=LEFT(C2:C4,FIND("(",C2:C4)-2)}', servers)
        assert reads == ["C2:C4"]
        assert result.cells == ("ReisenII", "Maximum Kawaii", "DahakaGG")

    def test_a_range_under_repeated_random_draws_is_read_once(self, sheet,
                                                              reads):
        # each RAND()+SUM(...) is evaluated, so SUM(B1:B3) is reached twice
        result = ev("=(RAND()+SUM(B1:B3))-(RAND()+SUM(B1:B3))", sheet)
        assert reads == ["B1:B3"] and -1.0 < result < 1.0 and result != 0

    def test_a_repeated_subtree_is_evaluated_once(self, servers, reads,
                                                  monkeypatch):
        finds = []
        descriptor = lookup("FIND")
        monkeypatch.setitem(REGISTRY, "FIND", replace(
            descriptor, impl=lambda *args: finds.append(args) or
            descriptor.impl(*args)))
        text = '{=IF(ISERROR(FIND("(",C2:C4)),0,FIND("(",C2:C4))}'
        assert ev(text, servers).cells == (10.0, 16.0, 10.0)
        assert reads == ["C2:C4"] and len(finds) == 3  # one per element

    def test_formulas_without_a_repeated_range_keep_no_memo(self):
        # nor with a repeated one-cell range, read as cheaply as a ref
        assert parse_formula("=LEN(A1)+LEN(A1)").interning is None
        assert parse_formula("=SUM(A1:A2)+SUM(A1:A3)").interning is None
        assert parse_formula("=SUM(A1:A1)+SUM(A1:A1)").interning is None
        assert parse_formula("=SUM(A1:A2)+SUM($A$1:A2)").interning

    def test_twins_stay_with_their_own_tree(self):
        # keyed by node ids, so no other tree may inherit them
        formula = parse_formula("=SUM(A1:A2)+SUM(A1:A2)")
        other = parse_formula("=1").expr
        assert replace(formula, expr=other).interning is None
        assert replace(formula, array_entered=True).interning is None
        with pytest.raises(TypeError):
            Formula(other, False, formula.interning)

    @pytest.mark.parametrize("text", [
        "=RAND()-RAND()", "{=RAND()-RAND()}",
        "=RAND()-RAND()+0*SUM(A1:A2)+0*SUM(A1:A2)",
        "{=(RAND()-RAND())+0*A1:A2+0*A1:A2}",
        "{=RAND()*2-RAND()*2+0*A1:A2+0*A1:A2}",
    ])
    def test_random_draws_are_never_shared(self, sheet, text):
        for seed in range(20):
            result = ev(text, sheet, rng=random.Random(seed))
            assert 0.0 not in (result.cells if isinstance(result, ArrayValue)
                               else (result,))

    def test_literals_keep_their_types(self, sheet):
        text = "{=LEN(1)&LEN(TRUE)&SUM(A1:A2)&SUM(A1:A2)}"
        assert parse_formula(text).interning
        assert ev(text, sheet) == "1433"

    def test_the_untaken_branch_stays_unevaluated(self, sheet, reads):
        text = "=IF(C1=\"y\",SUM(B1:B3)*SUM(B1:B3),-1)"
        assert parse_formula(text).interning
        assert ev(text, sheet) == -1.0
        assert reads == []
        assert ev("=IF(C1=\"x\",SUM(B1:B3)*SUM(B1:B3),-1)", sheet) == 3600.0
        assert reads == ["B1:B3"]

    def test_equal_to_evaluating_node_by_node(self):
        sheet = Sheet()
        for a1, value in [("A1", 2.0), ("A2", "ab c"), ("A3", True),
                          ("A5", -1.5), ("B2", "7"), ("B3", 0.0),
                          ("C4", "x"), ("ZZ9", 3.0)]:
            sheet.set(parse_cell(a1), value)
        templates = ["({s})&({s})", "IF(ISERROR({s}),{t},{s})",
                     "({s})+({t})*({s})", "IF({t},{s},({s})=({t}))",
                     "({t})&SUM({s},{t})&LEN({s})"]
        rng = random.Random(15)
        compared = 0
        for k in range(2500):
            s = draw_expression(rng, rng.randint(1, 6))
            t = draw_expression(rng, rng.randint(1, 4))
            body = rng.choice(templates).format(s=s, t=t)
            for text in (f"={body}", f"{{={body}}}"):
                if not parse_formula(text).interning:
                    continue
                got = ev(text, sheet, rng=random.Random(k))
                assert typed_value(got) == \
                    typed_value(unshared(text, sheet, seed=k)), text
                compared += 1
        assert compared >= 1000


def test_a_formula_without_twins_reads_no_callers_memo():
    # node ids are reused after collection, so a caller's memo may
    # hold a value keyed by the id of a node of this tree
    formula = parse_formula("=1+1")
    key = id(formula.expr)
    ctx = EvalContext(Sheet(), twins={key: key})
    ctx.node_values[key] = 99.0
    assert evaluate_formula(formula, ctx) == 2.0
