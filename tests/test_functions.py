"""The built-in function library, exercised through formula evaluation."""

import inspect
import random
import time

import pytest

from sprego import EvalContext, Sheet, evaluate_formula, parse_formula
from sprego.cli import main
from sprego.functions import REGISTRY, lookup
from sprego.grid import parse_cell
from sprego.values import (
    ArrayValue,
    BLANK,
    DIV0_ERR,
    MAX_TEXT,
    NA_ERR,
    NAME_ERR,
    NUM_ERR,
    REF_ERR,
    VALUE_ERR,
    CellError,
)


def ev(text, sheet=None, anchor="A1", seed=None):
    rng = random.Random(seed) if seed is not None else random.Random()
    ctx = EvalContext(sheet if sheet is not None else Sheet(),
                      anchor=parse_cell(anchor), rng=rng)
    return evaluate_formula(parse_formula(text), ctx)


@pytest.fixture
def sheet():
    """A small grid: numbers in A, mixed junk in B, text in C."""
    s = Sheet()
    for i, v in enumerate([10.0, 20.0, 30.0], start=1):
        s.set(parse_cell(f"A{i}"), v)
    s.set(parse_cell("B1"), "note")
    s.set(parse_cell("B2"), True)
    s.set(parse_cell("B3"), 2.0)
    s.set(parse_cell("C1"), "DahakaGG (EUW)")
    s.set(parse_cell("C2"), "680 Views")
    return s


class TestTextSlicing:
    def test_left_defaults_to_one_character(self):
        assert ev('=LEFT("abc")') == "a"
        assert ev('=RIGHT("abc")') == "c"

    def test_left_right_counts(self):
        assert ev('=LEFT("abcdef",3)') == "abc"
        assert ev('=RIGHT("abcdef",2)') == "ef"
        assert ev('=LEFT("abc",0)') == ""
        assert ev('=RIGHT("abc",0)') == ""
        assert ev('=LEFT("abc",10)') == "abc"

    def test_counts_truncate_toward_zero(self):
        assert ev('=LEFT("abcdef",2.9)') == "ab"

    def test_negative_count(self):
        assert ev('=LEFT("abc",-1)') is VALUE_ERR
        assert ev('=RIGHT("abc",-0.5)') == ""  # truncates to 0

    def test_numbers_coerce_to_their_rendering(self):
        assert ev("=LEFT(680,2)") == "68"
        assert ev("=LEN(1003)") == 4.0
        assert ev("=LEN(TRUE)") == 4.0

    def test_len(self):
        assert ev('=LEN("")') == 0.0
        assert ev('=LEN("EUW)")') == 4.0

    def test_blank_reads_as_empty_text(self, sheet):
        assert ev("=LEFT(Z99,2)", sheet) == ""
        assert ev("=LEN(Z99)", sheet) == 0.0


class TestFindSearch:
    def test_find_basic(self, sheet):
        assert ev('=FIND("(",C1)', sheet) == 10.0
        assert ev('=FIND("a","banana")') == 2.0

    def test_find_is_case_sensitive(self):
        assert ev('=FIND("K","Kawaii")') == 1.0
        assert ev('=FIND("k","Kawaii")') is VALUE_ERR

    def test_search_folds_case(self):
        assert ev('=SEARCH("k","Kawaii")') == 1.0
        assert ev('=SEARCH("WAI","kawaii")') == 3.0

    def test_start_position(self):
        assert ev('=FIND("a","banana",3)') == 4.0
        assert ev('=FIND("a","banana",5)') == 6.0

    def test_start_bounds(self):
        assert ev('=FIND("a","abc",0)') is VALUE_ERR
        assert ev('=FIND("a","abc",5)') is VALUE_ERR
        assert ev('=FIND("","abc",4)') == 4.0  # one past the end is legal

    def test_empty_needle_reports_start(self):
        assert ev('=FIND("","abc")') == 1.0
        assert ev('=FIND("","abc",2)') == 2.0

    def test_miss(self):
        assert ev('=FIND("x","abc")') is VALUE_ERR
        assert ev('=FIND("ab","xaxbx")') is VALUE_ERR

    def test_search_checks_start_against_the_unfolded_text(self):
        # "İ".lower() is two characters, but the text has one
        assert ev('=SEARCH("","\u0130",3)') is VALUE_ERR
        assert ev('=SEARCH("","\u0130",2)') == 2.0


class TestSubstitute:
    def test_replaces_all_by_default(self):
        assert ev('=SUBSTITUTE("banana","a","o")') == "bonono"

    def test_specific_instance(self):
        assert ev('=SUBSTITUTE("banana","a","o",2)') == "banona"

    def test_instance_beyond_count_changes_nothing(self):
        assert ev('=SUBSTITUTE("banana","a","o",4)') == "banana"

    def test_empty_old_changes_nothing(self):
        assert ev('=SUBSTITUTE("abc","","x")') == "abc"

    def test_instance_below_one(self):
        assert ev('=SUBSTITUTE("abc","a","x",0)') is VALUE_ERR

    def test_can_delete(self):
        assert ev('=SUBSTITUTE("EUW)",")","")') == "EUW"

    def test_result_longer_than_the_text_limit(self):
        sheet = Sheet()
        sheet.set(parse_cell("A1"), "a" * (MAX_TEXT - 2) + "bb")
        assert len(ev('=SUBSTITUTE(A1,"b","c")', sheet)) == MAX_TEXT
        assert ev('=SUBSTITUTE(A1,"bb","ccc")', sheet) is VALUE_ERR
        assert ev('=SUBSTITUTE(A1,"b","cc")', sheet) is VALUE_ERR
        assert ev('=SUBSTITUTE(A1,"b","cc",2)', sheet) is VALUE_ERR
        assert ev('=SUBSTITUTE(A1,"b","c",2)', sheet).endswith("bc")

    def test_doubling_forty_times_stops_at_the_limit(self):
        formula = '"a"'
        for _ in range(40):
            formula = f'SUBSTITUTE({formula},"a","aa")'
        start = time.perf_counter()
        assert ev("=" + formula) is VALUE_ERR
        assert time.perf_counter() - start < 1.0


class TestAggregates:
    def test_sum(self):
        assert ev("=SUM(1,2,3)") == 6.0

    def test_direct_arguments_coerce(self):
        # scalars given directly must be usable as numbers
        assert ev('=SUM("3",4)') == 7.0
        assert ev("=SUM(TRUE,1)") == 2.0
        assert ev('=SUM("three")') is VALUE_ERR

    def test_array_elements_skip_text_and_logicals(self, sheet):
        assert ev("=SUM(B1:B3)", sheet) == 2.0
        assert ev("=SUM(A1:A3,B1:B3)", sheet) == 62.0

    def test_blanks_are_skipped(self, sheet):
        assert ev("=SUM(A1:A5)", sheet) == 60.0
        assert ev("=AVERAGE(A1:A5)", sheet) == 20.0  # 3 values, not 5

    def test_error_elements_win(self, sheet):
        sheet.set(parse_cell("A2"), DIV0_ERR)
        assert ev("=SUM(A1:A3)", sheet) is DIV0_ERR

    def test_first_error_in_row_major_order_wins(self):
        # row-major order meets B1 first, column-major would meet A2
        s = Sheet()
        s.set(parse_cell("B1"), NA_ERR)
        s.set(parse_cell("A2"), DIV0_ERR)
        s.set(parse_cell("B2"), 2.0)
        s.set(parse_cell("C1"), NUM_ERR)
        for name in ("SUM", "AVERAGE", "MIN", "MAX", "AND", "OR"):
            assert ev(f"={name}(A1:B2)", s) is NA_ERR, name
            # across arguments, the earlier argument's error wins
            assert ev(f"={name}(A1:B2,C1:C2)", s) is NA_ERR, name
            assert ev(f"={name}(C1:C2,A1:B2)", s) is NUM_ERR, name
        for name in ("SMALL", "LARGE"):
            assert ev(f"={name}(A1:B2,1)", s) is NA_ERR, name

    def test_average(self, sheet):
        assert ev("=AVERAGE(A1:A3)", sheet) == 20.0
        assert ev("=AVERAGE(1,2,6)") == 3.0

    def test_average_of_nothing(self, sheet):
        assert ev("=AVERAGE(B1:B2)", sheet) is DIV0_ERR

    @pytest.mark.parametrize("formula", [
        "=SUM(1e308,1e308)", "=AVERAGE(1e308,1e308,3)",
        "=SUM(1e308,1e308,-1e308)",  # fsum's running sum overflows too
    ])
    def test_overflowing_sum_is_num_error(self, formula):
        assert ev(formula) is NUM_ERR

    def test_overflowing_sum_in_the_cli(self, capsys):
        assert main(["eval", "=SUM(1e308,1e308)"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "#NUM!\n"
        assert "Traceback" not in captured.err + captured.out

    def test_min_max(self, sheet):
        assert ev("=MIN(A1:A3)", sheet) == 10.0
        assert ev("=MAX(A1:A3)", sheet) == 30.0

    def test_min_max_of_nothing_is_zero(self, sheet):
        assert ev("=MAX(B1:B2)", sheet) == 0.0
        assert ev("=MIN(B1:B2)", sheet) == 0.0


class TestSmallLarge:
    def test_order_statistics(self, sheet):
        assert ev("=SMALL(A1:A3,1)", sheet) == 10.0
        assert ev("=SMALL(A1:A3,2)", sheet) == 20.0
        assert ev("=LARGE(A1:A3,1)", sheet) == 30.0

    def test_k_truncates(self, sheet):
        assert ev("=SMALL(A1:A3,2.7)", sheet) == 20.0

    def test_k_out_of_range(self, sheet):
        assert ev("=SMALL(A1:A3,0)", sheet) is NUM_ERR
        assert ev("=LARGE(A1:A3,4)", sheet) is NUM_ERR

    def test_k_error_propagates(self, sheet):
        assert ev("=SMALL(A1:A3,1/0)", sheet) is DIV0_ERR

    def test_duplicates_count_separately(self):
        s = Sheet()
        for i, v in enumerate([5.0, 5.0, 9.0], start=1):
            s.set(parse_cell(f"A{i}"), v)
        assert ev("=SMALL(A1:A3,2)", s) == 5.0
        assert ev("=LARGE(A1:A3,2)", s) == 5.0


class TestLogic:
    def test_and_or(self):
        assert ev("=AND(TRUE,1,5)") is True
        assert ev("=AND(TRUE,0)") is False
        assert ev("=OR(FALSE,0)") is False
        assert ev("=OR(0,2)") is True
        # the deciding condition ends the scan before a later error
        assert ev("=AND(FALSE,1/0)") is False
        assert ev("=OR(TRUE,1/0)") is True

    def test_text_and_blanks_are_ignored(self, sheet):
        assert ev("=AND(B1:B3)", sheet) is True  # "note" skipped, TRUE and 2 count
        assert ev("=OR(B1,FALSE)", sheet) is False

    def test_nothing_usable(self):
        assert ev('=AND("x")') is VALUE_ERR
        assert ev("=OR(Z99)") is VALUE_ERR

    def test_errors_propagate(self):
        assert ev("=AND(TRUE,1/0)") is DIV0_ERR
        assert ev("=OR(1/0,TRUE)") is DIV0_ERR

    def test_not(self):
        assert ev("=NOT(FALSE)") is True
        assert ev("=NOT(2)") is False
        assert ev('=NOT("x")') is VALUE_ERR

    def test_iserror(self):
        assert ev("=ISERROR(1/0)") is True
        assert ev("=ISERROR(42)") is False
        assert ev('=ISERROR("#VALUE!")') is False  # the text, not the error
        assert ev("=ISERROR(NOPE())") is True


class TestMatchIndex:
    def test_match_exact(self, sheet):
        assert ev("=MATCH(20,A1:A3,0)", sheet) == 2.0
        assert ev("=MATCH(99,A1:A3,0)", sheet) is NA_ERR

    def test_match_text_folds_case(self, sheet):
        sheet.set(parse_cell("D1"), "EUW")
        sheet.set(parse_cell("D2"), "EUNE")
        assert ev('=MATCH("eune",D1:D2,0)', sheet) == 2.0

    def test_match_default_mode_takes_last_not_greater(self, sheet):
        assert ev("=MATCH(25,A1:A3)", sheet) == 2.0
        assert ev("=MATCH(25,A1:A3,1)", sheet) == 2.0

    def test_match_descending_mode(self, sheet):
        s = Sheet()
        for i, v in enumerate([30.0, 20.0, 10.0], start=1):
            s.set(parse_cell(f"A{i}"), v)
        assert ev("=MATCH(25,A1:A3,-1)", s) == 1.0

    def test_match_skips_wrong_types_and_blanks(self, sheet):
        assert ev('=MATCH("note",B1:B3,0)', sheet) == 1.0
        assert ev("=MATCH(2,B1:B3,0)", sheet) == 3.0
        # a number, a boolean and numeric text are three types
        s = Sheet()
        for a1, value in (("A1", 1.0), ("A2", True), ("A3", "1"),
                          ("B1", True), ("B2", 1.0)):
            s.set(parse_cell(a1), value)
        assert ev("=MATCH(TRUE,A1:A3,0)", s) == 2.0
        assert ev("=MATCH(1,B1:B2,0)", s) == 2.0
        assert ev('=MATCH("1",A1:A3,0)', s) == 3.0
        assert ev("=MATCH(C9,A1:A3,0)", s) is NA_ERR
        assert ev("=MATCH(,A1:A3,0)", s) is NA_ERR
        assert ev("=MATCH(TRUE,A1:A3)", s) == 2.0
        assert ev("=MATCH(0,B1:B2)", s) is NA_ERR
        s.set(parse_cell("A1"), 5.0)
        s.set(parse_cell("A2"), "x")
        s.set(parse_cell("A3"), 1.0)
        assert ev("=MATCH(1,A1:A3,0)", s) == 3.0
        # a blank needle matches no blank element, in any mode
        s = Sheet()
        s.set(parse_cell("A2"), 1.0)
        for mode in (0, 1, -1):
            assert ev(f"=MATCH(A5,A1:A3,{mode})", s) is NA_ERR

    def test_match_needs_a_vector(self, sheet):
        assert ev("=MATCH(1,A1:B2,0)", sheet) is VALUE_ERR

    def test_index_cell(self, sheet):
        assert ev("=INDEX(A1:A3,2)", sheet) == 20.0
        assert ev("=INDEX(A1:B3,3,1)", sheet) == 30.0

    def test_index_zero_selects_whole_axis(self, sheet):
        row = ev("=INDEX(A1:B3,2,0)", sheet)
        assert isinstance(row, ArrayValue) and row.shape == (1, 2)
        col = ev("=INDEX(A1:B3,0,1)", sheet)
        assert col.shape == (3, 1) and col.get(2, 0) == 30.0
        assert ev("{=INDEX(A1:B2,0,0)}", sheet) == \
            ArrayValue(2, 2, (10.0, "note", 20.0, True))

    def test_index_bounds(self, sheet):
        assert ev("=INDEX(A1:A3,4)", sheet) is REF_ERR
        assert ev("=INDEX(A1:A3,-1)", sheet) is VALUE_ERR

    def test_index_of_an_empty_slot_is_blank(self):
        # an empty ARRAY slot reads as a blank cell, never as the
        # placeholder itself
        assert ev("=INDEX(,1)") is BLANK
        assert ev("=IF(TRUE,INDEX(,1))") is BLANK

    def test_match_index_compose(self, sheet):
        sheet.set(parse_cell("D1"), "EUW")
        sheet.set(parse_cell("D2"), "EUNE")
        assert ev('=INDEX(A1:A2,MATCH("EUNE",D1:D2,0))', sheet) == 20.0


class TestOffsetRowColumn:
    def test_offset_shifts(self, sheet):
        assert ev("=OFFSET(A1,1,0)", sheet) == 20.0
        assert ev("=OFFSET(A1,0,1)", sheet) == "note"

    def test_offset_keeps_base_shape(self, sheet):
        value = ev("{=OFFSET(A1:A2,1,0)}", sheet)
        assert isinstance(value, ArrayValue)
        assert value == ArrayValue.column([20.0, 30.0])

    def test_offset_resizes(self, sheet):
        value = ev("{=OFFSET(A1,0,0,3,1)}", sheet)
        assert value == ArrayValue.column([10.0, 20.0, 30.0])

    def test_offset_omitted_size_keeps_base(self, sheet):
        value = ev("{=OFFSET(A1:A2,1,0,,1)}", sheet)
        assert value.shape == (2, 1)

    def test_offset_off_grid(self, sheet):
        assert ev("=OFFSET(A1,-1,0)", sheet) is REF_ERR
        assert ev("=OFFSET(A1,0,-1)", sheet) is REF_ERR
        # a resized reference that runs past the last row or column
        assert ev("=SUM(OFFSET(A1,1048575,0,2,1))", sheet) is REF_ERR
        assert ev("=SUM(OFFSET(A1,0,16383,1,2))", sheet) is REF_ERR

    def test_offset_degenerate_size(self, sheet):
        assert ev("=OFFSET(A1,0,0,0,1)", sheet) is VALUE_ERR

    def test_row_column_of_own_cell(self, sheet):
        assert ev("=ROW()", sheet, anchor="C5") == 5.0
        assert ev("=COLUMN()", sheet, anchor="C5") == 3.0

    def test_row_column_of_reference(self, sheet):
        assert ev("=ROW(B7)", sheet) == 7.0
        assert ev("=COLUMN(D1)", sheet) == 4.0

    def test_row_over_range_needs_array_entry(self, sheet):
        assert ev("=ROW(A1:A3)", sheet) == 1.0
        vector = ev("{=ROW(A5:A7)}", sheet)
        assert vector == ArrayValue.column([5.0, 6.0, 7.0])
        assert ev("{=ROW(A1:C1)}", sheet) == 1.0  # one row: a number
        assert ev("{=ROW(A1:B3)}", sheet) == ArrayValue.column([1.0, 2.0, 3.0])

    def test_column_vector_is_horizontal(self, sheet):
        vector = ev("{=COLUMN(A1:C1)}", sheet)
        assert vector.shape == (1, 3)
        assert vector == ArrayValue(1, 3, (1.0, 2.0, 3.0))
        assert ev("{=COLUMN(A1:A3)}", sheet) == 1.0  # one column: a number
        assert ev("{=COLUMN(A1:C2)}", sheet) == vector

    def test_offset_wants_a_reference(self, sheet):
        # a computed array is not an addressable reference
        assert ev("=OFFSET(TRANSPOSE(A1:A3),0,0)", sheet) is VALUE_ERR


class TestTranspose:
    def test_flips_axes(self, sheet):
        value = ev("{=TRANSPOSE(A1:A3)}", sheet)
        assert value.shape == (1, 3)
        assert value == ArrayValue(1, 3, (10.0, 20.0, 30.0))

    def test_double_transpose_is_identity(self, sheet):
        from sprego.grid import as_range, parse_a1
        value = ev("{=TRANSPOSE(TRANSPOSE(A1:B3))}", sheet)
        assert value == sheet.get_range(as_range(parse_a1("A1:B3")))

    def test_scalar_passes_through(self):
        assert ev("=TRANSPOSE(5)") == 5.0


class TestNumeric:
    def test_round_half_away_from_zero(self):
        assert ev("=ROUND(2.5,0)") == 3.0
        assert ev("=ROUND(-2.5,0)") == -3.0
        assert ev("=ROUND(3.4,0)") == 3.0

    def test_round_uses_decimal_digits(self):
        # the stored double is just below 2.675; decimal rounding
        # still goes up
        assert ev("=ROUND(2.675,2)") == 2.68
        assert ev("=ROUND(1.005,2)") == 1.01

    def test_round_negative_digits(self):
        assert ev("=ROUND(123.456,-2)") == 100.0
        assert ev("=ROUND(163.456,-2)") == 200.0

    def test_round_extreme_digits(self):
        assert ev("=ROUND(1.5,400)") == 1.5
        assert ev("=ROUND(1.5,-400)") == 0.0

    def test_int_floors(self):
        assert ev("=INT(8.9)") == 8.0
        assert ev("=INT(-8.9)") == -9.0
        assert ev('=INT("3.5")') == 3.0

    def test_rand_is_seedable(self):
        a = ev("=RAND()", seed=7)
        b = ev("=RAND()", seed=7)
        assert a == b
        assert 0.0 <= a < 1.0

    def test_rand_varies_within_a_context(self):
        ctx = EvalContext(Sheet(), rng=random.Random(7))
        first = evaluate_formula(parse_formula("=RAND()"), ctx)
        second = evaluate_formula(parse_formula("=RAND()"), ctx)
        assert first != second


class TestCoercionErrorOrder:
    """Which error an element gets when several arguments are wrong.
    The sheet is A1 = 1, A2 = #N/A, A3 = "7", B1 = 5."""

    @pytest.fixture
    def mixed(self):
        s = Sheet()
        s.set(parse_cell("A1"), 1.0)
        s.set(parse_cell("A2"), NA_ERR)
        s.set(parse_cell("A3"), "7")
        s.set(parse_cell("B1"), 5.0)
        return s

    @pytest.mark.parametrize("formula, expected", [
        # the values argument's errors win over a bad k or mode
        ('=SMALL(1/0,"x")', DIV0_ERR),
        ('=SMALL(A1:A2,"x")', NA_ERR),
        ('=LARGE(A1:A2,"x")', NA_ERR),
        ('=MATCH(1,1/0,"x")', DIV0_ERR),
        # an empty old string returns the text before instance is read
        ('=SUBSTITUTE("abc","","x","zz")', "abc"),
        # empty height and width slots mean the reference's own size
        ("=OFFSET(B1,0,0,,)", 5.0),
        # an error in a later argument, with the earlier ones fine
        ("=MATCH(1,A1:A3,1/0)", DIV0_ERR),
        ('=SUBSTITUTE("aa","a","b",1/0)', DIV0_ERR),
        ("=OFFSET(A1,0,0,1/0)", DIV0_ERR),
        # a scalar stands for a one-element vector, or a 1x1 array
        ("=MATCH(1,1)", 1.0),
        ("=MATCH(5,5,0)", 1.0),
        ("=MATCH(5,,0)", NA_ERR),
        ("=INDEX(5,1,1)", 5.0),
        ('=INDEX("x",1)', "x"),
        # a bad k, mode, instance, height or width is its own #VALUE!
        ('=SMALL(B1,"x")', VALUE_ERR),
        ('=LARGE(B1,"x")', VALUE_ERR),
        ('=MATCH(1,A1:A3,"x")', VALUE_ERR),
        ('=SUBSTITUTE("abc","b","x","y")', VALUE_ERR),
        ('=OFFSET(B1,0,0,"x")', VALUE_ERR),
        ('=OFFSET(B1,0,0,1,"x")', VALUE_ERR),
    ])
    def test_scalar_result(self, mixed, formula, expected):
        result = ev(formula, mixed)
        assert type(result) is type(expected) and result == expected

    def test_text_function_over_a_column(self, mixed):
        result = ev('{=LEFT(A1:A3,"x")}', mixed)
        assert result.cells == (VALUE_ERR, NA_ERR, VALUE_ERR)


class TestCallPlumbing:
    def test_unknown_function_evaluates_to_name_error(self):
        assert ev("=NOPE(1,2)") is NAME_ERR

    def test_arity_errors(self):
        assert ev("=LEN()") is VALUE_ERR
        assert ev("=LEN(1,2)") is VALUE_ERR
        assert ev("=ROUND(1)") is VALUE_ERR
        assert ev("=OFFSET(A1,1)") is VALUE_ERR
        for formula in ("=ROUND(1,2,3)", "=IF(TRUE)", "=IF(TRUE,1,2,3)",
                        "=NOT()", "=RAND(1)"):
            assert ev(formula) is VALUE_ERR, formula

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_kernel_takes_every_allowed_argument_count(self, name):
        # impl(ctx, *args): an arity the registry allows must bind, or
        # the call would end in a Python TypeError
        descriptor = REGISTRY[name]
        signature = inspect.signature(descriptor.impl)
        ctx = EvalContext(Sheet())
        most = descriptor.max_args
        top = most if most is not None else descriptor.min_args + 3
        for count in range(descriptor.min_args, top + 1):
            signature.bind(ctx, *[0.0] * count)
        if most is not None:
            with pytest.raises(TypeError):
                signature.bind(ctx, *[0.0] * (most + 1))

    @pytest.mark.parametrize("formula, expected", [
        ('=LEFT("abc",)', ""),
        ('=RIGHT("abc",)', ""),
        ('=FIND("b","abc",)', VALUE_ERR),
        ('=SUBSTITUTE("aba","a","x",)', VALUE_ERR),
        ("=ROUND(2.5,)", 3.0),
    ])
    def test_empty_slot_is_omitted_not_the_default(self, formula, expected):
        result = ev(formula)
        assert type(result) is type(expected) and result == expected

    @pytest.mark.parametrize("count", [33, 1000])
    def test_long_argument_lists_evaluate_repeatedly(self, count):
        ctx = EvalContext(Sheet())
        total = parse_formula("=SUM(" + ",".join(["1"] * count) + ")")
        every = parse_formula("=AND(" + ",".join(["TRUE"] * count) + ")")
        some = parse_formula("=AND(" + ",".join(["TRUE"] * count) + ",0)")
        for _ in range(3):
            assert evaluate_formula(total, ctx) == float(count)
            assert evaluate_formula(every, ctx) is True
            assert evaluate_formula(some, ctx) is False

    def test_unlimited_functions_repeat_an_array_mode(self):
        # the repeating last mode is never lifted, so a call longer
        # than a descriptor's modes lifts nothing more
        for descriptor in REGISTRY.values():
            if descriptor.max_args is None:
                last = len(descriptor.modes) - 1
                assert last not in descriptor.plans[-1], descriptor.name
                assert descriptor.mode(last + 5) is descriptor.modes[last]

    def test_ref_argument_must_be_a_reference(self):
        assert ev("=ROW(1+1)") is VALUE_ERR
        assert ev('=ROW("A1")') is VALUE_ERR
        # a plan built for one argument count does not serve another
        assert ev("=ROW()", anchor="B7") == 7.0
        assert ev("=ROW(B2)") == 2.0

    def test_lookup_is_case_insensitive(self):
        assert lookup("sum") is REGISTRY["SUM"]
        assert lookup("missing") is None

    def test_registry_inventory(self):
        assert set(REGISTRY) == {
            "SUM", "AVERAGE", "MIN", "MAX", "SMALL", "LARGE",
            "LEFT", "RIGHT", "LEN", "FIND", "SEARCH", "SUBSTITUTE",
            "IF", "MATCH", "INDEX", "ISERROR", "AND", "OR", "NOT",
            "ROW", "COLUMN", "OFFSET", "TRANSPOSE", "ROUND", "INT",
            "RAND",
        }
