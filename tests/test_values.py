"""Scalar taxonomy: parsing, rendering, coercion and comparison."""

import pytest

from sprego.values import (
    ArrayValue,
    BLANK,
    OMITTED,
    CellError,
    ERROR_BY_LABEL,
    DIV0_ERR,
    NA_ERR,
    VALUE_ERR,
    coerce_to_number,
    coerce_to_text,
    compare,
    is_number,
    is_truthy,
    parse_number,
    render,
    render_number,
)


class TestParseNumber:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0.0),
        ("42", 42.0),
        ("-3.5", -3.5),
        ("+7", 7.0),
        (".5", 0.5),
        ("2.", 2.0),
        ("1e3", 1000.0),
        ("6.02E23", 6.02e23),
        ("  12  ", 12.0),
    ])
    def test_accepts(self, text, expected):
        assert parse_number(text) == expected

    @pytest.mark.parametrize("text", [
        "", " ", "abc", "1.1k", "12 Views", "1,000", "0x10",
        "1e", "--2", "1 2", "nan", "inf", "-inf", "1_000",
        "1e400",  # overflows a double, cells never hold inf
        # digits are ASCII only: an Arabic-Indic 3, a fullwidth 12
        "\u0663", "\uff11\uff12",
    ])
    def test_rejects(self, text):
        assert parse_number(text) is None


class TestRender:
    def test_integral_floats_drop_the_point(self):
        assert render_number(2.0) == "2"
        assert render_number(-14.0) == "-14"
        assert render_number(0.0) == "0"

    def test_fractions_keep_shortest_repr(self):
        assert render_number(0.5) == "0.5"
        assert render_number(1 / 3) == "0.3333333333333333"

    def test_huge_integral_values_stay_in_float_notation(self):
        assert render_number(1e16) == "1e+16"
        assert render_number(9999999999999998.0) == "9999999999999998"

    def test_round_trip_is_lossless(self):
        for value in (0.1, 2 / 3, 1e-12, 123456.789, 293 / 12):
            assert float(render_number(value)) == value

    def test_scalar_rendering(self):
        assert render(True) == "TRUE"
        assert render(False) == "FALSE"
        assert render("text") == "text"
        assert render(VALUE_ERR) == "#VALUE!"
        assert render(DIV0_ERR) == "#DIV/0!"
        assert render(BLANK) == ""
        assert render(OMITTED) == ""


class TestCoercion:
    def test_to_number(self):
        assert coerce_to_number(3.5) == 3.5
        assert coerce_to_number(True) == 1.0
        assert coerce_to_number(False) == 0.0
        assert coerce_to_number("7") == 7.0
        assert coerce_to_number(" 2.5 ") == 2.5
        assert coerce_to_number(BLANK) == 0.0
        assert coerce_to_number(OMITTED) == 0.0

    def test_to_number_failures(self):
        assert coerce_to_number("seven") is VALUE_ERR
        assert coerce_to_number("") is VALUE_ERR
        assert coerce_to_number(NA_ERR) is NA_ERR  # errors pass through

    def test_coerced_number_is_not_bool(self):
        result = coerce_to_number(True)
        assert is_number(result) and not isinstance(result, bool)

    def test_to_text(self):
        assert coerce_to_text(2.0) == "2"
        assert coerce_to_text(True) == "TRUE"
        assert coerce_to_text(BLANK) == ""
        assert coerce_to_text(DIV0_ERR) is DIV0_ERR

    def test_truthiness(self):
        assert is_truthy(True) is True
        assert is_truthy(0.0) is False
        assert is_truthy(-0.5) is True
        assert is_truthy(BLANK) is False
        assert is_truthy("yes") is VALUE_ERR  # text is not a condition
        assert is_truthy(NA_ERR) is NA_ERR


class TestCompare:
    def test_numbers(self):
        assert compare(1.0, 2.0, "<") is True
        assert compare(2.0, 2.0, "<=") is True
        assert compare(2.0, 2.0, "<>") is False

    def test_text_folds_case(self):
        assert compare("euw", "EUW", "=") is True
        assert compare("Alpha", "beta", "<") is True

    def test_booleans_order_false_before_true(self):
        assert compare(False, True, "<") is True
        assert compare(True, True, "=") is True

    def test_cross_type_rank(self):
        # numbers < text < booleans, regardless of magnitude
        assert compare(1e9, "a", "<") is True
        assert compare("zzz", False, "<") is True
        assert compare(True, 0.0, ">") is True

    def test_blank_adapts_to_other_side(self):
        assert compare(BLANK, 0.0, "=") is True
        assert compare(BLANK, "", "=") is True
        assert compare(BLANK, False, "=") is True
        assert compare(BLANK, "EUW", "=") is False

    def test_errors_win(self):
        assert compare(NA_ERR, 1.0, "=") is NA_ERR
        assert compare(1.0, DIV0_ERR, "<") is DIV0_ERR

    def test_unknown_operator_is_a_bug(self):
        with pytest.raises(ValueError):
            compare(1.0, 2.0, "!=")


class TestErrorValues:
    def test_interned_by_label(self):
        assert ERROR_BY_LABEL["#N/A"] is NA_ERR
        assert set(ERROR_BY_LABEL) == {
            "#VALUE!", "#DIV/0!", "#NUM!", "#N/A", "#REF!", "#NAME?"}

    def test_equality_and_hashing(self):
        assert CellError(VALUE_ERR.kind) == VALUE_ERR
        assert len({VALUE_ERR, CellError(VALUE_ERR.kind), DIV0_ERR}) == 2

    def test_str(self):
        assert str(NA_ERR) == "#N/A"


class TestArrayValue:
    def test_row_major_layout(self):
        arr = ArrayValue(2, 3, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        assert arr.get(0, 2) == 3.0
        assert arr.get(1, 0) == 4.0
        assert arr.shape == (2, 3)
        assert arr.first() == 1.0

    def test_from_rows_round_trip(self):
        rows = [[1.0, "x"], [True, BLANK]]
        arr = ArrayValue.from_rows(rows)
        assert arr.to_rows() == rows

    def test_column_constructor(self):
        arr = ArrayValue.column([1.0, 2.0, 3.0])
        assert arr.shape == (3, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ArrayValue(0, 1, ())
        with pytest.raises(ValueError):
            ArrayValue(2, 2, (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            ArrayValue.from_rows([[1.0, 2.0], [3.0]])

    def test_immutable_and_hashable(self):
        arr = ArrayValue(1, 1, (1.0,))
        assert hash(arr) == hash(ArrayValue(1, 1, (1.0,)))
        with pytest.raises(AttributeError):
            arr.rows = 2
