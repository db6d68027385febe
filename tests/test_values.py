"""Scalar taxonomy: parsing, rendering, coercion and comparison."""

import ast
import math
import random
import struct
import sys
from pathlib import Path

import pytest

import sprego
from sprego.parser import parse_formula
from sprego.script import parse_scalar_field
from test_grid import _CORES, _PADS, _model_number
from sprego.values import (
    ArrayValue,
    BLANK,
    OMITTED,
    ERROR_BY_LABEL,
    DIV0_ERR,
    NA_ERR,
    VALUE_ERR,
    as_array,
    coerce_to_number,
    COMPARISONS,
    coerce_to_text,
    is_truthy,
    parse_number,
    render,
    render_column,
    render_number,
    unwrap,
)

SRC = Path(sprego.__file__).parent


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


# what numeric text is built from: its alphabet, letters float() also
# reads, ASCII and Unicode whitespace, and digits of other scripts
_SPACES = " \t\n\r\x0b\x0c\xa0\u2028\u3000\x1c\x1d\x1e\x1f"
_PIECES = list("0123456789" * 3 + "+-.eE" * 2 + "_infa \xa0\x1f") + [
    "\u0663", "\uff11"]


def _seeded_texts(count):
    rng = random.Random("numeric-text")
    for _ in range(count):
        pads = ["".join(rng.choices(_SPACES, k=rng.choice([0, 0, 1, 2])))
                for _ in range(2)]
        core = "".join(rng.choices(_PIECES, k=rng.randint(0, 8)))
        yield pads[0] + core + pads[1]


class TestParseNumberAgainstTheGrammar:
    """parse_number agrees with a regex reference written from
    NUMBER_PATTERN, by type and repr."""

    @staticmethod
    def check(texts):
        numbers = 0
        for text in texts:
            got, want = parse_number(text), _model_number(text)
            assert (type(got), repr(got)) == (type(want), repr(want)), text
            numbers += want is not None
        return numbers

    def test_each_core_inside_each_pad(self):
        assert self.check(pad + core + pad
                          for core in _CORES for pad in _PADS) > 100

    def test_seeded_strings(self):
        assert self.check(_seeded_texts(12000)) > 1000


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


def _reference_render_number(value):
    """render_number as first written, the reference for the cheaper one."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _edge_doubles():
    tiny, huge = sys.float_info.min, sys.float_info.max
    edges = [0.0, -0.0, 0.1 + 0.2, 0.5, -0.5, 1.0, -1.0, 5e-324, -5e-324,
             tiny, -tiny, tiny / 2, huge, -huge, 2.0 ** 53, 2.0 ** 53 + 2,
             9999999999999998.0, 123456.789]
    for limit in (1e16, -1e16, 1e15, -1e15):
        edges += [limit, math.nextafter(limit, 0.0),
                  math.nextafter(limit, math.copysign(math.inf, limit))]
    return edges


def _random_doubles(n):
    """Seeded finite doubles from random bit patterns (every exponent),
    from a uniform draw, and integral values near the cut at 1e16."""
    rng = random.Random(21)
    values = []
    while len(values) < n:
        bits = rng.getrandbits(64).to_bytes(8, "little")
        value = struct.unpack("<d", bits)[0]
        if math.isfinite(value):
            values.append(value)
        values.append(rng.uniform(-1e6, 1e6))
        values.append(float(rng.randrange(-2 * 10**16, 2 * 10**16)))
    return values


class TestRenderNumberAgainstItsFirstDefinition:
    @pytest.mark.parametrize("value", _edge_doubles(), ids=repr)
    def test_edge_values(self, value):
        assert render_number(value) == _reference_render_number(value)

    def test_seeded_doubles(self):
        for value in _random_doubles(30000):
            assert render_number(value) == _reference_render_number(value)


class TestRenderColumn:
    def test_booleans_and_numbers_that_hash_alike_render_apart(self):
        column = [True, 1.0, False, 0.0, -0.0, 1.0, True, 0.0, False,
                  BLANK, OMITTED, *ERROR_BY_LABEL.values(), "", "a", "1"]
        assert render_column(column) == list(map(render, column))
        assert render_column(column)[:5] == ["TRUE", "1", "FALSE", "0", "0"]

    def test_seeded_mixed_columns(self):
        pool = [True, False, 0.0, -0.0, 1.0, 2.5, 1e16, 0.1 + 0.2, -7.0,
                BLANK, OMITTED, *ERROR_BY_LABEL.values(), "", "x", "TRUE",
                "1", "é"]
        rng = random.Random(9)
        for _ in range(300):
            column = rng.choices(pool, k=rng.randrange(40))
            assert render_column(column) == list(map(render, column))
        # computed floats are equal values held by distinct objects
        column = [float(n % 3) for n in range(100)] + [True, False]
        assert render_column(column) == list(map(render, column))


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
        assert isinstance(result, float) and not isinstance(result, bool)

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
        assert COMPARISONS["<"](1.0, 2.0) is True
        assert COMPARISONS["<="](2.0, 2.0) is True
        assert COMPARISONS["<>"](2.0, 2.0) is False

    def test_text_folds_case(self):
        assert COMPARISONS["="]("euw", "EUW") is True
        assert COMPARISONS["<"]("Alpha", "beta") is True

    def test_booleans_order_false_before_true(self):
        assert COMPARISONS["<"](False, True) is True
        assert COMPARISONS["="](True, True) is True

    def test_cross_type_rank(self):
        # numbers < text < booleans, regardless of magnitude
        assert COMPARISONS["<"](1e9, "a") is True
        assert COMPARISONS["<"]("zzz", False) is True
        assert COMPARISONS[">"](True, 0.0) is True

    def test_blank_adapts_to_other_side(self):
        assert COMPARISONS["="](BLANK, 0.0) is True
        assert COMPARISONS["="](BLANK, "") is True
        assert COMPARISONS["="](BLANK, False) is True
        assert COMPARISONS["="](BLANK, "EUW") is False

    def test_errors_win(self):
        assert COMPARISONS["="](NA_ERR, 1.0) is NA_ERR
        assert COMPARISONS["<"](1.0, DIV0_ERR) is DIV0_ERR


class TestErrorValues:
    def test_interned_by_label(self):
        assert ERROR_BY_LABEL["#N/A"] is NA_ERR
        assert set(ERROR_BY_LABEL) == {
            "#VALUE!", "#DIV/0!", "#NUM!", "#N/A", "#REF!", "#NAME?"}

    def test_equality_and_hashing(self):
        assert VALUE_ERR == ERROR_BY_LABEL["#VALUE!"] and VALUE_ERR != DIV0_ERR
        assert len({VALUE_ERR, ERROR_BY_LABEL["#VALUE!"], DIV0_ERR}) == 2

    def test_str(self):
        assert str(NA_ERR) == "#N/A"

    @pytest.mark.parametrize("label", sorted(ERROR_BY_LABEL))
    def test_every_way_in_gives_the_interned_error(self, label):
        error = ERROR_BY_LABEL[label]
        assert parse_formula("=" + label).expr.value is error
        assert parse_scalar_field(label, False) is error
        assert render(error) == str(error) == error.label == label

    def test_only_the_label_table_makes_errors(self):
        # errors compare by identity, which holds while ERROR_BY_LABEL
        # makes every instance
        calls = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and "CellError" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    calls.append((path.name, node.lineno))
        lines = (SRC / "values.py").read_text(encoding="utf-8").splitlines()
        table = 1 + next(i for i, line in enumerate(lines)
                         if line.startswith("ERROR_BY_LABEL = "))
        assert calls == [("values.py", table)]


class TestArrayValue:
    def test_row_major_layout(self):
        arr = ArrayValue(2, 3, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        assert arr.get(0, 2) == 3.0
        assert arr.get(1, 0) == 4.0
        assert arr.shape == (2, 3)
        assert arr.first() == 1.0

    def test_rows_read_back_row_major(self):
        rows = [[1.0, "x", BLANK], [True, 2.0, "y"]]
        arr = ArrayValue(2, 3, (1.0, "x", BLANK, True, 2.0, "y"))
        assert arr.shape == (2, 3)
        assert [[arr.get(r, c) for c in range(3)] for r in range(2)] == rows

    def test_column_constructor(self):
        arr = ArrayValue.column([1.0, 2.0, 3.0])
        assert arr.shape == (3, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ArrayValue(0, 1, ())
        with pytest.raises(ValueError):
            ArrayValue(2, 2, (1.0, 2.0, 3.0))

    def test_immutable_and_hashable(self):
        arr = ArrayValue(1, 1, (1.0,))
        assert hash(arr) == hash(ArrayValue(1, 1, (1.0,)))
        with pytest.raises(AttributeError):
            arr.rows = 2

    @pytest.mark.parametrize("value", [
        1.5, "x", True, BLANK, OMITTED, *ERROR_BY_LABEL.values()])
    def test_unwrap_undoes_as_array(self, value):
        # OMITTED stays itself: only INDEX reads an empty slot as BLANK
        assert as_array(value).shape == (1, 1)
        assert unwrap(as_array(value)) is value

    def test_as_array_keeps_an_array(self):
        for array in (ArrayValue(1, 1, (1.0,)),
                      ArrayValue(2, 1, ("a", BLANK))):
            assert as_array(array) is array

    def test_kinds_are_the_element_types_found_once(self):
        cells = (1.0, "x", BLANK, True, NA_ERR, 2.0)
        arr = ArrayValue(2, 3, cells)
        assert arr.kinds == frozenset(map(type, cells))
        assert arr.kinds is arr.kinds
        # the cached kinds take no part in equality or hashing
        fresh = ArrayValue(2, 3, cells)
        assert arr == fresh and hash(arr) == hash(fresh)
        assert fresh == arr
