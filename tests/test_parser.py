"""Lexing, parsing, precedence and the unparse round trip."""

import pytest

from sprego.cli import main
from sprego.evaluator import EvalContext, evaluate_formula
from sprego.grid import CellAddress, Sheet, parse_a1
from sprego.parser import (
    MAX_DEPTH,
    MAX_FORMULA_CHARS,
    Binary,
    Call,
    Formula,
    FormulaError,
    Literal,
    RangeLit,
    Ref,
    Unary,
    formula_text,
    parse_expression,
    parse_formula,
    tokenize,
    unparse,
)
from sprego.script import PARSE_FAILED
from sprego.tracer import trace
from sprego.values import (
    DIV0_ERR,
    NA_ERR,
    NAME_ERR,
    NUM_ERR,
    OMITTED,
    REF_ERR,
    VALUE_ERR,
)


def kinds(text):
    return [t.kind for t in tokenize(text)]


class TestTokenize:
    def test_kinds_and_offsets(self):
        toks = tokenize('LEFT(C2,2)&"x"')
        assert [(t.kind, t.text) for t in toks] == [
            ("ident", "LEFT"), ("(", "("), ("ident", "C2"), (",", ","),
            ("number", "2"), (")", ")"), ("op", "&"), ("string", '"x"'),
            ("end", ""),
        ]
        assert [t.offset for t in toks] == [0, 4, 5, 7, 8, 9, 10, 11, 14]

    def test_two_char_operators_lex_whole(self):
        ops = [t.text for t in tokenize("a1<=b1<>c1>=d1") if t.kind == "op"]
        assert ops == ["<=", "<>", ">="]

    def test_whitespace_skipped(self):
        assert kinds(" 1 +\t2 ") == ["number", "op", "number", "end"]

    def test_string_with_doubled_quote(self):
        tok = tokenize('"say ""hi"""')[0]
        assert tok.text == '"say ""hi"""'

    def test_unterminated_string(self):
        with pytest.raises(FormulaError) as err:
            tokenize('1&"oops')
        assert err.value.offset == 2

    def test_number_forms(self):
        assert [t.kind for t in tokenize("1.5 .5 2. 1e-3")][:-1] == ["number"] * 4

    def test_unexpected_character(self):
        with pytest.raises(FormulaError):
            tokenize("1 ? 2")

    @pytest.mark.parametrize("text, offset, char", [
        ("=\u00b2", 1, "\u00b2"),   # str.isdigit accepts it, \d does not
        ("=.\u00b2", 1, "."),
        ("1+\u00b2", 2, "\u00b2"),
    ])
    def test_non_decimal_digit_is_unexpected(self, text, offset, char):
        with pytest.raises(FormulaError) as err:
            tokenize(text)
        assert err.value.offset == offset
        assert err.value.message == f"unexpected character {char!r}"

    @pytest.mark.parametrize("text, offset", [('"""', 0), ('1&"a""', 2)])
    def test_escaped_quote_never_closes_a_string(self, text, offset):
        with pytest.raises(FormulaError) as err:
            tokenize(text)
        assert err.value.offset == offset
        assert err.value.message == "unterminated string literal"

    @pytest.mark.parametrize("label, error", [
        ("#VALUE!", VALUE_ERR), ("#DIV/0!", DIV0_ERR), ("#NUM!", NUM_ERR),
        ("#N/A", NA_ERR), ("#REF!", REF_ERR), ("#NAME?", NAME_ERR),
    ])
    def test_error_label_is_one_token(self, label, error):
        assert [(t.kind, t.text) for t in tokenize(label)] == [
            ("error", label), ("end", "")]
        assert parse_expression(label).value is error

    @pytest.mark.parametrize("text", ["#", "#FOO", "#n/a"])
    def test_hash_outside_a_label_is_unexpected(self, text):
        with pytest.raises(FormulaError) as err:
            tokenize(text)
        assert err.value.offset == 0
        assert err.value.message == "unexpected character '#'"

    def test_cli_reports_lex_errors_and_reads_labels(self, capsys):
        assert main(["eval", "=\u00b2"]) == PARSE_FAILED
        assert main(["eval", "=ISERROR(#N/A)"]) == 0
        captured = capsys.readouterr()
        assert "unexpected character" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert captured.out == "TRUE\n"


class TestParseShapes:
    def test_literals(self):
        assert parse_expression("42") == Literal(42.0)
        assert parse_expression('"EUW"') == Literal("EUW")
        assert parse_expression("TRUE") == Literal(True)
        assert parse_expression("false") == Literal(False)

    def test_string_unescapes(self):
        assert parse_expression('"a""b"') == Literal('a"b')

    def test_cell_and_range(self):
        assert parse_expression("C2") == Ref(CellAddress(3, 2))
        node = parse_expression("C2:C15")
        assert isinstance(node, RangeLit)
        assert node.rng == parse_a1("C2:C15")

    def test_call_names_fold_upper(self):
        node = parse_expression("left(C2,2)")
        assert isinstance(node, Call) and node.name == "LEFT"

    def test_unknown_function_still_parses(self):
        # name resolution happens at evaluation time
        node = parse_expression("VLOOKUP(1)")
        assert isinstance(node, Call) and node.name == "VLOOKUP"

    def test_unknown_bare_name_fails(self):
        with pytest.raises(FormulaError):
            parse_expression("frobnicate")

    def test_out_of_grid_reference_fails_at_parse(self):
        with pytest.raises(FormulaError):
            parse_expression("XFE1")
        with pytest.raises(FormulaError):
            parse_expression("A1048577+1")

    def test_empty_argument_slots(self):
        node = parse_expression("IF(A1,,)")
        assert node == Call("IF", (Ref(CellAddress(1, 1)),
                                   Literal(OMITTED), Literal(OMITTED)))

    def test_no_argument_call(self):
        assert parse_expression("RAND()") == Call("RAND", ())

    def test_trailing_empty_slot(self):
        node = parse_expression("IF(A1,1,)")
        assert node.args[2] == Literal(OMITTED)


class TestPrecedence:
    def test_multiplication_binds_over_addition(self):
        assert parse_expression("1+2*3") == Binary(
            "+", Literal(1.0), Binary("*", Literal(2.0), Literal(3.0)))

    def test_left_association(self):
        assert unparse(parse_expression("10-4-3")) == "10-4-3"
        assert parse_expression("10-4-3") == Binary(
            "-", Binary("-", Literal(10.0), Literal(4.0)), Literal(3.0))

    def test_power_is_left_associative(self):
        assert parse_expression("2^3^2") == Binary(
            "^", Binary("^", Literal(2.0), Literal(3.0)), Literal(2.0))

    def test_unary_minus_binds_tighter_than_power(self):
        assert parse_expression("-2^2") == Binary(
            "^", Unary("-", Literal(2.0)), Literal(2.0))

    def test_percent_after_unary(self):
        assert parse_expression("-5%") == Unary("%", Unary("-", Literal(5.0)))

    def test_concat_between_compare_and_add(self):
        node = parse_expression('1&2=3&4')
        assert isinstance(node, Binary) and node.op == "="
        assert node.left == Binary("&", Literal(1.0), Literal(2.0))

    def test_comparison_is_loosest(self):
        node = parse_expression("A1+1>B1*2")
        assert node.op == ">"

    def test_parens_override(self):
        assert parse_expression("(1+2)*3") == Binary(
            "*", Binary("+", Literal(1.0), Literal(2.0)), Literal(3.0))

    def test_stacked_percent(self):
        assert parse_expression("200%%") == Unary("%", Unary("%", Literal(200.0)))


class TestFormulaEntry:
    def test_leading_equals_optional(self):
        assert parse_formula("=1+1") == parse_formula("1+1")

    def test_braces_set_array_flag(self):
        formula = parse_formula("{=FIND(\"(\",C2:C15)}")
        assert formula.array_entered
        assert parse_formula("=1").array_entered is False

    def test_braces_must_wrap_everything(self):
        with pytest.raises(FormulaError):
            parse_formula("{=1}+2")

    def test_empty_formula(self):
        with pytest.raises(FormulaError):
            parse_formula("=")
        with pytest.raises(FormulaError):
            parse_formula("   ")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaError):
            parse_formula("1+2 3")

    def test_unbalanced_parens(self):
        with pytest.raises(FormulaError):
            parse_formula("=LEFT(RIGHT(C2,2)")
        with pytest.raises(FormulaError):
            parse_formula("=1)")


ROUND_TRIP_CASES = [
    "1+2*3",
    "(1+2)*3",
    "10-4-3",
    "10-(4-3)",
    "2^3^2",
    "2^(3^2)",
    "-2^2",
    "(-2)%",
    "1&2=3&4",
    "(A1>1)*(B1<2)",
    'LEFT(C2,FIND("(",C2)-2)',
    "IF(A1,,)",
    "IF(A1,1,)",
    "SUM(IF(I2:I15>H1003,1))",
    '"he said ""hi"""&A1',
    "-(1+2)",
    "RAND()",
    "A1:B2",
    "TRUE<>FALSE",
    'LEFT("abc",1e999)',
    "ISERROR(#N/A)",
    "#DIV/0!+1",
]


class TestUnparse:
    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_structural_round_trip(self, text):
        tree = parse_expression(text)
        assert parse_expression(unparse(tree)) == tree

    def test_minimal_parens(self):
        assert unparse(parse_expression("(1+2)*3")) == "(1+2)*3"
        assert unparse(parse_expression("1+(2*3)")) == "1+2*3"
        assert unparse(parse_expression("((1))")) == "1"

    def test_right_operand_keeps_parens_at_equal_level(self):
        assert unparse(parse_expression("10-(4-3)")) == "10-(4-3)"
        assert unparse(parse_expression("2^(3^2)")) == "2^(3^2)"

    def test_omitted_arguments_render_empty(self):
        assert unparse(parse_expression("IF(A1,,5)")) == "IF(A1,,5)"

    def test_formula_text_restores_entry_markers(self):
        formula = parse_formula("{=SUM(A1:A3)}")
        assert formula_text(formula) == "{=SUM(A1:A3)}"
        assert formula_text(Formula(parse_expression("1"), False)) == "=1"

    def test_canonicalizes_case_and_space(self):
        assert unparse(parse_expression("sum( a1 , 2 )")) == "SUM(A1,2)"


NESTING_SHAPES = ("parens", "calls", "ifs", "signs", "chain")


def nested(shape, n):
    """A formula nested n levels deep in the given way, and its value."""
    return {
        "parens": ("=" + "(" * n + "1" + ")" * n, 1.0),
        "calls": ("=" + "LEN(" * n + "1" + ")" * n, 1.0),
        "ifs": ("=" + "IF(TRUE," * n + "1" + ")" * n, 1.0),
        "signs": ("=" + "-" * n + "1", (-1.0) ** n),
        "chain": ("=1" + "+1" * n, n + 1.0),
    }[shape]


class TestNestingLimit:
    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_deepest_formula_evaluates_unparses_and_traces(self, shape):
        text, value = nested(shape, MAX_DEPTH)
        formula = parse_formula(text)
        assert evaluate_formula(formula, EvalContext(Sheet())) == value
        assert parse_expression(unparse(formula.expr)) == formula.expr
        table = trace(formula, EvalContext(Sheet()))
        assert table.steps[-1].results.first() == value

    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_one_level_deeper_is_a_formula_error(self, shape):
        text, _ = nested(shape, MAX_DEPTH + 1)
        with pytest.raises(FormulaError, match="nested too deeply"):
            parse_formula(text)

    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_cli_exits_2_without_a_traceback(self, shape, capsys, tmp_path):
        text, _ = nested(shape, MAX_DEPTH + 1)
        script = tmp_path / "deep.sprego"
        script.write_text(f"STEP S1 A1 = {text}\n", encoding="utf-8")
        assert main(["eval", text]) == PARSE_FAILED
        assert main(["trace", text]) == PARSE_FAILED
        assert main(["run", str(script)]) == PARSE_FAILED
        captured = capsys.readouterr()
        assert captured.err.count("nested too deeply") == 2
        assert "nested too deeply" in captured.out
        assert "Traceback" not in captured.err + captured.out


class TestFormulaLength:
    """Formula text longer than MAX_FORMULA_CHARS is refused before it
    is lexed."""

    def test_text_of_exactly_the_limit_parses(self):
        text = '="' + "a" * (MAX_FORMULA_CHARS - 3) + '"'
        assert len(text) == MAX_FORMULA_CHARS == 8192
        assert parse_formula(text).expr == Literal("a" * 8189)

    def test_one_character_more_is_a_formula_error(self):
        text = '="' + "a" * (MAX_FORMULA_CHARS - 2) + '"'
        with pytest.raises(FormulaError) as caught:
            tokenize(text)
        assert caught.value.offset == 8192
        assert caught.value.message == "formula longer than 8192 characters"

    def test_cli_exits_2_without_a_traceback(self, capsys, tmp_path):
        text = '="' + 'a""' * 350_000 + '"'  # a 1 MB string literal
        script = tmp_path / "long.sprego"
        script.write_text(f"STEP S1 A1 = {text}\n", encoding="utf-8")
        assert main(["eval", text]) == PARSE_FAILED
        assert main(["run", str(script)]) == PARSE_FAILED
        captured = capsys.readouterr()
        assert "formula longer than 8192 characters" in captured.err
        assert "formula longer than 8192 characters" in captured.out
        assert "Traceback" not in captured.err + captured.out


class TestAsciiDigits:
    def test_other_scripts_digits_are_not_number_literals(self, capsys):
        assert main(["eval", "=\u0663+1"]) == PARSE_FAILED
        assert "unexpected character '\u0663'" in capsys.readouterr().err
