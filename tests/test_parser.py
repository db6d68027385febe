"""Lexing, parsing, precedence and the unparse round trip."""

import importlib.util
import random
import re
from pathlib import Path

import pytest

from sprego.cli import main
from sprego.evaluator import EvalContext, evaluate_formula
from sprego.grid import CellAddress, Sheet, parse_a1
from sprego.parser import (
    _KIND,
    _TOKEN_RULES,
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

    def test_tokens_have_kind_text_offset_and_end(self):
        toks = tokenize("=SUM(A1:B2, -3%)")
        assert [(t.kind, t.text, t.offset) for t in toks] == [
            ("op", "=", 0), ("ident", "SUM", 1), ("(", "(", 4),
            ("ident", "A1", 5), (":", ":", 7), ("ident", "B2", 8),
            (",", ",", 10), ("op", "-", 12), ("number", "3", 13),
            ("op", "%", 14), (")", ")", 15), ("end", "", 16),
        ]
        assert isinstance(toks, list)
        assert [(t.kind, t.text, t.offset) for t in tokenize("")] == [
            ("end", "", 0)]

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

    def test_unparenthesised_chains_evaluate_as_python_does(self):
        """Seeded chains of + - * / over small integers, with no
        parentheses at all, take Python's precedence and left
        association; a division by zero anywhere makes #DIV/0!."""
        rng = random.Random(7)
        ctx = EvalContext(Sheet())
        for _ in range(400):
            digits = [str(rng.randint(0, 9)) for _ in range(rng.randint(2, 8))]
            ops = [rng.choice("+-*/") for _ in digits[1:]]
            text = digits[0] + "".join(map("".join, zip(ops, digits[1:])))
            # float literals, so Python does the same double arithmetic
            floats = digits[0] + ".0" + "".join(
                op + digit + ".0" for op, digit in zip(ops, digits[1:]))
            try:
                expected = eval(floats, {"__builtins__": {}})
            except ZeroDivisionError:
                expected = DIV0_ERR
            got = evaluate_formula(parse_formula("=" + text), ctx)
            assert (text, got) == (text, expected)


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


#: Malformed formulas and the (offset, message) of their FormulaError.
MALFORMED = [
    ("=LEFT(RIGHT(C2,2)", 17, "expected ')'"),
    ("=(1+2", 5, "expected ')'"),
    ("=SUM(1 2)", 7, "expected ')'"),
    ("=SUM(1,,2", 9, "expected ')'"),
    ("=LEN(", 5, "expected a value"),
    ("=1+", 3, "expected a value"),
    ("=2^", 3, "expected a value"),
    ("=1+*2", 3, "expected a value"),
    ("=1&&2", 3, "expected a value"),
    ("=LEFT(C2,", 9, "expected a value"),
    ("=A1:", 4, "expected 'ident'"),
    ("=A1:1", 4, "expected 'ident'"),
    ("=A1:(B2)", 4, "expected 'ident'"),
    ("=A1:B", 4, "not a cell address: 'B'"),
    ("=XFE1:A1", 1, "cell address out of range: 'XFE1'"),
    ("=A1:A1048577", 4, "cell address out of range: 'A1048577'"),
    ("=XFE1:(", 1, "cell address out of range: 'XFE1'"),
    ("=ZZZZ1", 1, "not a cell address: 'ZZZZ1'"),
    ("=foo", 1, "not a cell address: 'foo'"),
    ("={1}+1", 1, "expected a value"),
    ("{=1}+2", 0, "array braces must wrap the whole formula"),
    ("{=1", 0, "array braces must wrap the whole formula"),
    ("=()", 2, "expected a value"),
    ("=(,)", 2, "expected a value"),
    ("=,", 1, "expected a value"),
    ("=)", 1, "expected a value"),
    ("=1 2", 3, "unexpected trailing input"),
    ("=1)", 2, "unexpected trailing input"),
    ("=TRUE:A1", 5, "unexpected trailing input"),
    ("=A1:B2:C3", 6, "unexpected trailing input"),
    ("=1e5e5", 4, "unexpected trailing input"),
    ("%", 0, "expected a value"),
    ("=%", 1, "expected a value"),
    ("=1+%", 3, "expected a value"),
    ("=-", 2, "expected a value"),
    ("=+-", 3, "expected a value"),
    ("=-%", 2, "expected a value"),
    ("=-(", 3, "expected a value"),
    ("", 0, "empty formula"),
    ("=", 1, "empty formula"),
    ("   ", 3, "empty formula"),
    ("{=}", 3, "empty formula"),
    ('=1&"oops', 3, "unterminated string literal"),
    ("=1 ? 2", 3, "unexpected character '?'"),
    ("=" + "-" * 129 + "1", 130, "formula nested too deeply"),
    ("=1" + "%" * 129, 131, "formula nested too deeply"),
    ("=" + "-" * 64 + "1" + "%" * 65, 131, "formula nested too deeply"),
    ("=1" + "+1" * 129, 260, "formula nested too deeply"),
    ("=" + "LEN(" * 129 + "1" + ")" * 129, 517, "formula nested too deeply"),
]


class TestErrorSurface:
    @pytest.mark.parametrize("text, offset, message", MALFORMED)
    def test_offset_and_message(self, text, offset, message):
        # the second parse finds every address memo warm
        for _ in range(2):
            with pytest.raises(FormulaError) as caught:
                parse_formula(text)
            assert (caught.value.offset,
                    caught.value.message) == (offset, message)


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


#: The tokenizer the two-call lexer replaced: one finditer over every
#: rule, a named group per kind, one Python step per token.  Kept as
#: the oracle for tokenize() and for parse_formula's lexical errors.
_REFERENCE_RE = re.compile("|".join(f"(?P<{kind}>{pattern})"
                                    for kind, pattern in _TOKEN_RULES), re.S)


def reference_tokenize(text):
    if len(text) > MAX_FORMULA_CHARS:
        raise FormulaError(MAX_FORMULA_CHARS, f"formula longer than "
                           f"{MAX_FORMULA_CHARS} characters")
    tokens = []
    for m in _REFERENCE_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "space":
            continue
        if kind == "mismatch":
            if lexeme == '"':
                raise FormulaError(m.start(), "unterminated string literal")
            raise FormulaError(m.start(), f"unexpected character {lexeme!r}")
        tokens.append((lexeme if kind == "punct" else kind, lexeme,
                       m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def outcome(fn, text):
    try:
        return fn(text)
    except FormulaError as exc:
        return (exc.offset, exc.message)


def _load_difftest():
    path = Path(__file__).resolve().parent.parent / "tools" / "difftest.py"
    spec = importlib.util.spec_from_file_location("difftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mutated_corpus(seed, count):
    """Mutants of this file's formulas, each changed one to three times
    by tools/difftest.py's mutator."""
    rng = random.Random(seed)
    mutate = _load_difftest().Generator(rng).mutate
    sources = ROUND_TRIP_CASES + [text for text, _, _ in MALFORMED] + [
        ' = SUM( A1:B2 , -3% ) ', '{=LEFT(C2:C15,FIND("(",C2:C15)-2)}',
        '="a""b"&#N/A&$A$1&.5e3', "=1" + " " * 40]
    corpus = []
    for _ in range(count):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            text = mutate(text)
        corpus.append(text)
    return corpus


class TestLexerAgainstReference:
    CORPUS = mutated_corpus(seed=24, count=3000)

    def test_tokens_and_lexical_errors_match(self):
        for text in self.CORPUS:
            got = outcome(tokenize, text)
            if isinstance(got, list):
                got = [tuple(token) for token in got]
            assert got == outcome(reference_tokenize, text), text

    def test_parse_errors_match_and_sit_at_a_token(self):
        lexical = 0
        for text in self.CORPUS:
            expected = outcome(reference_tokenize, text)
            got = outcome(parse_formula, text)
            if isinstance(expected, tuple):
                lexical += 1
                assert got == expected, text
            elif isinstance(got, tuple):
                assert got[0] in {offset for _, _, offset in expected}, text
        assert 300 < lexical < 2700  # both paths are exercised

    def test_kind_table_matches_the_rules(self):
        # a token starting with each ASCII character is of the kind
        # _KIND gives that character, or of none when it has no entry
        for code in range(128):
            char = chr(code)
            kinds = set()
            for tail in ("", "1", '"', "A", "N/A", "VALUE!"):
                m = _REFERENCE_RE.match(char + tail)
                if m.lastgroup not in ("space", "mismatch"):
                    kinds.add(m.group() if m.lastgroup == "punct"
                              else m.lastgroup)
            assert kinds == ({_KIND[char]} if char in _KIND else set()), char
        assert _KIND[""] == "end"
