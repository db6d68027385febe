"""Formula text to expression trees and back.

The grammar is the conventional spreadsheet one.  Binding from loosest
to tightest: comparisons, text join (&), addition, multiplication,
exponentiation (left-associative), the percent postfix, then unary
sign, so -2^3 is (-2)^3 and -5% is (-5)%.  A leading = is accepted and
braces around the whole formula mark array entry.

Lexing is one pattern table, _TOKEN_RULES, read as one regular
expression with a named group per token kind.  An error label such as
#N/A is an "error" token, a literal like a number; a character that no
rule takes is an error, and a ( ) , : { } token's kind is its text.

The parser climbs precedence: one loop reads each binary operator's
level from _BINARY_LEVEL, the table unparse() reads too, and recurses
only into a right operand, a parenthesis or an argument list.

Nesting is bounded by MAX_DEPTH, counted as open parentheses and
argument lists and as the depth of the tree (the nodes above its
deepest leaf); past it the parse fails with "formula nested too
deeply".  The evaluator, unparse() and the tracer recurse over the
tree, and the bound keeps every formula the parser accepts within
Python's default limit of 1000 frames.  The costliest levels take 5
frames in this parser (nested calls), 4 in the evaluator (nested IF)
and 3 in unparse(), so 128 levels take at most 640 frames and leave
about 350 for the callers.

Expression nodes are frozen dataclasses, so structurally equal
subtrees compare equal.  The tracer does not hash them to find
repeated subexpressions: it interns a key per subtree bottom-up, and
reads each step's value by node identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .grid import CellAddress, GridError, RangeRef, parse_cell
from .values import (BOOLEAN_BY_LABEL, ERROR_BY_LABEL, NUMBER_PATTERN,
                     OMITTED, CellError, _Sentinel, _finite, render)


class FormulaError(Exception):
    """A lexical or syntax problem, with the 0-based source offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.message = message


@dataclass(frozen=True)
class Token:
    kind: str  # number, string, error, ident, op, end, or one of ( ) , : { }
    text: str
    offset: int


#: The lexical rules in the order they are tried (see the module docstring).
_TOKEN_RULES = (
    ("space", r"[ \t\r\n]+"),
    ("op", r"<=|>=|<>|[=<>&+\-*/^%]"),
    ("punct", r"[(),:{}]"),
    # "" is an escaped quote; (?!") stops a match that would end inside
    # one, so the string is unterminated instead.  The body repeats runs,
    # not single characters, so the match keeps no state per character.
    ("string", r'"[^"]*(?:""[^"]*)*"(?!")'),
    ("number", NUMBER_PATTERN),
    ("error", "|".join(map(re.escape, ERROR_BY_LABEL))),
    ("ident", r"\$?[A-Za-z_][A-Za-z0-9_.$]*"),
    ("mismatch", r"."),
)
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})"
                                for kind, pattern in _TOKEN_RULES), re.S)


def tokenize(text: str) -> list[Token]:
    """Lex a formula into tokens, ending with a synthetic "end" token."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        lexeme = m.group()
        if kind == "mismatch":
            if lexeme == '"':
                raise FormulaError(m.start(), "unterminated string literal")
            raise FormulaError(m.start(), f"unexpected character {lexeme!r}")
        tokens.append(Token(lexeme if kind == "punct" else kind, lexeme,
                            m.start()))
    tokens.append(Token("end", "", len(text)))
    return tokens


@dataclass(frozen=True)
class Literal:
    value: Union[float, str, bool, CellError, _Sentinel]


@dataclass(frozen=True)
class Ref:
    addr: CellAddress


@dataclass(frozen=True)
class RangeLit:
    rng: RangeRef


@dataclass(frozen=True)
class Unary:
    op: str  # "-", "+" or the "%" postfix
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str  # stored uppercase
    args: tuple["Expr", ...]


Expr = Union[Literal, Ref, RangeLit, Unary, Binary, Call]


@dataclass(frozen=True)
class Formula:
    """A parsed formula plus its entry mode."""

    expr: Expr
    array_entered: bool


#: Binding strength of each binary operator, loosest first.  The parser
#: and unparse() both read it; every binary operator associates left.
_BINARY_LEVEL = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}
_LEVEL_POSTFIX = 6
_LEVEL_UNARY = 7
_LEVEL_ATOM = 8

#: Deepest nesting accepted; the module docstring says why 128.
MAX_DEPTH = 128


class _Parser:
    """Precedence climbing over the token list.

    The parse methods take `depth`, the number of nodes known to sit
    above the node they build, and return that node with `deepest`,
    the number of nodes above its deepest leaf.  A binary operator or
    % found after an operand was parsed pushes the operand one level
    down, so `deepest` can grow on the way back up as well as on the
    way down; both are checked against MAX_DEPTH.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # parentheses and argument lists now open

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaError(tok.offset, f"expected {kind!r}")
        return self.advance()

    def bounded(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise FormulaError(self.peek().offset, "formula nested too deeply")
        return depth

    def open(self) -> None:
        self.expect("(")
        self.nesting = self.bounded(self.nesting + 1)

    def close(self) -> None:
        self.expect(")")
        self.nesting -= 1

    def expression(self, depth: int, min_level: int = 1) -> tuple[Expr, int]:
        """Operands joined by binary operators of min_level or tighter."""
        node, deepest = self.operand(depth)
        while True:
            tok = self.peek()
            level = _BINARY_LEVEL.get(tok.text) if tok.kind == "op" else None
            if level is None or level < min_level:
                return node, deepest
            self.advance()
            # only tighter operators reach into the right operand, so an
            # equal-level operator after it associates left
            right, right_deepest = self.expression(self.bounded(depth + 1),
                                                   level + 1)
            node = Binary(tok.text, node, right)
            deepest = self.bounded(max(deepest + 1, right_deepest))

    def operand(self, depth: int) -> tuple[Expr, int]:
        """Prefix signs, an atom, then % postfixes.

        Signs bind tightest and % next, so -2^3 is (-2)^3 and -5% is
        (-5)%.
        """
        signs: list[str] = []
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            signs.append(self.advance().text)
        node, deepest = self.atom(self.bounded(depth + len(signs)))
        for op in reversed(signs):
            node = Unary(op, node)
        while self.peek().kind == "op" and self.peek().text == "%":
            self.advance()
            node = Unary("%", node)
            deepest = self.bounded(deepest + 1)
        return node, deepest

    def atom(self, depth: int) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            # a literal too large for a double, like 1e999, is #NUM!
            return Literal(_finite(float(tok.text))), depth
        if tok.kind == "string":
            self.advance()
            return Literal(tok.text[1:-1].replace('""', '"')), depth
        if tok.kind == "error":
            self.advance()
            return Literal(ERROR_BY_LABEL[tok.text]), depth
        if tok.kind == "(":
            self.open()
            result = self.expression(depth)
            self.close()
            return result
        if tok.kind == "ident":
            return self.name(depth)
        raise FormulaError(tok.offset, "expected a value")

    def name(self, depth: int) -> tuple[Expr, int]:
        tok = self.advance()
        if self.peek().kind == "(":
            return self.call(tok, depth)
        upper = tok.text.upper()
        if upper in BOOLEAN_BY_LABEL:
            return Literal(BOOLEAN_BY_LABEL[upper]), depth
        first = self.cell_of(tok)
        if self.peek().kind == ":":
            self.advance()
            second = self.cell_of(self.expect("ident"))
            return RangeLit(RangeRef.make(first, second)), depth
        return Ref(first), depth

    def cell_of(self, tok: Token) -> CellAddress:
        try:
            return parse_cell(tok.text)
        except GridError as exc:
            raise FormulaError(tok.offset, str(exc)) from None

    def call(self, name_tok: Token, depth: int) -> tuple[Expr, int]:
        self.open()
        args: list[Expr] = []
        deepest = depth
        if self.peek().kind != ")":
            arg_depth = self.bounded(depth + 1)
            while True:
                if self.peek().kind in (",", ")"):
                    args.append(Literal(OMITTED))  # empty slot
                    deepest = max(deepest, arg_depth)
                else:
                    arg, arg_deepest = self.expression(arg_depth)
                    args.append(arg)
                    deepest = max(deepest, arg_deepest)
                if self.peek().kind != ",":
                    break
                self.advance()
        self.close()
        return Call(name_tok.text.upper(), tuple(args)), deepest


def parse_formula(text: str) -> Formula:
    """Parse formula text, accepting a leading = and array braces.

    Braces must wrap the entire formula; they set the array-entered
    flag rather than appearing in the tree.
    """
    tokens = tokenize(text)
    array_entered = False
    if tokens and tokens[0].kind == "{":
        if len(tokens) < 3 or tokens[-2].kind != "}":
            raise FormulaError(tokens[0].offset,
                               "array braces must wrap the whole formula")
        array_entered = True
        end = tokens[-1]
        tokens = tokens[1:-2] + [end]
    if tokens and tokens[0].kind == "op" and tokens[0].text == "=":
        tokens = tokens[1:]
    parser = _Parser(tokens)
    first = parser.peek()
    if first.kind == "end":
        raise FormulaError(first.offset, "empty formula")
    expr, _ = parser.expression(0)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise FormulaError(trailing.offset, "unexpected trailing input")
    return Formula(expr, array_entered)


def parse_expression(text: str) -> Expr:
    return parse_formula(text).expr


def _level(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _BINARY_LEVEL[expr.op]
    if isinstance(expr, Unary):
        return _LEVEL_POSTFIX if expr.op == "%" else _LEVEL_UNARY
    return _LEVEL_ATOM


def unparse(expr: Expr) -> str:
    """Render a tree back to text with only the parentheses it needs.

    parse_expression(unparse(e)) reproduces e exactly.  Text literals
    are quoted with "" escapes; every other literal is written as
    values.render shows it, so an error literal is its label.  Number
    literals are non-negative by construction (a negative constant
    parses as unary minus), so rendering never has to guard a sign.
    """
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return '"' + expr.value.replace('"', '""') + '"'
        return render(expr.value)
    if isinstance(expr, Ref):
        return expr.addr.a1
    if isinstance(expr, RangeLit):
        return expr.rng.a1
    if isinstance(expr, Unary):
        if expr.op == "%":
            return _paren_if_looser(expr.operand, _LEVEL_POSTFIX) + "%"
        return expr.op + _paren_if_looser(expr.operand, _LEVEL_UNARY)
    if isinstance(expr, Binary):
        level = _BINARY_LEVEL[expr.op]
        left = _paren_if_looser(expr.left, level)
        # every binary operator associates left, so an equal-level
        # right child keeps its parentheses
        right_text = unparse(expr.right)
        if _level(expr.right) <= level:
            right_text = f"({right_text})"
        return f"{left}{expr.op}{right_text}"
    if isinstance(expr, Call):
        return expr.name + "(" + ",".join(unparse(a) for a in expr.args) + ")"
    raise TypeError(f"not an expression node: {expr!r}")


def _paren_if_looser(expr: Expr, level: int) -> str:
    text = unparse(expr)
    if _level(expr) < level:
        return f"({text})"
    return text


def formula_text(formula: Formula) -> str:
    """Canonical full-formula text, with braces when array-entered."""
    body = "=" + unparse(formula.expr)
    if formula.array_entered:
        return "{" + body + "}"
    return body
