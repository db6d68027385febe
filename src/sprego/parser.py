"""Formula text to expression trees and back.

The grammar is the conventional spreadsheet one.  Binding from loosest
to tightest: comparisons, text join (&), addition, multiplication,
exponentiation (left-associative), the percent postfix, then unary
sign, so -2^3 is (-2)^3 and -5% is (-5)%.  A leading = is accepted and
braces around the whole formula mark array entry.

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
from .values import BLANK, CellError, OMITTED, _Sentinel, _finite, render_number


class FormulaError(Exception):
    """A lexical or syntax problem, with the 0-based source offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.message = message


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "string", "ident", "op", "(", ")", ",", ":", "{", "}", "end"
    text: str
    offset: int


_NUMBER_TOKEN = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_TOKEN = re.compile(r"\$?[A-Za-z_][A-Za-z0-9_.$]*")
_TWO_CHAR_OPS = ("<=", ">=", "<>")
_ONE_CHAR_OPS = "=<>&+-*/^%"
_PUNCT = "(),:{}"


def tokenize(text: str) -> list[Token]:
    """Lex a formula into tokens, ending with a synthetic "end" token."""
    tokens: list[Token] = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if text[pos:pos + 2] in _TWO_CHAR_OPS:
            tokens.append(Token("op", text[pos:pos + 2], pos))
            pos += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, pos))
            pos += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, pos))
            pos += 1
            continue
        if ch == '"':
            end = pos + 1
            while True:
                if end >= size:
                    raise FormulaError(pos, "unterminated string literal")
                if text[end] == '"':
                    if end + 1 < size and text[end + 1] == '"':
                        end += 2  # doubled quote is an escaped quote
                        continue
                    break
                end += 1
            tokens.append(Token("string", text[pos:end + 1], pos))
            pos = end + 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < size and text[pos + 1].isdigit()):
            m = _NUMBER_TOKEN.match(text, pos)
            tokens.append(Token("number", m.group(0), pos))
            pos = m.end()
            continue
        m = _IDENT_TOKEN.match(text, pos)
        if m:
            tokens.append(Token("ident", m.group(0), pos))
            pos = m.end()
            continue
        raise FormulaError(pos, f"unexpected character {ch!r}")
    tokens.append(Token("end", "", size))
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
        if upper == "TRUE":
            return Literal(True), depth
        if upper == "FALSE":
            return Literal(False), depth
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

    parse_expression(unparse(e)) reproduces e exactly.  Number
    literals are non-negative by construction (a negative constant
    parses as unary minus), so rendering never has to guard a sign.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if value is OMITTED:
            return ""
        if value is BLANK:
            return ""
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, float):
            return render_number(value)
        if isinstance(value, CellError):
            return str(value)
        return '"' + value.replace('"', '""') + '"'
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
