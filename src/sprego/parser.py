"""Formula text to expression trees and back.

The grammar is the conventional spreadsheet one.  Binding from loosest
to tightest: comparisons, text join (&), addition, multiplication,
exponentiation (left-associative), the percent postfix, then unary
sign, so -2^3 is (-2)^3 and -5% is (-5)%.  A leading = is accepted and
braces around the whole formula mark array entry.

Lexing is one pattern table, _TOKEN_RULES, and two regular expression
calls built from it, so the work per token is done in C.  One match of
the rules and whitespace repeated finds how far the text lexes: the
first character no rule takes is an error there.  One findall then
returns the lexemes.  A lexeme's first character gives its kind
(_KIND): an error label such as #N/A is an "error", a literal like a
number, and a ( ) , : { } lexeme's kind is its text.  tokenize() pairs
each lexeme with its kind and offset as a tuple (kind, text, offset).

The parser reads the lexemes alone: an operand by its kind, an
operator or punctuation by its text, which a string keeps distinct by
keeping its quotes.  Offsets are found only for an error.  The parser
climbs precedence: one loop reads an operand's signs and % postfixes
and each binary operator's level from _BINARY_LEVEL, the table
unparse() reads too, and recurses only into a right operand, a
parenthesis or an argument list.

Cells and ranges are decoded by grid.parse_cell and grid.parse_range,
which memoise the frozen addresses by lexeme across formulas.  Each
Ref and RangeLit node is still built per formula, so no node belongs
to two trees and intern()'s id keys stay per tree.  On a bad range the
parser finds the failing corner itself, to place the error at it.

Formula text is bounded by MAX_FORMULA_CHARS (Excel's limit), checked
before lexing, so the token list and the tree stay small whatever the
input.

Nesting is bounded by MAX_DEPTH, counted as open parentheses and
argument lists and as the depth of the tree (the nodes above its
deepest leaf); past it the parse fails with "formula nested too
deeply".  The evaluator, unparse() and the tracer recurse over the
tree, and the bound keeps every formula the parser accepts within
Python's default limit of 1000 frames.  The costliest levels take 4
frames in this parser (nested calls) and in the evaluator (nested
IF), and 3 in unparse(), so 128 levels take at most 512 frames and
leave about 480 for the callers.

Expression nodes are frozen dataclasses, so structurally equal
subtrees compare equal.  intern() finds a tree's twins, its
structurally equal subtrees, by one bottom-up walk that gives each
subtree a number, so no subtree is hashed twice.  A formula pasted
together from helper steps repeats them, and a repeated subtree that
matters holds a repeated range, so the parser notes when a range of
two or more cells repeats and interns only those formulas: a tree
without one pays one set lookup per range.  Formula.interning keeps
what intern() found, so the evaluator computes each set of twins once
per evaluation and the tracer lists each distinct subtree as one step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from string import ascii_letters
from typing import NamedTuple, Optional, Union

from .grid import CellAddress, GridError, RangeRef, parse_cell, parse_range
from .values import (BOOLEAN_BY_LABEL, ERROR_BY_LABEL, NUMBER_PATTERN,
                     OMITTED, QUOTED_BODY, CellError, _Sentinel, _finite,
                     render, unquote)


class FormulaError(Exception):
    """A lexical or syntax problem, with the 0-based source offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.message = message


class Token(NamedTuple):
    kind: str  # number, string, error, ident, op, end, or one of ( ) , : { }
    text: str
    offset: int


#: Longest formula text tokenize accepts, counting = and braces.
MAX_FORMULA_CHARS = 8192

#: The lexical rules in the order they are tried (see the module docstring).
_TOKEN_RULES = (
    ("space", r"[ \t\r\n]+"),
    ("op", r"<=|>=|<>|[=<>&+\-*/^%]"),
    ("punct", r"[(),:{}]"),
    # (?!") stops a match that would end inside an escaped quote, so
    # the string is unterminated instead
    ("string", '"' + QUOTED_BODY + '"(?!")'),
    ("number", NUMBER_PATTERN),
    ("error", "|".join(map(re.escape, ERROR_BY_LABEL))),
    ("ident", r"\$?[A-Za-z_][A-Za-z0-9_.$]*"),
    ("mismatch", r"."),
)
_SPACE = dict(_TOKEN_RULES)["space"]
_LEXEME = "|".join(pattern for kind, pattern in _TOKEN_RULES
                   if kind not in ("space", "mismatch"))
#: Matches as far as the text lexes
_LEXES = re.compile(f"(?:{_SPACE}|{_LEXEME})*")
#: A lexeme and the space after it.  Space before it would be scanned
#: again from each of its characters once the search is past the last
#: lexeme, so trailing space would take quadratic time.
_NEXT = re.compile(f"({_LEXEME})(?:{_SPACE})?")
#: A token's kind by the first character of its text ("" for the end)
_KIND = {"": "end", '"': "string", "#": "error",
         **dict.fromkeys("0123456789.", "number"),
         **dict.fromkeys(ascii_letters + "$_", "ident"),
         **dict.fromkeys("=<>&+-*/^%", "op"),
         **{char: char for char in "(),:{}"}}


def _lex(text: str) -> list[str]:
    """The formula's lexemes, then "" for the end."""
    if len(text) > MAX_FORMULA_CHARS:
        raise FormulaError(MAX_FORMULA_CHARS, f"formula longer than "
                           f"{MAX_FORMULA_CHARS} characters")
    end = _LEXES.match(text).end()
    if end < len(text):
        if text[end] == '"':
            raise FormulaError(end, "unterminated string literal")
        raise FormulaError(end, f"unexpected character {text[end]!r}")
    lexemes = _NEXT.findall(text)
    lexemes.append("")
    return lexemes


def _offsets(text: str) -> list[int]:
    """Where each lexeme of a text that lexes starts."""
    return [m.start() for m in _NEXT.finditer(text)]


def tokenize(text: str) -> list[Token]:
    """Lex a formula into tokens, ending with a synthetic "end" token."""
    return [Token(_KIND[lexeme[:1]], lexeme, offset) for lexeme, offset
            in zip(_lex(text), _offsets(text) + [len(text)])]


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
    """A parsed formula plus its entry mode.  interning is intern() of
    the tree when a range of two or more cells repeats in it, else
    None.  It is keyed by the ids of this tree's nodes, so only
    parse_formula sets it: replace() and the constructor leave it None
    rather than carry it to another tree."""

    expr: Expr
    array_entered: bool
    interning: Optional["Interning"] = field(default=None, init=False,
                                             compare=False, repr=False)


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
_TOO_DEEP = "formula nested too deeply"


class _Parser:
    """Precedence climbing over the lexemes.

    The parse methods read the lexeme at self.pos: an operand by its
    kind in _KIND, an operator or punctuation by its text.  They take
    `depth`, the number of nodes known to sit above the node they
    build, and return that node with `deepest`, the number of nodes
    above its deepest leaf.  A binary operator or % found after an
    operand was parsed pushes the operand one level down, so `deepest`
    can grow on the way back up as well as on the way down; both are
    checked against MAX_DEPTH.
    """

    def __init__(self, text: str, lexemes: list[str]):
        self.text, self.lexemes, self.pos = text, lexemes, 0
        self.nesting = 0  # parentheses and argument lists now open
        self.ranges: set[tuple[int, int, int, int]] = set()  # corners seen
        self.repeated = False  # whether a range of 2+ cells occurs twice

    def error(self, pos: int, message: str) -> FormulaError:
        """The error at the lexeme at pos; only now is its offset found."""
        return FormulaError(_offsets(self.text)[pos] if self.lexemes[pos]
                            else len(self.text), message)

    def expression(self, depth: int, min_level: int = 1) -> tuple[Expr, int]:
        """Operands joined by binary operators of min_level or tighter.

        An operand is prefix signs, an atom, then % postfixes.  Signs
        bind tightest and % next, so -2^3 is (-2)^3 and -5% is (-5)%.
        """
        lexemes = self.lexemes
        first = pos = self.pos
        while lexemes[pos] in ("+", "-"):
            pos += 1
        deepest = self.bounded(depth + pos - first, pos)
        lexeme = lexemes[pos]
        kind = _KIND[lexeme[:1]]
        self.pos = pos + 1
        if kind == "number":
            # a literal too large for a double, like 1e999, is #NUM!
            node: Expr = Literal(_finite(float(lexeme)))
        elif kind == "ident":
            if lexemes[pos + 1] == "(":
                self.pos = pos + 2
                node, deepest = self.call(lexeme, deepest)
            elif lexeme.upper() in BOOLEAN_BY_LABEL:
                node = Literal(BOOLEAN_BY_LABEL[lexeme.upper()])
            elif lexemes[pos + 1] == ":":
                node = self.range_at(pos)
            else:
                node = Ref(self.cell_at(pos))
        elif kind == "string":
            node = Literal(unquote(lexeme[1:-1]))
        elif kind == "error":
            node = Literal(ERROR_BY_LABEL[lexeme])
        elif kind == "(":
            self.open()
            node, deepest = self.expression(deepest)
            self.close()
        else:
            raise self.error(pos, "expected a value")
        while pos > first:
            pos -= 1
            node = Unary(lexemes[pos], node)
        pos = self.pos
        while lexemes[pos] == "%":
            self.pos = pos = pos + 1
            node = Unary("%", node)
            deepest = self.bounded(deepest + 1, pos)
        while (level := _BINARY_LEVEL.get(lexemes[pos], 0)) >= min_level:
            op = lexemes[pos]
            self.pos = pos = pos + 1
            # only tighter operators reach into the right operand, so an
            # equal-level operator after it associates left
            right, right_deepest = self.expression(
                self.bounded(depth + 1, pos), level + 1)
            node = Binary(op, node, right)
            pos = self.pos
            deepest = self.bounded(max(deepest + 1, right_deepest), pos)
        return node, deepest

    def bounded(self, depth: int, pos: int) -> int:
        """depth, unless it passes MAX_DEPTH at the lexeme at pos."""
        if depth > MAX_DEPTH:
            raise self.error(pos, _TOO_DEEP)
        return depth

    def open(self) -> None:
        """Count the ( just stepped past as open."""
        self.nesting = self.bounded(self.nesting + 1, self.pos)

    def close(self) -> None:
        pos = self.pos
        if self.lexemes[pos] != ")":
            raise self.error(pos, "expected ')'")
        self.pos = pos + 1
        self.nesting -= 1

    def range_at(self, pos: int) -> RangeLit:
        """The range whose first corner is the lexeme at pos."""
        lexemes = self.lexemes
        self.pos = pos + 3
        try:
            rng = parse_range(lexemes[pos], lexemes[pos + 2])
        except GridError:
            # the error sits at the first corner that fails
            self.cell_at(pos)
            if _KIND[lexemes[pos + 2][:1]] != "ident":
                raise self.error(pos + 2, "expected 'ident'") from None
            self.cell_at(pos + 2)
            raise
        corners = _corners(rng)
        # a one-cell range reads as cheaply as a reference, which does
        # not make a formula worth interning either
        if corners in self.ranges and rng.top_left != rng.bottom_right:
            self.repeated = True
        self.ranges.add(corners)
        return RangeLit(rng)

    def cell_at(self, pos: int) -> CellAddress:
        try:
            return parse_cell(self.lexemes[pos])
        except GridError as exc:
            raise self.error(pos, str(exc)) from None

    def call(self, name: str, depth: int) -> tuple[Expr, int]:
        """The call whose arguments start at self.pos, past its (."""
        lexemes = self.lexemes
        self.open()
        args: list[Expr] = []
        deepest = depth
        if lexemes[self.pos] != ")":
            # an empty slot's depth; an argument may go deeper
            deepest = self.bounded(depth + 1, self.pos)
            while True:
                if lexemes[self.pos] in (",", ")"):
                    args.append(Literal(OMITTED))  # empty slot
                else:
                    arg, arg_deepest = self.expression(depth + 1)
                    args.append(arg)
                    if arg_deepest > deepest:
                        deepest = arg_deepest
                if lexemes[self.pos] != ",":
                    break
                self.pos += 1
        self.close()
        return Call(name.upper(), tuple(args)), deepest


def parse_formula(text: str) -> Formula:
    """Parse formula text, accepting a leading = and array braces.

    Braces must wrap the entire formula; they set the array-entered
    flag rather than appearing in the tree.
    """
    lexemes = _lex(text)
    parser = _Parser(text, lexemes)
    array_entered = lexemes[0] == "{"
    if array_entered:
        if len(lexemes) < 3 or lexemes[-2] != "}":
            raise parser.error(0, "array braces must wrap the whole formula")
        lexemes[-2] = ""  # the } ends the formula
        parser.pos = 1
    if lexemes[parser.pos] == "=":
        parser.pos += 1
    if not lexemes[parser.pos]:
        raise parser.error(parser.pos, "empty formula")
    expr, _ = parser.expression(0)
    if lexemes[parser.pos]:
        raise parser.error(parser.pos, "unexpected trailing input")
    formula = Formula(expr, array_entered)
    if parser.repeated:
        object.__setattr__(formula, "interning", intern(expr))
    return formula


def parse_expression(text: str) -> Expr:
    return parse_formula(text).expr


#: Calls whose value may differ between two calls with equal arguments;
#: no subtree holding one is shared.
VOLATILE = frozenset({"RAND"})


class Interning(NamedTuple):
    """What intern() finds in a tree."""

    #: the first node of each distinct range, operator and call subtree,
    #: in post-order
    firsts: list[Expr]
    #: id(node) -> the id of its first twin, for each range, operator and
    #: call node; a node holding a VOLATILE call maps to its own id
    keys: dict[int, int]


def intern(expr: Expr) -> Interning:
    """Intern a tree's subtrees by structure, in one bottom-up walk.

    Each distinct range, operator and call subtree gets a number, and
    its key is its node type, its label and its operands' numbers (a
    literal or reference operand stands as its value), so no subtree
    is hashed twice.  A literal's key holds its type: LEN(1) and
    LEN(TRUE) are not twins, although 1.0 == True.
    """
    numbers: dict[tuple, int] = {}
    firsts: list[Expr] = []  # by number
    volatile: set[int] = set()  # the numbers of subtrees holding one
    keys: dict[int, int] = {}

    def visit(node: Expr) -> Union[int, tuple]:
        kind = type(node)
        if kind is Literal:
            return type(node.value), node.value
        if kind is Ref:
            return node.addr.col, node.addr.row
        if kind is Binary:
            key: tuple = (kind, node.op, visit(node.left), visit(node.right))
        elif kind is Call:
            key = (kind, node.name, *map(visit, node.args))
        elif kind is Unary:
            key = (kind, node.op, visit(node.operand))
        else:
            key = (kind, _corners(node.rng))
        number = numbers.get(key)
        if number is None:
            number = numbers[key] = len(firsts)
            firsts.append(node)
            if kind is Call and node.name in VOLATILE or \
                    volatile and not volatile.isdisjoint(key[2:]):
                volatile.add(number)
        ident = id(node)
        keys[ident] = ident if number in volatile else id(firsts[number])
        return number

    visit(expr)
    del visit  # the closure refers to itself
    return Interning(firsts, keys)


def _corners(rng: RangeRef) -> tuple[int, int, int, int]:
    return (rng.top_left.col, rng.top_left.row,
            rng.bottom_right.col, rng.bottom_right.row)


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
        # every binary operator associates left, so an equal-level
        # right child keeps its parentheses
        return (_paren_if_looser(expr.left, level) + expr.op
                + _paren_if_looser(expr.right, level + 1))
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
