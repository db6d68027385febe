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
A token is a tuple (kind, text, offset).

The parser splits the token list once into parallel kinds and texts
and reads them by index.  It climbs precedence: one loop reads an
operand's signs and % postfixes and each binary operator's level from
_BINARY_LEVEL, the table unparse() reads too, and recurses only into
a right operand, a parenthesis or an argument list.

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
from typing import NamedTuple, Optional, Union

from .grid import CellAddress, GridError, RangeRef, parse_cell
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
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})"
                                for kind, pattern in _TOKEN_RULES), re.S)


def tokenize(text: str) -> list[Token]:
    """Lex a formula into tokens, ending with a synthetic "end" token."""
    if len(text) > MAX_FORMULA_CHARS:
        raise FormulaError(MAX_FORMULA_CHARS, f"formula longer than "
                           f"{MAX_FORMULA_CHARS} characters")
    tokens: list[Token] = []
    append = tokens.append
    # tuple.__new__ builds the token without NamedTuple's Python-level
    # __new__, which takes a fifth of the loop's time
    new = tuple.__new__
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        lexeme = m.group()
        if kind == "mismatch":
            if lexeme == '"':
                raise FormulaError(m.start(), "unterminated string literal")
            raise FormulaError(m.start(), f"unexpected character {lexeme!r}")
        append(new(Token, (lexeme if kind == "punct" else kind, lexeme,
                           m.start())))
    append(Token("end", "", len(text)))
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


class _Parser:
    """Precedence climbing over the token list.

    The token list is split once into parallel kinds and texts, which
    the parse methods read at self.pos.  The parse methods take
    `depth`, the number of nodes known to sit above the node they
    build, and return that node with `deepest`, the number of nodes
    above its deepest leaf.  A binary operator or % found after an
    operand was parsed pushes the operand one level down, so `deepest`
    can grow on the way back up as well as on the way down; both are
    checked against MAX_DEPTH.
    """

    def __init__(self, tokens: list[Token]):
        self.kinds, self.texts, self.offsets = zip(*tokens)
        self.pos = 0
        self.nesting = 0  # parentheses and argument lists now open
        self.ranges: set[tuple[int, int, int, int]] = set()  # corners seen
        self.repeated = False  # whether a range of 2+ cells occurs twice

    def expect(self, kind: str) -> int:
        """Step past a token of this kind and return its position."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise FormulaError(self.offsets[pos], f"expected {kind!r}")
        self.pos = pos + 1
        return pos

    def bounded(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise FormulaError(self.offsets[self.pos],
                               "formula nested too deeply")
        return depth

    def open(self) -> None:
        """Step past a ( the caller has seen."""
        self.pos += 1
        self.nesting = self.bounded(self.nesting + 1)

    def close(self) -> None:
        self.expect(")")
        self.nesting -= 1

    def expression(self, depth: int, min_level: int = 1) -> tuple[Expr, int]:
        """Operands joined by binary operators of min_level or tighter.

        An operand is prefix signs, an atom, then % postfixes.  Signs
        bind tightest and % next, so -2^3 is (-2)^3 and -5% is (-5)%.
        """
        kinds, texts = self.kinds, self.texts
        first = pos = self.pos
        while kinds[pos] == "op" and texts[pos] in ("+", "-"):
            pos += 1
        self.pos = pos
        node, deepest = self.atom(self.bounded(depth + pos - first))
        while pos > first:
            pos -= 1
            node = Unary(texts[pos], node)
        pos = self.pos
        while kinds[pos] == "op" and texts[pos] == "%":
            self.pos = pos = pos + 1
            node = Unary("%", node)
            deepest = self.bounded(deepest + 1)
        while kinds[pos] == "op":
            op = texts[pos]
            level = _BINARY_LEVEL.get(op)
            if level is None or level < min_level:
                break
            self.pos = pos + 1
            # only tighter operators reach into the right operand, so an
            # equal-level operator after it associates left
            right, right_deepest = self.expression(self.bounded(depth + 1),
                                                   level + 1)
            node = Binary(op, node, right)
            deepest = self.bounded(max(deepest + 1, right_deepest))
            pos = self.pos
        return node, deepest

    def atom(self, depth: int) -> tuple[Expr, int]:
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind == "number":
            self.pos = pos + 1
            # a literal too large for a double, like 1e999, is #NUM!
            return Literal(_finite(float(text))), depth
        if kind == "string":
            self.pos = pos + 1
            return Literal(unquote(text[1:-1])), depth
        if kind == "error":
            self.pos = pos + 1
            return Literal(ERROR_BY_LABEL[text]), depth
        if kind == "(":
            self.open()
            result = self.expression(depth)
            self.close()
            return result
        if kind == "ident":
            return self.name(depth)
        raise FormulaError(self.offsets[pos], "expected a value")

    def name(self, depth: int) -> tuple[Expr, int]:
        pos = self.pos
        self.pos = pos + 1
        after = self.kinds[pos + 1]
        if after == "(":
            return self.call(self.texts[pos], depth)
        upper = self.texts[pos].upper()
        if upper in BOOLEAN_BY_LABEL:
            return Literal(BOOLEAN_BY_LABEL[upper]), depth
        first = self.cell_at(pos)
        if after == ":":
            self.pos = pos + 2
            second = self.cell_at(self.expect("ident"))
            rng = RangeRef.make(first, second)
            corners = _corners(rng)
            # a one-cell range reads as cheaply as a reference, which
            # does not make a formula worth interning either
            if corners in self.ranges and rng.top_left != rng.bottom_right:
                self.repeated = True
            self.ranges.add(corners)
            return RangeLit(rng), depth
        return Ref(first), depth

    def cell_at(self, pos: int) -> CellAddress:
        try:
            return parse_cell(self.texts[pos])
        except GridError as exc:
            raise FormulaError(self.offsets[pos], str(exc)) from None

    def call(self, name: str, depth: int) -> tuple[Expr, int]:
        self.open()
        kinds = self.kinds
        args: list[Expr] = []
        deepest = depth
        if kinds[self.pos] != ")":
            arg_depth = self.bounded(depth + 1)
            while True:
                if kinds[self.pos] in (",", ")"):
                    args.append(Literal(OMITTED))  # empty slot
                    deepest = max(deepest, arg_depth)
                else:
                    arg, arg_deepest = self.expression(arg_depth)
                    args.append(arg)
                    deepest = max(deepest, arg_deepest)
                if kinds[self.pos] != ",":
                    break
                self.pos += 1
        self.close()
        return Call(name.upper(), tuple(args)), deepest


def parse_formula(text: str) -> Formula:
    """Parse formula text, accepting a leading = and array braces.

    Braces must wrap the entire formula; they set the array-entered
    flag rather than appearing in the tree.
    """
    tokens = tokenize(text)
    array_entered = tokens[0].kind == "{"
    if array_entered:
        if len(tokens) < 3 or tokens[-2].kind != "}":
            raise FormulaError(tokens[0].offset,
                               "array braces must wrap the whole formula")
        tokens = tokens[1:-2] + tokens[-1:]
    if tokens[0].kind == "op" and tokens[0].text == "=":
        tokens = tokens[1:]
    if tokens[0].kind == "end":
        raise FormulaError(tokens[0].offset, "empty formula")
    parser = _Parser(tokens)
    expr, _ = parser.expression(0)
    if parser.kinds[parser.pos] != "end":
        raise FormulaError(parser.offsets[parser.pos],
                           "unexpected trailing input")
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
