"""Seeded formula generator for the formula-mix workload, with its oracle.

Each formula is built as a small tree of tuples, rendered to text, and
graded by evaluate_tree(), a plain-Python evaluation of that same tree.
Compound operands are always parenthesised, so the text parses back to
exactly the generated tree whatever the engine's precedence rules.

The language is kept to what the oracle can compute exactly: numbers
(sums, differences and products of small literals and board cells),
text (literals, board cells, & and LEFT), numeric comparisons, and the
calls IF, LEN, LEFT, ROUND, INT, MAX and SUM.  Array-entered formulas
may also lift LEN over a small column range inside SUM.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from goldens import COLUMNS, SAMPLE_SIZE, render, sample_rows

MAX_DEPTH = 30
ARRAY_SHARE = 0.15
MALFORMED_SHARE = 0.03

MALFORMED = "FormulaError"  # the expected outcome of a corrupted formula

_WORDS = ["ab", "Views", "new", "EUW", "q", "spread sheet", "x y z",
          "say \"hi\"", "Kawaii", "", "k", "(", "RIOT"]
_COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]


def board_cells() -> dict[str, object]:
    """The 14-row sample loaded one column right, plus comment counts in
    H and view counts in I: A1 label -> value, for the oracle."""
    cells: dict[str, object] = {}
    for r, row in enumerate(sample_rows()[1:], start=2):
        for c, text in enumerate(row):
            cells[f"{'BCDEF'[c]}{r}"] = text
    for i in range(SAMPLE_SIZE):
        cells[f"H{i + 2}"] = COLUMNS["count"][i]
        cells[f"I{i + 2}"] = COLUMNS["views"][i]
    return cells


class Generator:
    def __init__(self, rng: random.Random, cells: dict[str, object]):
        self.rng = rng
        self.cells = cells
        self.array_entered = False

    # leaves --------------------------------------------------------

    def _row(self) -> int:
        return self.rng.randint(2, SAMPLE_SIZE + 1)

    def _range(self, column: str):
        top = self._row()
        bottom = self.rng.randint(top, SAMPLE_SIZE + 1)
        a1 = f"{column}{top}:{column}{bottom}"
        return ("rng", a1, [self.cells[f"{column}{r}"]
                            for r in range(top, bottom + 1)])

    def num0(self):
        roll = self.rng.random()
        if roll < 0.45:
            return ("lit", float(self.rng.randint(0, 99)))
        if roll < 0.6:
            return ("lit", self.rng.randint(0, 400) / 4)
        if roll < 0.72:
            a1 = f"{self.rng.choice('HI')}{self._row()}"
            return ("ref", a1, self.cells[a1])
        if roll < 0.8:
            return ("call", "LEN", (self.txt0(),))
        if roll < 0.88:
            return ("call", "SUM", (self._range(self.rng.choice("HI")),))
        if roll < 0.95 or not self.array_entered:
            return ("call", "MAX", (self._range(self.rng.choice("HI")),))
        # lifted: LEN over a text column, summed
        return ("call", "SUM", (("call", "LEN", (self._range("C"),)),))

    def txt0(self):
        if self.rng.random() < 0.6:
            return ("str", self.rng.choice(_WORDS))
        a1 = f"{self.rng.choice('BCDEF')}{self._row()}"
        return ("ref", a1, self.cells[a1])

    # spines --------------------------------------------------------

    def num(self, depth: int):
        if depth <= 1:
            return self.num0()
        inner = depth - 1
        pick = self.rng.randrange(10)
        if pick < 3:
            op = self.rng.choice("+-*")
            a, b = self.num(inner), self.num0()
            return ("bin", op, a, b) if self.rng.random() < 0.5 else (
                "bin", op, b, a)
        if pick == 3:
            return ("neg", self.num(inner))
        if pick == 4:
            return ("call", "INT", (self.num(inner),))
        if pick == 5:
            digits = ("lit", float(self.rng.randint(0, 2)))
            return ("call", "ROUND", (self.num(inner), digits))
        if pick == 6:
            args = [self.num(inner), self.num0()]
            if self.rng.random() < 0.3:
                args.append(self.num0())
            self.rng.shuffle(args)
            return ("call", "MAX", tuple(args))
        if pick == 7:
            return ("call", "LEN", (self.txt(inner),))
        if pick == 8:
            if self.rng.random() < 0.5:
                return ("call", "IF", (self.cond(inner), self.num0(),
                                       self.num0()))
            return ("call", "IF", (self.cond(1), self.num(inner),
                                   self.num0()))
        return ("paren", self.num(inner))

    def txt(self, depth: int):
        if depth <= 1:
            return self.txt0()
        inner = depth - 1
        pick = self.rng.randrange(4)
        if pick == 0:
            other = self.txt0() if self.rng.random() < 0.6 else self.num0()
            a = self.txt(inner)
            return ("bin", "&", a, other) if self.rng.random() < 0.5 else (
                "bin", "&", other, a)
        if pick == 1:
            count = ("lit", float(self.rng.randint(0, 12)))
            return ("call", "LEFT", (self.txt(inner), count))
        if pick == 2:
            return ("call", "IF", (self.cond(1), self.txt(inner),
                                   self.txt0()))
        return ("paren", self.txt(inner))

    def cond(self, depth: int):
        return ("bin", self.rng.choice(_COMPARISONS), self.num(depth - 1),
                self.num0())

    def formula(self):
        """(text, expected) where expected is a value or MALFORMED."""
        self.array_entered = self.rng.random() < ARRAY_SHARE
        depth = self.rng.randint(1, MAX_DEPTH)
        roll = self.rng.random()
        if roll < 0.6:
            tree = self.num(depth)
        elif roll < 0.9:
            tree = self.txt(depth)
        else:
            tree = self.cond(max(depth, 2))
        text = "=" + to_text(tree)
        if self.array_entered:
            text = "{" + text + "}"
        if self.rng.random() < MALFORMED_SHARE:
            return corrupt(text, self.rng), MALFORMED
        return text, evaluate_tree(tree)


def corrupt(text: str, rng: random.Random) -> str:
    """A variant of valid formula text that no spreadsheet grammar accepts."""
    way = rng.randrange(5)
    if way == 0 and ")" in text:
        cut = text.rindex(")")
        return text[:cut] + text[cut + 1:]
    if way == 1:
        return text + ")"
    if way == 2:
        return text + "#"
    if way == 3:
        return text + '&"open'
    return text + "+"


# text and values ---------------------------------------------------

def _compound(node) -> bool:
    return node[0] in ("bin", "neg")


def _operand(node) -> str:
    text = to_text(node)
    return f"({text})" if _compound(node) else text


def to_text(node) -> str:
    kind = node[0]
    if kind == "lit":
        return render(node[1])
    if kind == "str":
        return '"' + node[1].replace('"', '""') + '"'
    if kind in ("ref", "rng"):
        return node[1]
    if kind == "neg":
        return "-" + _operand(node[1])
    if kind == "bin":
        return _operand(node[2]) + node[1] + _operand(node[3])
    if kind == "call":
        return node[1] + "(" + ",".join(to_text(a) for a in node[2]) + ")"
    if kind == "paren":
        return "(" + to_text(node[1]) + ")"
    raise ValueError(kind)


def _round_half_away(x: float, digits: int) -> float:
    scaled = Fraction(repr(x)) * Fraction(10) ** digits
    magnitude = math.floor(abs(scaled) + Fraction(1, 2))
    return float(Fraction(magnitude if scaled >= 0 else -magnitude)
                 / Fraction(10) ** digits)


def _compare(op: str, a: float, b: float) -> bool:
    return {"=": a == b, "<>": a != b, "<": a < b, "<=": a <= b,
            ">": a > b, ">=": a >= b}[op]


def evaluate_tree(node):
    kind = node[0]
    if kind in ("lit", "str"):
        return node[1]
    if kind in ("ref", "rng"):
        return node[2]
    if kind == "neg":
        return -evaluate_tree(node[1])
    if kind == "paren":
        return evaluate_tree(node[1])
    if kind == "bin":
        a, b = evaluate_tree(node[2]), evaluate_tree(node[3])
        op = node[1]
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "&":
            return render(a) + render(b)
        return _compare(op, a, b)
    name, args = node[1], [evaluate_tree(a) for a in node[2]]
    if name == "LEN":
        if isinstance(args[0], list):  # lifted over a range
            return [float(len(v)) for v in args[0]]
        return float(len(args[0]))
    if name == "LEFT":
        return args[0][:int(args[1])]
    if name == "INT":
        return float(math.floor(args[0]))
    if name == "ROUND":
        return _round_half_away(args[0], int(args[1]))
    if name == "IF":
        return args[1] if args[0] else args[2]
    flat = []
    for arg in args:
        flat.extend(arg if isinstance(arg, list) else [arg])
    if name == "SUM":
        return float(sum(flat))
    if name == "MAX":
        return max(flat)
    raise ValueError(name)


def generate(seed: int, count: int) -> list[tuple[str, object]]:
    generator = Generator(random.Random(seed), board_cells())
    return [generator.formula() for _ in range(count)]

