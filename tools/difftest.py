"""Differential test of the formula front end against another revision.

    python tools/difftest.py --against HEAD~ [--seed 1]

Generates a seeded corpus of COUNT formulas, lexes and parses each
one with the working tree's sprego and with the one at the given git
revision, and reports how many formulas they differ on, the first
SHOWN of them in full.  Compared per formula: the tokens (kind, text
and offset) or tokenize's FormulaError, and repr() of the parsed
Formula plus whether it was interned, or parse_formula's FormulaError
(offset and message).

The revision's src/ is extracted with `git archive` into a temporary
directory.  Each tree runs in its own subprocess, so the two never
share a module.  Each subprocess parses the corpus twice, the second
time with every memo the first pass filled, and fails when the passes
differ.  Exits 1 when a formula differs, 0 otherwise.

The generator writes binary operators without redundant parentheses,
so precedence and associativity decide the tree, and mixes in number,
string and error literals, booleans, cells, ranges, calls with empty
slots, signs, % postfixes, whitespace, braces and nesting at the depth
bound.  A share of the formulas is then mutated character by character
to exercise the lexical and syntax errors.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Binary operators by binding level, loosest first, as in the grammar
_LEVELS = {1: ["=", "<>", "<", "<=", ">", ">="], 2: ["&"], 3: ["+", "-"],
           4: ["*", "/"], 5: ["^"]}
_POSTFIX, _UNARY, _ATOM = 6, 7, 8
_NUMBERS = ["0", "7", "42", "1.5", ".5", "2.", "1e3", "2.5E-2", "1e999",
            "007", "3.14159"]
_WORDS = ["", "a", "x y", 'say ""hi""', "(", "#N/A", "1e5", "{=1}"]
_ERRORS = ["#VALUE!", "#DIV/0!", "#NUM!", "#N/A", "#REF!", "#NAME?"]
_NAMES = ["SUM", "IF", "LEN", "left", "Round", "MAX", "INDEX", "RAND",
          "ISERROR", "NOSUCH", "_X", "a.b"]
_CELLS = ["A1", "b2", "$C$3", "XFD1048576", "AA10", "$Z1", "H$14", "I15"]
_NOT_CELLS = ["ZZZZ1", "A0", "foo", "TRUE", "false", "XFE1", "A1048577"]
_SPACE = ["", "", "", "", " ", "  ", "\t", "\n", " \r\n"]
_MUTATION_CHARS = '"()#,:{}?=<>&+-*/^%. $_aZ19eE!\t²٣'
#: Formulas generated per run, and differences printed in full
COUNT, SHOWN = 20_000, 10


class Generator:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def space(self) -> str:
        return self.rng.choice(_SPACE)

    def atom(self, budget: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            return rng.choice(_NUMBERS)
        if roll < 0.35:
            return '"' + rng.choice(_WORDS) + '"'
        if roll < 0.4:
            return rng.choice(_ERRORS)
        if roll < 0.6:
            return self.cell()
        if roll < 0.7:
            return self.cell() + ":" + self.cell()
        if roll < 0.8 or budget <= 0:
            return "(" + self.space() + self.expression(budget - 1)[0] + ")"
        args = [self.expression(budget - 1)[0] if rng.random() < 0.8 else ""
                for _ in range(rng.randrange(4))]
        return rng.choice(_NAMES) + "(" + ",".join(
            self.space() + arg + self.space() for arg in args) + ")"

    def cell(self) -> str:
        """A cell address, now and then a name that is not one."""
        rng = self.rng
        return rng.choice(_NOT_CELLS if rng.random() < 0.02 else _CELLS)

    def expression(self, budget: int) -> tuple[str, int]:
        """Formula text and the binding level of its outermost part."""
        rng = self.rng
        if budget <= 0 or rng.random() < 0.3:
            return self.atom(budget), _ATOM
        roll = rng.random()
        if roll < 0.6:
            level = rng.randint(1, 5)
            left = self.operand(budget - 1, level)
            right = self.operand(budget - 1, level + 1)
            return (left + self.space() + rng.choice(_LEVELS[level])
                    + self.space() + right), level
        if roll < 0.8:
            return rng.choice("+-") + self.operand(budget - 1, _UNARY), _UNARY
        return self.operand(budget - 1, _POSTFIX) + "%", _POSTFIX

    def operand(self, budget: int, level: int) -> str:
        """An expression that binds at least as tightly as level,
        parenthesised only when it would not."""
        text, own = self.expression(budget)
        return text if own >= level else "(" + text + ")"

    def deep(self) -> str:
        """A formula nested near the parser's depth bound of 128."""
        n = self.rng.randint(120, 135)
        return self.rng.choice([
            "-" * n + "1", "1" + "%" * n, "(" * n + "1" + ")" * n,
            "LEN(" * n + "1" + ")" * n, "1" + "+1" * n, "1" + "^1" * n,
            "-" * (n // 2) + "1" + "%" * (n - n // 2),
            "IF(TRUE," * (n // 2) + "-" * (n // 2) + "1" + ")" * (n // 2),
            "-" * (n - 2) + "SUM(,1)", "1" + "+-1" * (n // 2),
        ])

    def formula(self) -> str:
        rng = self.rng
        if rng.random() < 0.03:
            text = self.deep()
        else:
            text = self.expression(rng.randint(0, 10))[0]
        if rng.random() < 0.9:
            text = "=" + self.space() + text
        if rng.random() < 0.15:
            text = "{" + text + "}"
        text = self.space() + text + self.space()
        if rng.random() < 0.4:
            for _ in range(rng.randint(1, 3)):
                text = self.mutate(text)
        return text

    def mutate(self, text: str) -> str:
        """text with one character inserted, deleted or replaced, or cut
        short, at a random place."""
        rng = self.rng
        at = rng.randint(0, len(text))
        way = rng.randrange(4)
        if way == 0:
            return text[:at] + rng.choice(_MUTATION_CHARS) + text[at:]
        if way == 1:
            return text[:at] + text[at + 1:]
        if way == 2:
            return text[:at] + rng.choice(_MUTATION_CHARS) + text[at + 1:]
        return text[:at]


def corpus(seed: int, count: int) -> list[str]:
    generator = Generator(random.Random(seed))
    return [generator.formula() for _ in range(count)]


def outcomes(formulas: list[str]) -> list[list]:
    """Each formula's tokens and parse, as the imported sprego gives them."""
    from sprego.parser import FormulaError, parse_formula, tokenize

    results = []
    for text in formulas:
        try:
            tokens = [list(token) for token in tokenize(text)]
        except FormulaError as exc:
            tokens = ["error", exc.offset, exc.message]
        try:
            formula = parse_formula(text)
            parsed = [repr(formula), formula.interning is not None]
        except FormulaError as exc:
            parsed = ["error", exc.offset, exc.message]
        results.append([tokens, parsed])
    return results


def run_tree(src: Path, formulas: list[str]) -> list[list]:
    """outcomes() computed in a subprocess that imports sprego from src."""
    done = subprocess.run(
        [sys.executable, "-B", __file__, "--dump", str(src)],
        input=json.dumps(formulas), capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{src}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def extract(rev: str, into: Path) -> Path:
    """The src/ directory of rev, extracted under into."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        sys.path.insert(0, args.dump)
        formulas = json.load(sys.stdin)
        first, second = outcomes(formulas), outcomes(formulas)
        changed = [i for i, pair in enumerate(zip(first, second))
                   if pair[0] != pair[1]]
        if changed:
            i = changed[0]
            sys.exit(f"{len(changed)} formulas parse differently the "
                     f"second time, the first {formulas[i]!r}: "
                     f"{first[i]} then {second[i]}")
        sys.stdout.write(json.dumps(first))
        return 0
    if not args.against:
        parser.error("give --against <rev>")
    formulas = corpus(args.seed, COUNT)
    ours = run_tree(REPO / "src", formulas)
    with tempfile.TemporaryDirectory() as tmp:
        theirs = run_tree(extract(args.against, Path(tmp)), formulas)
    differences = [i for i, pair in enumerate(zip(ours, theirs))
                   if pair[0] != pair[1]]
    for i in differences[:SHOWN]:
        print(f"formula {i}: {formulas[i]!r}")
        for what, mine, other in zip(("tokens", "parse"), ours[i], theirs[i]):
            if mine != other:
                print(f"  {what} at {args.against}: {other}\n"
                      f"  {what} in the working tree: {mine}")
    errors = sum(parsed[0] == "error" for _, parsed in theirs)
    print(f"{len(formulas)} formulas (seed {args.seed}, {errors} of them "
          f"errors at {args.against}): {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
