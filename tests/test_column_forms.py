"""Column forms against the scalar kernels they mirror.

A kernel's column form (its `column` attribute) computes a whole array
argument in one call.  It must give, element by element and type by
type, what the scalar kernel gives, and the identical CellError where
that gives an error.
"""

import random
from functools import partial
from itertools import repeat

import pytest

from sprego import EvalContext, Sheet, evaluate_formula, parse_formula
from sprego.evaluator import _OPERATORS
from sprego.functions import fn_find, fn_left, fn_len, fn_right
from sprego.grid import CellAddress, as_range, parse_a1
from sprego.values import ArrayValue, BLANK, NUM_ERR, VALUE_ERR

# empty, ASCII, non-ASCII, case-folding and astral text, and the
# catalog's needles
PIECES = ["", "a", "abc", " (", "(", ")", "V", "k", "new", "é", "ß",
          "İ", "日本", "😀", "𝔘𝔫", "EUW", " Views", "1.1"]


def texts(rng, n):
    return tuple("".join(rng.choices(PIECES, k=rng.randrange(5)))
                 for _ in range(n))


def numbers(rng, lengths):
    """Counts and starts for texts of these lengths: 0, 1, len+1, len+2,
    negative, fractional and too long."""
    return tuple(rng.choice([0.0, 1.0, size + 1.0, size + 2.0, -1.0, -2.5,
                             0.5, 1.9, size - 0.5, 1e300, size * 3.0])
                 for size in lengths)


def operands(rng, n):
    big = [1e308, -1e308, 1.7e308, 1e200, -1e200, 1e154]
    small = [0.0, -0.0, 1.0, -2.5, 0.1, 3e-308, 12345.678]
    return tuple(rng.choice(big if rng.random() < 0.3 else small)
                 for _ in range(n))


def same(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g) is type(e) and (g is e or g == e), (g, e)


def check(form, kernel, rng, *columns):
    """form over the columns as _broadcast passes them, some (never all)
    of them one value repeated, against kernel on every element."""
    n = len(columns[0])
    scalars = {i for i in range(len(columns)) if rng.random() < 0.3}
    scalars.discard(rng.randrange(len(columns)))
    args = [repeat(c[0]) if i in scalars else c for i, c in enumerate(columns)]
    spread = [(c[0],) * n if i in scalars else c
              for i, c in enumerate(columns)]
    same(form(*args), [kernel(*element) for element in zip(*spread)])


def draws():
    """A seeded generator and a column length, per seed."""
    for seed in range(300):
        rng = random.Random(seed)
        yield rng, 1 + rng.randrange(30)


def test_find_matches_its_kernel():
    kernel = partial(fn_find, None)
    for rng, n in draws():
        haystacks, needles = texts(rng, n), texts(rng, n)
        starts = numbers(rng, map(len, haystacks))
        check(fn_find.column, kernel, rng, needles, haystacks)
        check(fn_find.column, kernel, rng, needles, haystacks, starts)


@pytest.mark.parametrize("fn", [fn_left, fn_right], ids=["LEFT", "RIGHT"])
def test_left_and_right_match_their_kernels(fn):
    for rng, n in draws():
        strings = texts(rng, n)
        counts = numbers(rng, map(len, strings))
        check(fn.column, partial(fn, None), rng, strings)
        check(fn.column, partial(fn, None), rng, strings, counts)


def test_len_matches_its_kernel():
    for rng, n in draws():
        check(fn_len.column, partial(fn_len, None), rng, texts(rng, n))


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_arithmetic_matches_its_kernel(op):
    kernel = _OPERATORS[op, 2][0]
    for rng, n in draws():
        check(kernel.column, kernel, rng, operands(rng, n), operands(rng, n))


def test_operands_that_overflow_are_num_errors():
    add, sub, mul = (_OPERATORS[op, 2][0].column for op in "+-*")
    assert add((1e308, 1.0), (1e308, 2.0)) == [NUM_ERR, 3.0]
    assert sub((-1e308,), (1e308,)) == [NUM_ERR]
    assert mul((1e200, 2.0), repeat(1e200)) == [NUM_ERR, 2e200]
    # every result finite although their sum is not
    assert add((1e308, 1e308), (0.0, 0.0)) == [1e308, 1e308]


def test_errors_are_the_identical_values():
    assert fn_find.column(("z", ""), ("abc", "abc"), (1.0, 5.0)) == [
        VALUE_ERR, VALUE_ERR]
    assert fn_left.column(("abc",), (-1.0,))[0] is VALUE_ERR
    assert fn_right.column(("abc",), (-1.0,))[0] is VALUE_ERR


def test_broadcast_calls_the_form_once_per_array(monkeypatch):
    calls = []
    form = fn_find.column
    monkeypatch.setattr(fn_find, "column",
                        lambda *columns: calls.append(columns) or
                        form(*columns))
    sheet = Sheet()
    for row, text in enumerate(["a(b", "((", "none"], start=1):
        sheet.set(CellAddress(1, row), text)
    result = evaluate_formula(parse_formula('{=FIND("(",A1:A3)}'),
                              EvalContext(sheet))
    assert result.cells == (2.0, 1.0, VALUE_ERR) and len(calls) == 1


# --------------------------------------------------- whole formulas

ROWS = 39  # rows 2..40

CATALOG = [
    'FIND("(",C2:C40)',
    'FIND("(",C2:C40)-2',
    'LEFT(C2:C40,FIND("(",C2:C40)-2)',
    'LEFT(E2:E40,FIND("new",E2:E40)-2)*1',
    'LEN(C2:C40)-FIND("(",C2:C40)',
    'RIGHT(C2:C40,LEN(C2:C40)-FIND("(",C2:C40))',
    'LEFT(RIGHT(C2:C40,LEN(C2:C40)-FIND("(",C2:C40)),'
    'LEN(RIGHT(C2:C40,LEN(C2:C40)-FIND("(",C2:C40)))-1)',
    'LEFT(F2:F40,FIND("V",F2:F40)-3)*1000',
    'IF(ISERROR(FIND("k",F2:F40)),LEFT(F2:F40,FIND("V",F2:F40)-2)*1,'
    'LEFT(F2:F40,FIND("V",F2:F40)-3)*1000)',
    'FIND(,C2:C40)+FIND("",C2:C40,3)',
    'FIND(D2:D40,C2:C40,E2:E40)',
    'RIGHT(C2:C40,E2:E40)&LEFT(C2:C40,-E2:E40)',
    'D2:D40*E2:E40-E2:E40+1e308*D2:D40',
    'LEN(D2:D40)*1e305*E2:E40',
]


@pytest.fixture(scope="module")
def board():
    """Catalog-like text in C, E and F, with blanks, numbers, numeric
    text, non-ASCII and astral text; mixed values in D and E."""
    rng = random.Random(7)
    accounts = ["ReisenII (EUW)", "Maximum Kawaii (EUNE)", "no paren",
                "日本 (JP)", "𝔘𝔫 (😀)", "", "(", 12.0]
    counts = ["14 new Comments", "0 new Comments", "new", "x new", 3.0]
    views = ["680 Views", "1.1k Views", "2.5k Views", "Views", "9V", ""]
    mixed = [0.0, 1.0, 2.5, -1.0, 1e308, "2", "(", "é", True, ""]
    sheet = Sheet()
    for row in range(2, ROWS + 2):
        for col, pool in zip((3, 4, 5, 6), (accounts, mixed, mixed + counts,
                                              views)):
            value = rng.choice(pool)
            if value != "":
                sheet.set(CellAddress(col, row), value)
    return sheet


def per_row(text, row):
    """The formula for one row: each C2:C40-style range becomes C<row>."""
    for col in "CDEF":
        text = text.replace(f"{col}2:{col}40", f"{col}{row}")
    return text


@pytest.mark.parametrize("text", CATALOG)
def test_array_formula_equals_the_formula_per_row(board, text):
    result = evaluate_formula(parse_formula("{=" + text + "}"),
                              EvalContext(board))
    assert isinstance(result, ArrayValue) and result.shape == (ROWS, 1)
    rows = [evaluate_formula(parse_formula("=" + per_row(text, row)),
                             EvalContext(board))
            for row in range(2, ROWS + 2)]
    same(result.cells, rows)


def test_the_board_holds_what_the_catalog_needs(board):
    cells = board.get_range(as_range(parse_a1("C2:F40"))).cells
    assert {str, float, bool, type(BLANK)}.issubset(set(map(type, cells)))
