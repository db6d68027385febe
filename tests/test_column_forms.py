"""Column forms against the scalar kernels they mirror.

A kernel's or a coercion's column form (its `column` attribute)
computes a whole array argument in one call.  It must give, element by
element and type by type, what the scalar function gives, and the
identical CellError where that gives an error.  _broadcast's decided
path is checked against the per-element rule it replaced.
"""

import random
from functools import partial
from itertools import repeat

import pytest

from sprego import EvalContext, Sheet, evaluate_formula, parse_formula
from sprego.evaluator import _OPERATORS, _broadcast, _spread
from sprego.functions import (fn_find, fn_if, fn_iserror, fn_left, fn_len,
                              fn_right, lookup)
from sprego.grid import CellAddress, as_range, parse_a1
from sprego.values import (ArrayValue, BLANK, COMPARISONS, CellError,
                           DIV0_ERR, NA_ERR, NUM_ERR, OMITTED, VALUE_ERR,
                           coerce_to_number, coerce_to_text)

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
        # repr tells -0.0 from 0.0
        assert type(g) is type(e) and (g is e or g == e
                                       and repr(g) == repr(e)), (g, e)


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


# ------------------------------------------- coercion and other forms

ERRORS = [VALUE_ERR, NA_ERR, DIV0_ERR]

#: Text parse_number must refuse or read exactly: str.strip() padding
#: (U+001C..U+001F among it), overflow, signed zero, numeric-alphabet
#: text float() refuses, float()'s own words, non-ASCII digits.
NUMERIC_TEXT = [" 1 ", "\x1c2\x1f", "\t3.5\n", "\u30001e3", "1e999", "-1e999",
                "1e-400", "-0", "+7", ".5", "5.", "1e5", "1E+2", "555-1234",
                "1.2.3", "+-1", "1-2", "2024-01-05", "e5", "1e", ".", "-",
                "E", "inf", "-inf", "nan", "Infinity", "1_000", "0x10",
                "\u0663", "\uff11\uff12", "", "  ", "1.1k", "12", "abc"]

OTHERS = [0.0, -0.0, 2.5, 1e308, True, False, BLANK, OMITTED, *ERRORS]


def mixed(rng, n, pool):
    return tuple(rng.choice(pool) for _ in range(n))


@pytest.mark.parametrize("coerce", [coerce_to_number, coerce_to_text],
                         ids=["number", "text"])
def test_coercions_match_their_scalar_form(coerce):
    pool = NUMERIC_TEXT + OTHERS
    columns = [tuple(pool)] + [mixed(rng, n, pool) for rng, n in draws()]
    # one column per kind of value, so each takes the form's fast path
    # without another kind sending it all through the fallback
    columns += [(value,) * 3 for value in pool]
    for column in columns:
        same(coerce.column(column), list(map(coerce, column)))


def test_number_form_reads_the_edge_texts_as_parse_number_does():
    got = coerce_to_number.column(
        (" 1 ", "\x1c2\x1f", "1e999", "-0", "inf", "1_000", "\u0663", ""))
    same(got, [1.0, 2.0, VALUE_ERR, -0.0, VALUE_ERR, VALUE_ERR, VALUE_ERR,
               VALUE_ERR])
    # float() refuses these; the fallback still reads the good ones
    same(coerce_to_number.column(("555-1234", "7", True, BLANK, NA_ERR)),
         [VALUE_ERR, 7.0, 1.0, 0.0, NA_ERR])


BRANCHES = ["a", "", 0.0, -0.0, 3.5, True, False, BLANK, *ERRORS]


def test_if_matches_its_kernel():
    kernel = partial(fn_if, None)
    for rng, n in draws():
        truths = mixed(rng, n, [True, False])
        check(fn_if.column, kernel, rng, truths, mixed(rng, n, BRANCHES))
        check(fn_if.column, kernel, rng, truths, mixed(rng, n, BRANCHES),
              mixed(rng, n, BRANCHES))
        for then, otherwise in ((OMITTED, OMITTED), (OMITTED, "x"),
                                ("x", OMITTED)):  # IF(c,,) and the like
            same(fn_if.column(truths, repeat(then), repeat(otherwise)),
                 [kernel(truth, then, otherwise) for truth in truths])
    assert fn_if.column((True, False), repeat(OMITTED),
                        repeat(OMITTED)) == [0.0, 0.0]
    assert fn_if.column((True, False), repeat("y")) == ["y", False]


def test_iserror_matches_its_kernel():
    for rng, n in draws():
        check(fn_iserror.column, partial(fn_iserror, None), rng,
              mixed(rng, n, BRANCHES))


#: Numbers, text that folds case (and lengthens: "ß", "İ"), booleans,
#: blanks and errors, so every pair of types meets.
COMPARED = [0.0, -0.0, 1.0, 2.5, -3.0, "", "a", "A", "b", "B", "ab", "ß",
            "SS", "ss", "İ", "i̇", "1", True, False, BLANK, *ERRORS]


@pytest.mark.parametrize("op", list(COMPARISONS))
def test_comparisons_match_their_kernel(op):
    compare = COMPARISONS[op]
    for rng, n in draws():
        check(compare.column, compare, rng, mixed(rng, n, COMPARED),
              mixed(rng, n, COMPARED))
    pairs = [(x, y) for x in COMPARED for y in COMPARED]
    same(compare.column(*zip(*pairs)), [compare(x, y) for x, y in pairs])


#: What a blank stands for against each type: it takes the other side's.
BLANK_AS = {str: "", float: 0.0, bool: False}


@pytest.mark.parametrize("op", list(COMPARISONS))
def test_a_blank_compares_as_the_empty_value_of_the_other_side(op):
    compare = COMPARISONS[op]
    others = ["", "a", "B", "ß", "İ", 0.0, -0.0, 2.5, -3.0, 1e308, True,
              False]
    lefts = [BLANK] * len(others) + others
    rights = others + [BLANK] * len(others)
    expected = [compare(BLANK_AS[type(right)], right) if left is BLANK
                else compare(left, BLANK_AS[type(left)])
                for left, right in zip(lefts, rights)]
    assert expected == [compare(x, y) for x, y in zip(lefts, rights)]
    same(compare.column(lefts, rights), expected)
    # a whole column of blanks against one value, as _broadcast passes it
    for other in others:
        same(compare.column([BLANK] * 3, repeat(other)),
             [compare(BLANK, other)] * 3)


def test_comparison_form_folds_case():
    assert COMPARISONS["="].column(("ABC", "ß"), ("abc", "SS")) == [
        True, False]
    assert COMPARISONS["<"].column(("a", 1.0, True), ("B", "0", BLANK)) == [
        True, True, False]


FORMS = {
    "number": (coerce_to_number, '{=A1:A3*1}', ("1", 2.0, "x")),
    "text": (coerce_to_text, '{=LEN(A1:A3)}', ("ab", 12.0, None)),
    "ISERROR": (fn_iserror, '{=ISERROR(A1:A3*1)}', ("1", "x", None)),
    "IF": (fn_if, '{=IF(A1:A3,"t")}', (True, 0.0, None)),
    "comparison": (COMPARISONS["="], '{=A1:A3="ab"}', ("AB", 1.0, None)),
}


@pytest.mark.parametrize("name", list(FORMS))
def test_broadcast_calls_each_new_form_once_per_array(monkeypatch, name):
    owner, text, cells = FORMS[name]
    calls = []
    form = owner.column
    monkeypatch.setattr(owner, "column",
                        lambda *columns: calls.append(columns) or
                        form(*columns))
    sheet = Sheet()
    for row, value in enumerate(cells, start=1):
        if value is not None:
            sheet.set(CellAddress(1, row), value)
    result = evaluate_formula(parse_formula(text), EvalContext(sheet))
    assert len(calls) == 1
    monkeypatch.undo()
    rows = [evaluate_formula(parse_formula(text.replace("A1:A3", f"A{row}")),
                             EvalContext(sheet)) for row in (1, 2, 3)]
    same(result.cells, rows)


# ----------------------------------------------- the decided path

def one_by_one(kernel, values, lifted, captures_errors):
    """The rule the per-element decider loop applied: for each element,
    the first error among the raw lifted arguments (unless the kernel
    captures errors), then among the coerced ones, else the kernel on
    the coerced arguments.  Also returns how often the kernel ran."""
    shapes = [v.shape for i, v in enumerate(values)
              if i in lifted and isinstance(v, ArrayValue)]
    rows = max(r for r, _ in shapes)
    cols = max(c for _, c in shapes)
    columns = [_spread(v, rows, cols) if i in lifted and isinstance(
        v, ArrayValue) else repeat(v) for i, v in enumerate(values)]
    cells, runs = [], 0
    for element in zip(*columns):
        coerced = [lifted[i](v) if lifted.get(i) else v
                   for i, v in enumerate(element)]
        deciders = ([] if captures_errors else [element[i] for i in lifted])
        deciders += [coerced[i] for i, coerce in lifted.items() if coerce]
        error = next((v for v in deciders if isinstance(v, CellError)), None)
        if error is None:
            runs += 1
            cells.append(kernel(*coerced))
        else:
            cells.append(error)
    return (rows, cols), cells, runs


def operator_case(op):
    combine, lifted = _OPERATORS[op, 2]
    return combine, lifted, False


def function_case(name, count):
    descriptor = lookup(name)
    return (partial(descriptor.impl, None), descriptor.plans[count],
            descriptor.captures_errors)


CASES = {
    "+": operator_case("+"), "&": operator_case("&"),
    "<": operator_case("<"), "LEFT": function_case("LEFT", 2),
    "FIND": function_case("FIND", 3), "IF": function_case("IF", 3),
    "ISERROR": function_case("ISERROR", 1),
}

POOL = ["abc", "a", "", "1", " 2 ", "1.1k", "555-1234", "b(c", 0.0, 1.0,
        -2.5, 3.0, True, False, BLANK, *ERRORS]


def col(*cells):
    return ArrayValue.column(list(cells))


#: (case, arguments) that each reach one branch of the decided path
EXPLICIT = [
    # several array deciders, raw and coerced, in two arrays
    ("+", [col(1.0, "x", VALUE_ERR, 2.0, "y"),
           col(NA_ERR, 1.0, 2.0, "z", 3.0)]),
    # a scalar raw error after array deciders
    ("FIND", [col("a", NA_ERR, "b"), col("abc", "abc", DIV0_ERR), NA_ERR]),
    # a scalar coercion error after array deciders
    ("LEFT", [col("abc", DIV0_ERR, 1.0), "x"]),
    # no element decided
    ("LEFT", [col("abc", "de", BLANK), 2.0]),
    # every element decided
    ("+", [col("x", VALUE_ERR, "1.1k"), 1.0]),
    ("LEFT", [col("abc", "de"), NA_ERR]),
    # kernels that capture errors
    ("ISERROR", [col(VALUE_ERR, 1.0, "x", BLANK)]),
    ("IF", [col(True, NA_ERR, False, "x", 0.0), col(DIV0_ERR, 1.0, 2.0,
                                                     3.0, 4.0), "z"]),
]


def random_case(rng):
    name = rng.choice(list(CASES))
    rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
    values = []
    for _ in CASES[name][1]:  # one argument per lifted position
        if rng.random() < 0.3:
            values.append(rng.choice(POOL))
        else:
            r, c = rng.choice([(rows, cols), (rows, 1), (1, cols)])
            values.append(ArrayValue(r, c, mixed(rng, r * c, POOL)))
    if not any(isinstance(v, ArrayValue) for v in values):
        values[0] = ArrayValue(rows, cols, mixed(rng, rows * cols, POOL))
    return name, values


def cases():
    yield from EXPLICIT
    for seed in range(300):
        yield random_case(random.Random(seed))


def test_broadcast_decides_as_the_element_loop_did():
    seen = set()
    for name, values in cases():
        kernel, lifted, captures = CASES[name]
        shape, expected, runs = one_by_one(kernel, values, lifted, captures)
        arrays = [i for i in lifted if isinstance(values[i], ArrayValue)]
        got = _broadcast(kernel, list(values), arrays, lifted, captures)
        assert got.shape == shape
        same(got.cells, expected)
        seen.add("none decided" if runs == len(expected) else
                 "all decided" if runs == 0 else "some decided")
        if captures:
            seen.add("captures errors")
    assert seen == {"none decided", "all decided", "some decided",
                    "captures errors"}


def test_a_kernel_without_a_form_runs_once_per_undecided_element():
    for name, values in cases():
        kernel, lifted, captures = CASES[name]
        calls = []

        def timed(ctx, *args):  # as a benchmark's wrapped impl
            calls.append(args)
            return kernel(*args)
        shape, expected, runs = one_by_one(kernel, values, lifted, captures)
        arrays = [i for i in lifted if isinstance(values[i], ArrayValue)]
        got = _broadcast(partial(timed, None), list(values), arrays, lifted,
                         captures)
        same(got.cells, expected)
        assert len(calls) == runs


def test_a_scalar_error_decider_is_bounded_by_the_shape():
    got = _broadcast(CASES["LEFT"][0], [col("a", "b", "c"), NA_ERR], [0],
                     CASES["LEFT"][1], False)
    assert got.cells == (NA_ERR,) * 3


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
