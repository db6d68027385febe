"""Aggregates read a range by its stored cells: a differential check.

SUM, AVERAGE, MIN, MAX, SMALL, LARGE, AND and OR take a range literal
unread and read only what it stores (Sheet.stored), row-major.  Each
result must be the one the same kernel gives on the dense array that
get_range reads, compared by repr, so 0.0 is not -0.0 and the first
error in row-major order and in argument order is the one kept.
"""

import io
import random

import pytest

from sprego import EvalContext, Sheet, evaluate_formula, parse_formula
from sprego.functions import REGISTRY, read_range
from sprego.grid import (MAX_RANGE_CELLS, MAX_ROWS, CellAddress, RangeRef,
                         load_csv)
from sprego.values import (DIV0_ERR, NA_ERR, NUM_ERR, REF_ERR,
                           VALUE_ERR, CellError)

AGGREGATES = ("SUM", "AVERAGE", "MIN", "MAX", "AND", "OR")
KTH = ("SMALL", "LARGE")

#: What a cell may hold: signed zeros, other numbers, errors, text and
#: booleans, each several times over so repeats and ties are common.
_VALUES = [0.0, -0.0, 0.0, -0.0, 1.5, -2.0, 7.0, 1e308, -1e308, NA_ERR,
           DIV0_ERR, NUM_ERR, VALUE_ERR, REF_ERR, "x", "12", "", True,
           False]

ROWS, COLS = 40, 4


def _sparse_sheet(rng: random.Random) -> Sheet:
    """A sheet whose columns range from nearly empty to full, written
    cell by cell in shuffled row order, so a column's rows are not
    stored in row order."""
    sheet = Sheet()
    cells = [(row, col) for col in range(1, COLS + 1)
             if (density := rng.choice([0.05, 0.2, 0.5, 1.0]))
             for row in range(1, ROWS + 1) if rng.random() < density]
    rng.shuffle(cells)
    for row, col in cells:
        sheet.set(CellAddress(col, row), rng.choice(_VALUES))
    return sheet


def _rectangle(rng: random.Random) -> RangeRef:
    """A range inside or past the written block, one to five columns
    wide, from one row to several times the block's height."""
    top, left = rng.randint(1, ROWS), rng.randint(1, COLS + 1)
    return RangeRef.make(
        CellAddress(left, top),
        CellAddress(left + rng.choice([0, 0, 1, 2, 4]),
                    top + rng.choice([0, 3, ROWS, 5 * ROWS])))


def _results(sheet: Sheet, name: str, ranges: list[RangeRef], *rest):
    """The kernel's result on the ranges themselves, and on their dense
    reads (#NUM! for one above the cap), as reprs."""
    kernel = REGISTRY[name].impl
    ctx = EvalContext(sheet)
    dense = [read_range(sheet, rng) for rng in ranges]
    return (repr(kernel(ctx, *ranges, *rest)),
            repr(kernel(ctx, *dense, *rest)))


def _check(sheet: Sheet, ranges: list[RangeRef], rng: random.Random):
    for name in AGGREGATES:
        stored, dense = _results(sheet, name, ranges)
        assert stored == dense, (name, [r.a1 for r in ranges])
    for name in KTH:
        k = float(rng.randint(0, 12))
        stored, dense = _results(sheet, name, ranges[:1], k)
        assert stored == dense, (name, ranges[0].a1, k)


@pytest.mark.parametrize("seed", range(3))
def test_stored_reads_match_dense_reads_on_shuffled_sparse_sheets(seed):
    rng = random.Random(seed)
    for _ in range(150):
        sheet = _sparse_sheet(rng)
        for _ in range(4):
            _check(sheet, [_rectangle(rng)
                           for _ in range(rng.choice([1, 1, 2, 3]))], rng)


def test_signed_zeros_keep_their_order():
    # which zero MIN, MAX, SMALL and LARGE give depends on order alone
    sheet = Sheet()
    for row, value in [(5, 0.0), (2, -0.0), (9, 0.0), (1, 3.0)]:
        sheet.set(CellAddress(1, row), value)
    column = RangeRef.make(CellAddress(1, 1), CellAddress(1, 100))
    assert sheet.stored(column) == [3.0, -0.0, 0.0, 0.0]
    rng = random.Random(0)
    for _ in range(20):
        _check(sheet, [column], rng)


def test_multi_column_ranges_read_row_major():
    sheet = Sheet()
    # (column, row): row-major meets B1 then A2, column-major A2 first
    for (col, row), value in [((2, 1), NA_ERR), ((1, 2), DIV0_ERR),
                              ((2, 2), -0.0), ((1, 3), 0.0), ((3, 1), NUM_ERR)]:
        sheet.set(CellAddress(col, row), value)
    block = RangeRef.make(CellAddress(1, 1), CellAddress(2, 50))
    assert list(map(repr, sheet.stored(block))) == list(map(repr, [
        NA_ERR, DIV0_ERR, -0.0, 0.0]))
    _check(sheet, [block], random.Random(1))


def test_a_range_over_the_cap_is_num_in_its_own_position():
    sheet = _sparse_sheet(random.Random(7))
    over = RangeRef.make(CellAddress(1, 1), CellAddress(2, MAX_ROWS))
    assert over.rows * over.cols > MAX_RANGE_CELLS
    erring = RangeRef.make(CellAddress(1, 1), CellAddress(COLS, ROWS))
    assert CellError in map(type, sheet.stored(erring))
    for ranges in ([over, erring], [erring, over], [over]):
        _check(sheet, ranges, random.Random(2))
    assert _results(sheet, "SUM", [over, erring])[0] == repr(NUM_ERR)


def test_a_column_pending_from_load_csv_is_converted_first():
    rng = random.Random(5)
    fields = ["-0", "0", "4", "x", "TRUE", "", "1e999"]
    data = "".join(f"{rng.choice(fields)},{row}\n" for row in range(300))
    column = RangeRef.make(CellAddress(1, 1), CellAddress(1, 5000))
    pair = RangeRef.make(CellAddress(1, 1), CellAddress(2, 5000))
    for rng in (column, pair):
        for name in AGGREGATES + KTH:
            sheets = [load_csv(io.StringIO(data), header=False)
                      for _ in range(2)]
            assert 1 in sheets[0]._pending
            rest = (2.0,) if name in KTH else ()
            kernel, ctx = REGISTRY[name].impl, EvalContext(sheets[0])
            stored = kernel(ctx, rng, *rest)
            dense = kernel(EvalContext(sheets[1]),
                           sheets[1].get_range(rng), *rest)
            assert repr(stored) == repr(dense), (name, rng.a1)


def test_formulas_pass_range_literals_to_the_kernel_unread(monkeypatch):
    sheet = _sparse_sheet(random.Random(4))
    sheet.set(CellAddress(6, 1), "5")

    def refuse(*args):
        raise AssertionError("a dense read")

    monkeypatch.setattr(Sheet, "get_range", refuse)
    column = RangeRef.make(CellAddress(1, 1), CellAddress(1, MAX_ROWS))
    block = RangeRef.make(CellAddress(3, 3), CellAddress(4, 9))
    for name, k in [(name, None) for name in AGGREGATES] + [
            (name, 2.0) for name in KTH]:
        text = (f"={name}(A1:A{MAX_ROWS},F1,C3:D9)" if k is None
                else f"={name}(C3:D9,2)")
        args = [column, "5", block] if k is None else [block, k]
        expected = REGISTRY[name].impl(EvalContext(sheet), *args)
        got = evaluate_formula(parse_formula(text), EvalContext(sheet))
        assert repr(got) == repr(expected), text
    # a direct cell is still evaluated: its text counts as a number,
    # where a range's text is skipped
    assert evaluate_formula(parse_formula("=SUM(F1,F1:F1)"),
                            EvalContext(sheet)) == 5.0
