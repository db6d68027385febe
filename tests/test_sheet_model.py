"""Sheet storage checked against a plain (row, col) -> value model.

A fixed-seed run of set (blanks included), spill, update and load_csv
drives a Sheet and a dict model side by side.  After every operation
get, used_cells, get_range and range_to_csv must agree with the model,
and the sheet must equal one rebuilt from the model, so clearing a
column's last cell leaves no column behind.  Loads over a sheet leave
their columns unconverted, so writes before and after them are checked
only after a run of operations, against the same model.
"""

import csv
import io
import random

import pytest

from sprego.grid import (
    CellAddress,
    Sheet,
    as_range,
    load_csv,
    parse_a1,
    range_to_csv,
)
from sprego.script import run_script
from sprego.values import ArrayValue, BLANK, NA_ERR, render

#: Writes land in rows 10..40 of columns A..F; column G is never written.
TOP, BOTTOM, WIDTH = 10, 40, 6

VALUES = [BLANK, BLANK, 1.0, -2.5, 0.0, "x", "", True, False, NA_ERR]

#: CSV field text and the value load_csv stores for it.
FIELDS = {"": BLANK, "7": 7.0, "-2.5": -2.5, "abc": "abc", "a,b": "a,b"}

RANGES = [
    "B12",            # 1x1
    "C10",
    "A1:A500",        # single columns much taller than the stored data
    "F1:F1000",
    "B15:B18",        # a short range in a column that may be full
    "A1:F5",          # entirely above the stored rows
    "A100:F150",      # entirely below them
    "G1:G50",         # a column never written
    "A1:F60",         # multi-column, row-major
    "B12:D20",
    "E9:H41",         # written and never-written columns together
]


def typed(values):
    """Values paired with their types, so 0.0, False and BLANK differ."""
    return [(type(v), v) for v in values]


def expected_range(model, text):
    rng = as_range(parse_a1(text))
    return tuple(model.get((row, col), BLANK)
                 for row in range(rng.top_left.row, rng.bottom_right.row + 1)
                 for col in range(rng.top_left.col, rng.bottom_right.col + 1))


def expected_csv(model, text):
    rng = as_range(parse_a1(text))
    cells = expected_range(model, text)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for start in range(0, len(cells), rng.cols):
        writer.writerow([render(v) for v in cells[start:start + rng.cols]])
    return out.getvalue()


def rebuilt(model):
    sheet = Sheet()
    for (row, col), value in model.items():
        sheet.set(CellAddress(col, row), value)
    return sheet


def check(sheet, model):
    probes = [(row, col) for row in range(TOP - 2, BOTTOM + 3)
              for col in range(1, WIDTH + 2)]
    assert typed(sheet.get(CellAddress(col, row)) for row, col in probes) \
        == typed(model.get(key, BLANK) for key in probes)
    assert sheet.used_cells() == set(model)
    for text in RANGES:
        rng = as_range(parse_a1(text))
        got = sheet.get_range(rng)
        assert (got.rows, got.cols) == (rng.rows, rng.cols)
        assert typed(got.cells) == typed(expected_range(model, text)), text
    for text in ("A10:F40", "G1:G3", "C38:D45"):
        assert range_to_csv(sheet, as_range(parse_a1(text))) == \
            expected_csv(model, text)
    assert sheet == rebuilt(model)


def random_cell(rng):
    return rng.randint(TOP, BOTTOM), rng.randint(1, WIDTH)


def do_set(rng, sheet, model):
    row, col = random_cell(rng)
    value = rng.choice(VALUES)
    sheet.set(CellAddress(col, row), value)
    if value is BLANK:
        model.pop((row, col), None)
    else:
        model[(row, col)] = value


def do_spill(rng, sheet, model):
    top, left = random_cell(rng)
    rows = rng.randint(1, min(5, BOTTOM - top + 1))
    cols = rng.randint(1, min(3, WIDTH - left + 1))
    blank_share = rng.choice([0.0, 0.5, 1.0])
    cells = tuple(BLANK if rng.random() < blank_share else rng.choice(VALUES)
                  for _ in range(rows * cols))
    sheet.spill(CellAddress(left, top), ArrayValue(rows, cols, cells))
    for index, value in enumerate(cells):
        key = (top + index // cols, left + index % cols)
        if value is BLANK:
            model.pop(key, None)
        else:
            model[key] = value


def do_update(rng, sheet, model):
    other, other_model = Sheet(), {}
    for _ in range(rng.randint(0, 8)):
        do_set(rng, other, other_model)
    sheet.update(other)
    model.update(other_model)
    check(other, other_model)


def do_load(rng):
    """A fresh sheet from CSV text whose first row lands on row TOP."""
    offset = rng.randint(0, 2)
    out = io.StringIO()
    writer = csv.writer(out)
    for _ in range(TOP - 1):
        writer.writerow([])
    model = {}
    for row in range(TOP, rng.randint(TOP, BOTTOM) + 1):
        texts = [rng.choice(list(FIELDS))
                 for _ in range(rng.randint(1, WIDTH - offset))]
        writer.writerow(texts)
        for col, text in enumerate(texts, start=offset + 1):
            if FIELDS[text] is not BLANK:
                model[(row, col)] = FIELDS[text]
    return load_csv(io.StringIO(out.getvalue()), header=False,
                    column_offset=offset), model


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sheet_matches_dict_model(seed):
    rng = random.Random(seed)
    sheet, model = Sheet(), {}
    for _ in range(100):
        kind = rng.choices(["set", "spill", "update", "load"],
                           weights=[10, 6, 2, 1])[0]
        if kind == "set":
            do_set(rng, sheet, model)
        elif kind == "spill":
            do_spill(rng, sheet, model)
        elif kind == "update":
            do_update(rng, sheet, model)
        else:
            sheet, model = do_load(rng)
        check(sheet, model)


def do_load_over(rng, sheet, model):
    """A CSV load copied over the sheet, as a script's LOAD does: its
    columns stay unconverted until a later operation touches them."""
    loaded, loaded_model = do_load(rng)
    sheet.update(loaded)
    model.update(loaded_model)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_the_last_write_wins_around_loads_over_a_sheet(seed):
    rng = random.Random(seed)
    sheet, model = Sheet(), {}
    ops = {"set": do_set, "spill": do_spill, "update": do_update,
           "load": do_load_over}
    for _ in range(12):
        for _ in range(rng.randint(1, 10)):
            kind = rng.choices(list(ops), weights=[6, 4, 2, 3])[0]
            ops[kind](rng, sheet, model)
        # counted from row keys, before check converts every column
        assert sheet.cell_count() == len(model)
        check(sheet, model)


def test_script_writes_before_and_after_a_load_keep_their_order(tmp_path):
    (tmp_path / "data.csv").write_text("h1,h2,h3\n1,2,3\n4,5,6\n")
    script = tmp_path / "t.sprego"
    script.write_text(
        "SET C2 = 100\n"          # loaded over
        "LOAD data.csv\n"
        "SET C3 = 7\n"            # written over the load
        "STEP S B2 = =99\n"
        "EXPECT A2:C3 = 1,99,3;4,5,7\n"
        "SET A3 = 8\n"
        "LOAD data.csv\n"         # loaded over every write above
        "EXPECT A1:C3 = h1,h2,h3;1,2,3;4,5,6\n")
    report = run_script(script)
    assert report.ok, report.render()
    assert [o.text for o in report.outcomes if o.text.startswith("LOAD")] \
        == ["LOAD data.csv: 9 cells"] * 2


def test_clearing_a_columns_last_cell_leaves_no_column():
    sheet = Sheet()
    sheet.set(CellAddress(2, 5), 1.0)
    sheet.set(CellAddress(2, 5), BLANK)
    assert sheet == Sheet() and sheet.used_cells() == set()


def test_blank_spill_over_a_column_leaves_no_column():
    sheet = Sheet()
    sheet.spill(CellAddress(3, 1), ArrayValue(3, 1, (1.0, "a", True)))
    sheet.spill(CellAddress(3, 1), ArrayValue(3, 1, (BLANK,) * 3))
    assert sheet == Sheet()
    assert sheet.get_range(as_range(parse_a1("C1:C3"))).cells == (BLANK,) * 3
