"""Sheet storage, A1 addressing, CSV round trips and spilling."""

import io

import pytest

from sprego.grid import (
    MAX_COLS,
    MAX_RANGE_CELLS,
    MAX_ROWS,
    CellAddress,
    GridError,
    IngestError,
    RangeRef,
    Sheet,
    as_range,
    column_letters,
    letters_to_column,
    load_csv,
    parse_a1,
    parse_cell,
    range_to_csv,
)
from sprego.values import ArrayValue, BLANK, OMITTED


class TestColumnLetters:
    @pytest.mark.parametrize("col,letters", [
        (1, "A"), (2, "B"), (26, "Z"), (27, "AA"), (52, "AZ"),
        (53, "BA"), (702, "ZZ"), (703, "AAA"), (16384, "XFD"),
    ])
    def test_known_pairs(self, col, letters):
        assert column_letters(col) == letters
        assert letters_to_column(letters) == col

    def test_round_trip_over_full_width(self):
        for col in range(1, MAX_COLS + 1, 97):
            assert letters_to_column(column_letters(col)) == col

    def test_lowercase_accepted(self):
        assert letters_to_column("xfd") == 16384

    def test_zero_rejected(self):
        with pytest.raises(GridError):
            column_letters(0)


class TestAddressParsing:
    def test_cell(self):
        addr = parse_cell("C2")
        assert (addr.col, addr.row) == (3, 2)
        assert addr.a1 == "C2"

    def test_absolute_markers_are_ignored(self):
        assert parse_cell("$H$1003") == CellAddress(8, 1003)
        assert parse_a1("$B$2:$C$15") == parse_a1("B2:C15")

    def test_case_insensitive(self):
        assert parse_cell("aa10") == CellAddress(27, 10)

    def test_range_normalizes_corners(self):
        rng = parse_a1("C15:B2")
        assert isinstance(rng, RangeRef)
        assert rng.top_left == CellAddress(2, 2)
        assert rng.bottom_right == CellAddress(3, 15)
        assert rng.a1 == "B2:C15"

    def test_single_cell_comes_back_as_address(self):
        parsed = parse_a1("D4")
        assert isinstance(parsed, CellAddress)
        rng = as_range(parsed)
        assert (rng.rows, rng.cols) == (1, 1)
        assert rng.a1 == "D4"

    def test_corner_cells_of_the_grid(self):
        assert parse_cell("A1") == CellAddress(1, 1)
        assert parse_cell("XFD1048576") == CellAddress(MAX_COLS, MAX_ROWS)

    @pytest.mark.parametrize("token", [
        "XFE1",        # one column past the edge
        "A1048577",    # one row past the edge
        "AAAA1",       # four letters never fit
        "A0", "12", "AB", "", "B2:C", "B-2",
    ])
    def test_rejects_out_of_range_or_malformed(self, token):
        with pytest.raises(GridError):
            parse_a1(token)

    def test_offset(self):
        assert CellAddress(2, 2).offset(3, 1) == CellAddress(3, 5)
        with pytest.raises(GridError):
            CellAddress(1, 1).offset(-1, 0)

    def test_range_walk_is_row_major(self):
        rng = parse_a1("B2:C3")
        assert list(rng.keys()) == [(2, 2), (2, 3), (3, 2), (3, 3)]


class TestSheet:
    def test_unset_cells_read_blank(self):
        sheet = Sheet()
        assert sheet.get(CellAddress(5, 5)) is BLANK

    def test_set_and_get(self):
        sheet = Sheet()
        sheet.set(parse_cell("B2"), 42.0)
        sheet.set(parse_cell("B3"), "x")
        assert sheet.get(parse_cell("B2")) == 42.0
        assert sheet.used_cells() == {(2, 2), (3, 2)}

    def test_writing_blank_deletes(self):
        sheet = Sheet()
        sheet.set(parse_cell("A1"), 1.0)
        sheet.set(parse_cell("A1"), BLANK)
        assert sheet.used_cells() == set()

    def test_omitted_is_not_data(self):
        with pytest.raises(GridError):
            Sheet().set(parse_cell("A1"), OMITTED)

    def test_get_range_densifies(self):
        sheet = Sheet()
        sheet.set(parse_cell("B2"), 1.0)
        sheet.set(parse_cell("C3"), 2.0)
        arr = sheet.get_range(as_range(parse_a1("B2:C3")))
        assert arr.to_rows() == [[1.0, BLANK], [BLANK, 2.0]]

    def test_get_range_matches_per_cell_reads_in_row_major_order(self):
        sheet = Sheet()
        for a1, value in [("C5", 1.0), ("E5", "x"), ("D6", True),
                          ("F7", BLANK), ("C8", 2.5), ("F8", "end")]:
            sheet.set(parse_cell(a1), value)
        rng = as_range(parse_a1("C5:F8"))
        expected = tuple(sheet.get(CellAddress(col, row))
                         for row in range(5, 9) for col in range(3, 7))
        arr = sheet.get_range(rng)
        assert arr.shape == (4, 4)
        assert arr.cells == expected
        assert arr.get(1, 1) is True and arr.get(3, 3) == "end"

    def test_get_range_refuses_more_than_the_cap(self):
        sheet = Sheet()
        with pytest.raises(GridError):
            sheet.get_range(as_range(parse_a1("A1:XFD1048576")))
        over = RangeRef(CellAddress(1, 1), CellAddress(2, MAX_RANGE_CELLS))
        with pytest.raises(GridError):
            over.keys()

    def test_spill_writes_rectangle(self):
        sheet = Sheet()
        rng = sheet.spill(parse_cell("B2"),
                          ArrayValue.from_rows([[1.0, 2.0], [3.0, 4.0]]))
        assert rng.a1 == "B2:C3"
        assert sheet.get(parse_cell("C3")) == 4.0

    def test_spill_of_blanks_clears_cells(self):
        sheet = Sheet()
        sheet.set(parse_cell("A2"), 9.0)
        sheet.spill(parse_cell("A1"), ArrayValue.column([1.0, BLANK]))
        assert sheet.used_cells() == {(1, 1)}

    def test_failed_spill_changes_nothing(self):
        sheet = Sheet()
        sheet.set(parse_cell("A1"), 7.0)
        tall = ArrayValue.column([0.0] * 3)
        with pytest.raises(GridError):
            sheet.spill(CellAddress(1, MAX_ROWS - 1), tall)
        assert sheet.get(parse_cell("A1")) == 7.0
        assert len(sheet.used_cells()) == 1


    def test_spill_with_a_placeholder_changes_nothing(self):
        sheet = Sheet()
        sheet.set(parse_cell("A1"), 7.0)
        mixed = ArrayValue.column([1.0, OMITTED, 3.0])
        with pytest.raises(GridError):
            sheet.spill(parse_cell("A1"), mixed)
        assert sheet.get(parse_cell("A1")) == 7.0
        assert len(sheet.used_cells()) == 1


SAMPLE = 'name,count\n"a,b",3\nplain,\nlast,0.5\n'


class TestLoadCsv:
    def test_numbers_inferred_below_header(self):
        sheet = load_csv(io.StringIO(SAMPLE))
        assert sheet.get(parse_cell("A1")) == "name"
        assert sheet.get(parse_cell("B2")) == 3.0
        assert sheet.get(parse_cell("B4")) == 0.5

    def test_header_row_stays_text_even_when_numeric(self):
        sheet = load_csv(io.StringIO("1,2\n3,4\n"))
        assert sheet.get(parse_cell("A1")) == "1"
        assert sheet.get(parse_cell("A2")) == 3.0

    def test_no_header_mode(self):
        sheet = load_csv(io.StringIO("1,2\n"), header=False)
        assert sheet.get(parse_cell("A1")) == 1.0

    def test_quoted_commas_survive(self):
        sheet = load_csv(io.StringIO(SAMPLE))
        assert sheet.get(parse_cell("A2")) == "a,b"

    def test_empty_fields_stay_unset(self):
        sheet = load_csv(io.StringIO(SAMPLE))
        assert sheet.get(parse_cell("B3")) is BLANK
        assert (3, 2) not in sheet.used_cells()

    def test_other_scripts_digits_stay_text(self):
        sheet = load_csv(io.StringIO("n\n\u0663\n12\n"))
        assert sheet.get(parse_cell("A2")) == "\u0663"
        assert sheet.get(parse_cell("A3")) == 12.0

    def test_force_text(self):
        sheet = load_csv(io.StringIO(SAMPLE), force_text=True)
        assert sheet.get(parse_cell("B2")) == "3"

    def test_column_offset_shifts_right(self):
        sheet = load_csv(io.StringIO(SAMPLE), column_offset=1)
        assert sheet.get(parse_cell("A1")) is BLANK
        assert sheet.get(parse_cell("B1")) == "name"
        assert sheet.get(parse_cell("C2")) == 3.0

    def test_column_offset_past_the_last_column_rejected(self):
        with pytest.raises(GridError):
            load_csv(io.StringIO("a,b\n"), column_offset=MAX_COLS - 1)
        edge = load_csv(io.StringIO("a,b\n"), column_offset=MAX_COLS - 2)
        assert edge.get(CellAddress(MAX_COLS, 1)) == "b"
        # an empty field past the edge stores nothing, so it is no error
        trailing = load_csv(io.StringIO("a,\n"), column_offset=MAX_COLS - 1)
        assert trailing.used_cells() == {(1, MAX_COLS)}

    def test_negative_offset_rejected(self):
        with pytest.raises(IngestError):
            load_csv(io.StringIO(SAMPLE), column_offset=-1)

    def test_missing_file(self):
        with pytest.raises(IngestError):
            load_csv("/no/such/file.csv")

    def test_bad_utf8(self):
        with pytest.raises(IngestError):
            load_csv(io.BytesIO(b"a,\xff\xfe\n"))

    def test_byte_stream_left_open_for_caller(self):
        stream = io.BytesIO(SAMPLE.encode())
        load_csv(stream)
        assert not stream.closed

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(SAMPLE, encoding="utf-8")
        sheet = load_csv(path)
        assert sheet.get(parse_cell("B4")) == 0.5


class TestExport:
    def test_round_trip_through_render(self):
        sheet = load_csv(io.StringIO(SAMPLE))
        out = range_to_csv(sheet, as_range(parse_a1("A1:B4")))
        assert out == SAMPLE

    def test_booleans_and_errors_render(self):
        sheet = Sheet()
        sheet.set(parse_cell("A1"), True)
        sheet.set(parse_cell("B1"), 2.0)
        assert range_to_csv(sheet, as_range(parse_a1("A1:B1"))) == "TRUE,2\n"
