"""Sheet storage, A1 addressing, CSV round trips and spilling."""

import csv
import io
import math
import random
import re
import tracemalloc

import pytest

from sprego import cli, grid, values
from sprego.grid import (
    ADDRESS_MEMO,
    BLOCK_ROWS,
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
    parse_range,
    range_to_csv,
)
from sprego.values import (ArrayValue, BLANK, NUMBER_PATTERN, OMITTED,
                           VALUE_ERR, parse_number, read_numbers)


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

    def test_memo_is_bounded_and_right_after_eviction(self):
        cells = {f"{column_letters(7 * i + 1)}{3 * i + 7}":
                 CellAddress(7 * i + 1, 3 * i + 7)
                 for i in range(ADDRESS_MEMO + 100)}
        corner = CellAddress(5, 100)
        for _ in range(2):  # the second round reads what was evicted
            for text, addr in cells.items():
                assert parse_cell(text) == addr
                assert parse_cell(text.lower()) == addr
                assert parse_range(text, "$E$100") == RangeRef.make(
                    addr, corner)
                assert parse_a1(f"E100:{text}") == RangeRef.make(
                    corner, addr)
        for memo in (grid._cell_memo, grid._range_memo):
            info = memo.cache_info()
            assert info.maxsize == ADDRESS_MEMO
            assert info.currsize <= info.maxsize

    def test_spellings_of_one_cell_decode_equal(self):
        assert parse_cell("$c$3") == parse_cell("C3") == CellAddress(3, 3)
        assert parse_range("$c$3", "d4") == parse_range("D4", "C3")
        # leading zeros make a long lexeme, decoded but not kept
        long = "A" + "0" * 40 + "1"
        before = grid._cell_memo.cache_info().currsize
        assert parse_cell(long) == parse_cell("A1")
        assert grid._cell_memo.cache_info().currsize == before

    @pytest.mark.parametrize("first, second, bad", [
        ("XFE1", "A1", "XFE1"), ("A1", "A1048577", "A1048577"),
        ("A1", "B", "B"), ("C", "A0", "C"),
    ])
    def test_errors_are_never_kept(self, first, second, bad):
        for _ in range(2):
            with pytest.raises(GridError, match=repr(bad)):
                parse_range(first, second)
            with pytest.raises(GridError, match=repr(bad)):
                parse_cell(bad)

    def test_offset(self):
        assert CellAddress(2, 2).offset(3, 1) == CellAddress(3, 5)
        with pytest.raises(GridError):
            CellAddress(1, 1).offset(-1, 0)


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
        assert arr == ArrayValue(2, 2, (1.0, BLANK, BLANK, 2.0))

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
            over.check_size()

    def test_spill_writes_rectangle(self):
        sheet = Sheet()
        rng = sheet.spill(parse_cell("B2"),
                          ArrayValue(2, 2, (1.0, 2.0, 3.0, 4.0)))
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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text(SAMPLE, encoding="utf-8-sig")
        assert load_csv(path).get(parse_cell("A1")) == "name"
        stream = io.BytesIO(SAMPLE.encode("utf-8-sig"))
        assert load_csv(stream).get(parse_cell("A1")) == "name"

    def test_byte_stream_left_open_for_caller(self):
        stream = io.BytesIO(SAMPLE.encode())
        load_csv(stream)
        assert not stream.closed

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(SAMPLE, encoding="utf-8")
        sheet = load_csv(path)
        assert sheet.get(parse_cell("B4")) == 0.5

    def test_a_load_peaks_at_about_the_pending_sheet_it_returns(self):
        # load_csv keeps each column's texts pending, unconverted: its
        # tracemalloc peak is bounded by the size of the pending sheet
        # it returns, measured before any read converts a column
        rng = random.Random(5)
        source = io.StringIO("a,b,c,d,e\n" + "".join(
            ",".join(str(rng.randint(0, 10**6)) if rng.random() < 0.5
                     else f"{rng.random() * 1000:.4f}" for _ in range(5))
            + "\n" for _ in range(20000)))
        tracemalloc.start()
        try:
            sheet = load_csv(source)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sheet.get(parse_cell("E20001")).__class__ is float
        assert peak <= 1.1 * size


# load_csv with one regex parse per field, written from NUMBER_PATTERN:
# the reference that load_csv and values.parse_number must agree with
_MODEL_NUMBER = re.compile(r"[+-]?" + NUMBER_PATTERN + r"\Z")


def _model_number(text):
    stripped = text.strip()
    if not _MODEL_NUMBER.match(stripped):
        return None
    result = float(stripped)
    return result if math.isfinite(result) else None


def _model_load(data: bytes, header, force_text, column_offset):
    cells = {}
    reader = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    for row_idx, fields in enumerate(reader, start=1):
        numeric = not force_text and not (header and row_idx == 1)
        for col_idx, text in enumerate(fields, start=column_offset + 1):
            if text == "":
                continue
            if row_idx > MAX_ROWS or col_idx > MAX_COLS:
                raise GridError(
                    f"address out of range: col={col_idx} row={row_idx}")
            value = text
            if numeric:
                number = _model_number(text)
                if number is not None:
                    value = number
            cells[row_idx, col_idx] = value
    return cells


_CORES = ["0", "12", "-3", "+4.5", ".5", "5.", "-.5", "+5.", "1e3",
          "-2.5E-3", "1E+2", "007", "-0", "1e999", "-1e999", "inf", "-inf",
          "nan", "NaN", "Infinity", "1_000", "\u0661\u0662", "\u0663.5",
          "1.2.3", "e5", "1e", ".", "+", "-", "", "0x10", "1,5", "12 3",
          "abc", 'say "hi"', "a,b", "line\nbreak", "1\n2", "TRUE"]
_PADS = ["", "", " ", "  ", "\t", "\xa0", "\u2028", "\u3000", "\x1f",
         "\n", "\r\n"]


def _random_csv(rng: random.Random) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, quoting=rng.choice(
        [csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    for _ in range(rng.randint(1, 30)):
        writer.writerow([rng.choice(_PADS) + rng.choice(_CORES)
                         + rng.choice(_PADS)
                         for _ in range(rng.choice([0, 1, 2, 3, 5, 7]))])
    text = out.getvalue()
    return text.encode("utf-8-sig" if rng.random() < 0.3 else "utf-8")


class TestLoadCsvAgainstPerFieldModel:
    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("force_text", [False, True])
    @pytest.mark.parametrize("column_offset", [0, 3])
    def test_same_values_and_types(self, header, force_text, column_offset):
        rng = random.Random(f"{header}-{force_text}-{column_offset}")
        for _ in range(40):
            data = _random_csv(rng)
            sheet = load_csv(io.BytesIO(data), header=header,
                             force_text=force_text,
                             column_offset=column_offset)
            model = _model_load(data, header, force_text, column_offset)
            assert sheet.used_cells() == set(model)
            for (row, col), value in model.items():
                got = sheet.get(CellAddress(col, row))
                assert (type(got), repr(got)) == (type(value), repr(value))

    def test_each_core_inside_each_pad(self):
        data = "n\n" + "\n".join(
            f'"{pad}{core}{pad}"' for core in _CORES for pad in _PADS
            if '"' not in core) + "\n"
        model = _model_load(data.encode(), True, False, 0)
        sheet = load_csv(io.StringIO(data))
        kinds = {type(v) for v in model.values()}
        assert kinds == {str, float}
        for (row, col), value in model.items():
            got = sheet.get(CellAddress(col, row))
            assert (type(got), repr(got)) == (type(value), repr(value))

    def test_off_sheet_message_is_unchanged(self):
        with pytest.raises(GridError) as caught:
            load_csv(io.StringIO("a\n"), column_offset=100000)
        assert str(caught.value) == "address out of range: col=100001 row=1"


def _same_as_model(data: bytes, **options):
    """load_csv gives what the per-field model gives, cell for cell and
    type for type, or the same GridError message."""
    try:
        model = _model_load(data, options.get("header", True),
                            options.get("force_text", False),
                            options.get("column_offset", 0))
    except GridError as expected:
        with pytest.raises(GridError) as caught:
            load_csv(io.BytesIO(data), **options)
        assert str(caught.value) == str(expected)
        return
    sheet = load_csv(io.BytesIO(data), **options)
    assert sheet.used_cells() == set(model)
    for (row, col), value in model.items():
        got = sheet.get(CellAddress(col, row))
        assert (type(got), repr(got)) == (type(value), repr(value))


#: Fields with no comma, quote or line break: numbers, padded numbers,
#: text float() refuses although its alphabet admits it, and text
_FIELDS = ["0", "12", "-3", "+4.5", ".5", "1e3", "007", "-0", " 12 ",
           "1e999", "1.2.3", "e5", "x", "1.1k", "TRUE", "", ""]


def _board(rows: int, rng: random.Random) -> bytes:
    """A header, then rows of those fields, some short and some long."""
    lines = ["a,b,c,d"] + [
        ",".join(rng.choices(_FIELDS, k=rng.choice([0, 1, 3, 4, 4, 4, 6])))
        for _ in range(rows)]
    return ("\n".join(lines) + "\n").encode()


class TestLoadCsvByBlock:
    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                      BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_every_row_count_around_a_block(self, rows):
        data = _board(rows, random.Random(rows))
        _same_as_model(data)
        # without a header, the first block holds BLOCK_ROWS data rows
        _same_as_model(data, header=False)

    @pytest.mark.parametrize("options", [
        {"header": False}, {"force_text": True}, {"column_offset": 2},
        {"header": False, "force_text": True, "column_offset": 1}],
        ids=str)
    def test_options_across_blocks(self, options):
        _same_as_model(_board(2 * BLOCK_ROWS + 1, random.Random(7)),
                       **options)

    def test_a_column_empty_in_every_row_is_not_stored(self):
        data = ("a,,c\n" + "1,,x\n" * (BLOCK_ROWS + 2)).encode()
        _same_as_model(data)
        sheet = load_csv(io.BytesIO(data))
        assert {col for _, col in sheet.used_cells()} == {1, 3}

    def test_the_first_field_off_the_sheet_is_named(self):
        edge = MAX_COLS - 2
        data = ("a,b\n" + "1,2\n" * BLOCK_ROWS + "3,4,5\n6,7,8,9\n").encode()
        _same_as_model(data, column_offset=edge)
        with pytest.raises(GridError, match=f"col={MAX_COLS + 1} row="
                           f"{BLOCK_ROWS + 2}$"):
            load_csv(io.BytesIO(data), column_offset=edge)

    # blank lines are rows that store nothing; as BLOCK_ROWS divides
    # MAX_ROWS, row MAX_ROWS + 1 ends a block after a header's block of
    # its own, and starts one without a header
    @pytest.mark.parametrize("header,tail,row", [
        (True, "x\n", MAX_ROWS + 1), (False, ",\nx,y\nz\n", MAX_ROWS + 2)])
    def test_a_row_past_the_last_raises_at_that_row(self, header, tail, row):
        with pytest.raises(GridError) as caught:
            load_csv(io.BytesIO(("\n" * MAX_ROWS + tail).encode()),
                     header=header)
        assert str(caught.value) == f"address out of range: col=1 row={row}"

    def test_the_last_row_loads(self):
        last = ("\n" * (MAX_ROWS - 1) + "7\n,\n").encode()
        sheet = load_csv(io.BytesIO(last), header=False)
        assert sheet.used_cells() == {(MAX_ROWS, 1)}
        assert sheet.get(CellAddress(1, MAX_ROWS)) == 7.0


#: Text float() refuses although the number alphabet admits every
#: character, beside signed numbers and other text
_MIXED = ["2024-01-05", "-2024-01-05", " 1999-12-31 ", "555-1234",
          "10-20", "5-", "--5", "+-1", "1.2.3", "192.168.0.1", "1e", "e5",
          "1e5e5", "1e-5", "-1e+5", "-3", "+4.5", "12", ".5", "-", "x",
          "TRUE", "1.1k", "2024-01-05T10:00"]


class TestMixedNumericText:
    @pytest.mark.parametrize("seed", range(4))
    def test_read_numbers_agrees_with_the_model(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            texts = rng.choices(_MIXED, k=rng.randint(1, 40))
            numbers = [_model_number(text) for text in texts]
            for keep_text in (True, False):
                expected = [text if number is None and keep_text
                            else VALUE_ERR if number is None else number
                            for text, number in zip(texts, numbers)]
                got = read_numbers(texts, keep_text)
                assert [(type(v), repr(v)) for v in got] == \
                    [(type(v), repr(v)) for v in expected], texts

    def test_parse_number_refuses_a_misplaced_sign_before_float(
            self, monkeypatch):
        # a sign past the first character with no exponent is no number,
        # found without float() and the ValueError it would raise
        refused = []

        def watched(text):
            try:
                return float(text)
            except ValueError:
                refused.append(text)
                raise

        monkeypatch.setattr(values, "float", watched, raising=False)
        for text in _MIXED:
            number = parse_number(text)
            assert repr(number) == repr(_model_number(text)), text
        assert "1.2.3" in refused  # float() is still what refuses it
        assert not {"2024-01-05", "-2024-01-05", " 1999-12-31 ", "555-1234",
                    "10-20", "5-", "--5", "+-1"}.intersection(refused)

    def test_columns_of_dates_and_numbers_load_as_the_model(self):
        rng = random.Random(11)
        data = ("a,b,c\n" + "".join(
            ",".join(rng.choices(_MIXED, k=3)) + "\n"
            for _ in range(2 * BLOCK_ROWS + 1))).encode()
        _same_as_model(data)
        _same_as_model(data, header=False, column_offset=2)


def _ragged(rows: int, rng: random.Random) -> bytes:
    """A header, then rows from empty to 300 fields wide, most of their
    fields empty, so a block's widest row is far wider than the rest."""
    lines = ["a,b,c"]
    for _ in range(rows):
        width = rng.choice([0, 1, 1, 2, 3, 9, 40, 300])
        lines.append(",".join(rng.choice(_FIELDS) if rng.random() < 0.2
                              else "" for _ in range(width)))
    return ("\n".join(lines) + "\n").encode()


class TestRaggedBlocks:
    @pytest.mark.parametrize("options", [
        {}, {"header": False}, {"force_text": True}, {"column_offset": 2}],
        ids=str)
    def test_ragged_rows_load_as_the_model(self, options):
        _same_as_model(_ragged(2 * BLOCK_ROWS + 1, random.Random(3)),
                       **options)

    def test_the_first_field_off_the_sheet_in_a_ragged_block_is_named(self):
        data = "x\n" + "y\n" * BLOCK_ROWS + "," * 40 + "z\n" + "1,2\n"
        _same_as_model(data.encode(), column_offset=MAX_COLS - 30)
        with pytest.raises(GridError, match=f"col={MAX_COLS + 11} row="
                           f"{BLOCK_ROWS + 2}$"):
            load_csv(io.StringIO(data), column_offset=MAX_COLS - 30)

    def test_a_block_is_transposed_without_padding(self):
        block = [["a"] * width for width in (2, 5, 0, 300, 2, 7)]
        rows = tuple(range(10, 16))
        columns = list(grid._block_columns(block, rows, 4))
        assert [col for col, _, _ in columns] == list(range(4, 304))
        # every field is handed out once, and no padding with it
        assert sum(len(fields) for _, _, fields in columns) == 316
        for col, keys, fields in columns:
            assert keys == tuple(row for row, fields in zip(rows, block)
                                 if len(fields) > col - 4)
            assert len(fields) == len(keys)


def _eager(model: dict) -> Sheet:
    """A sheet holding the model's cells, written one by one."""
    sheet = Sheet()
    for (row, col), value in model.items():
        sheet.set(CellAddress(col, row), value)
    return sheet


class TestLazyColumns:
    """load_csv converts no field: the sheet converts a column's blocks
    the first time anything touches that column."""

    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("force_text", [False, True])
    def test_a_lazy_sheet_equals_the_models_eager_sheet(self, header,
                                                        force_text):
        rng = random.Random(f"lazy-{header}-{force_text}")
        for data in [_random_csv(rng) for _ in range(20)] + [
                _board(2 * BLOCK_ROWS + 1, rng), _ragged(BLOCK_ROWS, rng)]:
            options = {"header": header, "force_text": force_text,
                       "column_offset": rng.randint(0, 2)}
            sheet = load_csv(io.BytesIO(data), **options)
            # text is stored as it stands; only a numeric field waits
            assert not (force_text and sheet._pending)
            assert sheet == _eager(_model_load(data, **options))
            assert not sheet._pending

    def test_counting_cells_converts_nothing(self, monkeypatch):
        data = _board(2 * BLOCK_ROWS + 1, random.Random(4))
        sheet = load_csv(io.BytesIO(data))
        sheet.set(parse_cell("B7"), 1.0)  # settles one column
        pending = {col: list(blocks) for col, blocks
                   in sheet._pending.items()}
        assert pending and 2 not in pending

        def refuse(texts, keep_text):
            raise AssertionError("converted a column")
        monkeypatch.setattr(grid, "read_numbers", refuse)
        model = _model_load(data, True, False, 0)
        model[7, 2] = 1.0
        assert sheet.used_cells() == set(model)
        assert sheet.cell_count() == len(model)
        assert sheet._pending == pending

    def test_get_range_over_pending_and_stored_columns(self):
        sheet = load_csv(io.StringIO("a,b,c\n1,x,3\n4,,6\n"),
                         column_offset=1)
        sheet.set(parse_cell("E2"), True)  # a stored column beside them
        assert sheet.get(parse_cell("C3")) is BLANK  # settles column C
        assert set(sheet._pending) == {2, 4}
        got = sheet.get_range(as_range(parse_a1("A1:F3")))
        assert [(type(v), v) for v in got.cells] == [(type(v), v) for v in (
            BLANK, "a", "b", "c", BLANK, BLANK,
            BLANK, 1.0, "x", 3.0, True, BLANK,
            BLANK, 4.0, BLANK, 6.0, BLANK, BLANK)]
        assert not sheet._pending

    @pytest.mark.parametrize("tail,error,message", [
        (b"x," * MAX_COLS + b"x\n", GridError,
         f"address out of range: col={MAX_COLS + 1} row={2 * BLOCK_ROWS + 2}"),
        (b'"' + b"x" * (csv.field_size_limit() + 1) + b'"\n', IngestError,
         "malformed CSV: field larger than field limit"),
        (b"1,\xff\n", IngestError, "CSV source is not valid UTF-8"),
    ], ids=["off-sheet", "malformed", "not-utf-8"])
    def test_a_bad_row_after_good_blocks_raises_inside_load_csv(
            self, tail, error, message):
        data = b"a,b\n" + b"1,2\n" * (2 * BLOCK_ROWS) + tail
        with pytest.raises(error) as caught:
            load_csv(io.BytesIO(data))
        assert str(caught.value).startswith(message)

    def test_eval_converts_only_the_column_it_reads_each_block_once(
            self, tmp_path, monkeypatch, capsys):
        rows = 2 * BLOCK_ROWS + 5
        path = tmp_path / "board.csv"
        path.write_text("a,b,c,d,e\n" + "".join(
            f"{i},x{i},{2 * i},{i}-1,{i}.5\n" for i in range(rows)))
        converted = []

        def counted(texts, keep_text):
            converted.append(texts)
            return read_numbers(texts, keep_text)
        monkeypatch.setattr(grid, "read_numbers", counted)
        assert cli.main(["eval", str(path), "=C2&C500"]) == 0
        assert capsys.readouterr().out == "0996\n"
        # the header is a block of its own; each later block is
        # BLOCK_ROWS rows, and only column C's are converted, once each
        assert converted == [
            tuple(str(2 * i) for i in range(start, min(start + BLOCK_ROWS,
                                                       rows)))
            for start in range(0, rows, BLOCK_ROWS)]


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
