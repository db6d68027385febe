"""Byte-exact stdout and exit codes of eval, trace and export.

The expected texts were captured from the CLI before its renderers
were rewritten to work column by column, so any change in spacing,
quoting, number text or row order shows here.
"""

import pytest

from sprego.cli import main

BOOK = ('Name,Qty,Note,Price\n'
        '"Smith, J",3,"said ""hi""",1.50\n'
        'Lee,0,,1e3\n'
        '"multi\nline",x,plain,-0.25\n'
        'Ng,12,,\n')

CASES = [
    # eval: scalar, 1x1, Nx1 and NxM arrays, --cell, --strict, --text
    (["eval", "=1+2*3"], 0, "7\n"),
    (["eval", "BOOK", "{=B2:B2}"], 0, "3\n"),
    (["eval", "BOOK", "{=LEN(A2:A5)}"], 0, "8\n3\n10\n2\n"),
    (["eval", "BOOK", '{=A2:D5&"|"}'], 0,
     'Smith, J|\t3|\tsaid "hi"|\t1.5|\nLee|\t0|\t|\t1000|\n'
     'multi\nline|\tx|\tplain|\t-0.25|\nNg|\t12|\t|\t|\n'),
    (["eval", "BOOK", "{=B2:D5}"], 0,
     '3\tsaid "hi"\t1.5\n0\t\t1000\nx\tplain\t-0.25\n12\t\t\n'),
    (["eval", "BOOK", "{=B2:B5*2}", "--cell"], 0, "6\n"),
    (["eval", "BOOK", "{=12/B2:B5}", "--strict"], 1,
     "4\n#DIV/0!\n#VALUE!\n1\n"),
    (["eval", "=12/4", "--strict"], 0, "3\n"),
    (["eval", "BOOK", "=12/B3", "--strict"], 1, "#DIV/0!\n"),
    (["eval", "BOOK", "{=B2:D3}", "--text"], 0,
     '3\tsaid "hi"\t1.50\n0\t\t1e3\n'),
    # trace: a multi-column step, no range, a header from the cell
    # above or from the range itself, error cells
    (["trace", "BOOK", "{=TRANSPOSE(A2:A4)}", "A2:A4"], 0,
     "Name\tS1\n"
     "Smith, J\tSmith, J, Lee, multi\nline\n"
     "Lee\tSmith, J, Lee, multi\nline\n"
     "multi\nline\tSmith, J, Lee, multi\nline\n"),
    (["trace", "=1+2*3"], 0, "S1\tS2\n6\t7\n"),
    (["trace", "BOOK", "{=LEN(A1:A2)}"], 0,
     "A1:A2\tS1\nName\t4\nSmith, J\t8\n"),
    (["trace", "BOOK", '{=LEFT(A2:A5,FIND(" ",A2:A5)-1)}'], 0,
     "Name\tS1\tS2\tS3\n"
     "Smith, J\t7\t6\tSmith,\n"
     "Lee\t#VALUE!\t#VALUE!\t#VALUE!\n"
     "multi\nline\t#VALUE!\t#VALUE!\t#VALUE!\n"
     "Ng\t#VALUE!\t#VALUE!\t#VALUE!\n"),
    (["trace", "BOOK", "{=12/B2:B5+D2:D5}"], 0,
     "Qty\tS1\tS2\n3\t4\t5.5\n0\t#DIV/0!\t#DIV/0!\n"
     "x\t#VALUE!\t#VALUE!\n12\t1\t1\n"),
    # export: quoting, blank cells, canonical number text
    (["export", "BOOK", "A1:E6"], 0,
     'Name,Qty,Note,Price,\n"Smith, J",3,"said ""hi""",1.5,\n'
     'Lee,0,,1000,\n"multi\nline",x,plain,-0.25,\nNg,12,,,\n,,,,\n'),
    (["export", "BOOK", "A1:E6", "--text"], 0,
     'Name,Qty,Note,Price,\n"Smith, J",3,"said ""hi""",1.50,\n'
     'Lee,0,,1e3,\n"multi\nline",x,plain,-0.25,\nNg,12,,,\n,,,,\n'),
    (["export", "BOOK", "B2:D5", "--no-header", "--at", "1"], 0,
     '"Smith, J",3,"said ""hi"""\nLee,0,\n"multi\nline",x,plain\n'
     'Ng,12,\n'),
]


@pytest.mark.parametrize("argv,code,stdout", CASES,
                         ids=[" ".join(argv) for argv, _, _ in CASES])
def test_stdout_is_byte_identical(capsys, tmp_path, argv, code, stdout):
    book = tmp_path / "book.csv"
    book.write_text(BOOK, newline="")
    assert main([str(book) if a == "BOOK" else a for a in argv]) == code
    out, err = capsys.readouterr()
    assert (out, err) == (stdout, "")
