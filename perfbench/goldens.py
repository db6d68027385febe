"""Frozen facts about the 14-row sample board, and how to compare to them.

Every column below is copied from an EXPECT line of the packaged
walkthroughs (task1 ... task6), one value per sample row.  They are the
only reference the benchmark grades the engine against; nothing here is
computed by sprego.  A generated board is a seeded choice of sample
rows, so its expected cells are these columns indexed by that choice.
"""

from __future__ import annotations

import csv
from pathlib import Path

# the packaged sample, so the goldens and the engine read the same file
SAMPLE_CSV = (Path(__file__).resolve().parent.parent
              / "src" / "sprego" / "data" / "lol_sample.csv")


class Err:
    """An expected spreadsheet error, equal to any engine error value
    that renders with the same label."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __eq__(self, other):
        return (type(other).__name__ == "CellError"
                and str(other) == self.label) or (
            isinstance(other, Err) and other.label == self.label)

    def __hash__(self):
        return hash(self.label)

    def __repr__(self):
        return self.label


VALUE = Err("#VALUE!")


def _nums(text: str) -> list:
    return [VALUE if f == "#VALUE!" else float(f) for f in text.split(";")]


def _bools(text: str) -> list:
    return [f == "TRUE" for f in text.split(";")]


def sample_rows() -> list[list[str]]:
    """Header plus the 14 data rows, read with the csv module."""
    with open(SAMPLE_CSV, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


_ROWS = sample_rows()
ACCOUNT_FULL = [row[1] for row in _ROWS[1:]]  # column C when loaded AT 1
COMMENT_WORDS = [row[3] for row in _ROWS[1:]]  # column E
VIEW_WORDS = [row[4] for row in _ROWS[1:]]  # column F
SAMPLE_SIZE = len(_ROWS) - 1

COLUMNS = {
    # task1
    "paren_at": _nums("10;16;15;15;10;15;16;17;18;14;15;18;13;15"),
    "account_len": _nums("8;14;13;13;8;13;14;15;16;12;13;16;11;13"),
    "account": ["ReisenII", "Maximum Kawaii", "Riot Draggles",
                "Papa Lovegood", "DahakaGG", "proapllegamer",
                "BBS CursedSoul", "DarkSliceOfCake", "CandyLandRemixed",
                "filojistoNNN", "trojanfighter", "MB Ghost 2 Ghost",
                "GingarPowar", "NinjaJesus720"],
    # task2
    "new_at": _nums("4;4;4;3;4;4;3;5;3;3;3;3;4;3"),
    "count_len": _nums("2;2;2;1;2;2;1;3;1;1;1;1;2;1"),
    "count_text": "14;14;32;4;11;13;5;125;7;9;0;8;77;1".split(";"),
    "count": _nums("14;14;32;4;11;13;5;125;7;9;0;8;77;1"),
    # task3
    "full_len": _nums("14;21;19;19;14;20;20;21;22;18;19;22;17;19"),
    "tail_len": _nums("4;5;4;4;4;5;4;4;4;4;4;4;4;4"),
    "tail": ["EUW)", "EUNE)", "EUW)", "EUW)", "EUW)", "EUNE)", "EUW)",
             "EUW)", "EUW)", "EUW)", "EUW)", "EUW)", "EUW)", "EUW)"],
    "server": ["EUW", "EUNE", "EUW", "EUW", "EUW", "EUNE", "EUW", "EUW",
               "EUW", "EUW", "EUW", "EUW", "EUW", "EUW"],
    # task4
    "v_at": _nums("5;5;6;4;5;5;4;6;5;4;4;4;6;5"),
    "view_len": _nums("3;3;4;2;3;3;2;4;3;2;2;2;4;3"),
    "view_text": ["680", "149", "1.1k", "59", "412", "269", "82", "2.5k",
                  "131", "39", "11", "52", "1.6k", "147"],
    "view_plain": _nums("680;149;#VALUE!;59;412;269;82;#VALUE!;131;39;11;"
                        "52;#VALUE!;147"),
    "view_short": _nums("68;14;1.1;5;41;26;8;2.5;13;3;1;5;1.6;14"),
    "view_thousands": _nums("68000;14000;1100;5000;41000;26000;8000;2500;"
                            "13000;3000;1000;5000;1600;14000"),
    "k_at": _nums("#VALUE!;#VALUE!;4;#VALUE!;#VALUE!;#VALUE!;#VALUE!;4;"
                  "#VALUE!;#VALUE!;#VALUE!;#VALUE!;4;#VALUE!"),
    "no_k": _bools("TRUE;TRUE;FALSE;TRUE;TRUE;TRUE;TRUE;FALSE;TRUE;TRUE;"
                   "TRUE;TRUE;FALSE;TRUE"),
    "zero": _nums("0;0;0;0;0;0;0;0;0;0;0;0;0;0"),
    "plain_or_zero": _nums("680;149;0;59;412;269;82;0;131;39;11;52;0;147"),
    "views": _nums("680;149;1100;59;412;269;82;2500;131;39;11;52;1600;147"),
    # task5, limit 500 in the input cell
    "over_500": _bools("TRUE;FALSE;TRUE;FALSE;FALSE;FALSE;FALSE;TRUE;FALSE;"
                       "FALSE;FALSE;FALSE;TRUE;FALSE"),
    "mark_500": [1.0 if v else False for v in _bools(
        "TRUE;FALSE;TRUE;FALSE;FALSE;FALSE;FALSE;TRUE;FALSE;FALSE;FALSE;"
        "FALSE;TRUE;FALSE")],
    # task6, server EUW in the input cell
    "is_euw": _bools("TRUE;FALSE;TRUE;TRUE;TRUE;FALSE;TRUE;TRUE;TRUE;TRUE;"
                     "TRUE;TRUE;TRUE;TRUE"),
    "euw_count": [14.0, False, 32.0, 4.0, 11.0, False, 5.0, 125.0, 7.0,
                  9.0, 0.0, 8.0, 77.0, 1.0],
}
# the server-cut trace has one step with no EXPECT line of its own:
# LEN(RIGHT(...))-1, which is the tail length less one
COLUMNS["tail_len_less_1"] = [v - 1 for v in COLUMNS["tail_len"]]

# EXPECT directives per packaged walkthrough
EXPECT_COUNTS = {"task1": 3, "task2": 4, "task3": 5, "task4": 11,
                 "task5": 6, "task6": 10}

# TRACE directive of each walkthrough that has one: step label, the
# traced input column (sheet header above it) and one golden column
# per decomposition step, innermost first
WALKTHROUGH_TRACES = {
    "task1": ("S3", "Account (server)", ACCOUNT_FULL,
              ["paren_at", "account_len", "account"]),
    "task2": ("S7", "NOF comments", COMMENT_WORDS,
              ["new_at", "count_len", "count_text", "count"]),
    "task3": ("S12", "Account (server)", ACCOUNT_FULL,
              ["full_len", "paren_at", "tail_len", "tail", "tail_len",
               "tail_len_less_1", "server"]),
    "task4": ("S16", "NOF views", VIEW_WORDS,
              ["v_at", "view_len", "view_text", "view_plain"]),
}


def render(value) -> str:
    """The canonical display text: shortest round-trip decimal, with
    integral values below 1e16 printed without a fraction."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(value, Err):
        return value.label
    return value


def matches(expected, actual) -> bool:
    """Expectation equality as the walkthroughs define it: exact for
    text, booleans and error kinds; numbers within 1e-9 relative or
    1e-12 absolute."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, float):
        return isinstance(actual, float) and (
            expected == actual
            or abs(actual - expected) <= max(1e-9 * abs(expected), 1e-12))
    if isinstance(expected, Err):
        return expected == actual
    return isinstance(actual, str) and expected == actual


def cells_match(expected: tuple, actual: tuple) -> bool:
    """matches() element by element, with a fast path for exact equality.

    Python counts True == 1.0 and False == 0.0, so the fast path also
    requires booleans in the same places.
    """
    if len(expected) != len(actual):
        return False
    if expected == actual and (
            [type(e) is bool for e in expected]
            == [type(a) is bool for a in actual]):
        return True
    return all(matches(e, a) for e, a in zip(expected, actual))
