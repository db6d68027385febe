"""An array-first spreadsheet formula engine with a small function set.

The pieces compose bottom-up: values (scalar taxonomy and coercions),
grid (A1-addressed sparse sheet, CSV in and out), parser (formula text
to expression trees and back), functions (the built-in library),
evaluator (element-wise lifting over arrays), tracer (stepwise
decomposition tables) and script/cli (task scripts and the command
line).
"""

from pathlib import Path

from .evaluator import EvalContext, display_value, evaluate, evaluate_formula, lift
from .grid import (
    CellAddress,
    GridError,
    IngestError,
    RangeRef,
    Sheet,
    load_csv,
    parse_a1,
    range_to_csv,
)
from .parser import Formula, FormulaError, parse_formula, tokenize, unparse
from .script import RunReport, TaskScript, parse_task_script, run_script
from .tracer import TraceTable, decompose, render_tsv, trace
from .values import (
    ArrayValue,
    BLANK,
    OMITTED,
    CellError,
    Scalar,
    coerce_to_number,
    coerce_to_text,
    render,
)

__version__ = "0.1.0"


def data_path(name: str) -> Path:
    """Path of a packaged sample file (corpus CSV or task script)."""
    return Path(__file__).parent / "data" / name


__all__ = [
    "ArrayValue", "BLANK", "CellAddress", "CellError", "EvalContext",
    "Formula", "FormulaError", "GridError", "IngestError", "OMITTED",
    "RangeRef", "RunReport", "Scalar", "Sheet", "TaskScript", "TraceTable",
    "coerce_to_number", "coerce_to_text", "data_path",
    "decompose", "display_value", "evaluate", "evaluate_formula", "lift",
    "load_csv", "parse_a1", "parse_formula", "parse_task_script",
    "range_to_csv", "render", "render_tsv", "run_script", "tokenize",
    "trace", "unparse",
]
