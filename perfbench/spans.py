"""Layer spans for the traced run, recorded from outside the engine.

install() replaces the public functions of each sprego module with
timed wrappers, everywhere the name is looked up: a module that did
``from .grid import load_csv`` holds its own reference, so every sprego
module's globals are searched for the original object.  Methods are
patched on their class, and built-in kernels by swapping REGISTRY
entries for copies whose impl is timed.  uninstall() puts every
original back.

A span's self time is its duration minus the time covered by its child
spans.  Bookkeeping done after a call (counting tree nodes, rows, cells)
is charged to no span, so it does not inflate the caller's self time.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

perf_counter = time.perf_counter

# built-ins the workloads call; each gets calls and self time
FUNCTIONS = ("SUM", "AVERAGE", "MAX", "SMALL", "LEFT", "RIGHT", "LEN",
             "FIND", "ISERROR", "IF", "ROUND", "INT")

LAYERS = ("parser", "grid", "values", "evaluator", "functions", "tracer",
          "script", "cli")

DIRECTIVES = {"Load": "LOAD", "SetCell": "SET", "Step": "STEP",
              "Trace": "TRACE", "Expect": "EXPECT"}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Recorder:
    """Span stack plus per-name totals and plain counters."""

    def __init__(self):
        self.stack: list[list[float]] = [[0.0]]  # child time per open span
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[Callable[[], None]] = []
        self.missing: list[str] = []

    # wrappers ------------------------------------------------------

    def timed(self, name, fn: Callable,
              after: Optional[Callable] = None,
              before: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span.  name may be a function of the call's
        (args, kwargs).  after(args, kwargs, result, token) runs outside
        the span, with token = before() taken as the call starts."""
        stack, stats = self.stack, self.stats
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            token = before() if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat = stats[fixed or name(args, kwargs)]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
            if after is not None:
                mark = perf_counter()
                after(args, kwargs, result, token)
                stack[-1][0] += perf_counter() - mark
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # patching ------------------------------------------------------

    def patch_function(self, module: str, attr: str, make: Callable,
                       skip: tuple[str, ...] = ()) -> None:
        """Replace module.attr in every sprego module that refers to it."""
        source = sys.modules.get(module)
        original = getattr(source, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "sprego" or name.startswith("sprego.")):
                continue
            if name in skip:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._restore.append(
                        lambda m=mod, k=key, v=value: setattr(m, k, v))

    def patch_method(self, cls: Any, attr: str, make: Callable) -> None:
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
            return
        setattr(cls, attr, make(original))
        self._restore.append(lambda: setattr(cls, attr, original))

    def patch_registry(self, registry: dict) -> None:
        for key, descriptor in list(registry.items()):
            if getattr(descriptor, "impl", None) is None:
                continue
            registry[key] = dataclasses.replace(
                descriptor,
                impl=self.timed(f"functions.{key}", descriptor.impl))
            self._restore.append(
                lambda k=key, d=descriptor: registry.__setitem__(k, d))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _count_nodes(node) -> int:
    """Expression-tree nodes under node, for any dataclass tree."""
    total = 1
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        children = value if isinstance(value, tuple) else (value,)
        for child in children:
            if dataclasses.is_dataclass(child) and \
                    type(child).__module__ == type(node).__module__:
                total += _count_nodes(child)
    return total


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points."""
    import sprego.cli
    import sprego.evaluator
    import sprego.functions
    import sprego.grid
    import sprego.parser
    import sprego.script
    import sprego.tracer
    import sprego.values

    counts = rec.counts
    stats = rec.stats
    node_cache: dict[str, int] = {}

    def timed(name, after=None, before=None):
        return lambda fn: rec.timed(name, fn, after=after, before=before)

    # parser
    def tokens_out(args, kwargs, result, token):
        counts["parser.tokens"] += len(result)

    def nodes_out(args, kwargs, result, token):
        text = args[0] if args else kwargs.get("text")
        if text not in node_cache:
            node_cache[text] = _count_nodes(result.expr)
        counts["parser.nodes"] += node_cache[text]

    rec.patch_function("sprego.parser", "tokenize",
                       timed("parser.tokenize", tokens_out))
    rec.patch_function("sprego.parser", "parse_formula",
                       timed("parser.parse_formula", nodes_out))
    rec.patch_function("sprego.parser", "unparse", timed("parser.unparse"))

    # grid
    def cells_out(args, kwargs, result, token):
        rng = args[1] if len(args) > 1 else kwargs["rng"]
        counts["grid.cells_read"] += rng.rows * rng.cols

    def spilled(args, kwargs, result, token):
        array = args[2] if len(args) > 2 else kwargs["array"]
        counts["grid.cells_spilled"] += array.rows * array.cols

    def rows_loaded(args, kwargs, result, token):
        counts["grid.rows_loaded"] += len({r for r, _ in result.used_cells()})

    def rows_exported(args, kwargs, result, token):
        rng = args[1] if len(args) > 1 else kwargs["rng"]
        counts["grid.rows_exported"] += rng.rows

    sheet = getattr(sprego.grid, "Sheet", None)
    rec.patch_method(sheet, "get_range", timed("grid.get_range", cells_out))
    rec.patch_method(sheet, "spill", timed("grid.spill", spilled))
    rec.patch_function("sprego.grid", "load_csv",
                       timed("grid.load_csv", rows_loaded))
    rec.patch_function("sprego.grid", "range_to_csv",
                       timed("grid.range_to_csv", rows_exported))

    # values: coercions are counted, not timed (they run per element
    # inside kernels); render is timed where display text is made
    for attr in ("coerce_to_number", "coerce_to_text"):
        rec.patch_function("sprego.values", attr,
                           lambda fn: rec.counted("values.coerce", fn))
    rec.patch_function("sprego.values", "render", timed("values.render"),
                       skip=("sprego.values",))

    # evaluator: a lift that repeats its kernel over array elements is
    # told apart from a single scalar application
    array_type = sprego.values.ArrayValue

    def elementwise(args, kwargs) -> bool:
        values = args[1] if len(args) > 1 else kwargs["args"]
        ctx = args[2] if len(args) > 2 else kwargs["ctx"]
        positions = kwargs.get("lifted")
        if positions is None:
            positions = range(len(values))
        return getattr(ctx, "array_entered", False) and any(
            isinstance(values[i], array_type) for i in positions)

    def lift_name(args, kwargs) -> str:
        return ("evaluator.lift" if elementwise(args, kwargs)
                else "evaluator.lift_scalar")

    def lifted_out(args, kwargs, result, token):
        if isinstance(result, array_type) and elementwise(args, kwargs):
            counts["evaluator.elements_lifted"] += result.rows * result.cols

    rec.patch_function("sprego.evaluator", "evaluate",
                       timed("evaluator.evaluate"))
    rec.patch_function("sprego.evaluator", "evaluate_formula",
                       timed("evaluator.evaluate_formula"))
    rec.patch_function("sprego.evaluator", "lift",
                       timed(lift_name, lifted_out))
    rec.patch_function("sprego.evaluator", "eval_if",
                       timed("evaluator.eval_if"))

    # functions: timed copies of the registry's kernels
    registry = getattr(sprego.functions, "REGISTRY", None)
    if isinstance(registry, dict):
        rec.patch_registry(registry)
    else:
        rec.missing.append("sprego.functions.REGISTRY")

    # tracer
    def evaluate_calls():
        return stats["evaluator.evaluate"].calls

    def traced_out(args, kwargs, result, token):
        counts["tracer.steps"] += len(result.steps)
        counts["tracer.evaluate_calls"] += evaluate_calls() - token

    rec.patch_function("sprego.tracer", "trace",
                       timed("tracer.trace", traced_out, evaluate_calls))
    rec.patch_function("sprego.tracer", "decompose",
                       timed("tracer.decompose"))
    rec.patch_function("sprego.tracer", "render_tsv",
                       timed("tracer.render_tsv"))

    # script: one span per directive, named by its kind
    def directive_name(args, kwargs):
        kind = type(args[1]).__name__
        return "script.directive." + DIRECTIVES.get(kind, kind.upper())

    def expect_out(args, kwargs, result, token):
        directive = args[1]
        if type(directive).__name__ == "Expect":
            area = sprego.grid.as_range(
                sprego.grid.parse_a1(directive.target))
            counts["script.expect_cells"] += area.rows * area.cols

    rec.patch_function("sprego.script", "run_script",
                       timed("script.run_script"))
    rec.patch_function("sprego.script", "parse_task_script",
                       timed("script.parse_task_script"))
    rec.patch_method(getattr(sprego.script, "_Runner", None), "run_directive",
                     timed(directive_name, expect_out))

    # cli
    rec.patch_function("sprego.cli", "main", timed("cli.main"))


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-layer metrics, per traced pass where they are totals."""
    s, c = rec.stats, rec.counts

    def per_pass(x: float) -> float:
        return x / passes

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num * scale / den if den else 0.0

    def self_of(prefix: str) -> float:
        return sum(st.self_time for name, st in s.items()
                   if name.startswith(prefix))

    tok, parse = s["parser.tokenize"], s["parser.parse_formula"]
    get_range, spill = s["grid.get_range"], s["grid.spill"]
    load, export = s["grid.load_csv"], s["grid.range_to_csv"]
    evaluate, lift = s["evaluator.evaluate"], s["evaluator.lift"]
    eval_if, render = s["evaluator.eval_if"], s["values.render"]
    cli_main = s["cli.main"]

    m = {
        "parser.tokenize_us": ratio(tok.self_time, tok.calls, 1e6),
        "parser.parse_us": ratio(parse.self_time, parse.calls, 1e6),
        "parser.tokens_per_s": ratio(c["parser.tokens"], tok.self_time),
        "parser.nodes": per_pass(c["parser.nodes"]),
        "grid.get_range_ns_per_cell": ratio(get_range.self_time,
                                            c["grid.cells_read"], 1e9),
        "grid.cells_read": per_pass(c["grid.cells_read"]),
        "grid.load_csv_rows_per_s": ratio(c["grid.rows_loaded"], load.total),
        "grid.spill_ns_per_cell": ratio(spill.self_time,
                                        c["grid.cells_spilled"], 1e9),
        "grid.range_to_csv_rows_per_s": ratio(c["grid.rows_exported"],
                                              export.total),
        "evaluator.evaluate_calls": per_pass(evaluate.calls),
        "evaluator.elements_lifted": per_pass(
            c["evaluator.elements_lifted"]),
        "evaluator.lift_ns_per_element": ratio(
            lift.self_time, c["evaluator.elements_lifted"], 1e9),
        "evaluator.eval_if_self_s": per_pass(eval_if.self_time),
        "values.coerce_calls": per_pass(c["values.coerce"]),
        "values.render_ns_per_value": ratio(render.self_time, render.calls,
                                            1e9),
        "tracer.steps": per_pass(c["tracer.steps"]),
        "tracer.evaluate_calls_per_step": ratio(c["tracer.evaluate_calls"],
                                                c["tracer.steps"]),
        "script.expect_cells": per_pass(c["script.expect_cells"]),
        "cli.self_ms": ratio(cli_main.self_time, cli_main.calls, 1e3),
    }
    for kind in DIRECTIVES.values():
        st = s[f"script.directive.{kind}"]
        m[f"script.directive_ms.{kind}"] = ratio(st.total, st.calls, 1e3)
    for name in FUNCTIONS:
        st = eval_if if name == "IF" else s[f"functions.{name}"]
        m[f"functions.{name}.calls"] = per_pass(st.calls)
        m[f"functions.{name}.self_s"] = per_pass(st.self_time)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_pass(self_of(layer + "."))
    return m


UNITS = {
    "_us": "us", "_ns_per_cell": "ns", "_ns_per_element": "ns",
    "_ns_per_value": "ns", "_per_s": "1/s", "_ms": "ms", "_s": "s",
}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"
