"""Read-only pytest plugin: how much of the randomized suites is engine time.

Acceptance check 7 reruns the ten hypothesis suites of
tests/test_properties.py under a ten-second bound.  This plugin times
the same suites without touching the test file: once collection has
imported the module, its helpers ``ev``, ``build_sheet`` and
``parse_formula`` are replaced in the module's globals by timed
wrappers (nested calls count once), and every test call is timed.
engine_share is engine time over test-call time; the rest is
hypothesis generating and shrinking examples, and the tests' own
oracles.  Use with

    PYTHONPATH=perfbench:src python3 -m pytest -p check7_plugin \\
        --check7-out=perfbench/_out/check7.json tests/test_properties.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

WRAPPED = ("ev", "build_sheet", "parse_formula")


class _Probe:
    def __init__(self):
        self.engine_s = 0.0
        self.engine_calls = 0
        self.depth = 0
        self.tests: dict[str, float] = {}

    def wrap(self, fn):
        def timed(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.engine_s += time.perf_counter() - start
                self.engine_calls += 1
                self.depth -= 1
        return timed


_probe = _Probe()


def pytest_addoption(parser):
    parser.addoption("--check7-out", default=None,
                     help="write the check-7 engine-share probe here")


def pytest_collection_finish(session):
    patched = set()
    for item in session.items:
        module = getattr(item, "module", None)
        if module is None or id(module) in patched:
            continue
        if not Path(getattr(module, "__file__", "")).name == \
                "test_properties.py":
            continue
        for name in WRAPPED:
            if callable(getattr(module, name, None)):
                setattr(module, name, _probe.wrap(getattr(module, name)))
        patched.add(id(module))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    yield
    _probe.tests[item.name] = time.perf_counter() - start


def pytest_sessionfinish(session, exitstatus):
    out = session.config.getoption("--check7-out")
    if not out:
        return
    wall = sum(_probe.tests.values())
    Path(out).write_text(json.dumps({
        "check7.wall_s": wall,
        "check7.engine_s": _probe.engine_s,
        "check7.engine_share": _probe.engine_s / wall if wall else 0.0,
        "check7.engine_calls": _probe.engine_calls,
        "check7.suite_s": _probe.tests,
    }, indent=1, sort_keys=True) + "\n")
