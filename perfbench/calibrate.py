"""Machine-speed calibration for the end-to-end metrics.

The host this benchmark was tuned on is shared: its speed for the same
Python work drifts by 1.5x over minutes, and jitters within seconds.
To keep run-to-run spread below the metric bounds, every end-to-end time
is scaled to a fixed reference speed.  A small reference kernel, which
does interpreter work of the engine's kind (tuple-keyed dict lookups,
isinstance dispatch, string slicing, tuple building) and touches no
sprego code, is timed between operations.  An operation's time is
multiplied by REFERENCE_S over the kernel's time measured around it.
A change to sprego moves the operations and not the kernel, so it still
shows in full; a slower host moves both, and the ratio cancels it.

The raw, unscaled figures are kept in the run's record.
"""

from __future__ import annotations

import statistics
import time

# about the kernel's time on the 2-vCPU host this was tuned on, at its
# least loaded (Python 3.11.7).  Only ratios matter; this constant just
# keeps scaled figures close to wall-clock ones on a quiet machine.
REFERENCE_S = 3.5e-3

_TABLE: dict = {}


def _table() -> dict:
    if not _TABLE:
        for r in range(8000):
            _TABLE[(r, 0)] = f"name{r} (EUW)"
            _TABLE[(r, 1)] = float(r)
            _TABLE[(r, 2)] = float(r % 97)
    return _TABLE


def kernel() -> tuple:
    get = _table().get
    out = []
    for i in range(6000):
        value = get(((i * 7919) % 8000, i % 3))
        if isinstance(value, float):
            out.append(value * 2.0)
        elif isinstance(value, str):
            out.append(value[:value.find("(") - 1])
    return tuple(out)


def kernel_time() -> float:
    """Median of three timed kernel runs, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Kernel timings taken every EVERY_S seconds between operations.

    Operations run after calibration i and before calibration i + 1
    form segment i; their scale uses the mean of those two timings.
    """

    EVERY_S = 0.25

    def __init__(self):
        _table()
        self.refs: list[float] = []
        self.last = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        self.refs.append(kernel_time())
        self.last = time.perf_counter()

    def segment(self) -> int:
        """Calibrate if one is due; the segment the next operation is in."""
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.calibrate()
        return len(self.refs) - 1

    def scale(self, segment: int) -> float:
        after = self.refs[min(segment + 1, len(self.refs) - 1)]
        return REFERENCE_S / ((self.refs[segment] + after) / 2)
