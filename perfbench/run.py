"""sprego's benchmark runner.

One workload per process, one client, closed loop: each operation is
sent only after the previous one has returned.  Run from the root of a
source checkout:

    python3 perfbench/run.py --workload catalog-10k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

The first form prints the workload's end-to-end metrics (--trace 0) or
its per-layer metrics (--trace 1); the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}, and the line
before it a {"record": ...} object with ungated context.  --all runs
every workload both ways, then the check-7 probe, prints every metric
by name and unit, and writes the lot to perfbench/_out/.  End-to-end
times are scaled to a reference machine speed (calibrate.py).  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from calibrate import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

WORKLOADS = ("catalog-10k", "formula-mix", "cli-session")
# set-up runs at least this often, and on until it has taken a second
SETUP_REPEATS = (3, 25)
SETUP_MIN_S = 1.0

# end-to-end metrics, the same names on every workload
E2E_UNITS = {"throughput_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}

# the names the metrics go by on each workload, reported in the record
ALIASES = {
    "catalog-10k": {"throughput_per_s": "catalog_rows_per_s",
                    "p50_ms": "catalog_p50_ms", "tail_ms": "catalog_p90_ms"},
    "formula-mix": {"throughput_per_s": "mix_formulas_per_s",
                    "p50_ms": "mix_p50_us", "tail_ms": "mix_p99_us"},
    "cli-session": {"throughput_per_s": "cli_calls_per_s",
                    "p50_ms": "cli_p50_ms", "tail_ms": "cli_p90_ms"},
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_engine():
    """Import sprego from this checkout's src/, never from elsewhere."""
    if not (SRC / "sprego" / "__init__.py").is_file():
        fail(f"no sprego sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sprego
    if Path(sprego.__file__).resolve().parent != (SRC / "sprego").resolve():
        fail(f"imported sprego from {sprego.__file__}, not {SRC}")
    return sprego


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((SRC / "sprego").rglob("*.py")))


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_of_samples(samples: list[float], beyond: int = 10) -> dict:
    """The highest nearest-rank percentile over every sample that leaves
    at least `beyond` samples above it (recorded, not gated)."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - beyond)
    return {"percentile": rank / len(ordered), "ms": ordered[rank - 1] * 1e3,
            "samples_beyond": len(ordered) - rank, "samples": len(ordered)}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.segments: list[int] = []  # calibration segment of each latency
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def scaled(self, clock: Clock) -> list[float]:
        return [t * clock.scale(seg)
                for t, seg in zip(self.latencies, self.segments)]


def run_pass(workload, tally: Tally, clock: Clock | None = None) -> float:
    """Every op once, in order; returns the pass's wall time.  With a
    clock, the reference kernel is timed between ops as it falls due."""
    started = time.perf_counter()
    for op in workload.ops:
        if clock is not None:
            tally.segments.append(clock.segment())
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # graded by the check, never fatal
            out = exc
        elapsed = time.perf_counter() - t0
        try:
            ok = bool(op.check(out))
        except Exception:
            ok = False
        tally.latencies.append(elapsed)
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            if len(tally.first_failures) < 5:
                tally.first_failures.append(f"{op.label}: {out!r}"[:300])
    if clock is not None:
        clock.calibrate()  # closes the pass's last segment
    return time.perf_counter() - started


def timed_setups(setup, seed: int, workdir: Path, clock: Clock):
    """Set up repeatedly; the median raw and scaled times, and the last
    result."""
    least, most = SETUP_REPEATS
    raw, scaled, workload = [], [], None
    while len(raw) < least or (sum(raw) < SETUP_MIN_S and len(raw) < most):
        workload = None
        gc.collect()
        segment = clock.segment()
        t0 = time.perf_counter()
        workload = setup(seed, workdir)
        raw.append(time.perf_counter() - t0)
        clock.calibrate()
        scaled.append(raw[-1] * clock.scale(segment))
    return statistics.median(raw), statistics.median(scaled), workload


def passes_for(seconds: float, workload, tally: Tally,
               clock: Clock | None = None) -> list[float]:
    """Whole passes until `seconds` have gone by; their wall times."""
    walls = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        walls.append(run_pass(workload, tally, clock))
    return walls


def e2e_metrics(latencies: list[float], ops: int, units: int,
                tail_q: float, setup_s: float) -> tuple[dict, int]:
    """Metrics of the typical pass: each op's median over the passes.

    Op costs come in clusters (a formula or call type each), often with
    wide gaps between them.  A percentile over every sample sits on such
    a gap whenever it falls between two ops, where one stray sample moves
    it by a third; over per-op medians it always names one op.
    """
    typical = sorted(statistics.median(latencies[i::ops])
                     for i in range(ops))
    tail, beyond = percentile(typical, tail_q)
    return {
        "throughput_per_s": units * ops / sum(typical),
        "p50_ms": statistics.median(typical) * 1e3,
        "tail_ms": tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }, beyond


def measure(name: str, seed: int, seconds: float, workdir: Path):
    """Untraced run: end-to-end metrics, scaled to the reference speed."""
    from workloads import SETUPS
    clock = Clock()
    raw_setup, setup_s, workload = timed_setups(SETUPS[name], seed, workdir,
                                                clock)
    tally = Tally()
    passes = len(passes_for(seconds, workload, tally, clock))
    ops = len(workload.ops)
    metrics, beyond = e2e_metrics(tally.scaled(clock), ops,
                                  workload.units_per_op, workload.tail_q,
                                  setup_s)
    raw, _ = e2e_metrics(tally.latencies, ops, workload.units_per_op,
                         workload.tail_q, raw_setup)
    record = {
        "passes": passes,
        "samples": tally.attempted,
        "ops_per_pass": ops,
        "tail_percentile": workload.tail_q,
        "tail_ops_beyond": beyond,
        "tail_of_samples": tail_of_samples(tally.scaled(clock)),
        "throughput_unit": f"{workload.unit}/s",
        "failed_share": tally.failed / tally.attempted,
        "first_failures": tally.first_failures,
        "workload_names": workload_names(name, metrics),
        "unscaled": raw,
        "reference_kernel_s": {
            "median": statistics.median(clock.refs),
            "min": min(clock.refs), "max": max(clock.refs),
            "count": len(clock.refs)},
        "sizes": workload.sizes,
        "input_sha256": workload.digest,
    }
    return tally, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, record


def workload_names(name: str, metrics: dict) -> dict:
    """The metrics under their per-workload names (formula-mix times in us)."""
    named = {}
    for key, alias in ALIASES[name].items():
        value = metrics[key]
        named[alias] = value * 1e3 if alias.endswith("_us") else value
    return named


def trace_run(name: str, seed: int, seconds: float, workdir: Path):
    """Traced run: per-layer metrics, tracing overhead, tracemalloc peak."""
    import spans
    from workloads import SETUPS
    setup = SETUPS[name]
    workload = setup(seed, workdir)
    sizes, digest = workload.sizes, workload.digest
    tally = Tally()
    untraced = statistics.median(passes_for(seconds / 2, workload, tally))

    rec = spans.Recorder()
    spans.install(rec)
    try:
        walls = passes_for(seconds / 2, workload, tally)
    finally:
        rec.uninstall()
    traced = statistics.median(walls)
    layers = spans.layer_metrics(rec, len(walls))
    overhead = traced - untraced
    layers["bench.trace_overhead_s"] = overhead

    workload = None
    gc.collect()
    tracemalloc.start()
    try:
        run_pass(setup(seed, workdir), tally)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    record = {
        "traced_passes": len(walls),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "trace_overhead_s": overhead,
        "tracemalloc_peak_mb": peak / 2**20,
        "unwrapped": rec.missing,
        "failed_share": tally.failed / tally.attempted,
        "first_failures": tally.first_failures,
        "sizes": sizes,
        "input_sha256": digest,
    }
    metrics = {k: (v, spans.unit_of(k)) for k, v in layers.items()}
    return tally, metrics, record


def run_one(args) -> int:
    sprego = import_engine()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        runner = trace_run if args.trace else measure
        tally, metrics, record = runner(
            args.workload, args.seed, args.seconds, Path(tmp))
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(),
        "sprego_version": getattr(sprego, "__version__", None),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })
    for key, (value, unit) in metrics.items():
        print(f"{args.workload}  {key} = {value:.6g} {unit}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _child(argv: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py")] + argv,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def probe_check7(timeout: float = 600) -> dict:
    """Time the ten randomized suites of tests/test_properties.py with a
    read-only pytest plugin (see check7_plugin.py)."""
    tests = ROOT / "tests" / "test_properties.py"
    if not tests.is_file():
        return {"skipped": f"{tests} not found"}
    OUT.mkdir(exist_ok=True)
    out = OUT / "check7.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "check7_plugin",
         "-p", "no:cacheprovider", f"--check7-out={out}", str(tests)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if not out.is_file():
        return {"error": proc.stdout[-2000:] + proc.stderr[-2000:]}
    result = json.loads(out.read_text())
    result["pytest_exit_code"] = proc.returncode
    return result


def run_all(args) -> int:
    import_engine()
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            runs["traced" if trace else "untraced"] = _child(
                ["--workload", name, "--trace", str(trace)] + common,
                timeout=900)
        report["workloads"][name] = runs
        ok = ok and all(r["correct"] for r in runs.values())
    report["check7"] = probe_check7()

    for name, runs in report["workloads"].items():
        result = runs["untraced"]
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']} (failed_share "
              f"{result['record']['failed_share']})")
        for key, metric in result["metrics"].items():
            alias = ALIASES[name].get(key, "")
            print(f"  {key:<20} {metric['value']:>14.6g} {metric['unit']:<4}"
                  f" {alias}")
        traced = runs["traced"]["record"]
        print(f"  tracing overhead {traced['trace_overhead_s']:.3f} s/pass,"
              f" tracemalloc peak {traced['tracemalloc_peak_mb']:.1f} MB")
    print(f"check7: {json.dumps(report['check7'])}")
    path = Path(args.out) if args.out else OUT / f"BENCH_seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, traced and untraced, plus "
                             "the check-7 probe")
    parser.add_argument("--out", help="where --all writes its JSON")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
