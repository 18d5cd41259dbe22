"""Benchmark runner: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` next
to this directory.  Set-up (importing the library, input generation, the
networkx oracle and a warm-up operation) is reported only as ``setup_s``:
the import time plus the median of SETUP_REPEATS runs of the rest.  The timed loop then
cycles through the generated pass of items until ``--seconds`` of operation
time has elapsed; each operation's output is checked outside the timed
region.

Operation and set-up times are reported in reference seconds (see refclock.py): the measured time scaled by a calibration loop
timed alongside, which takes out the drift of a shared host's speed.
The raw times are printed beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` the run takes the first TRACE_OPS items, whatever ``--seconds``
says, and runs each once untraced and once traced, back to back, so that
every count is per operation over the same operations and
``trace.overhead_ratio`` compares like with like; the last line carries the
per-layer metrics (spans.py) and the spans are written to
``.bench_out/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

from refclock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
# The traced run covers the first TRACE_OPS items of the pass.  60 is a
# multiple of every workload's strata count (3, 5 and 6), so the strata
# keep their shares, and it bounds the spans held in memory (under 2M).
TRACE_OPS = 60

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Timed:
    """Per-operation times, raw and in reference seconds, with failures and
    work units."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.ref: list[float] = []
        self.failures: list[str] = []
        self.work = 0


def run_one(wl, item, label: str, clock: RefClock, t: Timed, tracer=None) -> None:
    """Time one operation into ``t``, traced when a tracer is given, then
    check its output."""
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        out = wl.run(item)
        err = None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    t.raw.append(dt)
    t.ref.append(clock.scale(dt))
    if err is None:
        err = wl.check(item, out)
        if wl.work is not None:
            t.work += wl.work[1](out)
    if err is not None:
        t.failures.append(f"{label}: {err}")


def run_ops(wl, items, clock: RefClock, seconds: float) -> Timed:
    """Run items in order, cycling, until ``seconds`` of operation time have
    passed (at least one operation)."""
    t = Timed()
    spent = 0.0
    k = 0
    clock.calibrate()
    while k == 0 or spent < seconds:
        run_one(wl, items[k % len(items)], f"op {k} (item {k % len(items)})", clock, t)
        spent += t.raw[-1]
        k += 1
    return t


def run_pairs(wl, items, clock: RefClock, tracer) -> tuple[Timed, Timed]:
    """Run each item once untraced and once traced, back to back, so that
    the host's drift in speed falls alike on both.  Which of the two goes
    first alternates from item to item, so that neither always finds the
    caches warm."""
    plain, traced = Timed(), Timed()
    clock.calibrate()
    for k, item in enumerate(items):
        for trace_it in (False, True) if k % 2 == 0 else (True, False):
            if trace_it:
                run_one(wl, item, f"item {k} traced", clock, traced, tracer)
            else:
                run_one(wl, item, f"item {k}", clock, plain)
    return plain, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "billiard_books", "__init__.py")):
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    clock = RefClock()
    import_s, workloads = import_library(clock)
    WORKLOADS = workloads.WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            clock.calibrate()
            t0 = perf_counter()
            items = wl.setup(args.seed, workdir)
            wl.run(items[0])  # warm-up; the same item is checked in every pass
            setups.append(clock.scale(perf_counter() - t0))
        setup_s = import_s + statistics.median(setups)
        gc.collect()

        if args.trace:
            return traced(wl, items, clock, args, setup_s)
        t = run_ops(wl, items, clock, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = summary(t.ref) | {"setup_s": setup_s, "peak_rss_mb": rss_mb}
    raw = summary(t.raw)
    print(f"workload {wl.name}  seed {args.seed}  untraced  ops {len(t.ref)}  "
          f"items {len(items)}  timed {sum(t.raw):.3f} s raw, {sum(t.ref):.3f} s ref")
    print(f"  set-up: imports {import_s:.4f} s + median of "
          + " ".join(f"{x:.4f}" for x in setups) + " s")
    aliases = {"op_ms_p50": f"{wl.alias}_p50", "op_ms_p90": f"{wl.alias}_p90"}
    for name, value in metrics.items():
        print(f"  {name:<12} {aliases.get(name, ''):<16} {value:14.6g} {END_TO_END[name]:<4}"
              + (f"  (raw {raw[name]:.6g})" if name in raw else ""))
    if wl.work is not None:
        print(f"  {'':<12} {wl.work[0]:<16} {t.work / sum(t.ref):14.6g} 1/s"
              f"   (raw {t.work / sum(t.raw):.6g})")
    report_failures(t.failures, len(t.ref))
    print(json.dumps(result(len(t.ref), t.failures, metrics, END_TO_END)))
    return 0


def import_library(clock: RefClock):
    """Import the library with the benchmark's modules SETUP_REPEATS times,
    each time from a clean ``sys.modules`` entry for them.  Returns the
    median import time in reference seconds and the last ``workloads``
    module.

    Third-party packages (numpy, and networkx for the isomorphism oracle)
    are loaded once and untimed: their time is not the library's, and
    loading extension modules swung by +-25% from run to run on a shared
    2-vCPU Xeon host."""
    importlib.import_module("numpy")
    importlib.import_module("networkx")
    ours = ("billiard_books", "inputs", "workloads")
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] in ours]:
            del sys.modules[name]
        clock.calibrate()
        t0 = perf_counter()
        workloads = importlib.import_module("workloads")
        times.append(clock.scale(perf_counter() - t0))
    return statistics.median(times), workloads


def summary(latencies: list[float]) -> dict[str, float]:
    lat = sorted(latencies)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": 1e3 * percentile(lat, 0.50),
        "op_ms_p90": 1e3 * percentile(lat, 0.90),
    }


def traced(wl, items, clock: RefClock, args, setup_s: float) -> int:
    from spans import METRICS, SELF_TIME, Tracer

    tracer = Tracer()
    plain, t = run_pairs(wl, items[:TRACE_OPS], clock, tracer)
    failures = plain.failures + t.failures
    ops = len(t.ref)
    overhead = sum(t.ref) / sum(plain.ref) - 1.0
    metrics = tracer.metrics(ops, sum(t.raw), sum(t.ref) / sum(t.raw), overhead)
    tracer.save(os.path.join(OUT_DIR, f"trace-{wl.name}.npz"))

    print(f"workload {wl.name}  seed {args.seed}  traced  ops {ops}  "
          f"set-up {setup_s:.3f} s  overhead {metrics['trace.overhead_ratio']:.3f}")
    print(f"  {'layer':<10} {'self s/op':>12} {'share':>7}   parts")
    wall = metrics["trace.wall_s"]
    rows = list(SELF_TIME.items()) + [("(none)", ("trace.unattributed_s",))]
    for layer, parts in rows:
        value = sum(metrics[p] for p in parts)
        print(f"  {layer:<10} {value:12.6g} {value / wall:7.1%}   {' '.join(parts)}")
    print(f"  {'wall':<10} {wall:12.6g}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:14.6g} {METRICS[name]}")
    report_failures(failures, 2 * ops)
    print(json.dumps(result(2 * ops, failures, metrics, METRICS)))
    return 0


def report_failures(failures: list[str], attempted: int) -> None:
    print(f"  failed {len(failures)} of {attempted} (failed_ratio {len(failures) / attempted:.6g})")
    for line in failures:
        print(f"  FAILED {line}")


def result(attempted: int, failures: list[str], metrics: dict, units: dict) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
