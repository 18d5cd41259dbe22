"""Self-tests for the benchmark.

    python3 -m pytest -q perfbench

They run the benchmark's own command in subprocesses: untraced with
``--seconds 0`` (one operation) and traced (a fixed set of operations), so
the whole file takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from spans import SELF_TIME  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from billiard_books import dynamics, topology  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

REPEATED_COUNTS = ("dynamics.events", "games.start_probes", "topology.regimes",
                   "topology.unknown_atoms")
# The reversal check asked of the trajectories workload: every 11th run of
# a pass reversed in full must retrace the forward hit points within 1e-9.
REVERSE_EVERY = 11
RETRACE_TOL = 1e-9


def bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failure_lines(proc) -> list[str]:
    return [line for line in proc.stdout.splitlines() if line.startswith("  FAILED ")]


@pytest.fixture(scope="module")
def traced_procs():
    return {w["name"]: bench(w["name"], 1) for w in BENCH["workloads"]}


@pytest.fixture(scope="module")
def traced_runs(traced_procs):
    return {name: last_json(proc) for name, proc in traced_procs.items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    setup = WORKLOADS[name].setup
    assert setup(5, str(tmp_path)) == setup(5, str(tmp_path))
    assert setup(5, str(tmp_path)) != setup(6, str(tmp_path))


def test_oracle_matches_graphs_isomorphic_on_small_pairs():
    rng = np.random.default_rng(0)
    for graph in inputs.ladder(rng, (24, 48, 96)):
        for _ in range(3):
            _, copy, rewired, want = inputs.graph_pair(graph, rng)
            assert want == (True, False)
            assert topology.graphs_isomorphic(graph, copy)
            assert not topology.graphs_isomorphic(graph, rewired)


def test_interior_starts_avoid_critical_levels():
    rng = np.random.default_rng(1)
    bk = inputs.compiled_book(rng, (26, 40))
    levels = topology.critical_levels(bk)
    for _ in range(50):
        st = inputs.interior_start(bk, rng)
        lam = inputs.conics.caustic_parameter(bk.family, st.x, st.y, st.vx, st.vy)
        assert min(abs(lam - lv) for lv in levels) >= inputs.CAUSTIC_MARGIN


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(name):
    out = last_json(bench(name, 0))
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_prints_every_layer_metric(name, traced_runs):
    out = traced_runs[name]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    values = {k: v["value"] for k, v in out["metrics"].items()}
    parts = [p for group in SELF_TIME.values() for p in group] + ["trace.unattributed_s"]
    assert math.isclose(sum(values[p] for p in parts), values["trace.wall_s"], rel_tol=1e-9)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_failure_is_listed(name, traced_procs, traced_runs):
    out, lines = traced_runs[name], failure_lines(traced_procs[name])
    assert out["failed"] == len(lines)
    assert out["correct"] and not lines, lines


@pytest.mark.parametrize("name", ["trajectories", "realization", "foliation", "cli"])
def test_count_metrics_repeat_exactly(name, traced_runs):
    again = last_json(bench(name, 1))
    for metric in REPEATED_COUNTS:
        assert again["metrics"][metric] == traced_runs[name]["metrics"][metric], metric


@pytest.mark.xfail(strict=True, reason=(
    "the library misses: a full reversal of a 1000-3000 event run retraces the "
    "forward hit points only to a few 1e-9 (up to 2.6e-8) in about a quarter of "
    "runs, while its leaf transitions match exactly; so the workload leaves "
    "reversal out, as the benchmark's workloads must have no failing operation"))
def test_full_reversals_retrace_within_tolerance(tmp_path):
    items = WORKLOADS["trajectories"].setup(1, str(tmp_path))
    for bk, start, events in items[REVERSE_EVERY - 1::REVERSE_EVERY]:
        fwd = dynamics.simulate(bk, start, events)
        back = dynamics.reverse(bk, fwd)
        assert len(back.events) == events - 1
        err = max(math.hypot(b.x - f.x, b.y - f.y)
                  for b, f in zip(back.events, fwd.events[-2::-1]))
        assert err <= RETRACE_TOL, f"{len(bk.leaves)}-leaf book, {events} events: {err:.3e}"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("trajectories", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
