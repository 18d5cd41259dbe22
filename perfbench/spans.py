"""Span tracing for the benchmark's traced run.

``Tracer.install`` replaces each public library function at the module (or
class) attribute its callers look up, e.g. ``dynamics.step`` in
``dynamics``, ``games`` and ``topology``, and ``uninstall`` puts the
originals back; both are cheap, so a run can trace one operation and not
the next.  While installed, every call records a span (name, start, end,
parent) in flat in-memory arrays; ``save`` writes them out once.  Layer metrics are derived from the spans
afterwards: a span's self time is its duration minus its children's, so the
layer self times plus the time no span covers add up to the traced wall
time.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from types import ModuleType

import numpy as np

from billiard_books import book, cli, dynamics, games, topology

LOOKUPS = ("gluing_for", "boundary_side", "glued_return_leaf", "leaf_ids_on_ellipse")

# (owner whose attribute callers look up, attribute, self-time metric)
WRAPS = [
    *((dynamics, f, "conics.busy_s") for f in (
        "caustic_parameter", "project_to_conic", "ray_conic_coefficients",
        "ray_intersections", "reflect")),
    (games, "directions_with_caustic", "conics.busy_s"),
    *((topology, f, "conics.busy_s") for f in (
        "directions_with_caustic", "inward_normal", "winding_sign")),
    (cli, "directions_with_caustic", "conics.busy_s"),
    (book.BilliardBook, "gluing_for", "book.lookup_s"),
    (book.BilliardBook, "leaf_ids_on_ellipse", "book.lookup_s"),
    (book, "boundary_side", "book.lookup_s"),
    *((m, f, "book.lookup_s") for m in (dynamics, topology)
      for f in ("boundary_side", "glued_return_leaf")),
    *((cli, f, "book.io_s") for f in ("load_book", "save_book", "validate_book")),
    *((m, "step", "dynamics.self_s") for m in (dynamics, games, topology)),
    *((m, "simulate", "dynamics.self_s") for m in (dynamics, games, cli)),
    (dynamics, "reverse", "dynamics.self_s"),
    *((m, "trace_to_game", "dynamics.self_s") for m in (games, cli)),
    (dynamics, "trajectory_csv", "dynamics.csv_s"),
    (cli, "save_trajectory_csv", "dynamics.csv_s"),
    (games, "compile_game", "games.compile_s"),
    *((cli, f, "games.compile_s") for f in ("compile_simple", "compile_general")),
    *((games, f, "games.verify_self_s") for f in ("verify_realization", "admissible_start")),
    (topology, "enumerate_regimes", "topology.enumerate_s"),
    (topology, "axis_bounce_circles", "topology.bounce_s"),
    *((m, "build_fomenko_graph", "topology.assemble_self_s") for m in (topology, cli)),
    *((m, "to_dot", "topology.dot_s") for m in (topology, cli)),
    (topology, "graphs_isomorphic", "topology.iso_s"),
    *((cli, f, "render.svg_s") for f in ("trajectory_svg", "save_svg")),
    *((cli, f, "cli.self_s") for f in (
        "main", "cmd_compile", "cmd_verify", "cmd_simulate", "cmd_fomenko")),
]

# Self-time metrics by layer; with trace.unattributed_s they partition the
# traced wall time.
SELF_TIME = {
    "conics": ("conics.busy_s",),
    "book": ("book.lookup_s", "book.io_s"),
    "dynamics": ("dynamics.self_s", "dynamics.csv_s"),
    "games": ("games.compile_s", "games.verify_self_s"),
    "topology": ("topology.enumerate_s", "topology.bounce_s", "topology.assemble_self_s",
                 "topology.dot_s", "topology.iso_s"),
    "render": ("render.svg_s",),
    "cli": ("cli.self_s",),
}

# Per-layer metrics with their units, in report order.  Every value is per
# timed operation, except the two ratios.
METRICS = {
    "conics.calls": "count/op",
    "conics.busy_s": "s/op",
    "book.lookup_calls": "count/op",
    "book.lookup_s": "s/op",
    "book.io_s": "s/op",
    "dynamics.step_calls": "count/op",
    "dynamics.events": "count/op",
    "dynamics.tangential_hits": "count/op",
    "dynamics.self_s": "s/op",
    "dynamics.csv_s": "s/op",
    "games.compile_s": "s/op",
    "games.start_probes": "count/op",
    "games.starts_accepted": "count/op",
    "games.start_yield": "ratio",
    "games.verify_self_s": "s/op",
    "topology.regime_calls": "count/op",
    "topology.regimes": "count/op",
    "topology.enumerate_s": "s/op",
    "topology.bounce_s": "s/op",
    "topology.assemble_self_s": "s/op",
    "topology.dot_s": "s/op",
    "topology.iso_s": "s/op",
    "topology.atoms": "count/op",
    "topology.unknown_atoms": "count/op",
    "render.svg_s": "s/op",
    "render.svg_bytes": "B/op",
    "cli.compile_s": "s/op",
    "cli.verify_s": "s/op",
    "cli.simulate_s": "s/op",
    "cli.fomenko_s": "s/op",
    "cli.self_s": "s/op",
    "trace.wall_s": "s/op",
    "trace.unattributed_s": "s/op",
    "trace.overhead_ratio": "ratio",
}


def _site(owner) -> str:
    """Short name of the module where the attribute lives."""
    module = owner.__name__ if isinstance(owner, ModuleType) else owner.__module__
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name id -> "func@site"
        self.buckets: list[str] = []  # span name id -> self-time metric
        # one entry per span: name id, parent span index (-1: none), times
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {
            "dynamics.events": 0,
            "dynamics.tangential_hits": 0,
            "games.starts_accepted": 0,
            "topology.regimes": 0,
            "topology.atoms": 0,
            "topology.unknown_atoms": 0,
            "render.svg_bytes": 0,
        }
        self._stack = [-1]
        # (owner, attribute, original, wrapper), built on first install
        self._wrapped: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _hook(self, attr: str):
        c = self.counters

        def events(result, err):
            if err is None:
                c["dynamics.events"] += len(result.events)

        def tangential(result, err):
            if isinstance(err, dynamics.TangentialHit):
                c["dynamics.tangential_hits"] += 1

        def accepted(result, err):
            if err is None:
                c["games.starts_accepted"] += 1

        def regimes(result, err):
            if err is None:
                c["topology.regimes"] += len(result)

        def atoms(result, err):
            if err is None:
                c["topology.atoms"] += len(result.atoms)
                c["topology.unknown_atoms"] += result.census()["Unknown"]

        def svg(result, err):
            if err is None:
                c["render.svg_bytes"] += len(result)

        return {
            "simulate": events,
            "step": tangential,
            "admissible_start": accepted,
            "enumerate_regimes": regimes,
            "build_fomenko_graph": atoms,
            "trajectory_svg": svg,
        }.get(attr)

    def _wrap(self, fn, nid: int, hook):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                end[idx] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(None, err)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(result, None)
            return result

        return wrapper

    def install(self) -> None:
        if not self._wrapped:
            for owner, attr, bucket in WRAPS:
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, len(self.names), self._hook(attr))
                self.names.append(f"{attr}@{_site(owner)}")
                self.buckets.append(bucket)
                self._wrapped.append((owner, attr, original, wrapper))
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._wrapped):
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.intc),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.spans())

    def metrics(self, ops: int, wall_s: float, ref_factor: float,
                overhead_ratio: float) -> dict[str, float]:
        """Per-operation layer metrics for ``ops`` traced operations taking
        ``wall_s`` measured seconds in all.  Times are scaled to reference
        seconds by ``ref_factor``; ``overhead_ratio`` is measured by the
        caller, traced against untraced passes."""
        sp = self.spans()
        k = len(self.names)
        dur = sp["end"] - sp["start"]
        nested = sp["parent"] >= 0
        child = np.bincount(sp["parent"][nested], weights=dur[nested], minlength=len(dur))
        self_by_name = np.bincount(sp["name"], weights=dur - child, minlength=k)
        incl_by_name = np.bincount(sp["name"], weights=dur, minlength=k)
        calls_by_name = np.bincount(sp["name"], minlength=k)

        total: dict[str, float] = {m: 0.0 for m in METRICS}
        total.update({key: float(v) for key, v in self.counters.items()})
        for i, (name, bucket) in enumerate(zip(self.names, self.buckets)):
            func, site = name.split("@")
            calls = float(calls_by_name[i])
            total[bucket] += float(self_by_name[i])
            if bucket == "conics.busy_s":
                total["conics.calls"] += calls
            if func in LOOKUPS:
                total["book.lookup_calls"] += calls
            if func == "step":
                total["dynamics.step_calls"] += calls
                if site == "games":
                    total["games.start_probes"] += calls
            if func == "enumerate_regimes":
                total["topology.regime_calls"] += calls
            if site == "cli" and func.startswith("cmd_"):
                total[f"cli.{func[4:]}_s"] = float(incl_by_name[i])
        top = sp["parent"] < 0
        total["trace.wall_s"] = wall_s
        total["trace.unattributed_s"] = wall_s - float(dur[top].sum())

        out = {m: total[m] / ops * (ref_factor if METRICS[m] == "s/op" else 1.0)
               for m in METRICS}
        probes = total["games.start_probes"]
        out["games.start_yield"] = total["games.starts_accepted"] / probes if probes else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out
