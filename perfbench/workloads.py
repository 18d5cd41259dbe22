"""The benchmark's workloads: set-up, one operation, and its output check.

Each workload is closed-loop with one caller: the runner calls ``run`` on
one item, waits for it to return, and only then starts the next.  ``setup``
turns a seed into a pass (a list of items); ``check`` runs outside the timed
region and returns a failure message or None.

Items are drawn in strata (game length, book kind, mapping-space size) of
similar cost and interleaved, so every prefix of a pass holds the strata in
fixed shares.  The shares put the median and the 90th percentile inside a
stratum rather than on the edge between two, where they would flip between
strata from one seed to the next.

The library is called through module attributes (``dynamics.simulate``, not
a name imported here), so the traced run sees every call through the same
wrappers that the library's own callers see.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from billiard_books import book, catalog, cli, dynamics, games, topology

import inputs

DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir) -> list of items
    run: Callable  # item -> output
    check: Callable  # (item, output) -> failure message or None
    alias: str  # the workload's own name for its latency, e.g. traj_ms
    work: tuple[str, Callable] | None = None  # (rate name, output -> units of work)


# ---------------------------------------------------------------------------
# trajectories: long single runs and their CSV export
# ---------------------------------------------------------------------------

TRAJ_BOOKS = ("chain_six", "four_sheets", "two_annuli_two_disks")
TRAJ_COMPILED = 3  # compiled books of 26-40 leaves
TRAJ_STARTS = 20  # starts per book
# Run lengths of equal share, cycled over the runs (5 is prime to the 6
# books, so every book runs every length).  The median falls inside the
# 2000-event runs and the 90th percentile inside the 3000-event runs, clear
# of the edges between lengths.
TRAJ_EVENTS = (1000, 1500, 2000, 2500, 3000)


def setup_trajectories(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    books = [catalog.CATALOG[name]() for name in TRAJ_BOOKS]
    books += [inputs.compiled_book(rng, (26, 40)) for _ in range(TRAJ_COMPILED)]
    runs = inputs.interleave(
        [[(b, inputs.interior_start(b, rng)) for _ in range(TRAJ_STARTS)] for b in books]
    )
    return [(b, st, TRAJ_EVENTS[k % len(TRAJ_EVENTS)]) for k, (b, st) in enumerate(runs)]


def run_trajectory(item):
    bk, start, events = item
    traj = dynamics.simulate(bk, start, events)
    return traj, dynamics.trajectory_csv(traj)


def check_trajectory(item, out) -> str | None:
    events = item[2]
    traj, text = out
    if traj.status != dynamics.STATUS_OK or len(traj.events) != events:
        return f"status {traj.status} after {len(traj.events)}/{events} events"
    if not traj.caustic_drift <= DRIFT_TOL:
        return f"caustic drift {traj.caustic_drift:.3e}"
    if text.count("\n") != events + 1:
        return f"CSV has {text.count(chr(10))} lines"
    return None


def trajectory_events(out) -> int:
    return len(out[0].events)


# ---------------------------------------------------------------------------
# realization: compile a game, verify it from admissible starts
# ---------------------------------------------------------------------------

# Game lengths and their shares; both pools alternate within each length.
# The median falls in the middle of n=16, the 90th percentile inside n=24.
REALIZATION_SHARES = {4: 1, 8: 1, 16: 1, 24: 2}
GAMES_PER_SHARE = 40
VERIFY_SAMPLES = 8


def setup_realization(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    strata = [
        [(inputs.valid_game(rng, n, inputs.POOLS[k % 2]), int(rng.integers(1 << 31)))
         for k in range(GAMES_PER_SHARE)]
        for n, share in REALIZATION_SHARES.items()
        for _ in range(share)
    ]
    return inputs.interleave(strata)


def run_realization(item):
    game, seed = item
    report = games.compile_game(game)
    return report, games.verify_realization(report, samples=VERIFY_SAMPLES, seed=seed)


def check_realization(item, out) -> str | None:
    game, _ = item
    report, failures = out
    if failures:
        return f"game {game.betas}/{game.signature}: {len(failures)} mismatches, first {failures[0]}"
    lo, hi, _ = games.leaf_count_bounds(game)
    if not lo <= report.leaf_count <= hi:
        return f"game {game.betas}: {report.leaf_count} leaves outside [{lo}, {hi}]"
    return None


# ---------------------------------------------------------------------------
# foliation: Fomenko graph and DOT text of one book
# ---------------------------------------------------------------------------

# Five strata of equal share: the catalog books, then compiled books of
# games of length n from one pool each.  The median falls in the middle of
# (8, POOL_9), the 90th percentile in the middle of (24, POOL_9).
# Degree of each classified atom in a Fomenko graph (edges at the atom).
ATOM_CAPACITY = {"A": 1, "B": 3, "C2": 4}
FOLIATION_COMPILED = ((4, inputs.POOL_5), (8, inputs.POOL_9), (16, inputs.POOL_5),
                      (24, inputs.POOL_9))
BOOKS_PER_STRATUM = 110


def setup_foliation(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    books = [make() for make in catalog.CATALOG.values()]
    strata = [[books[k % len(books)] for k in range(BOOKS_PER_STRATUM)]]
    for n, pool in FOLIATION_COMPILED:
        strata.append([
            games.compile_game(inputs.valid_game(rng, n, pool)).book
            for _ in range(BOOKS_PER_STRATUM)
        ])
    return inputs.interleave(strata)


def run_foliation(bk):
    graph = topology.build_fomenko_graph(bk)
    return graph, topology.to_dot(graph)


def check_foliation(bk, out) -> str | None:
    graph, dot = out
    for idx, (atom, deg) in enumerate(zip(graph.atoms, graph.degrees())):
        want = ATOM_CAPACITY.get(atom.type)
        if want is not None and deg != want:
            return f"{len(bk.leaves)}-leaf book: atom {idx} ({atom.type}@{atom.lam}) has degree {deg}"
    lines = dot.count("\n") - 2
    if lines != len(graph.atoms) + len(graph.edges):
        return f"DOT has {lines} body lines for {len(graph.atoms)} atoms and {len(graph.edges)} edges"
    return None


# ---------------------------------------------------------------------------
# isomorphism: a graph against a relabelled copy and a rewired copy
# ---------------------------------------------------------------------------

# A ladder of source graphs by size of the label-preserving mapping space,
# prod(group size)!, from 10^2 to about 10^3.7, so the factorial search shows
# in the tail without one pair taking minutes.  The ladder is built from a
# fixed seed, so every run climbs the same rungs; --seed draws the
# relabellings and rewirings.  A relabelled copy is usually found early in
# the search and a rewired one only after all of it, so one operation runs
# both and costs about one full search of its rung.
ISO_LADDER = (96, 384, 1152, 2304, 4608)
ISO_LADDER_SEED = 0
PAIRS_PER_RUNG = 40


def setup_isomorphism(seed: int, workdir: str) -> list:
    rungs = inputs.ladder(np.random.default_rng(ISO_LADDER_SEED), ISO_LADDER)
    rng = np.random.default_rng(seed)
    return inputs.interleave(
        [[inputs.graph_pair(g, rng) for _ in range(PAIRS_PER_RUNG)] for g in rungs]
    )


def run_isomorphism(item):
    graph, copy, rewired, _ = item
    return topology.graphs_isomorphic(graph, copy), topology.graphs_isomorphic(graph, rewired)


def check_isomorphism(item, out) -> str | None:
    graph, _, _, want = item
    if out != want:
        return f"{len(graph.atoms)}-atom graph: graphs_isomorphic says {out}, networkx says {want}"
    return None


# ---------------------------------------------------------------------------
# cli: compile --general -> verify -> simulate --csv --svg -> fomenko --dot
# ---------------------------------------------------------------------------

# Game lengths of equal share, each from one pool: the median falls in the
# middle of n=8, the 90th percentile inside n=16, whose pipelines cost
# clearly more than the rest.
CLI_GAMES = ((4, inputs.POOL_5), (8, inputs.POOL_9), (16, inputs.POOL_5))
CLI_GAMES_PER_LENGTH = 64
CLI_EVENTS = 1000
CLI_SAMPLES = 10


@dataclass(frozen=True)
class Pipeline:
    game: str
    book: str
    csv: str
    svg: str
    dot: str
    caustic: float
    seed: int


def setup_cli(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(CLI_GAMES_PER_LENGTH):
        for n, pool in CLI_GAMES:
            game = inputs.valid_game(rng, n, pool)
            stem = os.path.join(workdir, f"p{len(items)}")
            with open(stem + ".game.json", "w", encoding="utf-8") as fh:
                fh.write(inputs.game_json(game))
            items.append(
                Pipeline(
                    stem + ".game.json",
                    stem + ".book.json",
                    stem + ".csv",
                    stem + ".svg",
                    stem + ".dot",
                    inputs.caustic_for(game, rng),
                    int(rng.integers(1 << 31)),
                )
            )
    return items


def _cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as stop:  # argparse refusing the arguments
        return stop.code if isinstance(stop.code, int) else 1


def run_cli(p: Pipeline):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        codes = (
            _cli(["compile", p.game, "--out", p.book, "--general"]),
            _cli(["verify", p.book, p.game, "--samples", str(CLI_SAMPLES), "--seed", str(p.seed)]),
            _cli(["simulate", p.book, "--caustic", repr(p.caustic), "--events", str(CLI_EVENTS),
                  "--csv", p.csv, "--svg", p.svg, "--seed", str(p.seed)]),
            _cli(["fomenko", p.book, "--dot", p.dot]),
        )
    return codes, err.getvalue()


def check_cli(p: Pipeline, out) -> str | None:
    codes, err = out
    graph = topology.build_fomenko_graph(book.load_book(p.book))
    want = (0, 0, 0, 5 if graph.census()["Unknown"] else 0)
    if codes != want:
        return f"{p.game}: exit codes {codes}, want {want}; stderr: {err.strip()[:200]}"
    with open(p.csv, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    if rows != CLI_EVENTS + 1:
        return f"{p.csv}: {rows} rows, want {CLI_EVENTS + 1}"
    if os.path.getsize(p.svg) == 0:
        return f"{p.svg} is empty"
    with open(p.dot, encoding="utf-8") as fh:
        if fh.read() != topology.to_dot(graph):
            return f"{p.dot} differs from to_dot(build_fomenko_graph(book))"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trajectories",
            setup_trajectories, run_trajectory, check_trajectory, "traj_ms",
            ("events_per_s", trajectory_events),
        ),
        Workload(
            "realization",
            setup_realization, run_realization, check_realization, "game_ms",
            ("samples_per_s", lambda out: VERIFY_SAMPLES),
        ),
        Workload(
            "foliation",
            setup_foliation, run_foliation, check_foliation, "graph_ms",
        ),
        Workload(
            "isomorphism",
            setup_isomorphism, run_isomorphism, check_isomorphism, "iso_ms",
        ),
        Workload(
            "cli",
            setup_cli, run_cli, check_cli, "pipeline_ms",
        ),
    )
}
