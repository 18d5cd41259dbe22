"""Seeded input generators for the benchmark.

Everything here is a pure function of a ``numpy.random.Generator``: the same
seed gives the same games, starts and graph pairs.  The generators live with
the benchmark (not in ``tests/``) so that the benchmark's inputs cannot drift
when the test suite changes.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from billiard_books import book as book_mod
from billiard_books import conics, games, topology
from billiard_books.dynamics import PhaseState

FAMILY = conics.ConfocalFamily(9.0, 4.0)
# Ellipse pools in [0, 3.6): a coarse one (5 values) and a fine one (9 values).
POOL_5 = (0.0, 0.8, 1.6, 2.4, 3.2)
POOL_9 = tuple(round(0.4 * i, 1) for i in range(9))
POOLS = (POOL_5, POOL_9)


def valid_game(rng, n: int, pool=POOL_5) -> games.OrderedGame:
    """Repeat-free valid game of length n over the pool.

    Outside reflections (-1) are placed only at local maxima of the ellipse
    sequence and never twice in a row, so every draw that ends without a
    wrap-around clash is playable.
    """
    while True:
        betas = [float(rng.choice(pool))]
        for _ in range(n - 1):
            betas.append(float(rng.choice([b for b in pool if b != betas[-1]])))
        if betas[0] == betas[-1]:
            continue
        sig: list[int] = []
        for k in range(n):
            lo, hi = betas[(k - 1) % n], betas[(k + 1) % n]
            local_max = betas[k] > lo and betas[k] > hi
            prev_out = bool(sig) and sig[-1] == -1
            sig.append(-1 if local_max and not prev_out and rng.random() < 0.5 else 1)
        if sig[0] == -1 and sig[-1] == -1:
            continue
        game = games.OrderedGame(FAMILY, tuple(betas), tuple(sig))
        if not games.validate_game(game):
            return game


def compiled_book(rng, leaves: tuple[int, int]) -> book_mod.BilliardBook:
    """Book compiled from a random valid game, with a leaf count in the
    closed range ``leaves``."""
    lo, hi = leaves
    while True:
        pool = POOLS[int(rng.integers(len(POOLS)))]
        n = int(rng.integers(max(2, lo // 2), hi // 2 + 1))
        report = games.compile_game(valid_game(rng, n, pool))
        if lo <= report.leaf_count <= hi:
            return report.book


# Least distance of a start's caustic from every critical level of its book,
# so that no run grazes a singular level.
CAUSTIC_MARGIN = 0.01
# Share of its range by which a CLI caustic keeps off the range's ends.
CAUSTIC_PAD = 0.05
# Rewirings drawn before a graph is taken to have no non-isomorphic one.
REWIRE_TRIES = 20


def interior_start(book, rng) -> PhaseState:
    """Phase state strictly inside a random leaf whose caustic stays at
    least CAUSTIC_MARGIN away from every critical level of the book."""
    fam = book.family
    levels = topology.critical_levels(book)
    while True:
        leaf = book.leaves[int(rng.integers(len(book.leaves)))]
        sx = math.sqrt(fam.a - leaf.outer)
        sy = math.sqrt(fam.b - leaf.outer)
        px = float(rng.uniform(-sx, sx))
        py = float(rng.uniform(-sy, sy))
        if fam.conic_residual(leaf.outer, px, py) > -1e-6:
            continue
        if leaf.inner is not None and fam.conic_residual(leaf.inner, px, py) < 1e-6:
            continue
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        vx, vy = math.cos(th), math.sin(th)
        lam = conics.caustic_parameter(fam, px, py, vx, vy)
        if min(abs(lam - lv) for lv in levels) >= CAUSTIC_MARGIN:
            return PhaseState(px, py, vx, vy, leaf.id)


def caustic_for(game: games.OrderedGame, rng) -> float:
    """Admissible caustic for the game's compiled book: a hyperbola or an
    ellipse inside every game ellipse, kept CAUSTIC_PAD of its range away
    from the critical ends."""
    fam = game.family
    lo, hi = (max(game.betas), fam.b) if rng.random() < 0.5 else (fam.b, fam.a)
    pad = CAUSTIC_PAD * (hi - lo)
    return float(rng.uniform(lo + pad, hi - pad))


# ---------------------------------------------------------------------------
# Graph pairs for the isomorphism workload
# ---------------------------------------------------------------------------

def rank_keys(graph: topology.FomenkoGraph) -> list[tuple[int, str]]:
    """(level rank, atom type) of each atom: the labels an isomorphism must
    preserve."""
    lams = sorted({round(a.lam, 9) for a in graph.atoms})
    return [(lams.index(round(a.lam, 9)), a.type) for a in graph.atoms]


def mapping_space(graph: topology.FomenkoGraph) -> int:
    """Number of label-preserving atom bijections, prod(group size)!."""
    space = 1
    for size in Counter(rank_keys(graph)).values():
        space *= math.factorial(size)
    return space


def relabel(graph: topology.FomenkoGraph, rng) -> topology.FomenkoGraph:
    """Isomorphic copy: atoms permuted, edges shuffled and re-oriented."""
    perm = [int(p) for p in rng.permutation(len(graph.atoms))]
    atoms = [None] * len(graph.atoms)
    for old, new in enumerate(perm):
        atoms[new] = graph.atoms[old]
    edges = []
    for i, j, regime in graph.edges:
        a, b = perm[i], perm[j]
        edges.append((a, b, regime) if rng.random() < 0.5 else (b, a, regime))
    order = [int(k) for k in rng.permutation(len(edges))]
    return topology.FomenkoGraph(atoms, [edges[k] for k in order])


def rewire(graph: topology.FomenkoGraph, rng) -> topology.FomenkoGraph:
    """Same atoms and degrees: two edges (a, b), (c, d) become (a, d), (c, b)."""
    edges = list(graph.edges)
    k1, k2 = (int(k) for k in rng.choice(len(edges), size=2, replace=False))
    a, b, r1 = edges[k1]
    c, d, r2 = edges[k2]
    if rng.random() < 0.5:
        c, d = d, c
    edges[k1] = (a, d, r1)
    edges[k2] = (c, b, r2)
    return topology.FomenkoGraph(list(graph.atoms), edges)


def oracle_isomorphic(g1: topology.FomenkoGraph, g2: topology.FomenkoGraph) -> bool:
    """Reference answer from networkx (VF2 on labelled multigraphs)."""
    import networkx as nx

    def to_nx(graph):
        out = nx.MultiGraph()
        for idx, key in enumerate(rank_keys(graph)):
            out.add_node(idx, key=key)
        out.add_edges_from((i, j) for i, j, _ in graph.edges)
        return out

    return nx.is_isomorphic(to_nx(g1), to_nx(g2), node_match=lambda x, y: x["key"] == y["key"])


def ladder(rng, spaces) -> list[topology.FomenkoGraph]:
    """One graph per mapping-space size in ``spaces``, each the Fomenko graph
    of a compiled random game (4 <= n <= 10, both pools) that has a
    non-isomorphic rewiring."""
    found: dict[int, topology.FomenkoGraph] = {}
    while len(found) < len(spaces):
        pool = POOLS[int(rng.integers(len(POOLS)))]
        game = valid_game(rng, int(rng.integers(4, 11)), pool)
        graph = topology.build_fomenko_graph(games.compile_game(game).book)
        space = mapping_space(graph)
        if space in spaces and space not in found and _rewired(graph, rng) is not None:
            found[space] = graph
    return [found[s] for s in spaces]


def _rewired(graph, rng):
    """A relabelled rewiring that networkx finds non-isomorphic to the
    graph, or None when REWIRE_TRIES draws give none."""
    for _ in range(REWIRE_TRIES):
        other = relabel(rewire(graph, rng), rng)
        if not oracle_isomorphic(graph, other):
            return other
    return None


def graph_pair(graph, rng):
    """(graph, relabelled copy, rewired copy, oracle answers for the two)."""
    copy = relabel(graph, rng)
    rewired = _rewired(graph, rng)
    if rewired is None:
        raise RuntimeError("no non-isomorphic rewiring found")
    return graph, copy, rewired, (oracle_isomorphic(graph, copy), False)


def interleave(groups: list[list]) -> list:
    """Round-robin merge of equal-length groups, so every prefix holds the
    groups in equal shares (to within one item)."""
    return [item for row in zip(*groups, strict=True) for item in row]


def game_json(game: games.OrderedGame) -> str:
    """The CLI's game file format."""
    return json.dumps(
        {
            "family": {"a": game.family.a, "b": game.family.b},
            "betas": list(game.betas),
            "signature": list(game.signature),
        }
    )
