"""graphs_isomorphic against networkx, the test-only reference.

The oracle labels each atom with its (level rank, type), the labels an
isomorphism of Fomenko graphs must preserve, and runs VF2 on the multigraph.
"""

import math
from collections import Counter

import networkx as nx
import numpy as np

from billiard_books import (
    FomenkoGraph,
    OrderedGame,
    build_fomenko_graph,
    compile_game,
    graphs_isomorphic,
)

from _refs import graph_from_census
from test_games import random_valid_game


def rank_keys(graph):
    lams = sorted({a.lam for a in graph.atoms})
    return [(lams.index(a.lam), a.type) for a in graph.atoms]


def oracle(g1, g2):
    def to_nx(graph):
        out = nx.MultiGraph()
        for idx, key in enumerate(rank_keys(graph)):
            out.add_node(idx, key=key)
        out.add_edges_from((i, j) for i, j, _ in graph.edges)
        return out

    return nx.is_isomorphic(to_nx(g1), to_nx(g2), node_match=lambda x, y: x["key"] == y["key"])


def relabel(graph, rng):
    """Isomorphic copy: atoms permuted, edges shuffled and re-oriented."""
    perm = [int(p) for p in rng.permutation(len(graph.atoms))]
    atoms = [None] * len(graph.atoms)
    for old, new in enumerate(perm):
        atoms[new] = graph.atoms[old]
    edges = [(perm[j], perm[i], r) if rng.random() < 0.5 else (perm[i], perm[j], r)
             for i, j, r in graph.edges]
    return FomenkoGraph(atoms, [edges[int(k)] for k in rng.permutation(len(edges))])


def rewire(graph, rng):
    """Same atoms and degrees: two edges (a, b), (c, d) become (a, d), (c, b)."""
    edges = list(graph.edges)
    k1, k2 = (int(k) for k in rng.choice(len(edges), size=2, replace=False))
    (a, b, r1), (c, d, r2) = edges[k1], edges[k2]
    edges[k1], edges[k2] = (a, d, r1), (c, b, r2)
    return FomenkoGraph(list(graph.atoms), edges)


def random_regular(rng, n, degree):
    """Degree-regular multigraph on n equal atoms from a random pairing of
    edge ends; self-loops and multiple edges are kept."""
    ends = [i for i in range(n) for _ in range(degree)]
    rng.shuffle(ends)
    return graph_from_census([(0.0, "A")] * n, list(zip(ends[::2], ends[1::2])))


def assert_agrees(g1, g2):
    assert graphs_isomorphic(g1, g2) == oracle(g1, g2)


def test_compiled_books_against_oracle(family):
    rng = np.random.default_rng(5)
    for _ in range(60):
        graph = build_fomenko_graph(
            compile_game(random_valid_game(family, rng, int(rng.integers(2, 9)))).book
        )
        copy = relabel(graph, rng)
        assert graphs_isomorphic(graph, copy)
        assert_agrees(graph, relabel(rewire(graph, rng), rng))
        assert_agrees(copy, relabel(rewire(rewire(graph, rng), rng), rng))


def test_two_triangles_are_not_a_hexagon():
    # every atom has the same label and degree 2, so colour refinement
    # cannot separate the graphs: only the search can
    atoms = [(0.0, "A")] * 6
    triangles = graph_from_census(atoms, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    hexagon = graph_from_census(atoms, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert not graphs_isomorphic(triangles, hexagon)
    assert not graphs_isomorphic(hexagon, triangles)
    assert graphs_isomorphic(hexagon, relabel(hexagon, np.random.default_rng(0)))


def test_atom_labels_tell_graphs_apart():
    # one edge between two atoms in each, but the labels differ: the
    # initial colours, (level rank, type), separate them before refinement
    a_b = graph_from_census([(0.0, "A"), (1.0, "B")], [(0, 1)])
    a_a = graph_from_census([(0.0, "A"), (1.0, "A")], [(0, 1)])
    assert not oracle(a_b, a_a)
    assert not graphs_isomorphic(a_b, a_a)
    assert not graphs_isomorphic(a_a, a_b)
    # levels that differ in their ninth decimal place only still rank apart:
    # an A atom below a B atom is not a B atom below an A atom
    a_below = graph_from_census([(1e-11, "A"), (2e-11, "B")], [(0, 1)])
    b_below = graph_from_census([(2e-11, "A"), (1e-11, "B")], [(0, 1)])
    assert not oracle(a_below, b_below)
    assert not graphs_isomorphic(a_below, b_below)


def test_empty_graphs_are_isomorphic():
    assert graphs_isomorphic(FomenkoGraph([], []), FomenkoGraph([], []))


def test_petersen_graph_is_not_a_prism():
    # both 3-regular on 10 equal atoms: a search that matched only the
    # number of edges into the mapped atoms, not each multiplicity, would
    # accept this pair
    atoms = [(0.0, "A")] * 10
    rim_and_spokes = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen = graph_from_census(
        atoms, rim_and_spokes + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    prism = graph_from_census(atoms, rim_and_spokes + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert not oracle(petersen, prism)
    assert not graphs_isomorphic(petersen, prism)
    assert graphs_isomorphic(petersen, relabel(petersen, np.random.default_rng(1)))


def test_random_regular_multigraphs_against_oracle():
    rng = np.random.default_rng(9)
    for _ in range(150):
        n, degree = int(rng.integers(2, 13)), int(rng.integers(1, 5))
        n += n * degree % 2
        graph = random_regular(rng, n, degree)
        assert_agrees(graph, random_regular(rng, n, degree))
        assert graphs_isomorphic(graph, relabel(graph, rng))


def test_self_loops_count():
    atoms = [(0.0, "A"), (0.0, "A"), (1.0, "B"), (1.0, "B")]
    # degrees (a loop counts twice) 2, 2, 3, 3 in both; the loop sits on an
    # A atom in one and on a B atom in the other
    loop_on_a = graph_from_census(atoms, [(0, 0), (1, 2), (1, 3), (2, 3), (2, 3)])
    loop_on_b = graph_from_census(atoms, [(2, 2), (2, 0), (0, 3), (1, 3), (3, 1)])
    assert not oracle(loop_on_a, loop_on_b)
    assert not graphs_isomorphic(loop_on_a, loop_on_b)
    rng = np.random.default_rng(2)
    for graph in (loop_on_a, loop_on_b):
        assert graphs_isomorphic(graph, relabel(graph, rng))
    # three equal atoms that refinement cannot split (each has one neighbour,
    # itself or another): the search must not map the looped atom 0 of the
    # first onto the unlooped atom 0 of the second
    loop_first = graph_from_census([(0.0, "B")] * 3, [(0, 0), (1, 2)])
    loop_last = graph_from_census([(0.0, "B")] * 3, [(0, 1), (2, 2)])
    assert oracle(loop_first, loop_last)
    assert graphs_isomorphic(loop_first, loop_last)
    for _ in range(40):
        graph = random_regular(rng, 6, 4)
        assert_agrees(graph, relabel(rewire(graph, rng), rng))


def test_graph_beyond_exhaustive_search(family):
    # a POOL_9 game (ellipses 0, 0.4, ..., 3.2) whose compiled book has 28
    # atoms and about 10^9.2 label-preserving atom bijections, too many to
    # try one by one
    game = OrderedGame(
        family,
        (0.4, 2.8, 0.4, 0.8, 0.0, 2.4, 0.0, 0.8, 0.4, 1.2, 0.8, 2.0, 2.8, 1.2, 0.4, 2.0),
        (1, -1, 1, 1, 1, -1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1),
    )
    graph = build_fomenko_graph(compile_game(game).book)
    mappings = math.prod(math.factorial(k) for k in Counter(rank_keys(graph)).values())
    assert len(graph.atoms) >= 26 and mappings >= 10**9
    rng = np.random.default_rng(4)
    copy = relabel(graph, rng)
    assert graphs_isomorphic(graph, copy) and oracle(graph, copy)
    assert_agrees(graph, relabel(rewire(graph, rng), rng))

