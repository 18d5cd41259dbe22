"""The vertex table behind ``enumerate_regimes``, ``axis_bounce_circles`` and
``build_fomenko_graph``.

``topology._vertex_table`` reads every event and next vertex in one pass
over the leaf boundaries.  The reference in ``_vertex_reference`` computes
them one vertex at a time, as the walk reaches it, and must give the same
regimes and circles.  The table lives only for one call: nothing of it may
stay on the book.
"""

import sys

import numpy as np

from billiard_books import (
    axis_bounce_circles,
    build_fomenko_graph,
    compile_simple,
    critical_levels,
    enumerate_regimes,
    simulate,
    verify_realization,
)
from billiard_books.catalog import CATALOG

from _vertex_reference import reference_circles, reference_regimes
from conftest import random_state
from test_games import random_valid_game
from test_topology import random_glued_book


def test_table_walks_match_the_reference(family):
    rng = np.random.default_rng(18)
    corpus = [make() for make in CATALOG.values()]
    corpus += [random_glued_book(family, rng) for _ in range(150)]
    games = [random_valid_game(family, rng, n) for n in range(2, 10) for _ in range(13)]
    corpus += [compile_simple(g).book for g in games]
    for book in corpus:
        levels = critical_levels(book)
        for lo, hi in zip(levels, levels[1:]):
            mid = (lo + hi) / 2
            assert enumerate_regimes(book, mid) == reference_regimes(book, mid), (book, lo)
        for axis in "xy":
            assert axis_bounce_circles(book, axis) == reference_circles(book, axis), (book, axis)


def _state(book) -> dict:
    """Each attribute of the book with its size, and its length if it has one."""
    return {
        name: (sys.getsizeof(value), len(value) if hasattr(value, "__len__") else None)
        for name, value in vars(book).items()
    }


def test_graph_and_regimes_leave_no_state_on_the_book(family):
    # the book keeps its three fields and its own cached tables, nothing
    # else; a per-book cache of the vertex table, the regimes, the graph or
    # a flow would show here
    rng = np.random.default_rng(4)
    cases = [(make(), None) for make in CATALOG.values()]
    for n in (4, 8, 12):
        rep = compile_simple(random_valid_game(family, rng, n))
        cases.append((rep.book, rep))
    for book, rep in cases:
        simulate(book, random_state(book, rng), 50)  # fills the book's own tables
        before = _state(book)
        build_fomenko_graph(book)
        levels = critical_levels(book)
        enumerate_regimes(book, (levels[0] + levels[1]) / 2)
        if rep is not None:
            verify_realization(rep, samples=2)
        assert _state(book) == before, book
        assert set(vars(book)) == {
            "family", "leaves", "gluings", "_by_id", "boundary_values", "_walls"
        }, book
