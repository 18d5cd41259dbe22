import math
from collections import Counter

import numpy as np
import pytest

from billiard_books import (
    CriticalLambda,
    NotCritical,
    Rule,
    axis_bounce_circles,
    build_fomenko_graph,
    classify_singular_level,
    compile_simple,
    critical_levels,
    disk,
    enumerate_regimes,
    graphs_isomorphic,
    make_book,
    simulate,
    to_dot,
)
from billiard_books import topology
from billiard_books.book import BilliardBook, GluingPermutation, annulus, validate_book
from billiard_books.catalog import FIXTURE_FAMILY
from billiard_books.dynamics import EventSide, TangentialHit
from billiard_books.topology import (
    ATOM_EDGE_CAPACITY,
    CriticalCircle,
    FomenkoGraph,
    TopologyError,
)

from _grazing import NoInnerLeaf, grazing_probe_exits, pass_through_return
import _stepped_regimes
from _stepped_regimes import stepped_regimes
from _vertex_reference import reflection_states
from _refs import (
    graph_from_census,
    ref_graph_annulus_two_disks,
    ref_graph_chain_five,
    ref_graph_chain_six,
    ref_graph_two_annuli_two_disks,
)
from test_foliation_golden import COMPILED_HASHES
from test_games import random_valid_game


def test_critical_levels(books, family):
    assert critical_levels(books["annulus_two_disks"]) == [0.0, 2.0, 4.0, 9.0]
    assert critical_levels(books["chain_six"]) == [0.0, 2.0, 3.5, 4.0, 9.0]
    single = make_book(family, [disk(1, 1.5)])
    assert critical_levels(single) == [1.5, 4.0, 9.0]


def test_enumerate_regime_counts(books):
    assert len(enumerate_regimes(books["annulus_two_disks"], 1.0)) == 2
    assert len(enumerate_regimes(books["annulus_two_disks"], 3.0)) == 2
    assert len(enumerate_regimes(books["annulus_two_disks"], 6.0)) == 2
    assert len(enumerate_regimes(books["two_annuli_two_disks"], 3.0)) == 4
    assert len(enumerate_regimes(books["two_annuli_two_disks"], 6.0)) == 4


def test_enumerate_rejects_critical_values(books):
    with pytest.raises(CriticalLambda):
        enumerate_regimes(books["annulus_two_disks"], 2.0)
    with pytest.raises(CriticalLambda):
        enumerate_regimes(books["annulus_two_disks"], -0.5)


def test_enumerate_rejects_nan(books):
    # NaN fails both range comparisons; it must not reach the band search
    with pytest.raises(CriticalLambda, match="outside the dynamical range"):
        enumerate_regimes(books["chain_six"], math.nan)


@pytest.mark.parametrize("target", [0, 1])
def test_enumerate_regimes_refuses_non_permutation(books, monkeypatch, target):
    # a vertex map sending every vertex to one reflection vertex is not a
    # permutation: with target 0 a later walk meets a vertex walked before,
    # with target 1 the first walk never returns to its seed
    book = books["annulus_two_disks"]
    real = topology._vertex_table
    s = reflection_states(book, 1.0)[target]
    into = (s.leaf_before, s.ellipse, s.sign)

    def collapsing(book_):
        seeds, rows = real(book_)
        return seeds, [(v, ev, reach, into, into, into) for v, ev, reach, *_ in rows]

    monkeypatch.setattr(topology, "_vertex_table", collapsing)
    with pytest.raises(TopologyError, match=r"lam=1\.0"):
        enumerate_regimes(book, 1.0)


def test_enumerate_regimes_refuses_endless_crossings(books, monkeypatch):
    # a walk that comes back to its seed without reflecting is refused: the
    # seeds are the real reflections, every boundary is a crossing
    book = books["annulus_two_disks"]
    real = topology._vertex_table
    seeds, _ = real(book)
    crossing = BilliardBook(book.family, book.leaves, book.gluings)
    walls_of, scans = book._walls
    # its wall table, with every rule a crossing; topology reads no next scan
    vars(crossing)["_walls"] = ({
        leaf_id: tuple((*wall[:3], Rule.R3, EventSide.PASS_THROUGH, leaf_id, *wall[6:])
                       for wall in walls)
        for leaf_id, walls in walls_of.items()
    }, scans)
    monkeypatch.setattr(topology, "_vertex_table", lambda book_: (seeds, real(book_)[1]))
    with pytest.raises(TopologyError, match=r"lam=1\.0 met no reflection"):
        enumerate_regimes(crossing, 1.0)


def test_enumerate_regimes_refuses_tangential_transfer(books, monkeypatch):
    # only the stepped oracle can graze a boundary; it refuses such a walk
    def tangential(book_, lam, witness):
        raise TangentialHit(2.0, witness.x, witness.y, 0.0)

    monkeypatch.setattr(_stepped_regimes, "stepped_transfer", tangential)
    with pytest.raises(TopologyError, match=r"lam=1\.0"):
        stepped_regimes(books["annulus_two_disks"], 1.0)


def random_glued_book(family, rng):
    """A valid book of 1-8 disks and annuli over five ellipses, each shared
    ellipse glued by a uniformly random permutation (fixed points allowed)."""
    pool = (0.0, 0.8, 1.6, 2.4, 3.2)
    leaves = []
    for lid in range(1, int(rng.integers(1, 9)) + 1):
        i, j = sorted(int(k) for k in rng.choice(len(pool), size=2, replace=False))
        leaves.append(disk(lid, pool[i]) if rng.random() < 0.5 else annulus(lid, pool[i], pool[j]))
    book = make_book(family, leaves)
    gluings = []
    for e in book.boundary_values:
        ids = book.leaf_ids_on_ellipse(e)
        if len(ids) > 1:
            images = [int(x) for x in rng.permutation(ids)]
            gluings.append(GluingPermutation(e, dict(zip(ids, images))))
    book = BilliardBook(family, tuple(leaves), tuple(gluings))
    assert validate_book(book) == []
    return book


def test_symbolic_regimes_match_stepped_oracle(books, family):
    # the symbolic transfer map against witnesses stepped by dynamics.step,
    # on every band of the catalog, compiled and random glued books
    rng = np.random.default_rng(5)
    corpus = list(books.values())
    corpus += [
        compile_simple(random_valid_game(family, rng, n)).book for n in range(2, 13) for _ in "ab"
    ]
    corpus += [random_glued_book(family, rng) for _ in range(150)]
    bands = 0
    for book in corpus:
        levels = critical_levels(book)
        for lo, hi in zip(levels, levels[1:]):
            mid = (lo + hi) / 2
            got = [(r.key(), r.orientation) for r in enumerate_regimes(book, mid)]
            want = [(r.key(), r.orientation) for r, _ in stepped_regimes(book, mid)]
            assert got == want, (book, mid)
            bands += 1
    assert bands > 500, bands


def test_regimes_locally_constant(books):
    book = books["chain_six"]
    for lo, hi in ((3.5, 4.0), (4.0, 9.0)):
        at1 = enumerate_regimes(book, lo + 0.25 * (hi - lo))
        at2 = enumerate_regimes(book, lo + 0.7 * (hi - lo))
        keys1 = sorted(r.reflection_key(signed=True) for r in at1)
        keys2 = sorted(r.reflection_key(signed=True) for r in at2)
        assert keys1 == keys2


def test_witness_reproduces_cycle(books, family):
    # compiled books check that step and the regime enumeration agree
    # beyond the catalog; each regime's witness comes from the stepped oracle
    rng = np.random.default_rng(0)
    games = [random_valid_game(family, rng, int(rng.integers(2, 7))) for _ in range(12)]
    catalog = ("annulus_two_disks", "two_annuli_two_disks", "chain_six")
    named = [(name, books[name]) for name in catalog]
    named += [(g.betas, compile_simple(g).book) for g in games]
    for name, book in named:
        levels = critical_levels(book)
        for i in range(len(levels) - 1):
            mid = (levels[i] + levels[i + 1]) / 2
            regimes = {r.key(): r for r in enumerate_regimes(book, mid)}
            for found, witness in stepped_regimes(book, mid):
                regime = regimes[found.key()]
                refl = [
                    (s.ellipse, s.side, s.leaf_before, s.leaf_after, s.sign)
                    for s in regime.states
                    if s.side is not EventSide.PASS_THROUGH
                ]
                traj = simulate(book, witness, max_events=12 * len(regime.states) + 8)
                seen = []
                for ev in traj.events:
                    if ev.rule is Rule.R3:
                        continue
                    sign = (
                        (1 if ev.y >= 0 else -1)
                        if mid > book.family.b
                        else (1 if ev.x * ev.vy - ev.y * ev.vx > 0 else -1)
                    )
                    seen.append((ev.ellipse, ev.side, ev.leaf_before, ev.leaf_after, sign))
                    if len(seen) == 3 * len(refl):
                        break
                assert len(seen) == 3 * len(refl)
                # the witnessed sequence is the cycle repeated (phase shifted)
                m = len(refl)
                assert seen[m : 2 * m] == seen[:m] and seen[2 * m :] == seen[:m]
                shift = next(
                    (r for r in range(m) if refl[r:] + refl[:r] == seen[:m]), None
                )
                assert shift is not None, (name, mid, refl, seen[:m])


def test_pass_through_return(books):
    assert pass_through_return(books["annulus_two_disks"], 2.0, 1) == (1, True)
    assert pass_through_return(books["two_annuli_two_disks"], 2.0, 1) == (4, False)


def test_pass_through_return_unglued_outer(family):
    from billiard_books import annulus

    book = make_book(
        family,
        [annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)],
        [(2.0, [[2, 3]])],
    )
    with pytest.raises(NoInnerLeaf):
        pass_through_return(book, 2.0, 1)
    # the numerical witness refuses the same leaf, before any probe
    with pytest.raises(NoInnerLeaf, match=r"^leaf 1 is not glued across C_2\.0$"):
        grazing_probe_exits(book, 2.0, 1)


def test_pass_through_return_refuses_a_leaf_within_the_ellipse(books):
    # leaf 2 is a disk on C_2: it lies within the ellipse, not outside it
    with pytest.raises(TopologyError, match=r"^leaf 2 does not lie outside C_2\.0$"):
        pass_through_return(books["annulus_two_disks"], 2.0, 2)


def test_grazing_probes_match_chain(books):
    exits = grazing_probe_exits(books["annulus_two_disks"], 2.0, 1, n_probes=16)
    assert exits == [1] * 16
    exits = grazing_probe_exits(books["two_annuli_two_disks"], 2.0, 1, n_probes=16)
    assert exits == [4] * 16


def test_classify_focal_level_three_leaf(books):
    atoms = classify_singular_level(books["annulus_two_disks"], 4.0)
    assert [a.type for a in atoms] == ["C2"]
    atom = atoms[0]
    assert atom.critical_circles == 2 and atom.separatrix_count == 4
    vertex_sets = sorted(
        sorted((r[4], r[0]) for r in c.reflections) for c in atom.circles
    )
    # one orbit bounces between +outer/-inner vertices, the mirror one between
    # -outer/+inner
    assert vertex_sets == [
        [(-1, 0.0), (1, 2.0)],
        [(-1, 2.0), (1, 0.0)],
    ]


def test_classify_top_level_four_leaf(books):
    atoms = classify_singular_level(books["two_annuli_two_disks"], 9.0)
    assert [a.type for a in atoms] == ["A"] * 4


def test_classify_focal_level_chain_five(books):
    atoms = classify_singular_level(books["chain_five"], 4.0)
    assert [a.type for a in atoms] == ["B"]
    assert len(atoms[0].circles[0].reflections) == 6  # closes after six bounces


def test_classify_regular_level_empty(books):
    assert classify_singular_level(books["chain_five"], 2.0) == []
    assert classify_singular_level(books["chain_five"], 3.5) == []


def test_classify_rejects_noncritical(books):
    with pytest.raises(NotCritical):
        classify_singular_level(books["chain_five"], 2.7)


def test_graphs_against_references(books):
    assert graphs_isomorphic(
        build_fomenko_graph(books["annulus_two_disks"]), ref_graph_annulus_two_disks()
    )
    assert graphs_isomorphic(
        build_fomenko_graph(books["two_annuli_two_disks"]),
        ref_graph_two_annuli_two_disks(),
    )
    for name in ("chain_five", "chain_five_inverted", "three_sheets", "three_sheets_inverted"):
        assert graphs_isomorphic(build_fomenko_graph(books[name]), ref_graph_chain_five()), name
    for name in ("chain_six", "four_sheets", "four_sheets_inverted"):
        assert graphs_isomorphic(build_fomenko_graph(books[name]), ref_graph_chain_six()), name


def test_graphs_isomorphic_basics(books):
    fig4 = ref_graph_annulus_two_disks()
    fig9 = ref_graph_chain_five()
    assert graphs_isomorphic(fig4, fig4)
    assert not graphs_isomorphic(fig4, fig9)
    g1 = build_fomenko_graph(books["chain_five"])
    g2 = build_fomenko_graph(books["chain_five_inverted"])
    assert graphs_isomorphic(g1, g2)


def test_graphs_isomorphic_sees_incidence():
    atoms = [(0.0, "A"), (0.0, "A"), (4.0, "B"), (4.0, "B"), (9.0, "A"), (9.0, "A")]
    straight = graph_from_census(atoms, [(0, 2), (1, 3), (2, 4), (3, 5), (2, 3), (2, 3)])
    crossed = graph_from_census(atoms, [(0, 2), (1, 3), (2, 4), (3, 5), (2, 3), (2, 2)])
    assert not graphs_isomorphic(straight, crossed)  # same census, different wiring
    doubled = graph_from_census(atoms, [(0, 2), (1, 3), (2, 5), (3, 4), (2, 3), (2, 3)])
    assert graphs_isomorphic(straight, doubled)  # relabeling within equal ranks


@pytest.mark.parametrize("edge", [(0, 2), (0, -1), (-3, 1)])
def test_graph_from_census_refuses_bad_edge(edge):
    with pytest.raises(TopologyError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
        graph_from_census([(0.0, "A"), (1.0, "A")], [(0, 1), edge])


def test_regimes_locally_constant_everywhere(books):
    for name, book in books.items():
        levels = critical_levels(book)
        for lo, hi in zip(levels, levels[1:]):
            at1 = enumerate_regimes(book, lo + 0.31 * (hi - lo))
            at2 = enumerate_regimes(book, lo + 0.77 * (hi - lo))
            keys1 = sorted(r.reflection_key(signed=True) for r in at1)
            keys2 = sorted(r.reflection_key(signed=True) for r in at2)
            assert keys1 == keys2, (name, lo, hi)


def test_compiled_books_match_reference_graphs(family):
    from billiard_books import OrderedGame, compile_simple

    expectations = [
        (((0.0, 2.0), (1, 1)), ref_graph_two_annuli_two_disks()),
        (((0.0, 2.0, 3.5), (1, 1, 1)), ref_graph_chain_six()),
        (((0.0, 3.5, 2.0), (1, 1, 1)), ref_graph_chain_six()),
        (((0.0, 2.0, 3.5), (1, 1, -1)), ref_graph_chain_six()),
        (((0.0, 3.5, 2.0), (1, -1, 1)), ref_graph_chain_six()),
    ]
    for (betas, sig), ref in expectations:
        rep = compile_simple(OrderedGame(family, betas, sig))
        built = build_fomenko_graph(rep.book)
        assert graphs_isomorphic(built, ref), (betas, sig)


def test_compiled_books_have_valid_graphs(family):
    from billiard_books import OrderedGame, compile_simple

    for betas, sig in [
        ((0.0, 2.0), (1, -1)),
        ((0.0, 2.0, 0.0, 3.5), (1, -1, 1, 1)),
        ((0.0, 2.0, 0.0, 3.5), (1, -1, 1, -1)),
    ]:
        graph = build_fomenko_graph(compile_simple(OrderedGame(family, betas, sig)).book)
        for atom, deg in zip(graph.atoms, graph.degrees()):
            assert atom.type in ATOM_EDGE_CAPACITY
            assert deg == ATOM_EDGE_CAPACITY[atom.type]


def test_atom_capacities(books):
    for name, book in books.items():
        graph = build_fomenko_graph(book)
        for atom, deg in zip(graph.atoms, graph.degrees()):
            assert atom.type in ATOM_EDGE_CAPACITY, f"{name}: unknown atom {atom}"
            assert deg == ATOM_EDGE_CAPACITY[atom.type], (name, atom, deg)


def test_elementary_books_recover_classical_molecules(family):
    from billiard_books import annulus

    # the plain ellipse and the confocal annulus have well-known graphs
    ellipse = make_book(family, [disk(1, 2.0)])
    g = build_fomenko_graph(ellipse)
    assert dict(g.census()) == {"A": 3, "B": 1}
    ring = make_book(family, [annulus(1, 0.0, 2.0)])
    g = build_fomenko_graph(ring)
    assert dict(g.census()) == {"A": 4, "C2": 1}
    # disjoint sub-books contribute independent components
    stacks = make_book(
        family,
        [disk(1, 2.0), disk(2, 2.0), disk(3, 3.5), disk(4, 3.5)],
        [(2.0, [[1, 2]]), (3.5, [[3, 4]])],
    )
    g = build_fomenko_graph(stacks)
    assert dict(g.census()) == {"A": 8, "C2": 2}
    for atom, deg in zip(g.atoms, g.degrees()):
        assert deg == ATOM_EDGE_CAPACITY[atom.type]


def test_axis_circle_counts(books):
    assert len(axis_bounce_circles(books["annulus_two_disks"], "x")) == 2
    assert len(axis_bounce_circles(books["chain_five"], "x")) == 1
    assert len(axis_bounce_circles(books["chain_six"], "y")) == 3


def test_axis_bounce_circles_refuses_an_unknown_axis(books):
    with pytest.raises(ValueError, match="'z'"):
        axis_bounce_circles(books["chain_six"], "z")


def test_axis_circles_match_boundaries_to_gluing_keys_with_tolerance():
    # every glued ellipse parameter sits 3e-13 off its gluing key, on both
    # sides of the keys at 0 and 1.6 (inside PARAM_TOL), so the walk must
    # match a vertex to the image leaf's outer ellipse within that tolerance;
    # each circle reflects at C_0 once on each half-axis, switching between
    # leaves 1 and 3, and passes straight through the holes
    d = 3e-13
    book = BilliardBook(
        FIXTURE_FAMILY,
        (annulus(1, d, 1.6 - d), disk(2, 1.6 + d), annulus(3, -d, 0.8), disk(4, 0.8 + d)),
        (
            GluingPermutation(0.0, {1: 3, 3: 1}),
            GluingPermutation(1.6, {1: 2, 2: 1}),
            GluingPermutation(0.8, {3: 4, 4: 3}),
        ),
    )
    assert validate_book(book) == []
    for axis in "xy":
        assert axis_bounce_circles(book, axis) == [
            CriticalCircle(axis, ((d, "FromInside", 1, 3, 1), (-d, "FromInside", 3, 1, -1))),
            CriticalCircle(axis, ((d, "FromInside", 1, 3, -1), (-d, "FromInside", 3, 1, 1))),
        ]


def test_minor_axis_circles_carry_the_hyperbolic_regimes(books, family):
    # the axis bounce walk is the regime walk at the hyperbolic caustic's
    # degenerate limit lam = a, so its circles hold the signed reflections
    # of the hyperbolic band's tori, one circle per torus
    rng = np.random.default_rng(15)
    corpus = list(books.values())
    games = [random_valid_game(family, rng, n) for n in range(2, 12) for _ in range(5)]
    corpus += [compile_simple(g).book for g in games]
    corpus += [random_glued_book(family, rng) for _ in range(150)]
    for book in corpus:
        mid = (book.family.b + book.family.a) / 2
        circles = Counter(c.reflection_key(signed=True) for c in axis_bounce_circles(book, "y"))
        tori = Counter(r.reflection_key(signed=True) for r in enumerate_regimes(book, mid))
        assert circles == tori, book


def test_to_dot_deterministic(books):
    graph = build_fomenko_graph(books["annulus_two_disks"])
    text = to_dot(graph)
    assert text == to_dot(graph)
    assert 'label="C2@4.0"' in text
    assert text.count(" -- ") == 4


def _dot_order_books():
    """The compiled golden books, then 100 random glued books.  Many of their
    graphs hold atoms equal in (lam, type, description), such as the two C2
    atoms at lam = 4 of the first compiled row."""
    from billiard_books import OrderedGame

    for betas, sig, _ in COMPILED_HASHES:
        book = compile_simple(OrderedGame(FIXTURE_FAMILY, betas, sig)).book
        yield f"{','.join(map(str, betas))}/{','.join(map(str, sig))}", book
    rng = np.random.default_rng(30)
    for k in range(100):
        yield f"glued{k}", random_glued_book(FIXTURE_FAMILY, rng)


@pytest.mark.parametrize("book", [pytest.param(b, id=i) for i, b in _dot_order_books()])
def test_to_dot_ignores_atom_order(book):
    # swapping two atoms that share (lam, type, description) relabels the
    # graph, so its DOT text must not change
    graph = build_fomenko_graph(book)
    text = to_dot(graph)
    first_of: dict[tuple, int] = {}
    for j, atom in enumerate(graph.atoms):
        i = first_of.setdefault((atom.lam, atom.type, atom.description), j)
        if i == j:
            continue
        swap = {i: j, j: i}
        atoms = list(graph.atoms)
        atoms[i], atoms[j] = atoms[j], atoms[i]
        edges = [(swap.get(a, a), swap.get(b, b), r) for a, b, r in graph.edges]
        assert to_dot(FomenkoGraph(atoms, edges)) == text, (i, j)


def assert_bands_and_atoms(book, graph, tag):
    """Every regime of every band is carried by exactly one edge whose
    interval covers the band, the band's regimes split its reflection
    states, and every classified atom has as many edges as its type holds."""
    levels = critical_levels(book)
    for lo, hi in zip(levels, levels[1:]):
        regimes = enumerate_regimes(book, (lo + hi) / 2)
        states = [s.key() for r in regimes for s in r.reflection_states]
        every = [s.key() for s in reflection_states(book, (lo + hi) / 2)]
        assert sorted(states) == sorted(every), (tag, lo)
        keys = [r.key() for r in regimes]
        assert keys == sorted(keys), (tag, lo)
        covering = [
            r for _, _, r in graph.edges
            if r.caustic_interval[0] <= lo and hi <= r.caustic_interval[1]
        ]
        assert len(covering) == len(keys), (tag, lo, hi)
        starting = [r.key() for r in covering if r.caustic_interval[0] == lo]
        assert len(set(starting)) == len(starting) and set(starting) <= set(keys), (tag, lo)
    for atom, deg in zip(graph.atoms, graph.degrees()):
        if atom.type != "Unknown":
            assert deg == ATOM_EDGE_CAPACITY[atom.type], (tag, atom, deg)


def test_random_books_conserve_regimes_and_fill_atoms(family):
    rng = np.random.default_rng(3)
    for _ in range(40):
        game = random_valid_game(family, rng, int(rng.integers(2, 9)))
        book = compile_simple(game).book
        assert_bands_and_atoms(book, build_fomenko_graph(book), game)
