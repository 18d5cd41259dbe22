"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

import math
from dataclasses import replace

import numpy as np

from billiard_books import (
    OrderedGame,
    annulus,
    build_fomenko_graph,
    caustic_parameter,
    compile_simple,
    graphs_isomorphic,
    leaf_count_bounds,
    make_book,
    reverse,
    simulate,
    tangency_oracle,
    verify_realization,
)
from billiard_books.dynamics import STATUS_OK, time_reversed_start
from conftest import random_state
from test_games import random_valid_game
from _grazing import grazing_probe_exits, pass_through_return
from _refs import (
    ref_graph_annulus_two_disks,
    ref_graph_chain_five,
    ref_graph_chain_six,
    ref_graph_two_annuli_two_disks,
)

CONSERVATION_BOOKS = ("annulus_two_disks", "two_annuli_two_disks", "chain_five", "chain_six")

GAME_LIST = [
    ((0.0, 2.0), (1, 1)),
    ((0.0, 2.0), (1, -1)),
    ((0.0, 2.0, 3.5), (1, 1, 1)),
    ((0.0, 3.5, 2.0), (1, 1, 1)),
    ((0.0, 2.0, 3.5), (1, 1, -1)),
    ((0.0, 3.5, 2.0), (1, -1, 1)),
    ((0.0, 2.0, 0.0, 3.5), (1, -1, 1, 1)),
    ((0.0, 2.0, 0.0, 3.5), (1, -1, 1, -1)),
]


def _ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_1_caustic_conservation(books):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name in CONSERVATION_BOOKS:
        book = books[name]
        for _ in range(50):
            traj = simulate(book, random_state(book, rng), max_events=1000)
            assert traj.status == STATUS_OK, name
            assert len(traj.events) == 1000
            assert traj.caustic_drift <= 1e-9, (name, traj.caustic_drift)
            worst = max(worst, traj.caustic_drift)
    _ok(f"caustic drift <= 1e-9 over 1000-event runs, 50 starts x 4 books (worst {worst:.2e})")


def test_criterion_2_game_realization(family):
    for betas, sig in GAME_LIST:
        rep = compile_simple(OrderedGame(family, betas, sig))
        failures = verify_realization(rep, samples=100, seed=7)
        assert failures == [], (betas, sig, failures[:3])
    _ok(f"all {len(GAME_LIST)} listed games realized exactly, 100 admissible starts each")


def test_criterion_3_leaf_count_bounds(family):
    rng = np.random.default_rng(99)
    for _ in range(500):
        g = random_valid_game(family, rng, int(rng.integers(2, 7)))
        lo, hi, _ = leaf_count_bounds(g)
        n_leaves = compile_simple(g).leaf_count
        assert lo <= n_leaves <= hi, (g.betas, g.signature, n_leaves)
    rep = compile_simple(OrderedGame(family, (0.0, 2.0), (1, 1)))
    assert rep.leaf_count == 4
    # a hand-built two-annulus book realizes the outside-hit pair game
    hand = make_book(
        family,
        [annulus(1, 0.0, 2.0), annulus(2, 0.0, 2.0)],
        [(0.0, [[1, 2]]), (2.0, [[1, 2]])],
    )
    hand_rep = replace(
        compile_simple(OrderedGame(family, (0.0, 2.0), (1, -1))), book=hand, start_leaf_id=1
    )
    assert len(hand.leaves) == 2
    assert verify_realization(hand_rep, samples=20, seed=3) == []
    _ok("leaf-count bounds hold on 500 random games; N=4 and the 2-leaf book check out")


def test_criterion_4_fomenko_graphs(books):
    built = {name: build_fomenko_graph(book) for name, book in books.items()}
    assert graphs_isomorphic(built["annulus_two_disks"], ref_graph_annulus_two_disks())
    assert graphs_isomorphic(built["two_annuli_two_disks"], ref_graph_two_annuli_two_disks())
    fig9_family = ["chain_five", "chain_five_inverted", "three_sheets", "three_sheets_inverted"]
    for name in fig9_family:
        assert graphs_isomorphic(built[name], ref_graph_chain_five()), name
    for n1 in fig9_family:
        for n2 in fig9_family:
            assert graphs_isomorphic(built[n1], built[n2]), (n1, n2)
    for name in ("chain_six", "four_sheets", "four_sheets_inverted"):
        assert graphs_isomorphic(built[name], ref_graph_chain_six()), name
    censuses = {
        "annulus_two_disks": {"A": 4, "C2": 1},
        "two_annuli_two_disks": {"A": 6, "B": 2, "C2": 2},
        "chain_five": {"A": 3, "B": 1},
        "chain_six": {"A": 5, "B": 3, "C2": 1},
    }
    for name, want in censuses.items():
        assert dict(built[name].census()) == want, name
    _ok("built graphs isomorphic to the reference figures (A/B/C2 censuses exact)")


def test_criterion_5_regime_counts(books):
    from billiard_books import enumerate_regimes

    for lam in (1.0, 3.0, 6.5):
        assert len(enumerate_regimes(books["annulus_two_disks"], lam)) == 2, lam
    expected = {1.0: 2, 3.0: 4, 6.5: 4}
    for lam, count in expected.items():
        assert len(enumerate_regimes(books["two_annuli_two_disks"], lam)) == count, lam
    _ok("torus counts per caustic band: 2/2/2 and 2/4/4 as expected")


def test_criterion_6_grazing_dichotomy(books):
    ret, consistent = pass_through_return(books["annulus_two_disks"], 2.0, 1)
    assert consistent and ret == 1
    exits = grazing_probe_exits(books["annulus_two_disks"], 2.0, 1, n_probes=16)
    assert exits == [1] * 16

    ret, consistent = pass_through_return(books["two_annuli_two_disks"], 2.0, 1)
    assert not consistent and ret == 4
    exits = grazing_probe_exits(books["two_annuli_two_disks"], 2.0, 1, n_probes=16)
    assert exits == [4] * 16
    _ok("grazing chain continuous on the 3-leaf book, broken on the 4-leaf one (16/16 probes)")


def test_criterion_7_reversal(books):
    book = books["chain_five"]
    rng = np.random.default_rng(5)
    produced = 0
    while produced < 20:
        st = random_state(book, rng)
        lam = caustic_parameter(book.family, st.x, st.y, st.vx, st.vy)
        if lam <= 3.6:  # the band where the full three-ellipse cycle runs
            continue
        fwd = simulate(book, st, max_events=50)
        if fwd.status != STATUS_OK or len(fwd.events) < 50:
            continue
        produced += 1
        rev = reverse(book, fwd)
        n = len(fwd.events)
        for j in range(n - 1):
            mirror = fwd.events[n - 2 - j]
            assert math.hypot(rev.events[j].x - mirror.x, rev.events[j].y - mirror.y) <= 1e-8
            # the inverted gluings also retrace the leaf transitions
            assert (rev.events[j].leaf_before, rev.events[j].leaf_after) == (
                mirror.leaf_after,
                mirror.leaf_before,
            )
        same = simulate(book, time_reversed_start(book, fwd), max_events=n - 1)
        mismatch = max(
            math.hypot(
                same.events[j].x - fwd.events[n - 2 - j].x,
                same.events[j].y - fwd.events[n - 2 - j].y,
            )
            for j in range(len(same.events))
        )
        assert mismatch > 1e-8, "same-book reversal unexpectedly retraced the path"
    _ok("20 reversals retrace on the inverted book and diverge on the original")


def test_criterion_8_oracle_equivalence(family):
    rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    while checked < 1000:
        px = rng.uniform(-3.0, 3.0)
        py = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        vx, vy = math.cos(phi), math.sin(phi)
        lam = caustic_parameter(family, px, py, vx, vy)
        if min(abs(lam - family.a), abs(lam - family.b)) < 1e-6:
            continue
        disc = tangency_oracle(family, px, py, vx, vy, lam)
        assert abs(disc) <= 1e-9
        worst = max(worst, abs(disc))
        checked += 1
    _ok(f"caustic formula vs tangency discriminant: 1000 samples, worst |disc| {worst:.2e}")
