import math

import numpy as np
import pytest

from billiard_books import (
    ConsecutiveRepeat,
    EventSide,
    InadmissibleCaustic,
    InvalidGame,
    OrderedGame,
    RepeatWithOutside,
    admissible_start,
    compile_general,
    compile_simple,
    invert_gluings,
    leaf_count_bounds,
    normalize_game,
    simulate,
    trace_to_game,
    validate_game,
    verify_realization,
)
from billiard_books.games import admissible_caustic_range


def game(family, betas, sig):
    return OrderedGame(family, tuple(betas), tuple(sig))


def codes(violations):
    return sorted(v.code for v in violations)


# --- validation --------------------------------------------------------------

def test_validate_annulus_game(family):
    assert validate_game(game(family, (0.0, 2.0), (1, -1))) == []


def test_validate_consecutive_outside(family):
    assert "ConsecutiveOutside" in codes(validate_game(game(family, (0.0, 2.0), (-1, -1))))


def test_validate_long_mixed_game(family):
    # seven reflections visiting three nested ellipses, two outside hits
    g = game(family, (0.0, 3.5, 2.0, 3.5, 0.0, 2.0, 0.0), (1, -1, 1, 1, 1, -1, 1))
    assert validate_game(g) == []


def test_validate_outside_not_nested(family):
    g = game(family, (0.0, 2.0, 3.5), (1, -1, 1))
    assert "OutsideNotNested" in codes(validate_game(g))


def test_validate_beta_range_and_length(family):
    assert "BetaOutOfRange" in codes(validate_game(game(family, (0.0, 4.0), (1, 1))))
    assert "BetaOutOfRange" in codes(validate_game(game(family, (0.0, -math.inf), (1, 1))))
    assert "LengthMismatch" in codes(validate_game(game(family, (0.0, 2.0), (1,))))


def test_normalize_puts_outermost_first(family):
    g = game(family, (2.0, 3.5, 0.0), (1, 1, 1))
    norm, shift = normalize_game(g)
    assert norm.betas == (0.0, 2.0, 3.5)
    assert shift == 2


# --- compilation -------------------------------------------------------------

def leaf_multiset(book):
    # disks sort with sentinel -1 in place of the missing inner boundary
    return sorted((lf.outer, -1.0 if lf.inner is None else lf.inner) for lf in book.leaves)


def test_compile_pair_inside(family):
    rep = compile_simple(game(family, (0.0, 2.0), (1, 1)))
    assert rep.leaf_count == 4
    assert leaf_multiset(rep.book) == [(0.0, 2.0), (0.0, 2.0), (2.0, -1.0), (2.0, -1.0)]
    a0, a1 = rep.annulus_ids[0], rep.annulus_ids[1]
    assert rep.book.gluing_for(0.0).cycles() == [sorted((a0, a1))]
    cyc2 = rep.book.gluing_for(2.0).cycles()[0]
    assert len(cyc2) == 4


def test_compile_pair_annulus(family):
    rep = compile_simple(game(family, (0.0, 2.0), (1, -1)))
    assert rep.leaf_count == 2
    assert leaf_multiset(rep.book) == [(0.0, 2.0), (0.0, 2.0)]
    assert rep.book.gluing_for(0.0).cycles() == rep.book.gluing_for(2.0).cycles()


def test_compile_triple(family):
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, 1)))
    assert rep.leaf_count == 6
    assert leaf_multiset(rep.book) == [
        (0.0, 2.0),
        (0.0, 3.5),
        (2.0, -1.0),
        (2.0, 3.5),
        (3.5, -1.0),
        (3.5, -1.0),
    ]
    cycles = {g.ellipse: g.cycles() for g in rep.book.gluings}
    assert [len(c[0]) for c in (cycles[0.0], cycles[2.0], cycles[3.5])] == [2, 3, 4]


def test_compile_rejects_repeats(family):
    with pytest.raises(ConsecutiveRepeat):
        compile_simple(game(family, (0.0, 2.0, 2.0), (1, 1, 1)))


def test_compile_general_run_one_sided(family):
    # two consecutive hits on the middle ellipse, neighbours strictly nested
    rep = compile_general(game(family, (0.0, 2.0, 2.0, 3.5), (1, 1, 1, 1)))
    assert sorted(len(v) for v in rep.disk_ids.values()) == [2, 2]
    cyc = rep.book.gluing_for(2.0).cycles()[0]
    assert len(cyc) == 4  # annulus, two identical disks, annulus


def test_compile_general_run_locally_outermost(family):
    # run on the outermost ellipse: one disk fewer than the run length
    rep = compile_general(game(family, (2.0, 0.0, 0.0, 3.5), (1, 1, 1, 1)))
    run_disks = [ids for ids in rep.disk_ids.values() if rep.book.leaf(ids[0]).outer == 0.0]
    assert run_disks and len(run_disks[0]) == 1
    assert verify_realization(rep, samples=4, seed=3) == []


def test_compile_general_equals_simple_without_repeats(family):
    for betas, sig in [
        ((0.0, 2.0), (1, 1)),
        ((0.0, 2.0, 3.5), (1, 1, -1)),
        ((0.0, 3.5, 2.0), (1, -1, 1)),
    ]:
        g = game(family, betas, sig)
        assert compile_general(g).book == compile_simple(g).book


def test_compile_rejects_repeat_with_outside(family):
    with pytest.raises(RepeatWithOutside):
        compile_general(game(family, (0.0, 2.0, 2.0), (1, 1, -1)))


def test_compile_rejects_constant_game(family):
    with pytest.raises(InvalidGame):
        compile_general(game(family, (2.0, 2.0), (1, 1)))


def test_compile_single_reflection(family):
    rep = compile_simple(game(family, (2.0,), (1,)))
    assert rep.leaf_count == 1 and rep.book.leaves[0].is_disk
    assert verify_realization(rep, samples=4, seed=1) == []


# --- leaf count bounds --------------------------------------------------------

def test_leaf_count_bounds(family):
    assert leaf_count_bounds(game(family, (0.0, 2.0), (1, 1))) == (2, 4, 1)
    assert leaf_count_bounds(game(family, (0.0, 2.0, 3.5), (1, 1, 1))) == (4, 6, 1)
    assert leaf_count_bounds(game(family, (0.0, 2.0), (1, -1))) == (2, 4, 1)
    assert compile_simple(game(family, (0.0, 2.0), (1, 1))).leaf_count == 4
    assert compile_simple(game(family, (0.0, 2.0), (1, -1))).leaf_count == 2


def random_valid_game(family, rng, n):
    pool = (0.0, 0.8, 1.6, 2.4, 3.2)
    while True:
        betas = [float(rng.choice(pool))]
        for _ in range(n - 1):
            betas.append(float(rng.choice([b for b in pool if b != betas[-1]])))
        if betas[0] == betas[-1]:
            continue
        sig = []
        for k in range(n):
            lo, hi = betas[(k - 1) % n], betas[(k + 1) % n]
            local_max = betas[k] > lo and betas[k] > hi
            prev_out = sig and sig[-1] == -1
            if local_max and not prev_out and rng.random() < 0.5:
                sig.append(-1)
            else:
                sig.append(1)
        if sig[0] == -1 and sig[-1] == -1:
            continue
        g = OrderedGame(family, tuple(betas), tuple(sig))
        if not validate_game(g):
            return g


def test_leaf_count_bounds_random(family):
    from billiard_books import validate_book

    rng = np.random.default_rng(12)
    for _ in range(100):
        g = random_valid_game(family, rng, int(rng.integers(2, 7)))
        lo, hi, _ = leaf_count_bounds(g)
        rep = compile_simple(g)
        assert lo <= rep.leaf_count <= hi
        assert validate_book(rep.book) == []


def test_realization_random_games(family):
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_valid_game(family, rng, int(rng.integers(2, 7)))
        rep = compile_simple(g)
        assert verify_realization(rep, samples=3, seed=int(rng.integers(1 << 32))) == [], (
            g.betas,
            g.signature,
        )


# --- inverse book and admissible starts ---------------------------------------

def test_invert_book_roundtrip(family):
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, 1)))
    assert invert_gluings(invert_gluings(rep.book)) == rep.book


def test_inverted_book_realizes_reversed_game(family):
    from dataclasses import replace

    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, 1)))
    inv = invert_gluings(rep.book)
    rev = game(family, (0.0, 3.5, 2.0), (1, 1, 1))
    # on the inverted book the reversed game starts from the annulus between
    # the first ellipse and the reversed game's last one
    rep_inv = replace(rep, book=inv, game=rev, start_leaf_id=rep.annulus_ids[1])
    assert verify_realization(rep_inv, samples=6, seed=5) == []


def test_admissible_start_ranges(family):
    rep = compile_simple(game(family, (0.0, 2.0), (1, 1)))
    st = admissible_start(rep, 3.0, seed=0)
    assert st.leaf_id == rep.start_leaf_id
    st = admissible_start(rep, 6.0, seed=0)
    assert st.leaf_id == rep.start_leaf_id
    with pytest.raises(InadmissibleCaustic):
        admissible_start(rep, 1.0, seed=0)
    assert admissible_caustic_range(rep.game) == ((2.0, 4.0), (4.0, 9.0))


def test_realization_short(family):
    for betas, sig in [
        ((0.0, 2.0), (1, 1)),
        ((0.0, 2.0), (1, -1)),
        ((0.0, 3.5, 2.0), (1, -1, 1)),
        ((0.0, 2.0, 0.0, 3.5), (1, -1, 1, 1)),
    ]:
        rep = compile_simple(game(family, betas, sig))
        assert verify_realization(rep, samples=6, seed=9) == []


def test_first_reflection_is_on_first_ellipse(family):
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))
    st = admissible_start(rep, 6.5, seed=4)
    traj = simulate(rep.book, st, max_events=30)
    trace = trace_to_game(traj)
    assert trace[0] == (0.0, EventSide.FROM_INSIDE)
