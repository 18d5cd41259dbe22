import json
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from billiard_books import (
    BilliardBook,
    ConsecutiveRepeat,
    EventSide,
    InadmissibleCaustic,
    InvalidGame,
    Leaf,
    OrderedGame,
    PhaseState,
    RepeatWithOutside,
    admissible_start,
    annulus,
    ConfocalFamily,
    GluingPermutation,
    compile_game,
    compile_simple,
    disk,
    invert_gluings,
    leaf_count_bounds,
    make_book,
    normalize_game,
    save_book,
    simulate,
    trace_to_game,
    validate_game,
    verify_realization,
)
from billiard_books import dynamics, games
from billiard_books.cli import main
from billiard_books.book import BookError, _same
from billiard_books.conics import directions_with_caustic
from billiard_books.dynamics import TangentialHit
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


def test_normalize_refuses_an_empty_game(family):
    with pytest.raises(InvalidGame) as err:
        normalize_game(game(family, (), ()))
    assert codes(err.value.violations) == ["Empty"]


@pytest.mark.parametrize("betas", [(3.5, -math.inf, 3.2), (math.nan, 1.0)])
def test_normalize_refuses_a_non_finite_ellipse_by_its_violations(family, betas):
    # _same(x, x) is False for inf and NaN, so no rotation matched and such a
    # game was called constant; a valid constant game still is
    with pytest.raises(InvalidGame) as err:
        normalize_game(game(family, betas, (1,) * len(betas)))
    assert codes(err.value.violations) == ["BetaOutOfRange"]
    with pytest.raises(InvalidGame) as err:
        normalize_game(game(family, (2.0, 2.0), (1, 1)))
    assert codes(err.value.violations) == ["ConstantGame"]


@pytest.mark.parametrize(
    "betas, sig, code",
    [
        ((0.0, 2.0), (1,), "LengthMismatch"),  # returned with a one-entry signature
        ((0.0, math.nan), (1, 1), "BetaOutOfRange"),  # returned unchanged
        ((2.0, 2.0), (1, 0), "BadSignature"),  # called ConstantGame
    ],
)
def test_normalize_refuses_an_invalid_game_by_its_violations(family, betas, sig, code):
    g = game(family, betas, sig)
    with pytest.raises(InvalidGame) as err:
        normalize_game(g)
    assert codes(err.value.violations) == [code]
    assert str(err.value) == str(InvalidGame(validate_game(g)))


# --- one verdict per game ------------------------------------------------------

@pytest.fixture
def validations(monkeypatch):
    """The ``validate_game`` calls the library makes, one list entry each."""
    calls = []
    real = games.validate_game

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(games, "validate_game", counted)
    return calls


def test_a_game_is_validated_once(family, tmp_path, capsys, validations):
    # a rotated game: its normal rotation is a second game object, with its
    # own verdict, which every verification sample then reads
    g = game(family, (2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1))
    rep = compile_simple(g)
    assert rep.shift != 0 and validations == [g]
    validations.clear()
    assert verify_realization(rep, samples=8) == []
    assert len(validations) <= 1
    book, game_file = write_verify_inputs(tmp_path, rep, g)
    validations.clear()
    assert main(["compile", game_file, "--out", str(tmp_path / "again.json")]) == 0
    assert len(validations) == 1  # the loader's check and compile's were two
    validations.clear()
    assert main(["verify", book, game_file, "--samples", "10"]) == 0
    assert len(validations) <= 2  # a check per sample would make 12
    capsys.readouterr()


def test_a_games_verdict_is_its_own(family, validations):
    g = game(family, (0.0, 2.0), (1, 5))
    with pytest.raises(InvalidGame) as err:
        normalize_game(g)
    message = str(err.value)
    err.value.violations.clear()  # the caught list is a copy of the verdict
    with pytest.raises(InvalidGame, match=re.escape(message)):
        normalize_game(g)
    assert validations == [g]
    fixed = replace(g, signature=(1, 1))
    assert normalize_game(fixed) == (fixed, 0)
    with pytest.raises(InvalidGame, match="BetaOutOfRange"):
        normalize_game(replace(fixed, betas=(0.0, math.nan)))
    assert len(validations) == 3


@pytest.mark.parametrize(
    "betas",
    [
        (0.0, 1.6, 1.6 + 8e-13, 1.6 + 1.6e-12),  # each within 1e-12 of the next
        (1.6 + 1.6e-12, 0.0, 1.6, math.nan, 1.6 + 8e-13),  # out of order, past a NaN
    ],
)
def test_validate_refuses_chained_ellipses(family, betas):
    # no book glues them: compile_game's book once failed validate_book
    g = game(family, betas, (1,) * len(betas))
    assert "ChainedEllipses" in codes(validate_game(g))
    with pytest.raises(InvalidGame):
        compile_game(g)


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


@pytest.mark.parametrize("refuse", [compile_simple, leaf_count_bounds])
def test_repeats_are_refused_with_one_message(family, refuse):
    # the cyclic repeat (2, 0) is found after (1, 2)
    with pytest.raises(ConsecutiveRepeat, match=r"^positions 1 and 2 use the same ellipse$"):
        refuse(game(family, (0.0, 2.0, 2.0, 0.0), (1, 1, 1, 1)))


def test_compile_general_run_one_sided(family):
    # two consecutive hits on the middle ellipse, neighbours strictly nested
    rep = compile_game(game(family, (0.0, 2.0, 2.0, 3.5), (1, 1, 1, 1)))
    assert sorted(len(v) for v in rep.disk_ids.values()) == [2, 2]
    cyc = rep.book.gluing_for(2.0).cycles()[0]
    assert len(cyc) == 4  # annulus, two identical disks, annulus


def test_compile_general_run_locally_outermost(family):
    # run on the outermost ellipse: one disk fewer than the run length
    rep = compile_game(game(family, (2.0, 0.0, 0.0, 3.5), (1, 1, 1, 1)))
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
        assert compile_game(g).book == compile_simple(g).book


def test_compile_rejects_repeat_with_outside(family):
    with pytest.raises(RepeatWithOutside):
        compile_game(game(family, (0.0, 2.0, 2.0), (1, 1, -1)))


def test_compile_rejects_constant_game(family):
    with pytest.raises(InvalidGame):
        compile_game(game(family, (2.0, 2.0), (1, 1)))


def test_compile_refuses_length_mismatch_before_scanning_repeats():
    # the repeat at positions 0, 1 once read signature[1] and raised IndexError
    fam = ConfocalFamily(9, 4)
    with pytest.raises(InvalidGame) as err:
        compile_game(game(fam, (0.0, 0.0, 2.0), (1,)))
    assert codes(err.value.violations) == ["LengthMismatch"]
    with pytest.raises(InvalidGame) as simple:
        compile_simple(game(fam, (0.0, 2.0, 3.0), (1,)))
    assert codes(simple.value.violations) == ["LengthMismatch"]


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
    assert leaf_count_bounds(game(family, (1.0,), (1,))) == (1, 1, 0)
    assert compile_simple(game(family, (1.0,), (1,))).leaf_count == 1


@pytest.mark.parametrize(
    "betas, sig, code",
    [
        ((), (), "Empty"),
        ((math.nan, 2.0), (1, 1), "BetaOutOfRange"),
        ((0.0, 5.0), (1, 1), "BetaOutOfRange"),
        ((0.0, 2.0, 3.5), (1, 1), "LengthMismatch"),
        ((0.0, 2.0), (1, 0), "BadSignature"),
        ((1.0,), (-1,), "ConsecutiveOutside"),
        ((1.6, 0.0, 1.6 + 8e-13, 0.0, 1.6 + 1.6e-12, 0.0), (1,) * 6, "ChainedEllipses"),
    ],
)
def test_leaf_count_bounds_refuses_invalid_games(family, betas, sig, code):
    # the bounds hold for playable games only, and compile_game refuses these
    g = game(family, betas, sig)
    with pytest.raises(InvalidGame) as err:
        leaf_count_bounds(g)
    assert code in codes(err.value.violations)
    with pytest.raises(InvalidGame):
        compile_game(g)


def random_valid_game(family, rng, n, pool=(0.0, 0.8, 1.6, 2.4, 3.2)):
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


def test_verify_book_takes_every_boundary_float_of_a_game_ellipse(family):
    # a disk whose parameter is another float within the tolerance of the
    # game's ellipse, which the annuli keep: the game's ellipse is two
    # boundary values, and a trace passes whichever of them each reflection
    # reports; the book realizes the game, and the game in the other order
    # fails
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))
    assert rep.book.leaf(4) == Leaf(4, 2.0)
    leaves = tuple(Leaf(4, 2.0 + 5e-13) if lf.id == 4 else lf for lf in rep.book.leaves)
    book = BilliardBook(family, leaves, rep.book.gluings)
    assert {e for lf in leaves for e in lf.boundary_params() if _same(e, 2.0)} == {
        2.0, 2.0 + 5e-13}
    assert games.verify_book(book, rep.game, rep.start_leaf_id, 6, 1) == []
    start = admissible_start(book, rep.start_leaf_id, 6.5, 3, rep.game)
    assert (2.0 + 5e-13, EventSide.FROM_INSIDE) in trace_to_game(simulate(book, start, 40))
    other = game(family, (0.0, 3.5, 2.0), (1, -1, 1))
    assert games.verify_book(book, other, rep.start_leaf_id, 6, 1) != []


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
    st = admissible_start(rep.book, rep.start_leaf_id, 3.0, seed=0, game=rep.game)
    assert st.leaf_id == rep.start_leaf_id
    st = admissible_start(rep.book, rep.start_leaf_id, 6.0, seed=0, game=rep.game)
    assert st.leaf_id == rep.start_leaf_id
    with pytest.raises(InadmissibleCaustic):
        admissible_start(rep.book, rep.start_leaf_id, 1.0, seed=0, game=rep.game)
    assert admissible_caustic_range(rep.game) == ((2.0, 4.0), (4.0, 9.0))


@pytest.mark.parametrize("caustic", [2.0, 4.0, 9.0, 10.0, math.nan])
def test_admissible_start_refuses_inadmissible_caustic(family, caustic):
    # the ranges are open: (2, 4) inside both game ellipses, (4, 9) hyperbolae;
    # b = 4 itself, their ends, values outside both and NaN are refused
    rep = compile_simple(game(family, (0.0, 2.0), (1, 1)))
    with pytest.raises(InadmissibleCaustic, match="not an ellipse inside all game ellipses"):
        admissible_start(rep.book, rep.start_leaf_id, caustic, seed=0, game=rep.game)


def test_admissible_start_without_game_refuses_nan_caustic(books):
    # no direction is tangent to a NaN caustic, so no start is found
    assert admissible_start(books["chain_six"], 1, math.nan, 0) is None


def test_realization_short(family):
    for betas, sig in [
        ((0.0, 2.0), (1, 1)),
        ((0.0, 2.0), (1, -1)),
        ((0.0, 3.5, 2.0), (1, -1, 1)),
        ((0.0, 2.0, 0.0, 3.5), (1, -1, 1, 1)),
    ]:
        rep = compile_simple(game(family, betas, sig))
        assert verify_realization(rep, samples=6, seed=9) == []


def test_sample_without_a_start_fails_at_index_0(family):
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))
    # leaf 4 is a disk on C_2: no flow from it reflects on C_0 first
    off = replace(rep, start_leaf_id=4)
    assert verify_realization(off, samples=4) == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_a_trace_that_ends_short_fails_at_its_length(family, monkeypatch):
    # a flow that ends, or runs out of its event budget, before the last
    # reflection fails its sample at the number of reflections it gave
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))
    real = games.sample_trace

    def short(book, state, need, budget):
        return real(book, state, need, budget)[:5]

    monkeypatch.setattr(games, "sample_trace", short)
    assert verify_realization(rep, samples=3, seed=1) == [(0, 5), (1, 5), (2, 5)]


def test_verify_refuses_negative_sample_counts(family):
    # no samples is no check; a negative count is an error, not a vacuous pass
    rep = compile_simple(game(family, (0.0, 2.0), (1, 1)))
    assert verify_realization(rep, samples=0) == []
    with pytest.raises(ValueError, match="-3"):
        verify_realization(rep, samples=-3)
    with pytest.raises(ValueError, match="-1"):
        games.verify_book(rep.book, rep.game, rep.start_leaf_id, samples=-1)
    # a count that is not an integer is a TypeError; "3" raised a bare '<'
    # comparison error
    for samples in (2.5, "3"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            verify_realization(rep, samples=samples)


@pytest.mark.parametrize(
    "betas, sig, code",
    [
        ((), (), "Empty"),
        ((0.0, 2.0), (1,), "LengthMismatch"),
        ((0.0, 2.0), (1, 5), "BadSignature"),
        ((2.0, 2.0), (1, 1), "ConstantGame"),  # had a "no start found" failure per sample
        ((0.0, math.nan), (1, 1), "BetaOutOfRange"),
    ],
)
def test_verify_refuses_invalid_games_before_drawing(family, monkeypatch, betas, sig, code):
    # as compile_game and leaf_count_bounds do, and before any draw; the start
    # sampler refuses the same games, but draws for a valid constant game
    rep = compile_simple(game(family, (0.0, 2.0), (1, 1)))
    g = game(family, betas, sig)

    def no_draw(*args, **kwargs):
        raise AssertionError("a random generator was made for an invalid game")

    monkeypatch.setattr(games, "_draws", no_draw)
    with pytest.raises(InvalidGame) as err:
        games.verify_book(rep.book, g, rep.start_leaf_id, samples=2)
    assert code in codes(err.value.violations)
    if code != "ConstantGame":
        with pytest.raises(InvalidGame) as err:
            admissible_start(rep.book, rep.start_leaf_id, 6.5, 0, g)
        assert code in codes(err.value.violations)


# an invalid game (BetaOutOfRange); verify_book checks the leaf and the
# family before normalize_game refuses it
NAN_GAME = {"betas": (0.0, math.nan), "signature": (1, 1)}


# tests/test_step_kernel.py's COMPILED_GAMES
ROTATED_GAMES = (
    ((1.6, 2.4, 3.2), (1, 1, 1)),
    ((2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1)),
    ((0.0, 2.4, 0.8, 3.2), (1, -1, 1, 1)),
)


def test_verify_book_checks_a_rotated_game_as_its_normal_rotation(family):
    # a game is a cyclic word, so each rotation with the report's normal form
    # passes as rep.game does; verify_book failed every sample of the 6 that
    # are not rep.game itself with "no start found"
    checked = 0
    for betas, sig in ROTATED_GAMES:
        rep = compile_simple(game(family, betas, sig))
        for k in range(len(betas)):
            rotated = game(family, betas[k:] + betas[:k], sig[k:] + sig[:k])
            if normalize_game(rotated)[0] == rep.game:
                assert games.verify_book(rep.book, rotated, rep.start_leaf_id, 6, 1) == []
                checked += 1
    assert checked == 9


@pytest.mark.parametrize(
    "call",
    [
        lambda rep: admissible_start(rep.book, 99, 6.5, seed=4, game=rep.game),
        lambda rep: games.verify_book(rep.book, rep.game, 99, samples=2),
        lambda rep: verify_realization(replace(rep, start_leaf_id=99), samples=2),
        lambda rep: games.verify_book(rep.book, replace(rep.game, **NAN_GAME), 99, 0),
    ],
    ids=["admissible_start", "verify_book", "verify_realization", "verify_book-invalid-game"],
)
def test_an_unknown_start_leaf_is_refused_by_name(family, monkeypatch, call):
    # with the CLI's message, and before any start or caustic is drawn; an
    # invalid game too, as normalize_game refuses it after this check
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))

    def no_draw(*args, **kwargs):
        raise AssertionError("a random generator was made for an unknown leaf")

    monkeypatch.setattr(games, "_draws", no_draw)
    with pytest.raises(BookError, match=r"^the book has no leaf 99$"):
        call(rep)


@pytest.mark.parametrize(
    "call",
    [
        lambda rep, other: admissible_start(rep.book, rep.start_leaf_id, 6.5, 4, other),
        lambda rep, other: games.verify_book(rep.book, other, rep.start_leaf_id, 4, 1),
        lambda rep, other: verify_realization(replace(rep, game=other), samples=4, seed=1),
        lambda rep, other: games.verify_book(
            rep.book, replace(other, **NAN_GAME), rep.start_leaf_id, 0
        ),
    ],
    ids=["admissible_start", "verify_book", "verify_realization", "verify_book-invalid-game"],
)
def test_a_game_of_another_family_is_refused(family, monkeypatch, call):
    # with the CLI's message, and before any start or caustic is drawn;
    # verify_book returned [(0, 0), (1, 0), (2, 0), (3, 0)] and
    # admissible_start None, each testing the game's ranges on this book
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))
    other = OrderedGame(ConfocalFamily(25.0, 16.0), rep.game.betas, rep.game.signature)

    def no_draw(*args, **kwargs):
        raise AssertionError("a random generator was made for a game of another family")

    monkeypatch.setattr(games, "_draws", no_draw)
    message = f"the game's family {other.family} is not the book's {family}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(rep, other)


@pytest.mark.parametrize(
    "seed, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError)], ids=["-1", "1.5", "'3'"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda rep, seed: admissible_start(rep.book, rep.start_leaf_id, 6.5, seed, rep.game),
        lambda rep, seed: games.verify_book(rep.book, rep.game, rep.start_leaf_id, 2, seed),
        lambda rep, seed: verify_realization(rep, samples=2, seed=seed),
    ],
    ids=["admissible_start", "verify_book", "verify_realization"],
)
def test_a_seed_that_is_not_a_non_negative_int_is_refused(family, monkeypatch, call, seed, error):
    # before anything is drawn; a negative seed is not folded onto its
    # absolute value, as random.Random(-s) would do
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))

    def no_draw(*args, **kwargs):
        raise AssertionError("a start or a point was drawn for a refused seed")

    monkeypatch.setattr(games, "admissible_start", no_draw)  # verify_book's draws
    monkeypatch.setattr(games, "directions_with_caustic", no_draw)  # admissible_start's
    with pytest.raises(error):
        call(rep, seed)


def test_first_reflection_is_on_first_ellipse(family):
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))
    st = admissible_start(rep.book, rep.start_leaf_id, 6.5, seed=4, game=rep.game)
    traj = simulate(rep.book, st, max_events=30)
    trace = trace_to_game(traj)
    assert trace[0] == (0.0, EventSide.FROM_INSIDE)


# --- verification reads only the reflections it compares ----------------------

def event_budget(book, need):
    """The events verification reads for ``need`` reflections at most:
    need·(2W + 1) + 8 for the book's W distinct boundary floats."""
    return need * (2 * len({e for lf in book.leaves for e in lf.boundary_params()}) + 1) + 8


def full_run_trace(book, state, need):
    """The sample trace as read before verification stopped early: the whole
    event budget simulated, then cut to the reflections compared."""
    return trace_to_game(simulate(book, state, max_events=event_budget(book, need)))[:need]


def permute_one_gluing(book, rng):
    gluings = list(book.gluings)
    i = int(rng.integers(len(gluings)))
    ids = book.leaf_ids_on_ellipse(gluings[i].ellipse)
    images = [int(x) for x in rng.permutation(ids)]
    gluings[i] = GluingPermutation(gluings[i].ellipse, dict(zip(ids, images)))
    return replace(book, gluings=tuple(gluings))


def write_verify_inputs(tmp_path, rep, g):
    book = str(tmp_path / "book.json")
    save_book(rep.book, book)
    path = tmp_path / "game.json"
    fam = {"a": g.family.a, "b": g.family.b}
    path.write_text(json.dumps({"family": fam, "betas": g.betas, "signature": g.signature}))
    return book, str(path)


def test_verification_matches_full_length_runs(family, monkeypatch, tmp_path, capsys):
    sample_trace = games.sample_trace

    def oracle(book, state, need, budget):
        assert budget == event_budget(book, need)
        old = full_run_trace(book, state, need)
        assert sample_trace(book, state, need, budget) == old
        return old

    rng = np.random.default_rng(20)
    rejected = []
    for k in range(22):
        g = random_valid_game(family, rng, 2 + k // 2)  # n = 2..12, twice each
        rep = compile_simple(g)
        if k % 2:
            rep = replace(rep, book=permute_one_gluing(rep.book, rng))
        seed = int(rng.integers(1 << 32))
        got = verify_realization(rep, samples=4, seed=seed)
        with monkeypatch.context() as mp:
            mp.setattr(games, "sample_trace", oracle)
            assert verify_realization(rep, samples=4, seed=seed) == got
        if got:
            rejected.append((rep, g))
    assert 0 < len(rejected) < 22

    # cli verify reads its samples the same way; it loads the book from JSON,
    # where a gluing's fixed points are not written, so take a book without one
    saveable = [
        (rep, g)
        for rep, g in rejected
        if all(gl.image(i) != i for gl in rep.book.gluings for i in gl.mapping)
    ]
    book, game_file = write_verify_inputs(tmp_path, *saveable[0])
    args = ["verify", book, game_file, "--samples", "6", "--seed", "1"]
    code = main(args)
    err = capsys.readouterr().err
    with monkeypatch.context() as mp:
        mp.setattr(games, "sample_trace", oracle)
        assert main(args) == code == 6
    assert capsys.readouterr().err == err


def test_verification_steps_only_to_the_last_reflection_read(family, monkeypatch):
    rep = compile_simple(game(family, (0.0, 2.0, 0.0, 3.5), (1, -1, 1, 1)))
    need = 5 * rep.game.n
    starts = []
    real_start, real_events = games.admissible_start, dynamics._events
    probing = []

    def recorded_start(*args, **kwargs):
        probing.append(1)  # the start's probe events are not the trace's
        try:
            starts.append(real_start(*args, **kwargs))
        finally:
            probing.pop()
        return starts[-1]

    steps = []

    def counted_events(*args):
        for ev in real_events(*args):
            if not probing:
                steps.append(1)
            yield ev

    with monkeypatch.context() as mp:
        mp.setattr(games, "admissible_start", recorded_start)
        mp.setattr(dynamics, "_events", counted_events)
        assert verify_realization(rep, samples=6, seed=2) == []
    # the 1-based event index of each sample's need-th reflection
    last_read = [
        [i for i, ev in enumerate(simulate(rep.book, st, 4 * need + 8).events, 1)
         if ev.is_reflection][need - 1]
        for st in starts
    ]
    assert len(starts) == 6
    assert len(steps) == sum(last_read) < 6 * (4 * need + 8)


def test_sample_trace_counts_are_counts(family, monkeypatch):
    # need 0 returned 34 reflections of a 50-event budget, as did need -1 and
    # 2.5; now it reads no event, after flow has checked the start
    rep = compile_simple(game(family, (0.0, 2.0, 3.5), (1, 1, -1)))
    state = admissible_start(rep.book, rep.start_leaf_id, 6.5, 0, rep.game)
    real_events = dynamics._events
    steps = []

    def counted_events(*args):
        for ev in real_events(*args):
            steps.append(1)
            yield ev

    monkeypatch.setattr(dynamics, "_events", counted_events)
    assert games.sample_trace(rep.book, state, 0, 50) == []
    assert steps == []
    with pytest.raises(dynamics.EscapedLeaf):
        games.sample_trace(rep.book, state._replace(leaf_id=99), 0, 50)
    with pytest.raises(ValueError, match="^need must be >= 0, got -1$"):
        games.sample_trace(rep.book, state, -1, 50)
    with pytest.raises(ValueError, match="^budget must be >= 0, got -1$"):
        games.sample_trace(rep.book, state, 3, -1)
    with pytest.raises(TypeError):
        games.sample_trace(rep.book, state, 2.5, 50)
    assert steps == []
    assert len(games.sample_trace(rep.book, state, 3, 50)) == 3


def stacked_annuli(family):
    """Three annuli and a disk stacked inside C_0, each glued to the next: a
    chord from C_0 back to C_0 crosses up to six walls."""
    return make_book(
        family,
        [annulus(1, 0.0, 0.5), annulus(2, 0.5, 1.0), annulus(3, 1.0, 1.5), disk(4, 1.5)],
        [(0.5, [[1, 2]]), (1.0, [[2, 3]]), (1.5, [[3, 4]])],
    )


def test_verification_reads_every_crossing_between_reflections(family, tmp_path, capsys):
    # a one-reflection game on C_0 with 6 crossings between reflections: the
    # old 4·need + 8 event budget cut each trace short at its fourth
    # reflection; need·(2W + 1) + 8 holds a line crossing each wall twice
    book = stacked_annuli(family)
    g = game(family, (0.0,), (1,))
    crossings = []
    for seed in range(4):
        state = admissible_start(book, 1, 5.0, seed, g)
        gaps = [0]
        for ev in simulate(book, state, 60).events:
            if ev.is_reflection:
                assert ev.ellipse == 0.0
                gaps.append(0)
            else:
                gaps[-1] += 1
        crossings += gaps[1:-1]
    assert set(crossings) == {6}
    assert games.verify_book(book, g, 1, 4, seed=0) == []
    book_file = str(tmp_path / "book.json")
    save_book(book, book_file)
    game_file = tmp_path / "game.json"
    game_file.write_text(json.dumps(
        {"family": {"a": family.a, "b": family.b}, "betas": [0.0], "signature": [1]}))
    assert main(["verify", book_file, str(game_file), "--samples", "4"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("samples=4 mismatches=0\n", "")


# --- the start sampler against a copy of its Random.uniform form ---------------

def reference_start(book, leaf_id, caustic, seed, game=None):
    """``admissible_start`` drawing each coordinate by ``Random.uniform``."""
    fam = book.family
    if game is not None:
        if game.family != fam:
            raise ValueError(f"the game's family {game.family} is not the book's {fam}")
        (e_lo, e_hi), (h_lo, h_hi) = admissible_caustic_range(game)
        if not (e_lo < caustic < e_hi or h_lo < caustic < h_hi):
            raise InadmissibleCaustic(
                f"caustic {caustic} is not an ellipse inside all game ellipses "
                f"({e_lo}, {e_hi}) nor a hyperbola ({h_lo}, {h_hi})"
            )
    leaf = book.leaf(leaf_id)
    if not -math.inf < leaf.outer < fam.b:
        raise BookError(f"leaf {leaf_id} has outer {leaf.outer}, not an ellipse of the family")
    sx = math.sqrt(fam.a - leaf.outer)
    sy = math.sqrt(fam.b - leaf.outer)
    rng = random.Random(seed)
    for _ in range(games._START_TRIES):
        px = rng.uniform(-sx, sx)
        py = rng.uniform(-sy, sy)
        if fam.conic_residual(leaf.outer, px, py) > -1e-6:
            continue
        if leaf.inner is not None and fam.conic_residual(leaf.inner, px, py) < 1e-6:
            continue
        for vx, vy in directions_with_caustic(fam, px, py, caustic):
            state = PhaseState(px, py, vx, vy, leaf_id)
            if game is None:
                return state
            try:
                _, ev = dynamics.step(book, state)
            except TangentialHit:
                continue
            if ev.is_reflection and _same(ev.ellipse, game.betas[0]):
                return state
    return None


def start_outcome(sampler, *args):
    try:
        return repr(sampler(*args))
    except Exception as exc:  # noqa: BLE001  any exception must match
        return f"{type(exc).__name__} {exc}"


def test_admissible_start_matches_its_uniform_form(books, family):
    """Catalog books without a game, compiled books with and without theirs,
    over many seeds and caustics: the same state, None or exception."""
    rng = np.random.default_rng(24)
    probes = [
        (book, leaf.id, float(rng.uniform(0.0, 9.5)), int(rng.integers(1 << 62)), None)
        for book in books.values()
        for leaf in book.leaves
        for _ in range(3)
    ]
    for _ in range(12):
        rep = compile_simple(random_valid_game(family, rng, int(rng.integers(2, 8))))
        for _ in range(6):
            leaf = rep.book.leaves[int(rng.integers(len(rep.book.leaves)))].id
            use = rep.game if rng.random() < 0.7 else None
            caustic = float(rng.uniform(max(rep.game.betas) - 0.5, 9.0))
            probes.append((rep.book, leaf, caustic, int(rng.integers(1 << 62)), use))
    seen = set()
    for args in probes:
        got = start_outcome(admissible_start, *args)
        assert got == start_outcome(reference_start, *args), args[1:]
        seen.add(got.split("(")[0].split(" ")[0])
    assert seen == {"PhaseState", "None", "InadmissibleCaustic"}


@pytest.mark.parametrize("outer", [-math.inf, math.nan, 5.0, 10.0])
def test_admissible_start_refuses_a_range_as_uniform_does(family, outer, monkeypatch):
    # an outer parameter that is not an ellipse of the family (unbounded,
    # NaN, or >= b, where math.sqrt would refuse it) is refused by naming
    # the leaf and the parameter, before anything is drawn
    book = BilliardBook(family, (Leaf(1, outer),))

    def no_draw(*args, **kwargs):
        raise AssertionError("a random generator was made for a leaf outside the family")

    monkeypatch.setattr(games, "_draws", no_draw)
    got = start_outcome(admissible_start, book, 1, 6.0, 0)
    assert got == start_outcome(reference_start, book, 1, 6.0, 0)
    assert got == f"BookError leaf 1 has outer {outer}, not an ellipse of the family"
