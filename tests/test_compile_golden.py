"""Golden game compiler: the sha256 of what ``compile_game``, ``compile_simple``,
``normalize_game`` and ``leaf_count_bounds`` return, or refuse, on a seeded
corpus of games.

For each call a line records either the result (every ``CompileReport`` field
with ``dumps_book`` of its book, the normalized game and shift, or the bounds)
or the exception's type and message.  The hashes were recorded by running this
file's own code on the library as it was before ``compile_game`` became one
pass over the runs of equal ellipses; a change that alters any of them changes
what the compiler builds or how it refuses a game, not only how it is written.

``leaf_count_bounds`` is hashed on valid games only: on a game that
``validate_game`` refuses it raises ``InvalidGame``, which it did not when the
hashes were recorded.  ``normalize_game``'s hash was recorded again when it
began to refuse an empty game with ``InvalidGame`` (``Empty``) in place of a
bare ``ValueError``; only the corpus's 30 empty games changed their line.
It was recorded again when a game with a non-finite ellipse and no rotation
began to get ``validate_game``'s violations in place of ``ConstantGame``;
only those 59 games changed their line.
It was recorded again when ``normalize_game`` began to refuse every game that
``validate_game`` refuses; only 448 of those games changed their line, 304
that it had rotated and 144 that it had called ``ConstantGame``.
``leaf_count_bounds``'s hash was recorded again when its ``ConsecutiveRepeat``
message became ``compile_simple``'s ("use the same ellipse" for "coincide");
it equals the old lines' hash with only that text replaced.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from billiard_books import (
    ConfocalFamily,
    InvalidGame,
    OrderedGame,
    compile_game,
    compile_simple,
    dumps_book,
    leaf_count_bounds,
    normalize_game,
    validate_game,
)
from billiard_books.games import admissible_caustic_range, admissible_start, verify_book

FAMILY = ConfocalFamily(9.0, 4.0)
POOL = (0.0, 0.8, 1.6, 2.4, 3.2, 3.5)
ODD = (math.nan, 4.0, 5.0, math.inf, -math.inf)
NEAR = 5e-13  # within the 1e-12 "same ellipse" tolerance


def _playable(rng, n, repeat=0.3):
    """A game that is often valid: repeats with probability ``repeat`` at each
    step, and outside hits at local maxima."""
    betas = [float(rng.choice(POOL))]
    for _ in range(n - 1):
        if rng.random() < repeat:
            betas.append(betas[-1])
        else:
            betas.append(float(rng.choice([b for b in POOL if b != betas[-1]])))
    sig = []
    for k in range(n):
        lo, hi = betas[(k - 1) % n], betas[(k + 1) % n]
        local_max = betas[k] > lo and betas[k] > hi
        if local_max and not (sig and sig[-1] == -1) and rng.random() < 0.5:
            sig.append(-1)
        else:
            sig.append(1)
    return betas, sig


def corpus(count=2000, seed=19):
    rng = np.random.default_rng(seed)
    games = []
    for i in range(count):
        kind = i % 10
        if kind < 3:
            betas, sig = _playable(rng, int(rng.integers(1, 15)), repeat=0.0)
        elif kind < 6:
            betas, sig = _playable(rng, int(rng.integers(1, 15)))
        elif kind == 6:  # constant games
            n = int(rng.integers(1, 6))
            betas = [float(rng.choice(POOL))] * n
            sig = [int(rng.choice((1, -1))) for _ in range(n)]
        elif kind == 7:  # wrong-length signatures
            betas, sig = _playable(rng, int(rng.integers(1, 8)))
            sig = sig[: int(rng.integers(0, len(sig)))] if rng.random() < 0.5 else sig + [1]
        elif kind == 8:  # betas that are not ellipses, bad signature entries
            n = int(rng.integers(0, 7))
            betas = [float(rng.choice(POOL + ODD)) for _ in range(n)]
            sig = [int(rng.choice((1, 1, -1, 0, 2))) for _ in range(n)]
        else:
            betas, sig = _playable(rng, int(rng.integers(2, 15)))
        if kind >= 5 and betas:
            # move some ellipses by NEAR: equal to within the tolerance only
            betas = [b + NEAR if rng.random() < 0.4 else b for b in betas]
        games.append(OrderedGame(FAMILY, tuple(betas), tuple(sig)))
    return games


def _report(rep):
    return repr(
        (rep.annulus_ids, rep.disk_ids, rep.leaf_count, rep.s_count, rep.shift,
         rep.game, rep.start_leaf_id)
    ) + "\n" + dumps_book(rep.book)


CALLS = {
    "compile_game": lambda g: _report(compile_game(g)),
    "compile_simple": lambda g: _report(compile_simple(g)),
    "normalize_game": lambda g: repr(normalize_game(g)),
    "leaf_count_bounds": lambda g: repr(leaf_count_bounds(g)),
}

GOLDEN = {
    "compile_game":
        "b1c54df8cb37a7b5c37ceba1243a90e937378c398cb3978a5b0c6b7d3e031da8",
    "compile_simple":
        "1f1daa74d4f14081f304c55fffa04a3aa8c67b3bd5a1c2013a1cdef8b7085d36",
    "normalize_game":
        "9829d9ae305f64a9b85c5b8a978f318e02d9a818b4a27ef23d2e8ba1e0b77c5d",
    "leaf_count_bounds":
        "f9891620988c85b8cc8ae23fd240abaf704d482f7814a5766d63ec30bf2dbe87",
}


@pytest.fixture(scope="module")
def games():
    return corpus()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_compiler_matches_golden(name, games):
    if name == "leaf_count_bounds":
        games = [g for g in games if not validate_game(g)]
    digest = hashlib.sha256()
    outcomes = Counter()
    for g in games:
        try:
            line = "ok " + CALLS[name](g)
            outcomes["ok"] += 1
        except Exception as err:  # noqa: BLE001  the refusal is what is pinned
            line = f"{type(err).__name__} {err}"
            outcomes[type(err).__name__] += 1
        digest.update(line.encode() + b"\0")
    assert digest.hexdigest() == GOLDEN[name], dict(outcomes)


def test_normalize_refuses_what_validate_game_refuses(games):
    # a game gets a normal form only if it is valid, so verify_book, which
    # checks that form, refuses each such game with the same message; so do
    # the caustic range and the start sampler, which returned a start for
    # 148 of these games, None for 359 and a bare ValueError for 30
    book = compile_simple(OrderedGame(FAMILY, (0.0, 2.0, 3.5), (1, 1, -1))).book
    invalid = [(g, violations) for g in games if (violations := validate_game(g))]
    assert len(invalid) == 537
    for g, violations in invalid:
        message = str(InvalidGame(violations))
        with pytest.raises(InvalidGame) as err:
            normalize_game(g)
        assert str(err.value) == message
        with pytest.raises(InvalidGame) as err:
            verify_book(book, g, 1, 0)
        assert str(err.value) == message
        with pytest.raises(InvalidGame) as err:
            admissible_caustic_range(g)
        assert str(err.value) == message
        with pytest.raises(InvalidGame) as err:
            admissible_start(book, 1, 6.5, 0, g)
        assert str(err.value) == message
