"""Golden realization check: the sha256 of what ``verify_book`` and
``admissible_start`` return on a seeded corpus of compiled books.

The corpus holds books compiled from random valid games over two ellipse
pools, the same books with one gluing randomly permuted (most of which no
longer realize their game), and games whose ellipses were moved by NEAR, so
that the book's walls and the game's betas are the same ellipse only within
the 1e-12 tolerance.  For each book a line records ``verify_book``'s failure
list, and for each of several (leaf, caustic, seed, game) probes a line
records the ``admissible_start`` state (floats as ``repr``), None, or the
exception's type and message.

The hashes were recorded by running this file's own code on the library as it
was before the event kernel unrolled its two roots, ``admissible_start`` drew
its points without ``Generator.uniform`` and ``verify_book`` compared each
reflection by set membership instead of one ``_same`` call; a change that
alters any of them changes which starts are drawn or which samples fail, not
only how fast.  ``START_GOLDEN`` was recorded again when the sampler moved
from numpy's generator to ``random.Random``: each kind kept its counts of
states, None and refusals, and ``VERIFY_GOLDEN`` kept every failure list.
It was recorded once more when ``directions_with_caustic`` moved from a
slope quadratic to the point's elliptic-coordinate frame: every state moved
by at most 3.3e-15, the counts stayed, and ``VERIFY_GOLDEN`` did not move.
The corpus and probes below still come from numpy's generator.
"""

import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from billiard_books import (
    ConfocalFamily,
    GluingPermutation,
    OrderedGame,
    admissible_start,
    compile_game,
    validate_game,
)
from billiard_books.catalog import CATALOG
from billiard_books.games import verify_book

FAMILY = ConfocalFamily(9.0, 4.0)
POOL_5 = (0.0, 0.8, 1.6, 2.4, 3.2)
POOL_9 = tuple(round(0.4 * i, 1) for i in range(9))
NEAR = 5e-13  # within the 1e-12 "same ellipse" tolerance
KINDS = ("pool_5", "pool_9", "permuted", "near")
PER_KIND = 40
SAMPLES = 6


def _game(rng, n, pool):
    """A repeat-free valid game of length n, outside hits at local maxima."""
    while True:
        betas = [float(rng.choice(pool))]
        for _ in range(n - 1):
            betas.append(float(rng.choice([b for b in pool if b != betas[-1]])))
        sig = []
        for k in range(n):
            lo, hi = betas[(k - 1) % n], betas[(k + 1) % n]
            local_max = betas[k] > lo and betas[k] > hi
            out = local_max and not (sig and sig[-1] == -1) and rng.random() < 0.5
            sig.append(-1 if out else 1)
        g = OrderedGame(FAMILY, tuple(betas), tuple(sig))
        if not validate_game(g):
            return g


def _permute_one_gluing(book, rng):
    gluings = list(book.gluings)
    i = int(rng.integers(len(gluings)))
    ids = book.leaf_ids_on_ellipse(gluings[i].ellipse)
    images = [int(x) for x in rng.permutation(ids)]
    gluings[i] = GluingPermutation(gluings[i].ellipse, dict(zip(ids, images)))
    return replace(book, gluings=tuple(gluings))


def corpus(kind, seed=24):
    """(book, normalized game, start leaf, verify seed) rows of one kind."""
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    rows = []
    for i in range(PER_KIND):
        pool = POOL_9 if kind == "pool_9" or (kind != "pool_5" and i % 2) else POOL_5
        g = _game(rng, int(rng.integers(2, 13)), pool)
        if kind == "near":
            g = replace(g, betas=tuple(b + NEAR if rng.random() < 0.4 else b for b in g.betas))
        rep = compile_game(g)
        book = _permute_one_gluing(rep.book, rng) if kind == "permuted" else rep.book
        rows.append((book, rep.game, rep.start_leaf_id, int(rng.integers(1 << 62))))
    return rows


def _outcome(call):
    try:
        return repr(call())
    except Exception as err:  # noqa: BLE001  the refusal is what is pinned
        return f"{type(err).__name__} {err}"


def _start_probes(book, game, start_leaf, rng):
    """admissible_start arguments: on the start leaf with the game, a caustic
    from each admissible range, one just inside each outer end, and one below
    them all (refused); then two random leaves without the game and one with
    it (often None)."""
    (e_lo, e_hi), (h_lo, h_hi) = (max(game.betas), FAMILY.b), (FAMILY.b, FAMILY.a)
    caustics = (
        float(rng.uniform(e_lo, e_hi)),
        float(rng.uniform(h_lo, h_hi)),
        e_lo + 1e-9,
        h_hi - 1e-9,
        float(rng.uniform(0.0, e_lo)),
    )
    probes = [(book, start_leaf, c, int(rng.integers(1 << 62)), game) for c in caustics]
    for leaf_game in (None, None, game):
        leaf = book.leaves[int(rng.integers(len(book.leaves)))].id
        caustic = float(rng.uniform(0.0, 9.0) if leaf_game is None else rng.uniform(h_lo, h_hi))
        probes.append((book, leaf, caustic, int(rng.integers(1 << 62)), leaf_game))
    return probes


ALL_PASS = "bfb753b40fc278fc263f26c7577cc88ce9191e1e92b6d3a60072db574299aa55"  # 40 x "[]"

VERIFY_GOLDEN = {
    "pool_5": ALL_PASS,
    "pool_9": ALL_PASS,
    "permuted": "ead4ec1400cd55e7e79856541c716453a14dc52083b1a71a65427d8101f50de5",
    "near": ALL_PASS,
}

START_GOLDEN = {
    "pool_5": "a91dc61e346f5827a28bf2f5fcc6a8b7d2fd7a13b61d31a70f5ee7f6ddee6af7",
    "pool_9": "a16b9bc3bab00ba26b8dfde799032f8e8f678d349c3c030ba47b3e0f04eb2fc9",
    "permuted": "279d0052322b707c51c8136d38af76a5eab5fdba61bf90b3385bb14802279635",
    "near": "2d59f2b636bf61a8a7f357b48b845d05dff3e30eec44906ec27c156495555902",
    "catalog": "f14aa70798b3c13b7aaa7dfda9b97ded82a396331bc4caedea3e974280b7b772",
}


@pytest.mark.parametrize("kind", KINDS)
def test_verify_book_matches_golden(kind):
    digest = hashlib.sha256()
    outcomes = Counter()
    for book, game, start_leaf, seed in corpus(kind):
        line = _outcome(lambda: verify_book(book, game, start_leaf, SAMPLES, seed))
        outcomes["pass" if line == "[]" else "fail"] += 1
        digest.update(line.encode() + b"\0")
    assert digest.hexdigest() == VERIFY_GOLDEN[kind], dict(outcomes)


@pytest.mark.parametrize("kind", KINDS + ("catalog",))
def test_admissible_start_matches_golden(kind):
    rng = np.random.default_rng([7, len(KINDS) if kind == "catalog" else KINDS.index(kind)])
    if kind == "catalog":
        probes = [
            (book, leaf.id, float(rng.uniform(0.0, 9.0)), int(rng.integers(1 << 62)), None)
            for book in (CATALOG[name]() for name in sorted(CATALOG))
            for leaf in book.leaves
            for _ in range(4)
        ]
    else:
        probes = [
            p for book, game, leaf, _ in corpus(kind)[::2] for p in _start_probes(book, game, leaf, rng)
        ]
    digest = hashlib.sha256()
    outcomes = Counter()
    for args in probes:
        line = _outcome(lambda: admissible_start(*args))
        outcomes[line.split("(")[0].split(" ")[0]] += 1
        digest.update(line.encode() + b"\0")
    assert digest.hexdigest() == START_GOLDEN[kind], dict(outcomes)
