"""Every valid game up to n = 5 over the pool (0, 0.8, 1.6, 2.4, 3.2), one
per rotation class (``tests/_exhaustive.py``): each compiles to a valid
book within its leaf-count bounds that realizes the game.

``COMPILE_SHA256`` hashes, over the corpus in order, ``dumps_book`` of each
compiled book and the other ``CompileReport`` fields.  It was recorded by
this file's own code on the library as it was before ``compile_game``
became one pass over its runs; a change to it changes what the compiler
builds, not only how it is written.
"""

import hashlib

from billiard_books import (
    compile_game,
    dumps_book,
    leaf_count_bounds,
    validate_book,
    verify_realization,
)
from _exhaustive import exhaustive_games

COMPILE_SHA256 = "91222a4b22e70ffa679474401591a18b62d1ff4bba6ca755db4a4c3247e11015"


def test_every_small_game_compiles_to_a_valid_realizing_book():
    corpus = exhaustive_games(5)
    assert len(corpus) == 1035
    digest = hashlib.sha256()
    for game in corpus:
        rep = compile_game(game)
        fields = (rep.annulus_ids, rep.disk_ids, rep.leaf_count, rep.s_count, rep.shift,
                  rep.game, rep.start_leaf_id)
        digest.update(f"{dumps_book(rep.book)}\n{fields!r}\n".encode())
        assert validate_book(rep.book) == [], game
        lo, hi, _ = leaf_count_bounds(game)
        assert lo <= rep.leaf_count <= hi, game
        assert verify_realization(rep, samples=2, seed=1) == [], game
    assert digest.hexdigest() == COMPILE_SHA256
