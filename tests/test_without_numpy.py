"""The package runs with the standard library alone: numpy is a test-only
dependency.  The check runs in a fresh interpreter in which ``import numpy``
fails, so no module of the test session can lend it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import billiard_books

SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from billiard_books import ConfocalFamily, OrderedGame, compile_simple, save_book
from billiard_books.cli import main
from billiard_books.games import verify_realization

game = OrderedGame(ConfocalFamily(9.0, 4.0), (0.0, 2.0, 3.5), (1, 1, -1))
rep = compile_simple(game)
assert verify_realization(rep, samples=2) == []
save_book(rep.book, sys.argv[1] + "/book.json")
sys.exit(main(["verify", sys.argv[1] + "/book.json", sys.argv[2], "--samples", "2"]))
"""


def test_the_package_runs_without_numpy(tmp_path):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(
        {"family": {"a": 9.0, "b": 4.0}, "betas": [0.0, 2.0, 3.5], "signature": [1, 1, -1]}))
    src = str(Path(billiard_books.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(game)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "samples=2 mismatches=0\n"
