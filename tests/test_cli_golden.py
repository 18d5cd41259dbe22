"""Golden run of the command line: a fixed script of commands on valid inputs.

Each command's exit code and stdout, and the sha256 of every file the script
writes, must equal the values below.  They were recorded by running this
script on the code as it was before the CLI's error handling moved into one
exception table in ``cli.main``; a change that alters any of them changes
what the CLI computes or writes, not only how it refuses input.  The two
``simulate --caustic`` lines and their CSV and SVG files were recorded again
when the start sampler moved from numpy's generator to ``random.Random``,
which draws another start point for the same seed.  The same two lines and
their CSV files were recorded again when ``directions_with_caustic`` moved
to the point's elliptic-coordinate frame: the start moved in its last
digits, every CSV row kept its events, and the SVG files did not change.
The two SVG files were recorded again when each outline became one
``<ellipse>`` element in place of a 128-point ``<path>``; with the outline
lines left out, both files were byte for byte the same as before.
"""

import hashlib
import json
import math

from billiard_books import dumps_book
from billiard_books.catalog import CATALOG
from billiard_books.cli import main

GAMES = {
    "triple.json": ((0.0, 2.0, 3.5), (1, 1, -1)),
    "repeat.json": ((0.0, 2.0, 2.0, 3.5), (1, 1, 1, 1)),
    "pair.json": ((0.0, 2.0), (1, 1)),
}
BOOKS = ("annulus_two_disks", "chain_six")

SCRIPT = [
    ["compile", "triple.json", "--out", "triple.book.json"],
    ["compile", "repeat.json", "--general", "--out", "repeat.book.json"],
    ["compile", "pair.json", "--out", "pair.book.json"],
    ["verify", "triple.book.json", "triple.json", "--samples", "6", "--seed", "2"],
    ["verify", "repeat.book.json", "repeat.json", "--samples", "4", "--seed", "5"],
    ["verify", "triple.book.json", "pair.json", "--samples", "4"],
    ["simulate", "triple.book.json", "--caustic", "6.0", "--events", "200", "--seed", "3",
     "--csv", "triple.csv", "--svg", "triple.svg"],
    ["simulate", "repeat.book.json", "--caustic", "3.8", "--events", "120", "--seed", "1",
     "--csv", "repeat.csv", "--svg", "repeat.svg", "--layout", "overlay", "--show-caustic"],
    ["simulate", "annulus_two_disks.json", "--leaf", "1", "--pos=2.8,0.3", "--vel", "0,1",
     "--events", "100", "--csv", "posvel.csv"],
    ["simulate", "pair.book.json", "--leaf", "1", f"--pos=-2,{math.sqrt(2)}", "--vel", "1,0",
     "--events", "50", "--csv", "singular.csv"],
    ["fomenko", "annulus_two_disks.json", "--dot", "annulus_two_disks.dot"],
    ["fomenko", "chain_six.json", "--dot", "chain_six.dot"],
    ["fomenko", "repeat.book.json", "--dot", "repeat.dot"],
]

# (exit code, stdout) per SCRIPT line
GOLDEN_RUNS = [
    (0, "leaves=4 s=1 shift=0 start_leaf=1 out=triple.book.json\n"),
    (0, "leaves=7 s=1 shift=0 start_leaf=1 out=repeat.book.json\n"),
    (0, "leaves=4 s=1 shift=0 start_leaf=1 out=pair.book.json\n"),
    (0, "samples=6 mismatches=0\n"),
    (0, "samples=4 mismatches=0\n"),
    (6, ""),
    (0, "caustic=6.0 drift=2.931e-14 events=200\n"),
    (0, "caustic=3.8000000000000016 drift=3.286e-14 events=120\n"),
    (0, "caustic=1.160000000000001 drift=6.528e-14 events=100\n"),
    (4, "caustic=1.9999999999999996 drift=0.000e+00 events=0\n"),
    (0, "A:4 C2:1\n"),
    (0, "A:5 B:3 C2:1\n"),
    (0, "A:6 B:2 C2:2\n"),
]

# sha256 of every file the script writes
GOLDEN_FILES = {
    "annulus_two_disks.dot": "fa20160e21f3b4d6f768ae8c813cc3519884542c6c2ee1a42b5afda348735544",
    "chain_six.dot": "fcdc272f7c986b366ad271502c1c69e82cede0a91ec81b624e9f1aec47ff57a0",
    "pair.book.json": "22871ca7c4859a08d54e35ec6d967e127399568805f03c6070de6b40bc8e0646",
    "posvel.csv": "58ceacdf69cbd16d8ac80404fb594a97705104f423c989c4629970cf109d2ba1",
    "repeat.book.json": "fca8aaa94982c674ddaf4948b6e1d2bd84addb921979d0049f1e93fd5df507fd",
    "repeat.csv": "859e0bc1b87e349b814405c5d30018c3f1187b7fd5cf653cf2c43ec5d9f5d909",
    "repeat.dot": "6e1d859cb7c97c8e6e79fefa5cd7373c38ad4ce39ad4f47e56b9904e2d8ee9fc",
    "repeat.svg": "101cce9ef67f4ef8f379ea5faec775fe7db9b26f9889d1673567279bd3451118",
    "singular.csv": "19c14771a909a0bbbf05418079d287055c353e88514f617f2dd88e99b0a02500",
    "triple.book.json": "d32817407de1e2536d6650850df1b0f00b9710a0672e94d957bdb2dc96fa9510",
    "triple.csv": "6356beee40c1419e485cde02512556217672a8e4474f3fa09348e5bd2ab478bb",
    "triple.svg": "430fd33f87de2dc7bfe39ea6fae76d800e3642739f101d268067dc3b4003dacb",
}


def run_script(tmp_path, monkeypatch, capsys):
    """Run SCRIPT in tmp_path; return its (code, stdout) list and file hashes."""
    monkeypatch.chdir(tmp_path)
    for name, (betas, sig) in GAMES.items():
        (tmp_path / name).write_text(json.dumps(
            {"family": {"a": 9.0, "b": 4.0}, "betas": list(betas), "signature": list(sig)}))
    for name in BOOKS:
        (tmp_path / f"{name}.json").write_text(dumps_book(CATALOG[name]()))
    inputs = {p.name for p in tmp_path.iterdir()}
    runs = []
    for argv in SCRIPT:
        code = main(list(argv))
        runs.append((code, capsys.readouterr().out))
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name not in inputs
    }
    return runs, files


def test_cli_golden(tmp_path, monkeypatch, capsys):
    runs, files = run_script(tmp_path, monkeypatch, capsys)
    for argv, got, want in zip(SCRIPT, runs, GOLDEN_RUNS):
        assert got == tuple(want), argv
    assert len(runs) == len(GOLDEN_RUNS)
    assert files == GOLDEN_FILES
