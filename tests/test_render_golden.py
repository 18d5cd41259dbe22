"""Golden renderings: the sha256 of ``trajectory_svg`` on books with holes,
in both layouts, and on a compiled book of 24 leaves.

The hashes were recorded on the library as it was before the ellipse
outlines came from one table of unit-circle points and the chords and
outlines were formatted without a call per coordinate.  The SVG holds every
coordinate as ``%.6g`` text, so a change that alters any hash changes what
is drawn or how it is written, not only how fast.
"""

import hashlib

import pytest

from billiard_books import OrderedGame, compile_simple, simulate
from billiard_books.catalog import CATALOG, FIXTURE_FAMILY
from billiard_books.render import RenderSpec, trajectory_svg

from conftest import random_state, rng_for

EVENTS = 200
SIDE = RenderSpec()
OVERLAY = RenderSpec(layout="overlay")
SIDE_CAUSTIC = RenderSpec(show_caustic=True)
# a repeat-free game of 12 ellipses; compile_simple makes it a 24-leaf book
BIG_GAME = ((0.4, 2.8, 1.2, 3.2, 0.8, 2.4, 1.6, 3.2, 2.0, 0.0, 1.2, 2.8), (1,) * 12)

CASES = {
    "four_sheets side-by-side": (
        "four_sheets", SIDE, 0,
        "ad4e488f62a2ea6cb81573674a56188270ce490909c87ec8846f563b9b13e545",
    ),
    "two_annuli_two_disks side-by-side": (
        "two_annuli_two_disks", SIDE, 0,
        "2f80614639d1f588b4c9b55eb4c4eb7957a6c3d2f88aa2d52375409f12cb1548",
    ),
    "two_annuli_two_disks overlay": (
        "two_annuli_two_disks", OVERLAY, 1,
        "569522bfdda1bca5d902128b19ebe18261c1ad514c8aab85e05a7ba7a4dd2238",
    ),
    "four_sheets side-by-side with caustic": (
        "four_sheets", SIDE_CAUSTIC, 2,
        "3b8e8d4db083be159e630df9f6847118788ce1c7074654b31a75938645c2bbe4",
    ),
    "compiled side-by-side": (
        None, SIDE, 0,
        "9b7b398653d5f9c298699c5decb1108d26bec1bbeff1701a18e9327da822c192",
    ),
    "compiled, no trajectory": (
        None, SIDE, None,
        "5b2caa3565f12758ae2928f4a5e342b8b6ca3f7f21267b79bba16663bf3a140c",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_unchanged(case):
    name, spec, seed, want = CASES[case]
    if name is None:
        book = compile_simple(OrderedGame(FIXTURE_FAMILY, *BIG_GAME)).book
        assert len(book.leaves) == 24
    else:
        book = CATALOG[name]()
    traj = None if seed is None else simulate(book, random_state(book, rng_for(seed)), EVENTS)
    svg = trajectory_svg(book, traj, spec)
    if spec.show_caustic:
        assert "stroke-dasharray" in svg  # the caustic is drawn in every panel
    assert hashlib.sha256(svg.encode()).hexdigest() == want
