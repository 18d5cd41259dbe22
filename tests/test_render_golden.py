"""Golden renderings: the sha256 of ``trajectory_svg`` on books with holes,
in both layouts, and on a compiled book of 24 leaves.

The hashes were recorded on the library as it was before the ellipse
outlines came from one table of unit-circle points and the chords and
outlines were formatted without a call per coordinate.  The SVG holds every
coordinate as ``%.6g`` text, so a change that alters any hash changes what
is drawn or how it is written, not only how fast.  They were recorded again
when each outline became one ``<ellipse>`` element in place of a 128-point
``<path>``; with the outline lines left out, every rendering was byte for
byte the same as before.
"""

import hashlib
import math
from xml.etree import ElementTree

import pytest

from billiard_books import OrderedGame, compile_simple, simulate
from billiard_books.catalog import CATALOG, FIXTURE_FAMILY
from billiard_books.render import _MARGIN, RenderSpec, trajectory_svg

from conftest import random_state, rng_for

EVENTS = 200
SVG = "{http://www.w3.org/2000/svg}"
SIDE = RenderSpec()
OVERLAY = RenderSpec(layout="overlay")
SIDE_CAUSTIC = RenderSpec(show_caustic=True)
# a repeat-free game of 12 ellipses; compile_simple makes it a 24-leaf book
BIG_GAME = ((0.4, 2.8, 1.2, 3.2, 0.8, 2.4, 1.6, 3.2, 2.0, 0.0, 1.2, 2.8), (1,) * 12)

CASES = {
    "four_sheets side-by-side": (
        "four_sheets", SIDE, 0,
        "2ae53dd4b524c7c5f859202748c7e8d4f8501d78fc470ab904cb79bf8941ddf8",
    ),
    "two_annuli_two_disks side-by-side": (
        "two_annuli_two_disks", SIDE, 0,
        "caf55ce6afca9ab58d76862aa6967a4a8ebefcea72a1de6269709428fe98d936",
    ),
    "two_annuli_two_disks overlay": (
        "two_annuli_two_disks", OVERLAY, 1,
        "ff135ef8c60ad83325587493f794c813e2c134a9c9e3da4dedaca3e694cff688",
    ),
    "four_sheets side-by-side with caustic": (
        "four_sheets", SIDE_CAUSTIC, 2,
        "c98e64a68cb926ab5fa60ad1b8084dd66688defca6a08bbdec762a0c68ab7bbf",
    ),
    "compiled side-by-side": (
        None, SIDE, 0,
        "806c12579ee727e09d24ba1e99e02146e978f9932766c87a33aa449a96bd13f0",
    ),
    "compiled, no trajectory": (
        None, SIDE, None,
        "f13b6792efdc2c7546b41bf379f6d71a440272c93df050e295620fd592ce3d02",
    ),
}


def render(case):
    """The case's book, trajectory (or None), spec and rendering."""
    name, spec, seed, _ = CASES[case]
    if name is None:
        book = compile_simple(OrderedGame(FIXTURE_FAMILY, *BIG_GAME)).book
        assert len(book.leaves) == 24
    else:
        book = CATALOG[name]()
    traj = None if seed is None else simulate(book, random_state(book, rng_for(seed)), EVENTS)
    return book, traj, spec, trajectory_svg(book, traj, spec)


@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_unchanged(case):
    _, _, spec, svg = render(case)
    if spec.show_caustic:
        assert "stroke-dasharray" in svg  # the caustic is drawn in every panel
    assert hashlib.sha256(svg.encode()).hexdigest() == CASES[case][3]


@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_draws_each_outline_as_its_ellipse(case):
    """The rendering is well-formed XML.  Leaf by leaf in id order it holds one
    outer ellipse and, for an annulus, one white hole, each of the family's
    semi-axes and centred in the leaf's panel (panel i at i pitches, overlay
    at 0); with the caustic shown, one dashed ellipse of the caustic's
    semi-axes follows in every panel.  There is one chord per event."""
    book, traj, spec, svg = render(case)
    root = ElementTree.fromstring(svg)
    fam = book.family
    pitch = 2.0 * math.sqrt(fam.a) + 2.0 * _MARGIN
    leaves = sorted(book.leaves, key=lambda lf: lf.id)
    panel = [i * pitch if spec.layout == "side-by-side" else 0.0 for i in range(len(leaves))]
    want = []
    for ox, lf in zip(panel, leaves):
        want.append((ox, lf.outer, "#dfe7f1"))
        if lf.inner is not None:
            want.append((ox, lf.inner, "#ffffff"))
    if spec.show_caustic:
        assert traj.caustic < fam.b  # elliptic, so it is drawn
        want += [(ox, traj.caustic, "none") for ox in dict.fromkeys(panel)]
    got = [(el.get("cx"), el.get("cy"), el.get("rx"), el.get("ry"), el.get("fill"),
            el.get("stroke-dasharray")) for el in root.iter(SVG + "ellipse")]
    assert got == [
        (f"{ox:.6g}", "0", *(f"{v:.6g}" for v in fam.semi_axes(e)), fill,
         "0.15,0.1" if fill == "none" else None)
        for ox, e, fill in want
    ]
    assert len(list(root.iter(SVG + "line"))) == (0 if traj is None else len(traj.events))
