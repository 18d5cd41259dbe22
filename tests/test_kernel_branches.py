"""The event kernel's rare branches against ``reference_step``.

The kernel tests a wall's two roots as t1 then t2 (the order of
``ray_intersections``), so a boundary tie can be reached through either
position; and its mirror refuses a hit that re-projection leaves off the
conic, as ``reflect`` does.  Each case must match the reference bit for bit:
the same event, or the same exception and message.
"""

import logging
import math

import pytest

from billiard_books import BilliardBook, ConfocalFamily, Leaf, PhaseState, Rule, step
from billiard_books.conics import T_MIN, PointNotOnConic, ray_intersections
from billiard_books.dynamics import EscapedLeaf

from test_step_kernel import fresh, outcome, reference_step

FAMILY = ConfocalFamily(9.0, 4.0)


@pytest.mark.parametrize(
    "x, position",
    [
        (0.5, 1),  # B > 0: q < 0, so t1 = q / A is behind and t2 = C / q ahead
        (-0.5, 0),  # B < 0: q > 0, so t1 = q / A is ahead and t2 = C / q behind
    ],
)
def test_boundary_tie_through_each_root_position(x, position, caplog):
    """Two walls 1e-13 apart (a malformed leaf) hit within TIE_TOL of each
    other, through root t1 or t2 of each: the tie is logged and the smaller
    ellipse taken."""
    book = BilliardBook(FAMILY, (Leaf(1, 1.0 + 1e-13, 1.0),))
    state = PhaseState(x, 0.0, 1.0, 0.0, 1)
    for e in book.leaf(1).boundary_params():
        _, roots = ray_intersections(FAMILY, e, *state[:4])
        assert [t > T_MIN for t in roots] == [i == position for i in range(2)]
    with caplog.at_level(logging.WARNING, logger="billiard_books.dynamics"):
        got = outcome(step, fresh(book), state)
    assert caplog.text.count("boundary tie") == 1
    assert got[1].ellipse == 1.0 and got[1].rule is Rule.R1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="test_step_kernel"):
        assert got == outcome(reference_step, fresh(book), state)
    assert caplog.text.count("boundary tie") == 1


def test_far_hit_on_a_hyperbola_wall_is_off_the_conic():
    """A malformed disk whose wall C_5 lies in (b, a), a hyperbola.  A ray
    along y = sinh(u) hits it at (2 cosh u, sinh u); far out, the residual
    left after re-projection exceeds ON_CONIC_TOL and the mirror raises
    PointNotOnConic with the reference's message, nearer in it reflects."""
    book = BilliardBook(FAMILY, (Leaf(1, 5.0),))
    seen = set()
    for u in range(8, 18):
        state = PhaseState(2.0 * math.cosh(u) - 1.0, math.sinh(u), 1.0, 0.0, 1)
        got = outcome(step, fresh(book), state)
        assert got == outcome(reference_step, fresh(book), state), u
        seen.add(got[0] if isinstance(got[0], type) else got[1].rule)
    assert seen == {Rule.R1, PointNotOnConic}
    with pytest.raises(PointNotOnConic, match=r"residual -7\.629e-06 at \(442411\.7"):
        step(book, PhaseState(2.0 * math.cosh(13) - 1.0, math.sinh(13), 1.0, 0.0, 1))


def test_zero_root_without_a_graze_tolerance_is_no_hit():
    """A family so small that the graze tolerance underflows to 0.0: at the
    vertex of the outer wall, moving along its tangent, the discriminant is
    exactly 0 but not grazing, so q = 0 and the wall's one root, 0, is
    skipped before C / q divides by it; the ray hits nothing."""
    fam = ConfocalFamily(9e-110, 4e-110)
    assert 1e-9 * fam.a * (fam.a / 9.0) ** 2 == 0.0
    book = BilliardBook(fam, (Leaf(1, 0.0),))
    state = PhaseState(math.sqrt(fam.a), 0.0, 0.0, 1.0, 1)
    assert ray_intersections(fam, 0.0, *state[:4]) == (0.0, (0.0,))
    got = outcome(step, fresh(book), state)
    assert got == (EscapedLeaf, "ray from (3e-55, 0) on leaf 1 hits no boundary")
    assert got == outcome(reference_step, fresh(book), state)
