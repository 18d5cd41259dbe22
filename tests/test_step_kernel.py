"""``dynamics.step``, the event kernel, against a reference stepper.

``step`` reads each leaf's walls from the book's table and computes the
ray/conic roots, the re-projection and the mirror inline.  The reference
below makes the same event from the ``conics`` primitives it inlines
(``ray_intersections``, ``ray_conic_coefficients``, ``project_to_conic``,
``reflect``) and from ``transition``, one call per wall, as ``step`` did
before it was inlined.  The two must agree bit for bit: the same
``(PhaseState, TrajectoryEvent)`` under ``==``, or the same exception.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_books import (
    BilliardBook,
    ConfocalFamily,
    Leaf,
    OrderedGame,
    PhaseState,
    Rule,
    annulus,
    compile_simple,
    make_book,
    step,
)
from billiard_books.book import transition
from billiard_books.catalog import CATALOG, FIXTURE_FAMILY
from billiard_books.conics import (
    T_MIN,
    project_to_conic,
    ray_conic_coefficients,
    ray_intersections,
    reflect,
)
from billiard_books.dynamics import (
    TIE_TOL,
    EscapedLeaf,
    EventSide,
    TangentialHit,
    TrajectoryEvent,
)

log = logging.getLogger(__name__)


def reference_step(book, state):
    """The event ``step`` must make, one primitive call per wall."""
    fam = book.family
    x, y, vx, vy, leaf_id = state
    graze_tol = 1e-9 * fam.a * (fam.a / 9.0) ** 2
    best = None  # (t, ellipse, grazing)
    for e in book.leaf(leaf_id).boundary_params():
        disc, roots = ray_intersections(fam, e, x, y, vx, vy)
        grazing = abs(disc) < graze_tol
        if grazing:
            A, B, _ = ray_conic_coefficients(fam, e, x, y, vx, vy)
            roots = (-B / A,) if A != 0.0 else ()
        for t in roots:
            if not t > T_MIN:
                continue
            if best is None or t < best[0] - TIE_TOL:
                best = (t, e, grazing)
            elif abs(t - best[0]) <= TIE_TOL and e < best[1]:
                log.warning("boundary tie at t=%.3e; taking smaller ellipse %s", t, e)
                best = (t, e, grazing)
    if best is None:
        raise EscapedLeaf(f"ray from ({x:.6g}, {y:.6g}) on leaf {leaf_id} hits no boundary")
    t, e, grazing = best
    hx = x + t * vx
    hy = y + t * vy
    if grazing:
        raise TangentialHit(e, hx, hy, t)
    hx, hy = project_to_conic(fam, e, hx, hy)
    rule, event_side, leaf_after = transition(book, leaf_id, e)
    if rule is Rule.R3:
        n = math.hypot(vx, vy)
        vx, vy = vx / n, vy / n
    else:
        vx, vy = reflect(fam, e, hx, hy, vx, vy)
    event = TrajectoryEvent(hx, hy, e, event_side, rule, leaf_id, leaf_after, vx, vy)
    return PhaseState(hx, hy, vx, vy, leaf_after), event


def outcome(stepper, book, state):
    """The stepper's event, or the type and text of what it raised; the
    text of a TangentialHit carries the grazing point."""
    try:
        return stepper(book, state)
    except Exception as exc:  # noqa: BLE001  any exception must match
        return type(exc), str(exc)


COMPILED_GAMES = (
    ((1.6, 2.4, 3.2), (1, 1, 1)),
    ((2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1)),
    ((0.0, 2.4, 0.8, 3.2), (1, -1, 1, 1)),
)
BOOKS = {name: make() for name, make in CATALOG.items()}
BOOKS.update(
    (f"compiled {betas}/{sig}", compile_simple(OrderedGame(FIXTURE_FAMILY, betas, sig)).book)
    for betas, sig in COMPILED_GAMES
)
KINDS = ("interior", "on_wall", "tangent")


def probe_state(book, leaf_index, kind, u, v, theta):
    """A state on one leaf of the book, from numbers in [0, 1] and an angle.

    ``interior`` draws the point from the leaf's bounding box (it may lie
    outside the leaf, which ``step`` does not check); ``on_wall`` puts it on
    one of the leaf's walls, as after an event; ``tangent`` launches it
    along the tangent of a wall at eccentric angle theta, from a distance
    before the tangent point, so the ray grazes that wall.
    """
    fam = book.family
    leaf = book.leaves[leaf_index % len(book.leaves)]
    walls = leaf.boundary_params()
    if kind == "interior":
        sx, sy = math.sqrt(fam.a - leaf.outer), math.sqrt(fam.b - leaf.outer)
        return PhaseState((2 * u - 1) * sx, (2 * v - 1) * sy, math.cos(theta), math.sin(theta),
                          leaf.id)
    e = walls[int(u * len(walls)) % len(walls)]
    px, py = fam.ellipse_point(e, theta)
    if kind == "on_wall":
        phi = 2.0 * math.pi * v
        return PhaseState(px, py, math.cos(phi), math.sin(phi), leaf.id)
    tx, ty = -math.sqrt(fam.a - e) * math.sin(theta), math.sqrt(fam.b - e) * math.cos(theta)
    tn = math.hypot(tx, ty)
    tx, ty = tx / tn, ty / tn
    d = 0.05 + 2.0 * v
    return PhaseState(px - d * tx, py - d * ty, tx, ty, leaf.id)


def fresh(book):
    """The same book with empty tables."""
    return BilliardBook(book.family, book.leaves, book.gluings)


def test_kernel_matches_reference_on_seeded_states():
    """Every book, every kind of state: the same outcome, and together the
    states reach R1, R2 and R3 events and tangential hits."""
    rng = np.random.default_rng(16)
    seen = set()
    for name, book in BOOKS.items():
        kernel_book, reference_book = fresh(book), fresh(book)
        for leaf_index in range(len(book.leaves)):
            for kind in KINDS:
                for _ in range(40):
                    u, v, theta = rng.random(), rng.random(), rng.uniform(0.0, 2.0 * math.pi)
                    state = probe_state(book, leaf_index, kind, u, v, theta)
                    got = outcome(step, kernel_book, state)
                    assert got == outcome(reference_step, reference_book, state), (name, state)
                    seen.add(got[1].rule if isinstance(got[1], TrajectoryEvent) else got[0])
    assert {Rule.R1, Rule.R2, Rule.R3, TangentialHit} <= seen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(BOOKS)),
    leaf_index=st.integers(0, 63),
    kind=st.sampled_from(KINDS),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_kernel_matches_reference(name, leaf_index, kind, u, v, theta):
    book = BOOKS[name]
    state = probe_state(book, leaf_index, kind, u, v, theta)
    assert outcome(step, fresh(book), state) == outcome(reference_step, fresh(book), state)


@pytest.mark.parametrize(
    "state",
    [
        PhaseState(math.nan, 0.2, 0.6, 0.8, 1),
        PhaseState(2.8, 0.2, math.inf, 0.8, 1),
        PhaseState(2.8, 0.2, 0.0, 0.0, 1),
        PhaseState(2.8, 0.2, 0.6, 0.8, 99),
    ],
)
def test_kernel_matches_reference_on_broken_states(state):
    """States ``flow`` refuses, passed straight to ``step``: the same
    exception as the reference (EscapedLeaf, or KeyError for a leaf the
    book does not have)."""
    book = CATALOG["chain_six"]()
    got = outcome(step, fresh(book), state)
    assert got == outcome(reference_step, fresh(book), state)
    assert got[0] in (EscapedLeaf, KeyError)


# --- step's rare branches ------------------------------------------------------

def test_boundary_tie_takes_the_smaller_ellipse(caplog):
    """Two walls 1e-13 apart (a malformed leaf) are hit within TIE_TOL of
    each other: the tie is logged and the smaller ellipse taken."""
    book = BilliardBook(ConfocalFamily(9.0, 4.0), (Leaf(1, 1.0 + 1e-13, 1.0),))
    state = PhaseState(0.0, 0.0, 1.0, 0.0, 1)
    with caplog.at_level(logging.WARNING, logger="billiard_books.dynamics"):
        new, ev = step(book, state)
    assert "boundary tie" in caplog.text
    assert ev.ellipse == 1.0
    assert (ev.rule, ev.side) == (Rule.R1, EventSide.FROM_INSIDE)
    assert (new, ev) == reference_step(fresh(book), state)


def test_ray_tangent_to_a_hole_is_a_tangential_hit():
    """A chord of an annulus tangent to its hole C_2 at (0, sqrt 2)."""
    book = make_book(ConfocalFamily(9.0, 4.0), [annulus(1, 0.0, 2.0)])
    state = PhaseState(-2.0, math.sqrt(2.0), 1.0, 0.0, 1)
    with pytest.raises(TangentialHit) as hit:
        step(book, state)
    assert hit.value.ellipse == 2.0
    assert hit.value.t == pytest.approx(2.0)
    assert (hit.value.x, hit.value.y) == pytest.approx((0.0, math.sqrt(2.0)))
    assert outcome(step, fresh(book), state) == outcome(reference_step, fresh(book), state)
