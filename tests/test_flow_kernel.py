"""``flow`` and ``step`` both run one event kernel, ``dynamics._events``.

The kernel keeps the state after an event in locals until the next one.
``step`` takes its first event, which scans every wall of the leaf; ``flow``
is the kernel's own generator, whose later events scan only the walls the
book's scan table lists after the last hit wall, and whose grazing
continuation scans every wall again.  ``_flow_reference.reference_flow``
makes the same events one ``step`` call at a time, each scanning every wall,
and must agree under ``==``, with the same per-book wall table.
"""

import gc
import logging
import math
import weakref
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_books import (
    BilliardBook,
    ConfocalFamily,
    EventSide,
    Leaf,
    OrderedGame,
    PhaseState,
    admissible_start,
    annulus,
    compile_game,
    disk,
    make_book,
    simulate,
    step,
    verify_realization,
)
from billiard_books.conics import directions_with_caustic, ray_intersections
from billiard_books.dynamics import TangentialHit, _events, flow

from _flow_reference import reference_flow
from conftest import random_state, rng_for
from test_dynamics import OWN_WALL_BOOKS, STARTS, own_wall_start, post_state, tangent_start
from test_games import random_valid_game
from test_step_kernel import BOOKS, fresh, probe_state
from test_topology import random_glued_book

POOL_5 = (0.0, 0.8, 1.6, 2.4, 3.2)
POOL_9 = tuple(round(0.4 * i, 1) for i in range(9))


def run(events_of, book, state, n):
    """The first ``n`` events, and the type and text of what ended them
    early, if anything did."""
    out = []
    try:
        out.extend(islice(events_of(book, state), n))
    except Exception as exc:  # noqa: BLE001  any exception must match
        return out, (type(exc), str(exc))
    return out, None


def assert_same_flow(book, state, n):
    kernel_book, reference_book = fresh(book), fresh(book)
    got = run(flow, kernel_book, state, n)
    assert got == run(reference_flow, reference_book, state, n), state
    (kernel_walls, kernel_scans), (reference_walls, reference_scans) = (
        kernel_book._walls, reference_book._walls)
    assert list(kernel_walls.items()) == list(reference_walls.items())
    assert kernel_scans == reference_scans
    return got[0]


def test_flow_matches_the_reference_on_interior_starts(books, family):
    rng = np.random.default_rng(20)
    corpus = list(books.values())
    corpus += [
        compile_game(random_valid_game(family, rng, n, pool)).book
        for n in range(4, 25)
        for pool in (POOL_5, POOL_9)
    ]
    for book in corpus:
        for _ in range(4):
            assert_same_flow(book, random_state(book, rng), 150)
    # glued books of disks and annuli over five ellipses, whose hyperbolic
    # chords can miss a hole
    glued = np.random.default_rng(27)
    for book in [random_glued_book(family, glued) for _ in range(40)]:
        for _ in range(4):
            assert_same_flow(book, random_state(book, glued), 150)


def test_flow_matches_the_reference_on_grazing_starts(books):
    # continues on annulus_two_disks: every chord grazes C_2 again, so the
    # kernel is restarted after each crossing of it
    events = assert_same_flow(books["annulus_two_disks"], tangent_start(), 40)
    assert len(events) == 40
    assert sum(ev.side is EventSide.PASS_THROUGH for ev in events) >= 10
    # singular on two_annuli_two_disks, and on a leaf's own outer wall
    assert assert_same_flow(books["two_annuli_two_disks"], tangent_start(), 40) == []
    for book in OWN_WALL_BOOKS.values():
        assert assert_same_flow(book, own_wall_start(1e-11), 40) == []


FAMILY = ConfocalFamily(9.0, 4.0)
GRAZE_TOL = 1e-9 * FAMILY.a * (FAMILY.a / 9.0) ** 2  # the kernel's, 9e-9 here
HOLE_BOOKS = {
    "annulus": make_book(FAMILY, [annulus(1, 0.0, 2.0)]),
    "disk_in_annulus": make_book(
        FAMILY, [annulus(1, 0.0, 2.0), disk(2, 2.0)], [(2.0, [[1, 2]])]
    ),
}


@pytest.mark.parametrize("k", [1.5, 2.0, 10.0, 1000.0, -1.5, -2.0, -10.0, -1000.0])
@pytest.mark.parametrize("name", sorted(HOLE_BOOKS))
def test_flow_matches_the_reference_near_a_grazing_hole(name, k):
    """Chords tangent to the caustic 2 + k * GRAZE_TOL / ((a - 2)(b - 2)), so
    that each meets the hole C_2 with |B^2 - AC| = |k| * GRAZE_TOL: for k > 0
    every chord that reaches the hole leaves it again (by reflection, or by
    crossing out of the disk) just above the grazing tolerance, and for
    k < 0 it misses the hole by a hair.  The caustic is kept by every
    event, so every later chord does the same."""
    book = HOLE_BOOKS[name]
    caustic = 2.0 + k * GRAZE_TOL / ((FAMILY.a - 2.0) * (FAMILY.b - 2.0))
    hole_events = 0
    for px in (-1.2, -0.8, -0.3, 0.0, 0.4, 0.9, 1.25):
        for vx, vy in directions_with_caustic(FAMILY, px, 1.8, caustic):
            disc, _ = ray_intersections(FAMILY, 2.0, px, 1.8, vx, vy)
            assert disc == pytest.approx(k * GRAZE_TOL, rel=1e-3)
            events = assert_same_flow(book, PhaseState(px, 1.8, vx, vy, 1), 60)
            assert len(events) == 60
            hole_events += sum(ev.ellipse == 2.0 for ev in events)
    assert (hole_events > 500) == (k > 0), hole_events


@pytest.mark.parametrize("inner, logged", [(1.0 + 1e-10, False), (1.0 - 1e-10, True)])
def test_a_tie_after_the_first_event_takes_the_smaller_ellipse(inner, logged, caplog):
    """The flow crosses C_1 into leaf 2, whose walls C_1 and C_inner lie
    1.8e-11 apart at the major axis, well within TIE_TOL, and then runs
    along that axis, where the two are hit within TIE_TOL of each other.
    With inner = 1 + 1e-10 (an annulus) the outer wall C_1 is scanned first
    and kept; with inner = 1 - 1e-10 (a malformed leaf, its hole the larger
    ellipse) C_inner comes second, and the tie is logged.  Either way the
    smaller parameter is taken, as the reference takes it."""
    book = BilliardBook(
        FAMILY,
        (annulus(1, 0.0, 1.0), Leaf(2, 1.0, inner)),
        make_book(FAMILY, [], [(1.0, [[1, 2]])]).gluings,
    )
    with caplog.at_level(logging.WARNING, logger="billiard_books.dynamics"):
        events = assert_same_flow(book, PhaseState(-2.9, 0.0, 1.0, 0.0, 1), 10)
    assert len(events) == 10
    assert (events[0].ellipse, events[0].leaf_after) == (1.0, 2)
    assert events[1].leaf_before == 2 and events[1].ellipse == min(1.0, inner)
    assert ("boundary tie" in caplog.text) is logged


def test_tangential_hit_carries_the_state_before_it(books):
    # from step: the state it was given
    seen = 0
    rng = np.random.default_rng(20)
    for book in BOOKS.values():
        for leaf_index in range(len(book.leaves)):
            for _ in range(10):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                state = probe_state(book, leaf_index, "tangent", *rng.random(2), theta)
                try:
                    step(book, state)
                except TangentialHit as hit:
                    assert hit.state == state
                    seen += 1
    assert seen > 100
    # inside a run: the state after the kernel's last event
    book = books["annulus_two_disks"]
    kernel = _events(book, PhaseState(-2.0, 2.0**0.5, -1.0, 0.0, 1))
    ev = next(kernel)
    with pytest.raises(TangentialHit) as hit:
        next(kernel)
    assert hit.value.state == post_state(ev)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(start=STARTS, k=st.integers(0, 40), more=st.integers(1, 40))
def test_the_kernel_keeps_no_hidden_state(books, start, k, more):
    name, seed = start
    book = books[name]
    state = tangent_start() if seed is None else random_state(book, rng_for(seed))
    events = list(islice(flow(book, state), k + 1 + more))
    # restarting from event k's post-state gives events k + 1 onward
    if len(events) > k:
        assert list(islice(flow(book, post_state(events[k])), more)) == events[k + 1 :]
    # step makes the flow's first event unless a grazing hit comes first
    try:
        first = step(book, state)[1]
    except TangentialHit:
        assert events == [] or events[0].side is EventSide.PASS_THROUGH
    else:
        assert events[0] == first


def test_a_book_is_freed_by_reference_counting(family):
    # each wall of the wall table names its next scan by an index, so the
    # table holds no reference cycle: with the cyclic collector off, a book
    # that has run the kernel goes, tables and all, when its last reference
    # does, and the collector then finds nothing (while each wall held the
    # walls of its next scan, which led back, it found the table's lists)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        rep = compile_game(OrderedGame(family, (0.0, 2.0, 0.8, 3.5), (1, 1, 1, -1)))
        assert verify_realization(rep, samples=4, seed=1) == []
        state = admissible_start(rep.book, rep.start_leaf_id, 6.5, 3)
        assert len(simulate(rep.book, state, 200).events) == 200
        book = weakref.ref(rep.book)
        assert "_walls" in vars(book())
        del rep
        assert book() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
