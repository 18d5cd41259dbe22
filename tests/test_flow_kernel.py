"""``flow`` and ``step`` both run one event kernel, ``dynamics._events``.

The kernel keeps the state after an event in locals until the next one;
``flow`` restarts it after a grazing continuation and ``step`` takes its
first event.  ``_flow_reference.reference_flow`` makes the same events one
``step`` call at a time, as ``flow`` did before, and must agree under
``==``, with the same per-book wall table.
"""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_books import EventSide, PhaseState, compile_game, step
from billiard_books.dynamics import TangentialHit, _events, flow

from _flow_reference import reference_flow
from conftest import random_state, rng_for
from test_dynamics import OWN_WALL_BOOKS, STARTS, own_wall_start, post_state, tangent_start
from test_games import random_valid_game
from test_step_kernel import BOOKS, fresh, probe_state

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
    assert list(kernel_book._walls.items()) == list(reference_book._walls.items())
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
