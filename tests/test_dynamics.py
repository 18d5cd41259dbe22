import csv
import math
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_books import (
    BilliardBook,
    ConfocalFamily,
    EventSide,
    GluingPermutation,
    Leaf,
    PhaseState,
    Rule,
    annulus,
    caustic_parameter,
    disk,
    make_book,
    reverse,
    simulate,
    step,
    trace_to_game,
    trajectory_csv,
)
from billiard_books.book import BookError, NotABoundary, transition, validate_book
from billiard_books.catalog import CATALOG
from billiard_books.conics import directions_with_caustic
from billiard_books.dynamics import (
    CSV_HEADER,
    STATUS_OK,
    STATUS_SINGULAR,
    DynamicsError,
    EscapedLeaf,
    TangentialHit,
    Trajectory,
    TrajectoryEvent,
    flow,
    glued_return_leaf,
    time_reversed_start,
)
from conftest import random_state, rng_for


def toward_e2_state(book, caustic=6.0, leaf=1):
    """State on the outer annulus whose first event is at the inner ellipse."""
    p = (1.0, 1.6)
    for v in directions_with_caustic(book.family, *p, caustic):
        st = PhaseState(p[0], p[1], v[0], v[1], leaf)
        _, ev = step(book, st)
        if ev.ellipse == 2.0:
            return st
    raise AssertionError("no direction reaches the inner ellipse first")


def toward_e1_state(book, caustic=6.0, leaf=1):
    p = (1.0, 1.6)
    for v in directions_with_caustic(book.family, *p, caustic):
        st = PhaseState(p[0], p[1], v[0], v[1], leaf)
        _, ev = step(book, st)
        if ev.ellipse == 0.0:
            return st
    raise AssertionError("no direction reaches the outer ellipse first")


# --- single step rules on the three-leaf book -----------------------------

def test_step_r2_disk_to_disk(books):
    book = books["annulus_two_disks"]
    st = PhaseState(0.0, 0.5, 1.0, 0.0, 2)
    new, ev = step(book, st)
    assert ev.rule is Rule.R2
    assert ev.side is EventSide.FROM_INSIDE
    assert (ev.leaf_before, ev.leaf_after) == (2, 3)
    assert new.leaf_id == 3


def test_step_r3_disk_to_annulus(books):
    book = books["annulus_two_disks"]
    st = PhaseState(0.0, 0.5, 1.0, 0.0, 3)
    _, ev = step(book, st)
    assert ev.rule is Rule.R3
    assert ev.side is EventSide.PASS_THROUGH
    assert (ev.leaf_before, ev.leaf_after) == (3, 1)


def test_step_r1_on_outer_wall(books):
    book = books["annulus_two_disks"]
    st = toward_e1_state(book)
    _, ev = step(book, st)
    assert ev.rule is Rule.R1
    assert ev.leaf_before == ev.leaf_after == 1


# --- whole trajectories ----------------------------------------------------

def test_game_cycle_on_four_leaf_book(books):
    book = books["two_annuli_two_disks"]
    traj = simulate(book, toward_e2_state(book), max_events=40)
    pattern = [(ev.ellipse, ev.rule) for ev in traj.events[:4]]
    assert pattern == [(2.0, Rule.R3), (2.0, Rule.R2), (2.0, Rule.R3), (0.0, Rule.R2)]
    # and it repeats
    again = [(ev.ellipse, ev.rule) for ev in traj.events[4:8]]
    assert again == pattern


def test_annulus_regime_on_four_leaf_book(books):
    book = books["two_annuli_two_disks"]
    traj = simulate(book, toward_e1_state(book), max_events=20)
    kinds = {(ev.ellipse, ev.rule, ev.side) for ev in traj.events}
    assert kinds == {
        (0.0, Rule.R2, EventSide.FROM_INSIDE),
        (2.0, Rule.R2, EventSide.FROM_OUTSIDE),
    }


def test_inner_caustic_regime_reflects_on_outer_wall_only(books):
    book = books["annulus_two_disks"]
    st = PhaseState(2.8, 0.3, 0.0, 1.0, 1)
    lam = caustic_parameter(book.family, st.x, st.y, st.vx, st.vy)
    assert 0.0 < lam < 2.0  # caustic between the two ellipses
    traj = simulate(book, st, max_events=50)
    assert {(ev.ellipse, ev.rule) for ev in traj.events} == {(0.0, Rule.R1)}


def test_caustic_conservation_long_runs(books):
    rng = rng_for(42)
    for name in ("annulus_two_disks", "chain_five"):
        book = books[name]
        for _ in range(5):
            traj = simulate(book, random_state(book, rng), max_events=1000)
            assert traj.status == STATUS_OK
            assert traj.caustic_drift <= 1e-9


def test_unit_speed_and_r3_continuity(books):
    book = books["chain_six"]
    traj = simulate(book, toward_e2_state(book), max_events=300)
    prev_v = (traj.initial.vx, traj.initial.vy)
    for ev in traj.events:
        assert math.hypot(ev.vx, ev.vy) == pytest.approx(1.0, abs=1e-12)
        if ev.rule is Rule.R3:
            assert (ev.vx, ev.vy) == pytest.approx(prev_v, abs=1e-15)
        prev_v = (ev.vx, ev.vy)


def test_leaf_transition_law(books):
    for name in ("two_annuli_two_disks", "chain_six", "four_sheets"):
        book = books[name]
        traj = simulate(book, toward_e2_state(book), max_events=200)
        for ev in traj.events:
            g = book.gluing_for(ev.ellipse)
            if ev.rule is Rule.R1:
                assert ev.leaf_after == ev.leaf_before
            else:
                assert g is not None and g.image(ev.leaf_before) == ev.leaf_after


def test_determinism(books):
    book = books["chain_five"]
    st = toward_e2_state(book)
    t1 = simulate(book, st, max_events=200)
    t2 = simulate(book, st, max_events=200)
    assert [(e.x, e.y, e.leaf_after) for e in t1.events] == [
        (e.x, e.y, e.leaf_after) for e in t2.events
    ]


# --- trace projection ------------------------------------------------------

def test_trace_to_game_alternating(books):
    book = books["two_annuli_two_disks"]
    trace = trace_to_game(simulate(book, toward_e2_state(book), max_events=40))
    assert trace[:4] == [
        (2.0, EventSide.FROM_INSIDE),
        (0.0, EventSide.FROM_INSIDE),
        (2.0, EventSide.FROM_INSIDE),
        (0.0, EventSide.FROM_INSIDE),
    ]


def test_trace_to_game_annulus(books):
    book = books["two_annuli_two_disks"]
    trace = trace_to_game(simulate(book, toward_e1_state(book), max_events=20))
    flat = trace[:4]
    assert flat[0][0] != flat[1][0]
    assert {(e, s) for e, s in flat} == {
        (0.0, EventSide.FROM_INSIDE),
        (2.0, EventSide.FROM_OUTSIDE),
    }


def test_trace_to_game_empty(books):
    book = books["annulus_two_disks"]
    traj = simulate(book, PhaseState(2.8, 0.0, 1.0, 0.0, 1), max_events=0)
    assert trace_to_game(traj) == []


# --- reversal ---------------------------------------------------------------

def test_reverse_matches_on_inverted_book(books):
    book = books["chain_five"]
    fwd = simulate(book, toward_e2_state(book), max_events=12)
    rev = reverse(book, fwd)
    n = len(fwd.events)
    assert len(rev.events) == n - 1
    for j in range(n - 1):
        assert rev.events[j].x == pytest.approx(fwd.events[n - 2 - j].x, abs=1e-8)
        assert rev.events[j].y == pytest.approx(fwd.events[n - 2 - j].y, abs=1e-8)


def test_reverse_empty(books):
    book = books["annulus_two_disks"]
    fwd = simulate(book, PhaseState(2.8, 0.0, 0.0, 1.0, 1), max_events=0)
    assert reverse(book, fwd).events == []


def test_same_book_reversal_fails_for_three_cycles(books):
    # gluings that are not involutions are not time reversible
    book = books["chain_five"]
    fwd = simulate(book, toward_e2_state(book), max_events=30)
    back = simulate(book, time_reversed_start(book, fwd), max_events=len(fwd.events) - 1)
    n = len(fwd.events)
    mismatch = max(
        math.hypot(
            back.events[j].x - fwd.events[n - 2 - j].x,
            back.events[j].y - fwd.events[n - 2 - j].y,
        )
        for j in range(len(back.events))
    )
    assert mismatch > 1e-3


# --- degenerate caustics ------------------------------------------------------

def test_focal_caustic_runs_normally(books):
    # a chord aimed at a focus stays on the focal level and converges toward
    # the long-axis orbit without tripping the grazing detector
    book = books["annulus_two_disks"]
    f = book.family.focal_half_distance
    dx, dy = f - 2.8, -0.35
    n = math.hypot(dx, dy)
    st = PhaseState(2.8, 0.35, dx / n, dy / n, 1)
    assert caustic_parameter(book.family, st.x, st.y, st.vx, st.vy) == pytest.approx(4.0)
    traj = simulate(book, st, max_events=300)
    assert traj.status == STATUS_OK and len(traj.events) == 300
    assert traj.caustic_drift <= 1e-9
    assert abs(traj.events[-1].y) < 0.1  # reflections settle near the long axis


def test_top_caustic_minor_axis_bounce(books):
    book = books["annulus_two_disks"]
    st = PhaseState(0.0, 1.7, 0.0, 1.0, 1)
    assert caustic_parameter(book.family, st.x, st.y, st.vx, st.vy) == pytest.approx(9.0)
    traj = simulate(book, st, max_events=40)
    assert traj.status == STATUS_OK
    assert all(abs(ev.x) < 1e-9 for ev in traj.events)  # pinned to the minor axis


# --- grazing hits -----------------------------------------------------------

def tangent_start():
    # ray y = sqrt(2) grazes the inner ellipse at its top vertex
    return PhaseState(-2.0, math.sqrt(2.0), 1.0, 0.0, 1)


def test_grazing_continues_when_chain_returns(books):
    traj = simulate(books["annulus_two_disks"], tangent_start(), max_events=10)
    assert traj.status == STATUS_OK
    assert traj.events[0].side is EventSide.PASS_THROUGH
    assert traj.events[0].leaf_before == traj.events[0].leaf_after == 1


def test_grazing_singular_when_chain_crosses(books):
    traj = simulate(books["two_annuli_two_disks"], tangent_start(), max_events=10)
    assert traj.status == STATUS_SINGULAR
    assert traj.events == []


def test_reverse_refuses_a_singular_trajectory(books):
    traj = simulate(books["two_annuli_two_disks"], tangent_start(), max_events=10)
    assert traj.status == STATUS_SINGULAR
    with pytest.raises(DynamicsError, match="singular level"):
        reverse(books["two_annuli_two_disks"], traj)


FAM = ConfocalFamily(9.0, 4.0)
OWN_WALL_BOOKS = {
    "disk": make_book(FAM, [disk(1, 2.0)]),
    "two_glued_disks": make_book(FAM, [disk(1, 2.0), disk(2, 2.0)], [(2.0, [[1, 2]])]),
    "disk_in_annulus": make_book(FAM, [disk(1, 2.0), annulus(2, 0.0, 2.0)], [(2.0, [[1, 2]])]),
    "annulus": make_book(FAM, [annulus(1, 2.0, 3.5)]),
}


def own_wall_start(eps):
    """Horizontal chord of leaf 1 tangent to the caustic 2 + eps, starting
    between the caustic and the leaf's outer ellipse C_2; for eps <= 1e-10
    its hit on C_2 counts as grazing."""
    return PhaseState(-math.sqrt(3.5 * eps) / 2, math.sqrt(2.0 - eps), 1.0, 0.0, 1)


@pytest.mark.parametrize("eps", [1e-10, 1e-11])
@pytest.mark.parametrize("name", sorted(OWN_WALL_BOOKS))
def test_grazing_own_outer_wall_is_singular(name, eps):
    book = OWN_WALL_BOOKS[name]
    traj = simulate(book, own_wall_start(eps), max_events=10)
    assert traj.status == STATUS_SINGULAR
    assert traj.events == []
    # a chord clear of the grazing tolerance runs on
    assert simulate(book, own_wall_start(1e-9), max_events=200).status == STATUS_OK


# --- simulate as a prefix of the event flow ---------------------------------

def post_state(ev):
    return PhaseState(ev.x, ev.y, ev.vx, ev.vy, ev.leaf_after)


# a start is (book name, seed of a random state), or a grazing start (seed
# None) that continues on annulus_two_disks and is singular on two_annuli_two_disks
STARTS = st.one_of(
    st.tuples(st.sampled_from(sorted(CATALOG)), st.integers(0, 2**32 - 1)),
    st.tuples(st.sampled_from(["annulus_two_disks", "two_annuli_two_disks"]), st.none()),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(start=STARTS, m=st.integers(0, 40), more=st.integers(1, 40))
def test_simulate_is_a_prefix_of_the_flow(books, start, m, more):
    name, seed = start
    book = books[name]
    state = tangent_start() if seed is None else random_state(book, rng_for(seed))
    short = simulate(book, state, max_events=m)
    long = simulate(book, state, max_events=m + more)
    assert long.events[: len(short.events)] == short.events
    for traj, cap in ((short, m), (long, m + more)):
        assert traj.initial == state
        assert traj.final == (post_state(traj.events[-1]) if traj.events else state)
        assert (traj.status == STATUS_SINGULAR) == (len(traj.events) < cap)
    # the book's table holds, at every leaf, that leaf's walls (e, a - e,
    # b - e) with the answer transition gives there on a fresh copy of the book
    fresh = BilliardBook(book.family, book.leaves, book.gluings)
    a, b = fresh.family.a, fresh.family.b
    walls_of, _ = book._walls
    assert list(walls_of) == [lf.id for lf in book.leaves]
    for leaf_id, walls in walls_of.items():
        assert tuple(wall[:6] for wall in walls) == tuple(
            (e, a - e, b - e, *transition(fresh, leaf_id, e))
            for e in fresh.leaf(leaf_id).boundary_params())
    outside = PhaseState(100.0, 0.0, 1.0, 0.0, book.leaves[0].id)
    with pytest.raises(EscapedLeaf):
        simulate(book, outside, max_events=0)
    with pytest.raises(EscapedLeaf):
        flow(book, outside)


# --- event records and caustic drift -------------------------------------------

def tangent_reflect_start():
    """The chord of ``tangent_start`` run backwards: it reflects on leaf 1's
    outer wall first, and every chord after it grazes C_2."""
    return PhaseState(-2.0, math.sqrt(2.0), -1.0, 0.0, 1)


def drift_runs(books):
    """(book, start, max_events) of catalog runs from random starts, a run
    through grazing continuations, one that ends on a singular level after
    a reflection, and a run with no event."""
    for book in books.values():
        rng = rng_for(23)
        for _ in range(3):
            yield book, random_state(book, rng), 300
    yield books["annulus_two_disks"], tangent_reflect_start(), 12
    yield books["two_annuli_two_disks"], tangent_reflect_start(), 12
    yield books["chain_six"], toward_e2_state(books["chain_six"]), 0


def test_drift_run_kinds(books):
    """The runs of ``drift_runs`` have the kinds their docstring names."""
    *_, cont, singular, empty = [simulate(*run) for run in drift_runs(books)]
    assert cont.status == STATUS_OK and any(
        ev.rule is Rule.R3 and ev.leaf_before == ev.leaf_after for ev in cont.events)
    assert singular.status == STATUS_SINGULAR and len(singular.events) == 1
    assert empty.events == [] and empty.caustic_drift == 0.0


def test_events_are_trajectory_events(books):
    """step, flow and simulate give TrajectoryEvent records, not plain
    tuples, which compare equal to them under ==."""
    for book, state, cap in drift_runs(books):
        evs = simulate(book, state, cap).events
        assert all(type(ev) is TrajectoryEvent for ev in evs)
        assert all(type(ev) is TrajectoryEvent for ev in islice(flow(book, state), cap))
        for start in [state] + [post_state(ev) for ev in evs]:
            try:
                post, ev = step(book, start)
            except TangentialHit:
                continue  # a grazing hit is left to step's caller
            assert type(ev) is TrajectoryEvent and type(post) is PhaseState


def test_drift_is_the_largest_caustic_change_bit_for_bit(books):
    """caustic_drift is max(0.0, |caustic_parameter(event) - caustic|, ...)
    over the events, to the last bit."""
    for book, state, cap in drift_runs(books):
        traj = simulate(book, state, cap)
        fam = book.family
        assert traj.caustic == caustic_parameter(fam, state.x, state.y, state.vx, state.vy)
        want = max([0.0] + [abs(caustic_parameter(fam, ev.x, ev.y, ev.vx, ev.vy) - traj.caustic)
                            for ev in traj.events])
        assert traj.caustic_drift.hex() == want.hex()


# --- start-state check --------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "state",
    [
        PhaseState(NAN, 0.2, 0.6, 0.8, 1),
        PhaseState(2.8, NAN, 0.6, 0.8, 1),
        PhaseState(2.8, 0.2, NAN, 0.8, 1),
        PhaseState(2.8, 0.2, 0.6, NAN, 1),
        PhaseState(INF, 0.2, 0.6, 0.8, 1),
        PhaseState(2.8, 0.2, 0.6, -INF, 1),
        PhaseState(2.8, 0.2, 1.2, 1.6, 1),  # |v| = 2: its caustic would read 10.82
        PhaseState(2.8, 0.2, 0.0, 0.0, 1),
    ],
)
def test_flow_refuses_a_broken_start(books, state):
    book = books["chain_six"]
    with pytest.raises(DynamicsError):
        flow(book, state)
    with pytest.raises(DynamicsError):
        simulate(book, state, max_events=0)


def test_flow_refuses_an_unknown_leaf():
    """A start on a leaf id the book does not have is in no leaf of it."""
    state = PhaseState(0.1, 0.1, 1.0, 0.0, 99)
    with pytest.raises(EscapedLeaf, match="not in leaf 99"):
        simulate(CATALOG["chain_six"](), state, 5)
    with pytest.raises(EscapedLeaf):
        flow(CATALOG["chain_six"](), state)


@pytest.mark.parametrize("max_events", [sys.maxsize + 1, 10**20], ids=["maxsize+1", "1e20"])
def test_simulate_refuses_too_many_events_before_any_event(max_events):
    # the start is on a leaf the book does not have, so an event computed
    # before the refusal would raise EscapedLeaf instead
    state = PhaseState(0.1, 0.1, 1.0, 0.0, 99)
    with pytest.raises(ValueError, match=f"^max_events must be at most {sys.maxsize}, got"):
        simulate(CATALOG["chain_six"](), state, max_events)


@pytest.mark.parametrize("max_events", [-1, -3])
def test_simulate_refuses_a_negative_event_count_before_any_event(max_events):
    # it returned an ok trajectory with no events, where verify_book refuses
    # a negative sample count; the start is on a missing leaf, as above
    state = PhaseState(0.1, 0.1, 1.0, 0.0, 99)
    with pytest.raises(ValueError, match=f"^max_events must be >= 0, got {max_events}$"):
        simulate(CATALOG["chain_six"](), state, max_events)


@pytest.mark.parametrize("max_events", [3.5, 2.0, "5"])
def test_simulate_refuses_an_event_count_that_is_not_an_integer(max_events):
    # 3.5 raised EscapedLeaf from the missing leaf, 2.0 islice's message and
    # "5" a bare '<' comparison error; each is refused before any event
    state = PhaseState(0.1, 0.1, 1.0, 0.0, 99)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        simulate(CATALOG["chain_six"](), state, max_events)


# two books that validate_book refuses, each with a wall whose transition
# raises on a leaf the start on disk 4 never leaves
BAD_WALL_BOOKS = {
    "gluing onto a missing leaf": (
        (annulus(3, 0.0, 1.6), disk(4, 2.4)), (GluingPermutation(1.6, {3: 9, 9: 3}),), KeyError
    ),
    "NaN disk": ((disk(5, NAN), disk(4, 2.4)), (), NotABoundary),
}


@pytest.mark.parametrize("name", sorted(BAD_WALL_BOOKS))
def test_a_bad_wall_raises_before_the_first_event(family, name):
    """The book's wall table holds every transition, so a transition that
    raises does so when the table is built, before any event."""
    leaves, gluings, error = BAD_WALL_BOOKS[name]
    book = BilliardBook(family, leaves, gluings)
    assert validate_book(book)
    state = PhaseState(0.1, 0.2, 0.6, 0.8, 4)
    with pytest.raises(error):
        step(book, state)
    with pytest.raises(error):
        simulate(book, state, 5)
    with pytest.raises(error):
        next(flow(book, state))


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
@pytest.mark.parametrize("k", range(4))
def test_step_refuses_a_non_finite_state(books, k, bad):
    """step makes no event from a NaN or infinite coordinate."""
    coords = [2.8, 0.2, 0.6, 0.8]
    coords[k] = bad
    with pytest.raises(EscapedLeaf):
        step(books["chain_six"], PhaseState(*coords, 1))


# --- scaling -----------------------------------------------------------------

def scaled_book(book, s):
    """The same billiard with every parameter times s, so every length times
    sqrt(s)."""
    return BilliardBook(
        ConfocalFamily(book.family.a * s, book.family.b * s),
        tuple(Leaf(lf.id, lf.outer * s, None if lf.inner is None else lf.inner * s)
              for lf in book.leaves),
        tuple(GluingPermutation(g.ellipse * s, g.mapping) for g in book.gluings),
    )


@pytest.mark.parametrize("k", [-6, -4, 4, 6])
def test_a_scaled_book_gives_the_same_events(books, k):
    """Scaling parameters by 10^k and positions by 10^(k/2) changes no
    event's ellipse, side, rule or leaves, and no status: every tolerance
    the kernel applies is in the book's own units."""
    s, r = 10.0**k, 10.0 ** (k / 2)
    for name, book in books.items():
        big = scaled_book(book, s)
        rng = rng_for(17)
        for _ in range(4):
            x, y, vx, vy, leaf_id = random_state(book, rng)
            want = simulate(book, PhaseState(x, y, vx, vy, leaf_id), max_events=200)
            got = simulate(big, PhaseState(x * r, y * r, vx, vy, leaf_id), max_events=200)
            assert got.status == want.status, name
            assert [(ev.ellipse, ev.side, ev.rule, ev.leaf_before, ev.leaf_after)
                    for ev in got.events] == [
                (ev.ellipse * s, ev.side, ev.rule, ev.leaf_before, ev.leaf_after)
                for ev in want.events], name


# --- CSV ---------------------------------------------------------------------

def test_csv_shape(books):
    book = books["annulus_two_disks"]
    traj = simulate(book, toward_e2_state(book), max_events=7)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "event_index,leaf_before,leaf_after,ellipse,rule,side,x,y,vx,vy"
    assert len(lines) == 8
    assert trajectory_csv(traj) == text  # deterministic


def test_csv_and_record_contract(books):
    book = books["chain_six"]
    empty = simulate(book, toward_e2_state(book), max_events=0)
    assert trajectory_csv(empty) == ",".join(CSV_HEADER) + "\n"

    traj = simulate(book, toward_e2_state(book), max_events=50)
    rows = list(csv.reader(trajectory_csv(traj).splitlines()))
    assert rows[0] == CSV_HEADER and len(rows) == 51
    for i, (row, ev) in enumerate(zip(rows[1:], traj.events)):
        assert len(row) == 10
        fields = dict(zip(CSV_HEADER, row))
        assert int(fields["event_index"]) == i
        assert (int(fields["leaf_before"]), int(fields["leaf_after"])) == (
            ev.leaf_before,
            ev.leaf_after,
        )
        assert (fields["rule"], fields["side"]) == (ev.rule.value, ev.side.value)
        for name in ("ellipse", "x", "y", "vx", "vy"):
            assert float(fields[name]) == getattr(ev, name)

    for record, name in ((traj.final, "x"), (traj.events[0], "leaf_after")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def reference_csv(traj):
    """``trajectory_csv`` as one list comprehension, every velocity printed."""
    rows = [",".join(CSV_HEADER)]
    rows += [
        f"{i},{before},{after},{e!r},{rule._value_},{side._value_},{x!r},{y!r},{vx!r},{vy!r}"
        for i, (x, y, e, side, rule, before, after, vx, vy) in enumerate(traj.events)
    ]
    rows.append("")
    return "\n".join(rows)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_csv_matches_the_reference_on_catalog_runs(books, name):
    rng = rng_for(24)
    crossings = 0
    for _ in range(3):
        traj = simulate(books[name], random_state(books[name], rng), max_events=300)
        assert trajectory_csv(traj) == reference_csv(traj)
        crossings += sum(ev.rule is Rule.R3 for ev in traj.events)
    if name in ("annulus_two_disks", "chain_six"):
        assert crossings  # rows whose velocity text is reused


def test_csv_reprints_equal_velocities_held_by_other_objects():
    """A velocity is reused only when it is the very same two objects as the
    row before: 0.0 against -0.0, and equal floats that are other objects
    (NaN among them), are printed again."""
    zero, neg = 0.0, -0.0
    half, other_half = float("0.5"), float("0.5")
    nan, other_nan = float("nan"), float("nan")
    assert half is not other_half and zero == neg
    velocities = [
        (zero, 1.0), (zero, 1.0), (neg, 1.0), (zero, -1.0), (half, nan), (half, nan),
        (other_half, nan), (other_half, other_nan), (1.0, neg), (1.0, zero), (1.0, zero),
    ]
    events = [
        TrajectoryEvent(0.1 * i, 0.2, 2.0, EventSide.PASS_THROUGH, Rule.R3, 1, 2, vx, vy)
        for i, (vx, vy) in enumerate(velocities)
    ]
    state = PhaseState(0.0, 0.0, 0.0, 1.0, 1)
    traj = Trajectory(state, events, state, 4.0, 0.0)
    text = trajectory_csv(traj)
    assert text == reference_csv(traj)
    assert [row.split(",", 8)[8] for row in text.splitlines()[1:]] == [
        "0.0,1.0", "0.0,1.0", "-0.0,1.0", "0.0,-1.0", "0.5,nan", "0.5,nan",
        "0.5,nan", "0.5,nan", "1.0,-0.0", "1.0,0.0", "1.0,0.0",
    ]


def test_glued_return_leaf_refuses_an_ellipse_off_the_leaf(books):
    # C_1 bounds no leaf of the book, so leaf 1 has no wall there to follow
    with pytest.raises(NotABoundary, match=r"^1\.0 is not a boundary of leaf 1$"):
        glued_return_leaf(books["annulus_two_disks"], 1.0, 1)


def test_glued_return_leaf_refuses_a_chain_that_does_not_exit():
    # leaf 1 leads to disk 2, and disks 2 and 3 then lead to each other, never
    # back outside C_2; two leaves map to 2, so validation refuses the book
    book = BilliardBook(
        ConfocalFamily(9, 4),
        (annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)),
        (GluingPermutation(2.0, {1: 2, 2: 3, 3: 2}),),
    )
    assert [v.code for v in validate_book(book)] == ["NotBijective"]
    with pytest.raises(BookError, match=r"^gluing chain at 2\.0 does not exit$"):
        glued_return_leaf(book, 2.0, 1)
