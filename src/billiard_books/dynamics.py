"""Event-driven billiard motion on a book.

The particle travels along straight chords inside one leaf at a time.  At a
boundary ellipse it either reflects on the same leaf (unglued wall), reflects
onto the image leaf when both leaves sit on the same side of the ellipse, or
crosses straight onto the image leaf when they sit on opposite sides.  The
caustic parameter is conserved by all three transitions.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from .book import TIE_TOL, BilliardBook, BookError, EventSide, NotABoundary, Rule
from .book import _same, boundary_side, invert_gluings
from .conics import (
    ON_CONIC_TOL,
    T_MIN,
    PointNotOnConic,
    caustic_parameter,
    project_to_conic,
    ray_conic_coefficients,  # noqa: F401  perfbench hooks them here
    ray_intersections,  # noqa: F401  perfbench hooks them here
    reflect,
)

log = logging.getLogger(__name__)

MAX_EVENTS_DEFAULT = 10_000
_CONTAINS_TOL = 1e-9  # conic residual by which a point may lie outside its leaf
UNIT_SPEED_TOL = 1e-9  # |v| - 1 by which a start velocity may miss unit length


class DynamicsError(Exception):
    pass


class TangentialHit(DynamicsError):
    """A chord grazing C_ellipse at (x, y), t along it; ``state`` is the
    kernel's state before it (the start, or the state after its last event)."""

    def __init__(self, ellipse: float, x: float, y: float, t: float, state=None):
        super().__init__(f"tangential hit on C_{ellipse} at ({x:.6g}, {y:.6g})")
        self.ellipse = ellipse
        self.x = x
        self.y = y
        self.t = t
        self.state = state


class EscapedLeaf(DynamicsError):
    pass


STATUS_OK = "ok"
STATUS_SINGULAR = "SingularLevelHit"


class PhaseState(NamedTuple):
    x: float
    y: float
    vx: float
    vy: float
    leaf_id: int


class TrajectoryEvent(NamedTuple):
    x: float
    y: float
    ellipse: float
    side: EventSide
    rule: Rule
    leaf_before: int
    leaf_after: int
    vx: float  # post-event velocity
    vy: float

    @property
    def is_reflection(self) -> bool:
        return self.side is not EventSide.PASS_THROUGH


@dataclass
class Trajectory:
    initial: PhaseState
    events: list[TrajectoryEvent]
    final: PhaseState
    caustic: float
    caustic_drift: float
    status: str = STATUS_OK


def glued_return_leaf(
    book: BilliardBook, ellipse_param: float, outer_leaf_id: int
) -> int | None:
    """Follow the gluing chain entered from ``outer_leaf_id``, a leaf lying
    outside the ellipse, across the ellipse until it re-emerges on a leaf
    outside the ellipse.

    Returns the exit leaf id, or None when the outer leaf is not glued there
    (no inner sheet to traverse).  Each link is the leaf after at that leaf's
    wall on the ellipse in ``book._walls`` (NotABoundary when it has none):
    the combinatorial core of the grazing-limit continuity test.  Raises
    BookError when the chain never leads back outside the ellipse, as on a
    gluing that is not a permutation (which ``validate_book`` refuses).
    """
    walls, cur = book._walls[0], outer_leaf_id
    for k in range(len(book.leaves) + 1):
        for e, _, _, _, _, leaf_after, _, _ in walls[cur]:
            if _same(e, ellipse_param):
                break
        else:
            raise NotABoundary(f"{ellipse_param} is not a boundary of leaf {cur}")
        if k == 0 and leaf_after == outer_leaf_id:
            return None
        cur = leaf_after
        if boundary_side(book.leaf(cur), ellipse_param) is EventSide.FROM_OUTSIDE:
            return cur
    raise BookError(f"gluing chain at {ellipse_param} does not exit")


def step(book: BilliardBook, state: PhaseState) -> tuple[PhaseState, TrajectoryEvent]:
    """The event kernel's first event from ``state``, which is not checked,
    and the state after it: the nearest hit over every wall of the leaf,
    with the rule of ``BilliardBook._walls`` applied there.

    Raises TangentialHit when that hit grazes (the caller decides whether
    the flow extends), EscapedLeaf when the ray finds no wall, and KeyError
    for a leaf the book does not have."""
    ev = next(_events(book, state))
    return PhaseState(ev.x, ev.y, ev.vx, ev.vy, ev.leaf_after), ev


def _events(book: BilliardBook, state: PhaseState, flowing=False) -> Iterator[TrajectoryEvent]:
    """The event kernel: the events from ``state`` until no wall is hit
    (EscapedLeaf) or a hit grazes, which raises TangentialHit as ``step``
    says or, when ``flowing``, continues or ends the run as ``flow`` says.

    It computes inline, in the same order, what ``ray_intersections``,
    ``ray_conic_coefficients``, ``project_to_conic`` and ``reflect`` do, so
    every float is theirs.  The first event, and one after a grazing
    continuation, scans every wall of the leaf in ``BilliardBook._walls``; a
    later one scans the walls of the next scan that the last hit wall names
    there, which hold the same nearest hit.  Per event, state, nearest hit and
    globals are locals; no assignment names over three targets, so none
    builds a tuple; a wall's roots are t1 then t2 (NaN when absent); a unit
    speed crossing keeps its velocity floats; ``tuple.__new__`` makes events.
    """
    sqrt, hypot, t_min, tie_tol, on_tol = math.sqrt, math.hypot, T_MIN, TIE_TOL, ON_CONIC_TOL
    r3, event, new = Rule.R3, TrajectoryEvent, tuple.__new__
    x, y, vx, vy, leaf_id = state
    walls_of, scans = book._walls
    scan, nan = walls_of[leaf_id], math.nan
    # |B^2 - AC| below this is a tangential hit; it scales as a^3, as the
    # discriminant does (1e-9 * a at a = 9), so a scaled book grazes alike
    graze_tol = 1e-9 * book.family.a * (book.family.a / 9.0) ** 2
    while True:
        vxx, vyy, xvx = vx * vx, vy * vy, x * vx
        yvy, xx, yy = y * vy, x * x, y * y
        bt = None  # the nearest hit: t, its wall, grazing
        for wall in scan:
            e, da, db, _, _, _, _, ends = wall
            # A t^2 + 2 B t + C = 0 for the ray against C_e
            A = vxx * db + vyy * da
            B = xvx * db + yvy * da
            C = xx * db + yy * da - da * db
            disc = B * B - A * C
            grazing = -graze_tol < disc < graze_tol  # abs(disc) < graze_tol, NaN too
            if grazing:
                # the double root may be lost to rounding, so rebuild it
                t1 = -B / A if A != 0.0 else nan
                t2 = nan
            elif disc < 0.0:
                continue
            else:
                # the cancellation-free two-root form
                s = sqrt(disc)
                q = -(B + s) if B >= 0.0 else -(B - s)
                if q == 0.0:
                    continue  # its one root, q / A, is 0: no hit ahead
                t1 = q / A if A != 0.0 else nan
                t2 = C / q
            if t1 > t_min:  # a NaN root is no hit either
                if bt is None or t1 < bt - tie_tol:
                    bt, bw, bg = t1, wall, grazing
                elif abs(t1 - bt) <= tie_tol and e < bw[0]:
                    log.warning("boundary tie at t=%.3e; taking smaller ellipse %s", t1, e)
                    bt, bw, bg = t1, wall, grazing
            if t2 > t_min:
                if bt is None or t2 < bt - tie_tol:
                    bt, bw, bg = t2, wall, grazing
                elif abs(t2 - bt) <= tie_tol and e < bw[0]:
                    log.warning("boundary tie at t=%.3e; taking smaller ellipse %s", t2, e)
                    bt, bw, bg = t2, wall, grazing
            if ends and bt is not None:
                break
        if bt is None:
            raise EscapedLeaf(f"ray from ({x:.6g}, {y:.6g}) on leaf {leaf_id} hits no boundary")
        be, bda, bdb, rule, event_side, leaf_after, after, _ = bw
        scan = scans[after]
        hx = x + bt * vx
        hy = y + bt * vy
        if bg:
            if not flowing:
                raise TangentialHit(be, hx, hy, bt, PhaseState(x, y, vx, vy, leaf_id))
            if be == book.leaf(leaf_id).outer:
                return  # grazing its own outer wall, the flow would leave the leaf
            ret = glued_return_leaf(book, be, leaf_id)
            if ret is not None and ret != leaf_id:
                return  # a singular level
            # straight on, recorded as a crossing; the next event scans every wall
            x, y = project_to_conic(book.family, be, hx, hy)
            scan = walls_of[leaf_id]
            yield new(event, (x, y, be, EventSide.PASS_THROUGH, r3, leaf_id, leaf_id, vx, vy))
            continue
        # radial rescale onto C_e
        q = hx * hx / bda + hy * hy / bdb
        if not q <= 0.0:
            s = 1.0 / sqrt(q)
            hx, hy = hx * s, hy * s

        if rule is r3:
            n = hypot(vx, vy)
            if n != 1.0:  # v / 1.0 is v: keep the same float objects
                vx, vy = vx / n, vy / n
        else:
            # mirror across the tangent of C_e: normal component negated
            res = hx * hx / bda + hy * hy / bdb - 1.0
            if res > on_tol or res < -on_tol:  # abs(res) > ON_CONIC_TOL, NaN too
                raise PointNotOnConic(f"residual {res:.3e} at ({hx}, {hy}) on C_{be}")
            nx = hx / bda
            ny = hy / bdb
            n = hypot(nx, ny)
            nx, ny = -nx / n, -ny / n
            d = vx * nx + vy * ny
            wx = vx - 2.0 * d * nx
            wy = vy - 2.0 * d * ny
            n = hypot(wx, wy)
            vx, vy = wx / n, wy / n
        yield new(event, (hx, hy, be, event_side, rule, leaf_id, leaf_after, vx, vy))
        x, y, leaf_id = hx, hy, leaf_after


def flow(book: BilliardBook, state: PhaseState) -> Iterator[TrajectoryEvent]:
    """The boundary events of the flow from ``state``: the event kernel's
    own generator, one event at a time.

    The state after an event is (x, y, vx, vy, leaf_after) of that event.  A
    grazing hit on a glued ellipse continues straight, recorded as a
    crossing at the hit projected onto the ellipse, with the velocity and
    leaf it had, when the gluing chain returns to the same leaf; otherwise
    the flow has reached a singular level and the iterator ends.  A grazing
    hit on the leaf's own outer ellipse always ends it: straight on, the
    flow would leave the leaf.  A start with a non-finite coordinate or a
    velocity off unit length by more than UNIT_SPEED_TOL raises
    DynamicsError, and a start outside its leaf, or on a leaf the book does
    not have, raises EscapedLeaf, here, before any event is asked for.
    """
    x, y, vx, vy, leaf_id = state
    if not all(map(math.isfinite, (x, y, vx, vy))):
        raise DynamicsError(f"start state ({x}, {y}, {vx}, {vy}) is not finite")
    if abs(math.hypot(vx, vy) - 1.0) > UNIT_SPEED_TOL:
        raise DynamicsError(f"start velocity ({vx:.6g}, {vy:.6g}) is not a unit vector")
    leaf = book._by_id.get(leaf_id)
    fam = book.family
    if (
        leaf is None
        or fam.conic_residual(leaf.outer, x, y) > _CONTAINS_TOL
        or leaf.inner is not None and fam.conic_residual(leaf.inner, x, y) < -_CONTAINS_TOL
    ):
        raise EscapedLeaf(f"initial position ({x:.6g}, {y:.6g}) is not in leaf {leaf_id}")
    return _events(book, state, True)


def simulate(
    book: BilliardBook, state: PhaseState, max_events: int = MAX_EVENTS_DEFAULT
) -> Trajectory:
    """The first ``max_events`` events of ``flow(book, state)``.

    The status is SingularLevelHit exactly when the flow ended on a
    singular level before ``max_events`` events; ``final`` is the state
    after the last event, or ``state`` when there is none.  The drift, the
    largest |caustic_parameter(event) - caustic| or 0.0, is computed inline.
    Raises ValueError, before any event, for a ``max_events`` above sys.maxsize.
    """
    if max_events > sys.maxsize:
        raise ValueError(f"max_events must be at most {sys.maxsize}, got {max_events}")
    fam = book.family
    events_from = flow(book, state)
    caustic0 = caustic_parameter(fam, state.x, state.y, state.vx, state.vy)
    events = list(islice(events_from, max(max_events, 0)))
    a, b = fam.a, fam.b
    drift = 0.0
    for x, y, _, _, _, _, _, vx, vy in events:  # caustic_parameter, inline and in its order
        cross = x * vy - y * vx
        d = abs(a * vy * vy + b * vx * vx - cross * cross - caustic0)
        drift = d if d > drift else drift  # a NaN d is skipped, as by max(drift, d)
    final = state
    if events:
        last = events[-1]
        final = PhaseState(last.x, last.y, last.vx, last.vy, last.leaf_after)
    status = STATUS_SINGULAR if len(events) < max_events else STATUS_OK
    return Trajectory(state, events, final, caustic0, drift, status)


def time_reversed_start(book: BilliardBook, traj: Trajectory) -> PhaseState:
    """State launching the time reversal of a trajectory.

    The final state sits on a boundary just after its event, so the reversal
    starts from the same point with the reversed pre-event velocity, on the
    leaf the particle arrived from; it then retraces the last chord.
    """
    if not traj.events:
        return traj.initial._replace(vx=-traj.initial.vx, vy=-traj.initial.vy)
    last = traj.events[-1]
    if last.rule is Rule.R3:
        ux, uy = last.vx, last.vy
    else:
        ux, uy = reflect(book.family, last.ellipse, last.x, last.y, last.vx, last.vy)
    return PhaseState(last.x, last.y, -ux, -uy, last.leaf_before)


def reverse(book: BilliardBook, traj: Trajectory) -> Trajectory:
    """Time-reverse a trajectory by simulating on the book with inverted
    gluings from the reversed final state.

    The reversed run emits one event fewer than the forward one (the forward
    initial point is interior, not an event); its hit points retrace the
    forward ones in reverse order.
    """
    if traj.status != STATUS_OK:
        raise DynamicsError("cannot reverse a trajectory that ended on a singular level")
    inv = invert_gluings(book)
    start = time_reversed_start(book, traj)
    return simulate(inv, start, max_events=max(len(traj.events) - 1, 0))


def trace_to_game(traj: Trajectory) -> list[tuple[float, EventSide]]:
    """Reflection sequence (ellipse, side) of a trajectory; crossings are not
    game reflections and are dropped."""
    return [(ev.ellipse, ev.side) for ev in traj.events if ev.is_reflection]


# ---------------------------------------------------------------------------
# CSV emission: one row per event
# ---------------------------------------------------------------------------

CSV_HEADER = [
    "event_index",
    "leaf_before",
    "leaf_after",
    "ellipse",
    "rule",
    "side",
    "x",
    "y",
    "vx",
    "vy",
]


def trajectory_csv(traj: Trajectory) -> str:
    """One header line and one line per event, each ended by "\n".

    No field is quoted: each is an int, a float ``repr`` or an enum value,
    none of which holds a comma, a quote or a line break.  A velocity that
    is the same two objects as the row before's reuses its text.
    """
    rows = [",".join(CSV_HEADER)]
    append, pvx, pvy = rows.append, None, None
    for i, (x, y, e, side, rule, before, after, vx, vy) in enumerate(traj.events):
        if vx is not pvx or vy is not pvy:
            pvx, pvy, v = vx, vy, f"{vx!r},{vy!r}"
        append(f"{i},{before},{after},{e!r},{rule._value_},{side._value_},{x!r},{y!r},{v}")
    append("")
    return "\n".join(rows)


def save_trajectory_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(trajectory_csv(traj))
