"""Reference flow: one ``step`` call per event.

``dynamics.flow`` is the event kernel's own generator: it keeps the state
from one event to the next in locals, scans only the walls the book's scan
table lists after the last hit wall, and continues a grazing hit itself.
The reference below calls ``step`` once per event, each scanning every wall
of the leaf, and handles a grazing hit from the state it passed to ``step``,
as ``flow`` did before the kernel kept its state.  Both must make equal
events.
"""

from __future__ import annotations

from typing import Iterator

from billiard_books.conics import project_to_conic
from billiard_books.dynamics import (
    EventSide,
    PhaseState,
    Rule,
    TangentialHit,
    TrajectoryEvent,
    glued_return_leaf,
    step,
)


def reference_flow(book, cur: PhaseState) -> Iterator[TrajectoryEvent]:
    """The events of ``flow(book, cur)`` for a start ``flow`` accepts."""
    while True:
        try:
            cur, ev = step(book, cur)
        except TangentialHit as hit:
            if hit.ellipse == book.leaf(cur.leaf_id).outer:
                return  # grazing its own outer wall, the flow would leave the leaf
            ret = glued_return_leaf(book, hit.ellipse, cur.leaf_id)
            if ret is not None and ret != cur.leaf_id:
                return
            hx, hy = project_to_conic(book.family, hit.ellipse, hit.x, hit.y)
            ev = TrajectoryEvent(
                hx,
                hy,
                hit.ellipse,
                EventSide.PASS_THROUGH,
                Rule.R3,
                cur.leaf_id,
                cur.leaf_id,
                cur.vx,
                cur.vy,
            )
            cur = PhaseState(hx, hy, cur.vx, cur.vy, cur.leaf_id)
        yield ev
