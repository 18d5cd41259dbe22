"""Reference vertex map: the chord rule computed one vertex at a time.

``topology`` reads every event and next vertex from one table built in a
single pass over the leaf boundaries (``_vertex_table``).  The reference
below computes each vertex's event and successor when the walk reaches it,
from ``transition``, ``book.leaf`` and ``boundary_side``, and reads the
seeds of each band afresh, as ``enumerate_regimes`` and
``axis_bounce_circles`` did before the table.  Both must give equal
results.
"""

from __future__ import annotations

from functools import partial

from billiard_books import topology
from billiard_books.book import Side, _walk_cycles, boundary_side
from billiard_books.book import EventSide, Rule, transition
from billiard_books.topology import CriticalCircle, RegimeDescriptor, RegimeState, TopologyError


def reflection_states(book, lam: float) -> list[RegimeState]:
    """Reflection states, both signs of each reflection class, that can
    occur at caustic lam.  An elliptic caustic reaches an ellipse only when
    it lies strictly inside it."""
    hyper = lam > book.family.b
    out: list[RegimeState] = []
    for lf in book.leaves:
        for e in lf.boundary_params():
            if hyper or e < lam:
                rule, side, after = transition(book, lf.id, e)
                if rule is not Rule.R3:
                    out.extend(RegimeState(e, side, lf.id, after, sign) for sign in (1, -1))
    return out


def vertex_step(book, lam: float, vertex: tuple) -> tuple[tuple, RegimeState]:
    """The vertex after ``vertex`` = (leaf, ellipse, sign) at caustic lam,
    and the event met there: from a hole to the outer ellipse; from the
    outer ellipse to the hole when the caustic reaches it and back to the
    outer ellipse otherwise, a hyperbolic sign flipping on that chord."""
    leaf_id, e, sign = vertex
    rule, side, image = transition(book, leaf_id, e)
    event = RegimeState(e, side, leaf_id, image, 0 if rule is Rule.R3 else sign)
    leaf = book.leaf(image)
    if boundary_side(leaf, e) is Side.OUTSIDE:
        return (image, leaf.outer, sign), event
    if leaf.inner is not None and leaf.inner < lam:
        return (image, leaf.inner, sign), event
    return (image, leaf.outer, -sign if lam > book.family.b else sign), event


def reference_regimes(book, lam: float) -> list[RegimeDescriptor]:
    """``enumerate_regimes`` at a regular lam, walked one vertex at a time."""
    levels = topology.critical_levels(book)
    below = max(lv for lv in levels if lv < lam)
    above = min(lv for lv in levels if lv > lam)
    walks = _walk_cycles(
        [(s.leaf_before, s.ellipse, s.sign) for s in reflection_states(book, lam)],
        partial(vertex_step, book, lam),
        TopologyError(f"vertex map at lam={lam} is not a permutation"),
    )
    keyed = []
    for walk in walks:
        cycle = [ev for _, ev in walk]
        if not any(ev.sign for ev in cycle):
            raise TopologyError(f"vertex walk at lam={lam} met no reflection from {walk[0][0]}")
        keys = [s.key() for s in cycle]
        starts = [i for i, s in enumerate(cycle) if s.side is not EventSide.PASS_THROUGH]
        best = min(starts, key=lambda i: keys[i:] + keys[:i])
        states = tuple(cycle[best:] + cycle[:best])
        regime = RegimeDescriptor((below, above), states, orientation=states[0].sign)
        keyed.append((keys[best:] + keys[:best], regime))
    keyed.sort(key=lambda kr: kr[0])
    return [r for _, r in keyed]


def reference_circles(book, axis: str) -> list[CriticalCircle]:
    """``axis_bounce_circles``: the vertex map at lam = a, walked from each
    leaf's vertices in the order a slide from the axis's positive end meets
    them."""
    seeds = []
    for lf in book.leaves:
        if lf.is_disk:
            seeds += [(lf.id, lf.outer, 1), (lf.id, lf.outer, -1)]
        else:
            seeds += [(lf.id, lf.outer, 1), (lf.id, lf.inner, 1)]
            seeds += [(lf.id, lf.inner, -1), (lf.id, lf.outer, -1)]
    walks = _walk_cycles(
        seeds,
        partial(vertex_step, book, book.family.a),
        TopologyError("axis bounce walk is not a permutation"),
    )
    circles = [CriticalCircle(axis, tuple(ev.key() for _, ev in walk if ev.sign)) for walk in walks]
    circles.sort(key=lambda c: sorted(c.reflections))
    return circles
