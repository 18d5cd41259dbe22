"""Test oracle: regimes found by stepping a sampled witness phase point.

This is the regime enumerator the library used before its symbolic transfer
map.  Each reflection state at lam gets a witness phase point on its
ellipse, and ``dynamics.step`` advances it a reflection at a time until the
seed state comes back.  It shares only the seed list (read by
``_vertex_reference.reflection_states`` as the library's vertex table reads
it) and ``dynamics.transition`` (inside ``step``) with the symbolic map, so
agreement between the two is evidence that the symbolic map follows the
dynamics.
"""

from __future__ import annotations

import math

from billiard_books import topology
from billiard_books.conics import directions_with_caustic, inward_normal, winding_sign
from billiard_books.dynamics import EventSide, PhaseState, Rule, TangentialHit, step
from billiard_books.topology import RegimeDescriptor, RegimeState, TopologyError

from _vertex_reference import reflection_states

_WITNESS_ANGLES = (0.9, 2.2, 4.0, 5.3, 1.5, 3.3, 0.3, 2.8, 4.7, 5.9)
_WITNESS_FRACTIONS = (0.35, -0.45, 0.7, -0.15, 0.55, -0.75, 0.1, -0.6, 0.85, -0.3)


def witness_state(book, lam: float, state: RegimeState) -> PhaseState | None:
    """Phase point realizing a post-reflection state, or None when no
    sampled boundary point admits one."""
    fam = book.family
    hyper = lam > fam.b
    e = state.ellipse
    want_inward = state.side is EventSide.FROM_INSIDE
    points: list[tuple[float, float]] = []
    if hyper:
        x_cap = 0.92 * min(math.sqrt(fam.a - lam), math.sqrt(fam.a - e))
        for u in _WITNESS_FRACTIONS:
            px = u * x_cap
            inner = 1.0 - px * px / (fam.a - e)
            if inner > 1e-9:
                points.append((px, state.sign * math.sqrt((fam.b - e) * inner)))
    else:
        points = [fam.ellipse_point(e, th) for th in _WITNESS_ANGLES]
    for px, py in points:
        nx, ny = inward_normal(fam, e, px, py)
        for vx, vy in directions_with_caustic(fam, px, py, lam):
            d = vx * nx + vy * ny
            if abs(d) < 1e-6 or (d > 0.0) is not want_inward:
                continue
            if not hyper and winding_sign(px, py, vx, vy) != state.sign:
                continue
            return PhaseState(px, py, vx, vy, state.leaf_after)
    return None


def _sign(book, lam: float, state: PhaseState) -> int:
    if lam > book.family.b:
        return 1 if state.y >= 0.0 else -1
    return winding_sign(state.x, state.y, state.vx, state.vy)


def stepped_transfer(book, lam: float, state: PhaseState):
    """Advance a post-reflection witness to its next reflection: (next
    reflection state, crossings passed, the witness after it)."""
    crossings: list[RegimeState] = []
    cur = state
    for _ in range(200):
        cur, ev = step(book, cur)
        if ev.rule is Rule.R3:
            crossings.append(
                RegimeState(ev.ellipse, EventSide.PASS_THROUGH, ev.leaf_before, ev.leaf_after, 0)
            )
            continue
        sign = _sign(book, lam, cur)
        return RegimeState(ev.ellipse, ev.side, ev.leaf_before, ev.leaf_after, sign), crossings, cur
    raise TopologyError("no reflection reached within 200 events")


def stepped_regimes(book, lam: float) -> list[tuple[RegimeDescriptor, PhaseState]]:
    """Each regime at a regular lam with the witness of its first state,
    sorted by regime key.  A seed without a witness is skipped; a walk
    that is not a permutation cycle or grazes raises TopologyError."""
    levels = topology.critical_levels(book)
    below = max(lv for lv in levels if lv < lam)
    above = min(lv for lv in levels if lv > lam)
    seeds = reflection_states(book, lam)
    assigned: set[tuple] = set()
    found: list[tuple[RegimeDescriptor, PhaseState]] = []
    for seed in seeds:
        if seed.key() in assigned:
            continue
        w = witness_state(book, lam, seed)
        if w is None:
            continue
        walk: list[tuple[RegimeState, PhaseState, list[RegimeState]]] = []
        cur = seed
        while not walk or cur.key() != seed.key():
            if cur.key() in assigned or len(walk) == len(seeds):
                raise TopologyError(f"transfer map at lam={lam} is not a permutation")
            try:
                nxt, passed, nw = stepped_transfer(book, lam, w)
            except TangentialHit as exc:
                raise TopologyError(f"transfer at lam={lam} grazed a boundary: {exc}") from exc
            walk.append((cur, w, passed))
            cur, w = nxt, nw
        chunks = [(st, *passed) for st, _, passed in walk]

        def rotation(start: int) -> tuple[RegimeState, ...]:
            return tuple(s for chunk in chunks[start:] + chunks[:start] for s in chunk)

        best = min(range(len(chunks)), key=lambda i: tuple(s.key() for s in rotation(i)))
        states = rotation(best)
        found.append((RegimeDescriptor((below, above), states, states[0].sign), walk[best][1]))
        assigned.update(st.key() for st, _, _ in walk)
    found.sort(key=lambda rw: rw[0].key())
    return found
