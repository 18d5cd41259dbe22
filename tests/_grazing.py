"""Test oracle: grazing continuity across a glued ellipse.

Whether a flow that grazes a glued ellipse from outside comes back to its
own leaf depends only on the gluing chain.  ``pass_through_return`` reads
the answer from ``dynamics.glued_return_leaf``; ``grazing_probe_exits``
witnesses it numerically, by stepping near-tangent rays launched just
inside the ellipse until each re-emerges outside it.
"""

from __future__ import annotations

import math

from billiard_books.book import BilliardBook, EventSide, _same, boundary_side
from billiard_books.conics import inward_normal
from billiard_books.dynamics import PhaseState, glued_return_leaf, step
from billiard_books.topology import TopologyError

# how far inside the ellipse, in units of sqrt(a), a grazing probe starts
_PROBE_DEPTH = 1e-7


class NoInnerLeaf(TopologyError):
    """The outer leaf is not glued across the ellipse; grazing is trivially
    continuous there."""


def pass_through_return(
    book: BilliardBook, ellipse_param: float, outer_leaf: int
) -> tuple[int, bool]:
    """Exit leaf of the gluing chain entered from ``outer_leaf`` and whether
    it returns there (the grazing-limit continuity test)."""
    if boundary_side(book.leaf(outer_leaf), ellipse_param) is not EventSide.FROM_OUTSIDE:
        raise TopologyError(f"leaf {outer_leaf} does not lie outside C_{ellipse_param}")
    ret = glued_return_leaf(book, ellipse_param, outer_leaf)
    if ret is None:
        raise NoInnerLeaf(
            f"leaf {outer_leaf} is not glued across C_{ellipse_param}"
        )
    return ret, ret == outer_leaf


def grazing_probe_exits(
    book: BilliardBook,
    ellipse_param: float,
    outer_leaf: int,
    n_probes: int = 16,
) -> list[int]:
    """Numerically witness the gluing chain: launch near-tangent rays just
    inside the ellipse at ``n_probes`` points and record the leaf each one
    re-emerges on."""
    fam = book.family
    g = book.gluing_for(ellipse_param)
    if g is None or outer_leaf not in g.mapping:
        raise NoInnerLeaf(f"leaf {outer_leaf} is not glued across C_{ellipse_param}")
    entry = g.image(outer_leaf)
    sx = math.sqrt(fam.a - ellipse_param)
    sy = math.sqrt(fam.b - ellipse_param)
    depth = _PROBE_DEPTH * math.sqrt(fam.a)
    exits: list[int] = []
    for i in range(n_probes):
        th = 2.0 * math.pi * (i + 0.4) / n_probes
        px, py = fam.ellipse_point(ellipse_param, th)
        tx, ty = -sx * math.sin(th), sy * math.cos(th)
        tn = math.hypot(tx, ty)
        tx, ty = tx / tn, ty / tn
        nx, ny = inward_normal(fam, ellipse_param, px, py)
        state = PhaseState(px + depth * nx, py + depth * ny, tx, ty, entry)
        exit_leaf = None
        for _ in range(4 * len(g.mapping) + 8):
            state, ev = step(book, state)
            if not _same(ev.ellipse, ellipse_param):
                break  # wandered off the grazing band; should not happen
            if boundary_side(book.leaf(ev.leaf_after), ellipse_param) is EventSide.FROM_OUTSIDE:
                exit_leaf = ev.leaf_after
                break
        if exit_leaf is None:
            raise TopologyError(f"grazing probe {i} at C_{ellipse_param} did not exit")
        exits.append(exit_leaf)
    return exits
