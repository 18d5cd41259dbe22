"""SVG rendering of books and trajectories.

Every outline is a native SVG ellipse: a leaf's boundary, its hole (drawn in
white) and, on request, the trajectory's elliptic caustic.  Side-by-side
layout draws every leaf in its own panel and splits the trajectory into
per-leaf chords; overlay mode stacks everything in one frame.  Either layout
can show the caustic, once in every panel.  Output is plain SVG text,
deterministic for fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .book import BilliardBook
from .dynamics import Trajectory

MAX_LEAVES = 64
_STROKE = 0.03  # outline width
_MARGIN = 0.4  # space around and between panels


@dataclass(frozen=True)
class RenderSpec:
    layout: str = "side-by-side"  # or "overlay"
    show_caustic: bool = False

    def __post_init__(self) -> None:
        if self.layout not in ("side-by-side", "overlay"):
            raise ValueError(f"unknown layout {self.layout!r}")


_LEAF = 'fill="#dfe7f1" stroke="#30435f"'
_HOLE = 'fill="#ffffff" stroke="#7c8aa5"'
_CAUSTIC = 'fill="none" stroke="#b04a4a" stroke-dasharray="0.15,0.1"'


def _ellipse(book: BilliardBook, e: float, ox: float, oy: float, paint: str) -> str:
    """The confocal ellipse of parameter ``e``, centred at (ox, oy)."""
    sx, sy = book.family.semi_axes(e)
    return (
        f'<ellipse cx="{ox:.6g}" cy="{oy:.6g}" rx="{sx:.6g}" ry="{sy:.6g}" {paint} '
        f'stroke-width="{_STROKE:.6g}"/>'
    )


def _refuse_oversized(book: BilliardBook) -> None:
    """Raise ValueError if the book has more leaves than a rendering draws."""
    if len(book.leaves) > MAX_LEAVES:
        raise ValueError(f"too many leaves to render ({len(book.leaves)} > {MAX_LEAVES})")


def trajectory_svg(
    book: BilliardBook, traj: Trajectory | None = None, spec: RenderSpec = RenderSpec()
) -> str:
    """Render the book's leaves and, optionally, a trajectory over them."""
    _refuse_oversized(book)
    fam = book.family
    sx0 = math.sqrt(fam.a)
    sy0 = math.sqrt(fam.b)
    pitch = 2.0 * sx0 + 2.0 * _MARGIN
    leaves = sorted(book.leaves, key=lambda lf: lf.id)
    side_by_side = spec.layout == "side-by-side"
    # leaf id -> offset of the panel it is drawn in; overlay has one panel
    offsets = {lf.id: (i * pitch if side_by_side else 0.0, 0.0) for i, lf in enumerate(leaves)}
    panels = list(dict.fromkeys(offsets.values()))

    body = []
    for lf in leaves:
        body.append(_ellipse(book, lf.outer, *offsets[lf.id], _LEAF))
        if lf.inner is not None:
            body.append(_ellipse(book, lf.inner, *offsets[lf.id], _HOLE))
    labels = [
        f'<text x="{offsets[lf.id][0]:.6g}" y="{sy0 + _MARGIN * 0.75:.6g}" '
        f'font-size="{_MARGIN * 0.6:.6g}" text-anchor="middle" '
        f'fill="#30435f">leaf {lf.id}</text>'
        for lf in leaves if side_by_side
    ]
    if spec.show_caustic and traj is not None and traj.caustic < fam.b:
        body += [_ellipse(book, traj.caustic, ox, oy, _CAUSTIC) for ox, oy in panels]
    if traj is not None:
        # one chord per event, drawn on the leaf it runs in
        chord = (
            '<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g" '
            f'stroke="#1d1d1d" stroke-width="{_STROKE * 1.3:.6g}"/>'
        )
        x, y, leaf_id = traj.initial.x, traj.initial.y, traj.initial.leaf_id
        for ev in traj.events:
            ox, oy = offsets[leaf_id]
            body.append(chord % (ox + x, oy + y, ox + ev.x, oy + ev.y))
            x, y, leaf_id = ev.x, ev.y, ev.leaf_after

    width = pitch * len(panels)
    x_lo = -sx0 - _MARGIN
    height = 2.0 * (sy0 + _MARGIN)
    view = f"{x_lo:.6g} {-sy0 - _MARGIN:.6g} {width:.6g} {height:.6g}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" width="{width * 40:.6g}" '
        f'height="{height * 40:.6g}">',
        '<g transform="scale(1,-1)">',  # mathematical orientation, y upward
        *body,
        "</g>",
        *labels,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def save_svg(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
