"""SVG rendering of books and trajectories.

Side-by-side layout draws every leaf in its own panel (annuli with a white
hole) and splits the trajectory into per-leaf chords; overlay mode stacks
everything in one frame and can show the caustic.  Output is plain SVG text,
deterministic for fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .book import BilliardBook, Leaf
from .dynamics import Trajectory

MAX_LEAVES = 64
_STROKE = 0.03  # outline width
_MARGIN = 0.4  # space around and between panels
_OUTLINE_SAMPLES = 128  # polygon points per ellipse outline


@dataclass(frozen=True)
class RenderSpec:
    layout: str = "side-by-side"  # or "overlay"
    show_caustic: bool = False

    def __post_init__(self) -> None:
        if self.layout not in ("side-by-side", "overlay"):
            raise ValueError(f"unknown layout {self.layout!r}")


# (cos th, sin th) at each outline sample, the last one closing the loop
_UNIT_CIRCLE = tuple(
    (math.cos(th), math.sin(th))
    for th in (2.0 * math.pi * i / _OUTLINE_SAMPLES for i in range(_OUTLINE_SAMPLES + 1))
)
_OUTLINE = "M" + " L".join(["%.6g,%.6g"] * len(_UNIT_CIRCLE)) + " Z"
_STROKE_TAIL = f'stroke-width="{_STROKE:.6g}"/>'


def _ellipse_path(sx: float, sy: float, ox: float, oy: float) -> str:
    return _OUTLINE % tuple(v for c, s in _UNIT_CIRCLE for v in (ox + sx * c, oy + sy * s))


def _leaf_paths(book: BilliardBook, leaf: Leaf, ox: float, oy: float) -> str:
    fam = book.family
    sx, sy = fam.semi_axes(leaf.outer)
    outer = _ellipse_path(sx, sy, ox, oy)
    parts = [f'<path d="{outer}" fill="#dfe7f1" stroke="#30435f" {_STROKE_TAIL}']
    if leaf.inner is not None:
        ix, iy = fam.semi_axes(leaf.inner)
        inner = _ellipse_path(ix, iy, ox, oy)
        parts.append(f'<path d="{inner}" fill="#ffffff" stroke="#7c8aa5" {_STROKE_TAIL}')
    return "\n".join(parts)


def trajectory_svg(
    book: BilliardBook, traj: Trajectory | None = None, spec: RenderSpec = RenderSpec()
) -> str:
    """Render the book's leaves and, optionally, a trajectory over them."""
    if len(book.leaves) > MAX_LEAVES:
        raise ValueError(f"too many leaves to render ({len(book.leaves)} > {MAX_LEAVES})")
    fam = book.family
    sx0 = math.sqrt(fam.a)
    sy0 = math.sqrt(fam.b)
    pitch = 2.0 * sx0 + 2.0 * _MARGIN
    leaves = sorted(book.leaves, key=lambda lf: lf.id)
    side_by_side = spec.layout == "side-by-side"
    # leaf id -> offset of the panel it is drawn in; overlay has one panel
    offsets = {lf.id: (i * pitch if side_by_side else 0.0, 0.0) for i, lf in enumerate(leaves)}
    panels = list(dict.fromkeys(offsets.values()))

    body = [_leaf_paths(book, lf, *offsets[lf.id]) for lf in leaves]
    labels = [
        f'<text x="{offsets[lf.id][0]:.6g}" y="{sy0 + _MARGIN * 0.75:.6g}" '
        f'font-size="{_MARGIN * 0.6:.6g}" text-anchor="middle" '
        f'fill="#30435f">leaf {lf.id}</text>'
        for lf in leaves if side_by_side
    ]
    if spec.show_caustic and traj is not None and traj.caustic < fam.b:
        cx, cy = fam.semi_axes(traj.caustic)
        body += [
            f'<path d="{_ellipse_path(cx, cy, ox, oy)}" fill="none" '
            f'stroke="#b04a4a" stroke-dasharray="0.15,0.1" {_STROKE_TAIL}'
            for ox, oy in panels
        ]
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
