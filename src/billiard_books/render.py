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


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ellipse_path(sx: float, sy: float, ox: float, oy: float) -> str:
    pts = []
    for i in range(_OUTLINE_SAMPLES + 1):
        th = 2.0 * math.pi * i / _OUTLINE_SAMPLES
        pts.append(f"{_fmt(ox + sx * math.cos(th))},{_fmt(oy + sy * math.sin(th))}")
    return "M" + " L".join(pts) + " Z"


def _leaf_paths(book: BilliardBook, leaf: Leaf, ox: float, oy: float) -> str:
    fam = book.family
    sx, sy = fam.semi_axes(leaf.outer)
    outer = _ellipse_path(sx, sy, ox, oy)
    fill = "#dfe7f1"
    parts = [
        f'<path d="{outer}" fill="{fill}" stroke="#30435f" stroke-width="{_fmt(_STROKE)}"/>'
    ]
    if leaf.inner is not None:
        ix, iy = fam.semi_axes(leaf.inner)
        inner = _ellipse_path(ix, iy, ox, oy)
        parts.append(
            f'<path d="{inner}" fill="#ffffff" stroke="#7c8aa5" stroke-width="{_fmt(_STROKE)}"/>'
        )
    return "\n".join(parts)


def _segments_by_leaf(traj: Trajectory) -> list[tuple[int, float, float, float, float]]:
    """Chords of the trajectory as (leaf_id, x0, y0, x1, y1)."""
    segs = []
    x, y, leaf = traj.initial.x, traj.initial.y, traj.initial.leaf_id
    for ev in traj.events:
        segs.append((leaf, x, y, ev.x, ev.y))
        x, y, leaf = ev.x, ev.y, ev.leaf_after
    return segs


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
    offsets: dict[int, tuple[float, float]] = {}
    for i, lf in enumerate(leaves):
        offsets[lf.id] = ((i * pitch, 0.0) if spec.layout == "side-by-side" else (0.0, 0.0))

    body = []
    labels = []
    for lf in leaves:
        ox, oy = offsets[lf.id]
        body.append(_leaf_paths(book, lf, ox, oy))
        if spec.layout == "side-by-side":
            labels.append(
                f'<text x="{_fmt(ox)}" y="{_fmt(sy0 + _MARGIN * 0.75)}" '
                f'font-size="{_fmt(_MARGIN * 0.6)}" text-anchor="middle" '
                f'fill="#30435f">leaf {lf.id}</text>'
            )
    if spec.show_caustic and traj is not None and traj.caustic < fam.b:
        cx, cy = fam.semi_axes(traj.caustic)
        for lf in leaves if spec.layout == "side-by-side" else leaves[:1]:
            ox, oy = offsets[lf.id]
            body.append(
                f'<path d="{_ellipse_path(cx, cy, ox, oy)}" fill="none" '
                f'stroke="#b04a4a" stroke-dasharray="0.15,0.1" '
                f'stroke-width="{_fmt(_STROKE)}"/>'
            )
    if traj is not None:
        for leaf_id, x0, y0, x1, y1 in _segments_by_leaf(traj):
            ox, oy = offsets[leaf_id]
            body.append(
                f'<line x1="{_fmt(ox + x0)}" y1="{_fmt(oy + y0)}" '
                f'x2="{_fmt(ox + x1)}" y2="{_fmt(oy + y1)}" '
                f'stroke="#1d1d1d" stroke-width="{_fmt(_STROKE * 1.3)}"/>'
            )

    width = pitch * len(leaves) if spec.layout == "side-by-side" else pitch
    x_lo = -sx0 - _MARGIN
    height = 2.0 * (sy0 + _MARGIN)
    view = f"{_fmt(x_lo)} {_fmt(-sy0 - _MARGIN)} {_fmt(width)} {_fmt(height)}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" width="{_fmt(width * 40)}" '
        f'height="{_fmt(height * 40)}">',
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
