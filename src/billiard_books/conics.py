"""Geometry of a confocal family of conics.

Everything here is scalar float geometry for the family

    x^2/(a - lam) + y^2/(b - lam) = 1,        a > b > 0,

whose members are ellipses for lam < b, hyperbolae for b < lam < a and
degenerate segments for lam in {b, a}.  The module provides classification,
line/conic intersection, the standard reflection law, and the tangency
invariant that is conserved by billiard motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Default tolerances.  The confocal equation is dimensionless once written as
# x^2/(a-lam) + y^2/(b-lam) - 1, so residual tolerances are absolute.
ON_CONIC_TOL = 1e-9
TANGENCY_TOL = 1e-9
T_MIN = 1e-10  # minimal ray parameter used to escape the current boundary point


class ConicGeometryError(Exception):
    """Base class for geometry errors."""


class EmptyConic(ConicGeometryError):
    """Raised when lam > a, where the confocal equation has no real points."""


class DegenerateConic(ConicGeometryError):
    """Raised for operations undefined at lam = a or lam = b."""


class PointNotOnConic(ConicGeometryError):
    """Raised when a point required to sit on a conic is too far from it."""


class ConicKind(Enum):
    ELLIPSE = "Ellipse"
    HYPERBOLA = "Hyperbola"
    DEGENERATE_FOCAL_SEGMENT = "DegenerateFocalSegment"
    DEGENERATE_MINOR_AXIS = "DegenerateMinorAxis"


@dataclass(frozen=True)
class ConfocalFamily:
    """Squared semi-axes (a, b) of the base ellipse; all lengths squared."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > self.b > 0.0):
            raise ValueError(f"require finite a > b > 0, got a={self.a}, b={self.b}")

    @property
    def focal_half_distance(self) -> float:
        return math.sqrt(self.a - self.b)

    def semi_axes(self, lam: float) -> tuple[float, float]:
        """Semi-axes of the ellipse C_lam (lam < b)."""
        if lam >= self.b:
            raise DegenerateConic(f"lam={lam} is not an ellipse parameter")
        return math.sqrt(self.a - lam), math.sqrt(self.b - lam)

    def ellipse_point(self, lam: float, theta: float) -> tuple[float, float]:
        """Point on C_lam at eccentric angle theta."""
        sx, sy = self.semi_axes(lam)
        return sx * math.cos(theta), sy * math.sin(theta)

    def conic_residual(self, lam: float, x: float, y: float) -> float:
        """x^2/(a-lam) + y^2/(b-lam) - 1; zero on C_lam."""
        return x * x / (self.a - lam) + y * y / (self.b - lam) - 1.0


@dataclass(frozen=True)
class ConicParam:
    lam: float
    kind: ConicKind


def classify_conic(family: ConfocalFamily, lam: float) -> ConicParam:
    """Classify the member C_lam of the family.

    Raises EmptyConic for lam > a (no real points).
    """
    if lam > family.a:
        raise EmptyConic(f"lam={lam} exceeds a={family.a}")
    if lam == family.a:
        kind = ConicKind.DEGENERATE_MINOR_AXIS
    elif lam == family.b:
        kind = ConicKind.DEGENERATE_FOCAL_SEGMENT
    elif lam < family.b:
        kind = ConicKind.ELLIPSE
    else:
        kind = ConicKind.HYPERBOLA
    return ConicParam(lam, kind)


def caustic_parameter(
    family: ConfocalFamily, px: float, py: float, vx: float, vy: float
) -> float:
    """Confocal parameter of the conic tangent to the line through (px, py)
    with unit direction (vx, vy).

    This is the first integral of billiard motion in the family: reflections
    off any C_mu preserve it.
    """
    cross = px * vy - py * vx
    return family.a * vy * vy + family.b * vx * vx - cross * cross


def ray_conic_coefficients(
    family: ConfocalFamily, lam: float, px: float, py: float, vx: float, vy: float
) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of A t^2 + 2 B t + C = 0 for the ray p + t v
    against C_lam, after clearing denominators of the confocal equation."""
    da = family.a - lam
    db = family.b - lam
    A = vx * vx * db + vy * vy * da
    B = px * vx * db + py * vy * da
    C = px * px * db + py * py * da - da * db
    return A, B, C


def tangency_oracle(
    family: ConfocalFamily, px: float, py: float, vx: float, vy: float, lam: float
) -> float:
    """Discriminant B^2 - AC of the ray/conic quadratic.

    Positive for a secant line (two intersections), ~0 for a tangent line,
    negative for a disjoint one.  Independent of caustic_parameter; used to
    cross-check it.
    """
    if lam == family.a or lam == family.b:
        raise DegenerateConic(f"lam={lam} is degenerate")
    A, B, C = ray_conic_coefficients(family, lam, px, py, vx, vy)
    return B * B - A * C


def ray_intersections(
    family: ConfocalFamily, lam: float, px: float, py: float, vx: float, vy: float
) -> tuple[float, list[float]]:
    """All real ray parameters t with p + t v on C_lam, plus the discriminant.

    Uses the cancellation-free two-root form; roots are returned unsorted.
    """
    A, B, C = ray_conic_coefficients(family, lam, px, py, vx, vy)
    disc = B * B - A * C
    if disc < 0.0:
        return disc, []
    s = math.sqrt(disc)
    q = -(B + s) if B >= 0.0 else -(B - s)
    roots: list[float] = []
    if A != 0.0:
        roots.append(q / A)
    if q != 0.0:
        roots.append(C / q)
    return disc, roots


def next_intersection(
    family: ConfocalFamily,
    px: float,
    py: float,
    vx: float,
    vy: float,
    lam_target: float,
    t_min: float = T_MIN,
) -> tuple[tuple[float, float], float] | None:
    """First forward intersection of the ray p + t v with the ellipse
    C_{lam_target}, skipping t <= t_min.  None when the ray misses."""
    _, roots = ray_intersections(family, lam_target, px, py, vx, vy)
    best = None
    for t in roots:
        if t > t_min and (best is None or t < best):
            best = t
    if best is None:
        return None
    return (px + best * vx, py + best * vy), best


def inward_normal(
    family: ConfocalFamily, lam: float, px: float, py: float
) -> tuple[float, float]:
    """Unit normal at (px, py) on C_lam pointing into the region enclosed by
    the ellipse."""
    nx = px / (family.a - lam)
    ny = py / (family.b - lam)
    n = math.hypot(nx, ny)
    return -nx / n, -ny / n


def reflect(
    family: ConfocalFamily,
    lam_boundary: float,
    px: float,
    py: float,
    vx: float,
    vy: float,
    tol: float = ON_CONIC_TOL,
) -> tuple[float, float]:
    """Billiard reflection of (vx, vy) across the tangent of C_{lam_boundary}
    at (px, py): normal component negated, tangential kept, result unit."""
    res = family.conic_residual(lam_boundary, px, py)
    if abs(res) > tol:
        raise PointNotOnConic(
            f"residual {res:.3e} at ({px}, {py}) on C_{lam_boundary}"
        )
    nx, ny = inward_normal(family, lam_boundary, px, py)
    d = vx * nx + vy * ny
    wx = vx - 2.0 * d * nx
    wy = vy - 2.0 * d * ny
    n = math.hypot(wx, wy)
    return wx / n, wy / n


def project_to_conic(
    family: ConfocalFamily, lam: float, px: float, py: float
) -> tuple[float, float]:
    """Radially rescale (px, py) onto C_lam; used to suppress drift after an
    event has placed a point within float error of the boundary."""
    q = px * px / (family.a - lam) + py * py / (family.b - lam)
    if q <= 0.0:
        return px, py
    s = 1.0 / math.sqrt(q)
    return px * s, py * s


def directions_with_caustic(
    family: ConfocalFamily, px: float, py: float, lam: float
) -> list[tuple[float, float]]:
    """All unit directions v at (px, py) with caustic_parameter == lam.

    There are at most four (two tangent lines through the point, two
    orientations each); the list is sorted by angle for determinism.
    """
    P = family.a - px * px
    Q = family.b - py * py
    R = 2.0 * px * py
    # (P - lam) s^2 + R c s + (Q - lam) c^2 = 0 for v = (c, s).
    dirs: list[tuple[float, float]] = []
    a2 = P - lam
    if abs(a2) < 1e-14:
        dirs.extend([(0.0, 1.0), (0.0, -1.0)])
        if abs(R) > 1e-14:
            m = -(Q - lam) / R
            n = math.hypot(1.0, m)
            dirs.extend([(1.0 / n, m / n), (-1.0 / n, -m / n)])
    else:
        disc = R * R - 4.0 * a2 * (Q - lam)
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        for m in ((-R + s) / (2.0 * a2), (-R - s) / (2.0 * a2)):
            n = math.hypot(1.0, m)
            dirs.extend([(1.0 / n, m / n), (-1.0 / n, -m / n)])
    uniq: list[tuple[float, float]] = []
    for v in dirs:
        if all(math.hypot(v[0] - u[0], v[1] - u[1]) > 1e-9 for u in uniq):
            uniq.append(v)
    uniq.sort(key=lambda v: math.atan2(v[1], v[0]))
    return uniq


def rotate_to_caustic(
    family: ConfocalFamily,
    px: float,
    py: float,
    vx: float,
    vy: float,
    lam: float,
) -> tuple[float, float] | None:
    """Direction with caustic_parameter == lam closest to (vx, vy), or None
    when the point admits no such direction."""
    best = None
    best_dot = -2.0
    for wx, wy in directions_with_caustic(family, px, py, lam):
        d = wx * vx + wy * vy
        if d > best_dot:
            best_dot = d
            best = (wx, wy)
    return best


def winding_sign(px: float, py: float, vx: float, vy: float) -> int:
    """Sign of the angular momentum p x v about the origin; for an elliptic
    caustic this is the conserved winding direction."""
    return 1 if px * vy - py * vx > 0.0 else -1
