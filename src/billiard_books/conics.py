"""Geometry of a confocal family of conics.

Everything here is scalar float geometry for the family

    x^2/(a - lam) + y^2/(b - lam) = 1,        a > b > 0,

whose members are ellipses for lam < b, hyperbolae for b < lam < a and
degenerate segments for lam in {b, a}.  The module provides classification,
line/conic intersection, the standard reflection law, the tangency invariant
that is conserved by billiard motion, and the directions with a given value
of it, read from the elliptic coordinates of the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Default tolerances.  The confocal equation is dimensionless once written as
# x^2/(a-lam) + y^2/(b-lam) - 1, so residual tolerances are absolute.
ON_CONIC_TOL = 1e-9
T_MIN = 1e-10  # minimal ray parameter used to escape the current boundary point


class ConicGeometryError(Exception):
    """Base class for geometry errors."""


class EmptyConic(ConicGeometryError):
    """Raised for lam > a or -inf, where the confocal equation has no real points, or NaN."""


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


def classify_conic(family: ConfocalFamily, lam: float) -> ConicKind:
    """Classify the member C_lam of the family.

    Raises EmptyConic for lam > a (no real points) and for NaN or -inf.
    """
    if not -math.inf < lam <= family.a:  # NaN fails every comparison, so it lands here
        raise EmptyConic(f"lam={lam} is not a conic parameter <= a={family.a}")
    if lam == family.a:
        return ConicKind.DEGENERATE_MINOR_AXIS
    if lam == family.b:
        return ConicKind.DEGENERATE_FOCAL_SEGMENT
    if lam < family.b:
        return ConicKind.ELLIPSE
    return ConicKind.HYPERBOLA


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
) -> tuple[float, tuple[float, ...]]:
    """All real ray parameters t with p + t v on C_lam, plus the discriminant.

    Uses the cancellation-free two-root form of ray_conic_coefficients'
    quadratic; the roots, none, one or two of them, are returned unsorted.
    """
    A, B, C = ray_conic_coefficients(family, lam, px, py, vx, vy)
    disc = B * B - A * C
    if disc < 0.0:
        return disc, ()
    s = math.sqrt(disc)
    q = -(B + s) if B >= 0.0 else -(B - s)
    if q == 0.0:
        return disc, (q / A,) if A != 0.0 else ()
    return disc, (q / A, C / q) if A != 0.0 else (C / q,)


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
) -> tuple[float, float]:
    """Billiard reflection of (vx, vy) across the tangent of C_{lam_boundary}
    at (px, py): normal component negated, tangential kept, result unit."""
    res = family.conic_residual(lam_boundary, px, py)
    if abs(res) > ON_CONIC_TOL:
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
    """All unit directions v at (px, py) with caustic_parameter == lam,
    sorted by angle for determinism.

    caustic_parameter is the form v^T M v with M = [[b - y^2, xy],
    [xy, a - x^2]], whose eigenvalues l1 <= l2 are the elliptic coordinates
    of the point and whose unit eigenvectors u1, u2 are the tangents of the
    confocal conics through it.  So c u1 + s u2 has caustic l1 c^2 + l2 s^2,
    and the directions are +-c u1 +- s u2 with c^2 = (l2 - lam)/(l2 - l1),
    s^2 = (lam - l1)/(l2 - l1): four inside [l1, l2], two at an end of it
    (also at a focus, where l1 = l2) and none outside it or for a NaN.
    """
    p, q, r = family.b - py * py, family.a - px * px, px * py
    mid, h = 0.5 * (p + q), math.hypot(0.5 * (q - p), r)
    l1, l2 = mid - h, mid + h
    if not l1 <= lam <= l2:  # a NaN caustic admits no direction either
        return []
    theta = 0.5 * math.atan2(2.0 * r, p - q)  # u2 = (cos, sin), u1 = (-sin, cos)
    cos, sin = math.cos(theta), math.sin(theta)
    w = l2 - l1  # 0 only at a focus, where lam == l1 skips the division
    c, s = (math.sqrt((l2 - lam) / w), math.sqrt((lam - l1) / w)) if lam > l1 else (1.0, 0.0)
    cx, cy, sx, sy = -c * sin, c * cos, s * cos, s * sin
    dirs = [(cx + sx, cy + sy), (-cx - sx, -cy - sy)]
    if c and s:  # inside (l1, l2) the two tangent lines differ
        dirs += [(cx - sx, cy - sy), (sx - cx, sy - cy)]
    dirs.sort(key=lambda v: math.atan2(v[1], v[0]))
    return dirs


def winding_sign(px: float, py: float, vx: float, vy: float) -> int:
    """Sign of the angular momentum p x v about the origin; for an elliptic
    caustic this is the conserved winding direction."""
    return 1 if px * vy - py * vx > 0.0 else -1
