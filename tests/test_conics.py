import math

import numpy as np
import pytest

from billiard_books import (
    ConicKind,
    DegenerateConic,
    EmptyConic,
    PointNotOnConic,
    caustic_parameter,
    classify_conic,
    reflect,
    tangency_oracle,
)
from billiard_books.conics import (
    T_MIN,
    directions_with_caustic,
    project_to_conic,
    ray_intersections,
)


def test_classify(family):
    assert classify_conic(family, 0.0) is ConicKind.ELLIPSE
    assert classify_conic(family, 4.0) is ConicKind.DEGENERATE_FOCAL_SEGMENT
    assert classify_conic(family, 6.5) is ConicKind.HYPERBOLA
    assert classify_conic(family, 9.0) is ConicKind.DEGENERATE_MINOR_AXIS
    assert classify_conic(family, -1.0) is ConicKind.ELLIPSE
    with pytest.raises(EmptyConic):
        classify_conic(family, 9.5)


def test_classify_refuses_nan(family):
    # NaN fails lam > a, == a, == b and < b alike; it is no conic at all
    with pytest.raises(EmptyConic, match="lam=nan"):
        classify_conic(family, math.nan)


@pytest.mark.parametrize("lam", [4.0, 6.5])
def test_semi_axes_refuse_a_non_ellipse(family, lam):
    with pytest.raises(DegenerateConic, match=f"lam={lam}"):
        family.semi_axes(lam)


def test_caustic_parameter_values(family):
    assert caustic_parameter(family, 0.0, 2.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert caustic_parameter(family, 0.0, 0.0, 1.0, 0.0) == pytest.approx(4.0)
    s = math.sqrt(0.5)
    lam = caustic_parameter(family, 0.0, 2.0, s, -s)
    assert lam == pytest.approx(4.5)
    # independent check: the line is tangent to the conic it names
    assert tangency_oracle(family, 0.0, 2.0, s, -s, lam) == pytest.approx(0.0, abs=1e-9)


def test_tangency_oracle_signs(family):
    assert tangency_oracle(family, 0.0, 2.0, 1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert tangency_oracle(family, 0.0, 0.0, 1.0, 0.0, 0.0) > 0.0
    assert tangency_oracle(family, 0.0, 3.0, 1.0, 0.0, 0.0) < 0.0
    with pytest.raises(DegenerateConic):
        tangency_oracle(family, 0.0, 0.0, 1.0, 0.0, 4.0)


def test_reflect_at_vertices(family):
    vx, vy = reflect(family, 0.0, 3.0, 0.0, 0.6, 0.8)
    assert (vx, vy) == pytest.approx((-0.6, 0.8), abs=1e-12)
    vx, vy = reflect(family, 0.0, 0.0, 2.0, 0.6, 0.8)
    assert (vx, vy) == pytest.approx((0.6, -0.8), abs=1e-12)


def test_reflect_preserves_caustic(family):
    rng = np.random.default_rng(7)
    for _ in range(200):
        th = rng.uniform(0, 2 * math.pi)
        px, py = family.ellipse_point(2.0, th)
        phi = rng.uniform(0, 2 * math.pi)
        vx, vy = math.cos(phi), math.sin(phi)
        wx, wy = reflect(family, 2.0, px, py, vx, vy)
        before = caustic_parameter(family, px, py, vx, vy)
        after = caustic_parameter(family, px, py, wx, wy)
        assert after == pytest.approx(before, abs=1e-10)


def test_reflect_involution_and_norm(family):
    px, py = family.ellipse_point(0.0, 1.1)
    vx, vy = math.cos(0.4), math.sin(0.4)
    wx, wy = reflect(family, 0.0, px, py, vx, vy)
    assert math.hypot(wx, wy) == pytest.approx(1.0, abs=1e-12)
    ux, uy = reflect(family, 0.0, px, py, wx, wy)
    assert (ux, uy) == pytest.approx((vx, vy), abs=1e-12)


def test_reflect_rejects_off_conic(family):
    with pytest.raises(PointNotOnConic):
        reflect(family, 0.0, 1.0, 1.0, 1.0, 0.0)


def next_intersection(family, px, py, vx, vy, lam_target):
    """First forward intersection ((x, y), t) of the ray p + t v with the
    ellipse C_{lam_target}, skipping t <= T_MIN; None when the ray misses."""
    _, roots = ray_intersections(family, lam_target, px, py, vx, vy)
    ahead = [t for t in roots if t > T_MIN]
    if not ahead:
        return None
    t = min(ahead)
    return (px + t * vx, py + t * vy), t


def test_ray_intersections_degenerate_quadratics(family):
    # zero velocity: A = B = 0, so q = 0 and there is no root at all
    assert ray_intersections(family, 0.0, 1.0, 1.0, 0.0, 0.0) == (0.0, ())
    # on C_0 at the vertex (3, 0), moving along the tangent: B = C = 0, so
    # q = 0 and the one root is the double root t = 0
    disc, roots = ray_intersections(family, 0.0, 3.0, 0.0, 0.0, 1.0)
    assert disc == 0.0 and roots == (0.0,)
    # a secant gives two roots, a miss none
    assert sorted(ray_intersections(family, 0.0, 0.0, 0.0, 1.0, 0.0)[1]) == [-3.0, 3.0]
    disc, roots = ray_intersections(family, 0.0, 0.0, 3.0, 1.0, 0.0)
    assert disc < 0.0 and roots == ()


def test_next_intersection(family):
    hit = next_intersection(family, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert hit is not None
    (x, y), t = hit
    assert (x, y, t) == pytest.approx((3.0, 0.0, 3.0), abs=1e-12)

    hit = next_intersection(family, 3.0, 0.0, -1.0, 0.0, 0.0)
    (x, y), t = hit
    assert (x, y, t) == pytest.approx((-3.0, 0.0, 6.0), abs=1e-10)

    assert next_intersection(family, 0.0, 3.0, 1.0, 0.0, 0.0) is None


def test_next_intersection_residual(family):
    rng = np.random.default_rng(3)
    for _ in range(300):
        px = rng.uniform(-1.5, 1.5)
        py = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0, 2 * math.pi)
        hit = next_intersection(family, px, py, math.cos(phi), math.sin(phi), 0.0)
        assert hit is not None
        (x, y), _ = hit
        assert abs(family.conic_residual(0.0, x, y)) <= 1e-10


def test_caustic_matches_oracle_randomized(family):
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        px = rng.uniform(-3.0, 3.0)
        py = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0, 2 * math.pi)
        vx, vy = math.cos(phi), math.sin(phi)
        lam = caustic_parameter(family, px, py, vx, vy)
        if min(abs(lam - family.a), abs(lam - family.b)) < 1e-6:
            continue
        assert tangency_oracle(family, px, py, vx, vy, lam) == pytest.approx(0.0, abs=1e-9)
        checked += 1


def test_directions_with_caustic_roundtrip(family):
    rng = np.random.default_rng(5)
    for _ in range(100):
        px, py = family.ellipse_point(0.0, rng.uniform(0, 2 * math.pi))
        lam = rng.uniform(0.5, 8.5)
        if abs(lam - 4.0) < 1e-3:
            continue
        for vx, vy in directions_with_caustic(family, px, py, lam):
            assert math.hypot(vx, vy) == pytest.approx(1.0, abs=1e-12)
            assert caustic_parameter(family, px, py, vx, vy) == pytest.approx(lam, abs=1e-9)


def test_directions_with_caustic_include_the_vertical(family):
    # at px = 1 the caustic a - 1 = 8 makes the quadratic in the slope
    # degenerate: the vertical direction and one slope remain
    dirs = directions_with_caustic(family, 1.0, 1.0, 8.0)
    assert (0.0, 1.0) in dirs and (0.0, -1.0) in dirs
    assert len(dirs) == 4
    for vx, vy in dirs:
        assert math.hypot(vx, vy) == pytest.approx(1.0, abs=1e-12)
        assert caustic_parameter(family, 1.0, 1.0, vx, vy) == pytest.approx(8.0, abs=1e-12)


def test_directions_with_nan_caustic_are_none(family):
    # a NaN discriminant gives no direction, not NaN velocities
    assert directions_with_caustic(family, 1.0, 1.0, math.nan) == []


def rotate_to_caustic(family, px, py, vx, vy, lam):
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


def test_rotate_to_caustic_picks_nearest(family):
    px, py = family.ellipse_point(0.0, 0.8)
    vx, vy = math.cos(2.1), math.sin(2.1)
    lam0 = caustic_parameter(family, px, py, vx, vy)
    res = rotate_to_caustic(family, px, py, vx, vy, lam0 + 0.05)
    assert res is not None
    wx, wy = res
    assert wx * vx + wy * vy > 0.99


def test_project_to_conic_keeps_the_origin(family):
    # the origin has no radial direction to rescale along
    assert project_to_conic(family, 2.0, 0.0, 0.0) == (0.0, 0.0)
