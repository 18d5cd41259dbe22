import math

import numpy as np
import pytest

from billiard_books import (
    ConfocalFamily,
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
    # at lam = -inf both terms of the confocal equation vanish: no real point
    with pytest.raises(EmptyConic, match="lam=-inf"):
        classify_conic(family, -math.inf)


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
            assert caustic_parameter(family, px, py, vx, vy) == pytest.approx(lam, abs=1e-13)


def test_directions_with_caustic_include_the_vertical(family):
    # at px = 1 the caustic a - 1 = 8 is met by the vertical direction, so two
    # of the four directions have vx within rounding of 0
    dirs = directions_with_caustic(family, 1.0, 1.0, 8.0)
    assert len(dirs) == 4
    assert sum(abs(vx) <= 1e-15 for vx, _ in dirs) == 2
    for vx, vy in dirs:
        assert math.hypot(vx, vy) == pytest.approx(1.0, abs=1e-12)
        assert caustic_parameter(family, 1.0, 1.0, vx, vy) == pytest.approx(8.0, abs=1e-12)


def test_directions_at_an_elliptic_coordinate_are_two(family):
    # (11 - sqrt 29) / 2 is the smaller elliptic coordinate of (1, 1): the two
    # tangent lines coincide, so there is one line with its two orientations
    # (the slope quadratic returned two near-equal pairs, 5e-9 apart)
    lam = (11.0 - math.sqrt(29.0)) / 2.0
    dirs = directions_with_caustic(family, 1.0, 1.0, lam)
    assert len(dirs) == 2
    assert dirs[0] == (-dirs[1][0], -dirs[1][1])
    for vx, vy in dirs:
        assert abs(caustic_parameter(family, 1.0, 1.0, vx, vy) - lam) <= 1e-13


def test_directions_at_a_focus():
    # at the focus (1, 0) of the family (5, 4) both elliptic coordinates are
    # b = 4, where the frame's weights would read 0/0: its u1 is kept, the
    # vertical the slope quadratic also gave, and any other caustic has none
    fam = ConfocalFamily(5.0, 4.0)
    assert directions_with_caustic(fam, 1.0, 0.0, 4.0) == [(0.0, -1.0), (0.0, 1.0)]
    assert directions_with_caustic(fam, 1.0, 0.0, 3.5) == []
    assert directions_with_caustic(fam, 1.0, 0.0, 4.5) == []


def slope_directions(family, px, py, lam):
    """The slope quadratic ``directions_with_caustic`` solved before it
    used the elliptic-coordinate frame, kept as an oracle: its directions
    are off by up to about 7e-10 where the slope is ill-conditioned."""
    P = family.a - px * px
    Q = family.b - py * py
    R = 2.0 * px * py
    # (P - lam) s^2 + R c s + (Q - lam) c^2 = 0 for v = (c, s).
    dirs = []
    a2 = P - lam
    if abs(a2) < 1e-14:
        dirs.extend([(0.0, 1.0), (0.0, -1.0)])
        if abs(R) > 1e-14:
            m = -(Q - lam) / R
            n = math.hypot(1.0, m)
            dirs.extend([(1.0 / n, m / n), (-1.0 / n, -m / n)])
    else:
        disc = R * R - 4.0 * a2 * (Q - lam)
        if not disc >= 0.0:
            return []
        s = math.sqrt(disc)
        for m in ((-R + s) / (2.0 * a2), (-R - s) / (2.0 * a2)):
            n = math.hypot(1.0, m)
            dirs.extend([(1.0 / n, m / n), (-1.0 / n, -m / n)])
    uniq = []
    for v in dirs:
        if all(math.hypot(v[0] - u[0], v[1] - u[1]) > 1e-9 for u in uniq):
            uniq.append(v)
    uniq.sort(key=lambda v: math.atan2(v[1], v[0]))
    return uniq


def elliptic_coordinates(family, px, py):
    """The two roots l1 <= l2 of x^2/(a - l) + y^2/(b - l) = 1, cleared of
    denominators: l^2 - (a + b - x^2 - y^2) l + ab - b x^2 - a y^2 = 0."""
    half = 0.5 * (family.a + family.b - px * px - py * py)
    prod = family.a * family.b - family.b * px * px - family.a * py * py
    root = math.sqrt(max(half * half - prod, 0.0))
    big = half + root if half >= 0.0 else half - root
    return tuple(sorted((big, prod / big)))


def test_directions_with_caustic_match_the_slope_oracle(family):
    """Points inside the base ellipse, each with the caustic of a random
    direction and with one within 1e-6 to 1e-12 of an elliptic coordinate:
    the same count in the same angle order as the oracle, each direction
    within 1e-9 of it, and a caustic residual of at most 1e-13."""
    rng = np.random.default_rng(21)
    cases = []
    while len(cases) < 3000:
        px, py = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
        if family.conic_residual(0.0, px, py) >= 0.0:
            continue
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cases.append((px, py, caustic_parameter(family, px, py, math.cos(phi), math.sin(phi))))
        l1, l2 = elliptic_coordinates(family, px, py)
        eps = 10.0 ** rng.uniform(-12.0, -6.0)
        cases.append((px, py, l1 + eps if rng.random() < 0.5 else l2 - eps))
    for px, py, lam in cases:
        got = directions_with_caustic(family, px, py, lam)
        want = slope_directions(family, px, py, lam)
        assert len(got) == len(want) == 4, (px, py, lam)
        assert got == sorted(got, key=lambda v: math.atan2(v[1], v[0]))
        for (vx, vy), (wx, wy) in zip(got, want):
            assert math.hypot(vx - wx, vy - wy) <= 1e-9, (px, py, lam)
            assert abs(caustic_parameter(family, px, py, vx, vy) - lam) <= 1e-13, (px, py, lam)


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
