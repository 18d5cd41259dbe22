"""Confocal conics and the caustic invariant.

Every chord of a billiard trajectory in the family x^2/(a-t) + y^2/(b-t) = 1
is tangent to one fixed member, and reflections never change which one.
This script shows the classification, computes caustic parameters for a few
lines, and checks the invariant against the tangency discriminant.
"""

import math

import numpy as np

from billiard_books import (
    ConfocalFamily,
    caustic_parameter,
    classify_conic,
    reflect,
    tangency_oracle,
)

fam = ConfocalFamily(9.0, 4.0)
print(f"family: a={fam.a}, b={fam.b}, foci at (+-{fam.focal_half_distance:.4f}, 0)")
for lam in (0.0, 2.0, 3.5, 4.0, 6.5, 9.0):
    print(f"  C_{lam:<4} -> {classify_conic(fam, lam).value}")

print("\ncaustic parameters of a few lines:")
lines = [
    ((0.0, 2.0), (1.0, 0.0)),
    ((0.0, 0.0), (1.0, 0.0)),
    ((0.0, 2.0), (math.sqrt(0.5), -math.sqrt(0.5))),
]
for (px, py), (vx, vy) in lines:
    lam = caustic_parameter(fam, px, py, vx, vy)
    disc = tangency_oracle(fam, px, py, vx, vy, lam) if lam not in (4.0, 9.0) else 0.0
    print(f"  through ({px},{py}) along ({vx:+.3f},{vy:+.3f}): caustic {lam:.4f}"
          f"  (tangency residual {disc:.1e})")

print("\nreflections preserve the caustic:")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(500):
    th = rng.uniform(0, 2 * math.pi)
    px, py = fam.ellipse_point(2.0, th)
    phi = rng.uniform(0, 2 * math.pi)
    vx, vy = math.cos(phi), math.sin(phi)
    wx, wy = reflect(fam, 2.0, px, py, vx, vy)
    worst = max(
        worst,
        abs(caustic_parameter(fam, px, py, wx, wy) - caustic_parameter(fam, px, py, vx, vy)),
    )
print(f"  500 random reflections off C_2: max caustic change {worst:.2e}")
