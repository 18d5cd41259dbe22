"""Reference-speed timing for a host whose speed drifts.

On a shared host the speed of a single Python process changes by up to 2x
within seconds as co-tenants load it.  On a 2-vCPU Xeon VM, a fixed loop
timed in 0.5 s windows over 150 s ranged from 1.1 ms to 3.3 ms, in spells
of 5-30 s, longer than one benchmark run, and the same benchmark run
repeated five times gave throughputs 35% apart.

``RefClock`` times a fixed pure-Python calibration loop (integer arithmetic,
small-object allocation with float math and dict updates, tuple building
and a sort) before and after each measured span, and converts the span's
measured time ``t`` to reference seconds, ``t * CAL_REF / c`` where ``c``
is the mean of the two calibration times.  Measured over 90 one-second
windows, scaling cut the window-to-window spread of library operations
(graph build, simulate, isomorphism, CSV, verify) from 25-27% to 2-4%, and
for single operations calibrating around each one left less spread than a
median over older calibrations.  The calibration loop calls no library
code, so a change to the library moves the reference times in proportion
to the wall times.
"""

from __future__ import annotations

import math
from time import perf_counter

CAL_REF = 1.5e-3  # calibration loop time, in seconds, at the reference speed


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def calibration_work() -> float:
    """The fixed calibration loop, about 1.5 ms of pure Python."""
    s = 0
    for i in range(8000):
        s += i * i % 7
    seen: dict[int, tuple[float, float]] = {}
    acc = 0.0
    prev = _Point(0.0, 1.0)
    for i in range(1000):
        p = _Point(i * 0.5, math.sqrt(i + 1.0))
        acc += math.hypot(p.x - prev.x, p.y - prev.y)
        seen[i & 63] = (p.x, p.y)
        prev = p
    rows = [(i, str(i), i * 0.5) for i in range(1500)]
    rows.sort(key=lambda t: -t[2])
    return s + acc + len(seen) + len(rows)


def _calibration_seconds() -> float:
    t0 = perf_counter()
    calibration_work()
    return perf_counter() - t0


class RefClock:
    """Call ``calibrate`` just before a measured span and ``scale`` just
    after it; ``scale`` calibrates again and serves as the next span's
    ``calibrate`` when the next span follows soon."""

    def __init__(self) -> None:
        self._before = _calibration_seconds()

    def calibrate(self) -> None:
        self._before = _calibration_seconds()

    def scale(self, seconds: float) -> float:
        """Reference seconds for a span of ``seconds`` measured seconds that
        has just ended."""
        after = _calibration_seconds()
        ref = seconds * 2.0 * CAL_REF / (self._before + after)
        self._before = after
        return ref
