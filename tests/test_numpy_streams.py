"""numpy's ``Generator`` streams, pinned.

The seeded test corpora draw games, books and starts from
``np.random.default_rng``.  NEP 19 does not keep a ``Generator`` method's
stream the same across numpy versions, so a numpy upgrade can change those
corpora and with them every golden hash recorded from them.  Each method the
corpora call draws here from ``default_rng(0)`` and is compared exactly with
the values numpy 2.4.6 gives, so that an upgrade fails in this one named test
and not only as unexplained hash mismatches.
"""

import numpy as np
import pytest

RECORDED_WITH = "2.4.6"

# the golden hashes recorded from seeded corpora, by test file
SEEDED_GOLDENS = (
    "test_compile_golden.py GOLDEN",
    "test_foliation_golden.py COMPILED_HASHES, COMPILED_REGIME_HASHES, "
    "COMPILED_BAND_HASHES, COMPILED_CIRCLE_HASHES",
    "test_render_golden.py CASES (the rows with a seed)",
    "test_trajectory_golden.py CATALOG_HASHES, COMPILED_HASHES",
    "test_verify_golden.py VERIFY_GOLDEN, START_GOLDEN",
)

POOL = (0.0, 0.8, 1.6, 2.4, 3.2)

DRAWS = {
    "choice": (
        lambda rng: [float(rng.choice(POOL)) for _ in range(4)]
        + [int(k) for k in rng.choice(len(POOL), size=2, replace=False)],
        [3.2, 2.4, 1.6, 0.8, 0, 1],
    ),
    "integers": (
        lambda rng: [int(rng.integers(1, 15)) for _ in range(4)] + [int(rng.integers(1 << 62))],
        [12, 9, 8, 4, 188957027462249006],
    ),
    "uniform": (
        lambda rng: [float(rng.uniform(-3.0, 3.0)) for _ in range(4)],
        [0.8217701239287258, -1.3812797174167781, -2.7541588563828316, -2.9008341868288254],
    ),
    "permutation": (
        lambda rng: [int(x) for x in rng.permutation([1, 2, 3, 4, 5])],
        [3, 5, 4, 1, 2],
    ),
    "random": (
        lambda rng: [float(rng.random()) for _ in range(4)],
        [0.6369616873214543, 0.2697867137638703, 0.04097352393619469, 0.016527635528529094],
    ),
}


@pytest.mark.parametrize("method", sorted(DRAWS))
def test_generator_stream_is_the_recorded_one(method):
    draw, want = DRAWS[method]
    got = draw(np.random.default_rng(0))
    assert got == want, (
        f"numpy {np.__version__} draws Generator.{method} differently from numpy "
        f"{RECORDED_WITH}, so the seeded test corpora have changed.  Re-record the "
        f"golden hashes built from them in a change of their own: "
        + "; ".join(SEEDED_GOLDENS)
    )
