"""The bounded-exhaustive game corpus: every valid ordered game over a fixed
pool of ellipses, up to cyclic rotation.

A game here has no two cyclically consecutive equal ellipses, and an
outside reflection (-1) only at a strict local maximum of its parameters,
the ellipse nested inside both neighbours; two strict local maxima are never
adjacent, so any set of them may be outside reflections.  Each rotation
class is listed once, as its lexicographically least rotation of
(ellipse, sign) pairs.  The corpus is fixed by the pool and n alone: it has
no seed, so no later change can re-pick it.  Over POOL it holds 5, 20, 40,
210 and 760 games at n = 1 to 5.
"""

from itertools import combinations, product

from billiard_books import ConfocalFamily, OrderedGame

FAMILY = ConfocalFamily(9.0, 4.0)
POOL = (0.0, 0.8, 1.6, 2.4, 3.2)


def _least_rotation(pairs: tuple) -> tuple:
    return min(pairs[k:] + pairs[:k] for k in range(len(pairs)))


def exhaustive_games(max_n: int, pool=POOL, family=FAMILY) -> list[OrderedGame]:
    """Every valid game of 1 to ``max_n`` reflections, one per rotation
    class, ordered by n and then by its least rotation."""
    out = []
    for n in range(1, max_n + 1):
        classes = set()
        for betas in product(pool, repeat=n):
            if n > 1 and any(betas[k] == betas[k - 1] for k in range(n)):
                continue
            peaks = [k for k in range(n) if n > 1
                     and betas[k] > betas[k - 1] and betas[k] > betas[(k + 1) % n]]
            for r in range(len(peaks) + 1):
                for outside in combinations(peaks, r):
                    sig = tuple(-1 if k in outside else 1 for k in range(n))
                    classes.add(_least_rotation(tuple(zip(betas, sig))))
        for pairs in sorted(classes):
            betas, sig = zip(*pairs)
            out.append(OrderedGame(family, tuple(betas), tuple(sig)))
    return out
