"""Ordered reflection games on confocal ellipses and books realizing them.

A game prescribes a cyclic sequence of ellipses, each hit from inside (+1)
or outside (-1).  For a bounded game no two consecutive reflections may be
from outside, and an outside reflection requires the ellipse to be nested
inside both cyclic neighbours.  ``compile_game`` builds the canonical book
of annuli between consecutive game ellipses plus disk sheets that absorb
the inside reflections; the bound 2n - 2s <= N <= 2n on its leaf count N
holds for repeat-free games.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .book import (
    BilliardBook,
    GluingPermutation,
    Leaf,
)
from .conics import ConfocalFamily, directions_with_caustic
from .dynamics import PhaseState, TangentialHit, simulate, step, trace_to_game
from .dynamics import EventSide

BETA_TOL = 1e-12


class GameError(Exception):
    pass


class InvalidGame(GameError):
    def __init__(self, violations):
        super().__init__("; ".join(f"{v.code}: {v.message}" for v in violations) or "invalid game")
        self.violations = violations


class ConsecutiveRepeat(GameError):
    pass


class RepeatWithOutside(GameError):
    pass


class InadmissibleCaustic(GameError):
    pass


@dataclass(frozen=True)
class OrderedGame:
    family: ConfocalFamily
    betas: tuple[float, ...]
    signature: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.betas)


@dataclass(frozen=True)
class GameViolation:
    code: str
    message: str
    index: int = -1


def _same(x: float, y: float) -> bool:
    return abs(x - y) <= BETA_TOL


def validate_game(game: OrderedGame) -> list[GameViolation]:
    """All rule violations; empty list means the game is playable."""
    out: list[GameViolation] = []
    n = len(game.betas)
    if n == 0:
        return [GameViolation("Empty", "game has no reflections")]
    if len(game.signature) != n:
        out.append(
            GameViolation(
                "LengthMismatch",
                f"{n} ellipses but {len(game.signature)} signature entries",
            )
        )
        return out
    for k, (beta, sig) in enumerate(zip(game.betas, game.signature)):
        if sig not in (-1, 1):
            out.append(GameViolation("BadSignature", f"signature[{k}] = {sig}", k))
        if not (math.isfinite(beta) and beta < game.family.b):
            out.append(
                GameViolation(
                    "BetaOutOfRange",
                    f"betas[{k}] = {beta} is not an ellipse (needs finite < b = {game.family.b})",
                    k,
                )
            )
    for k in range(n):
        if game.signature[k] == -1 and game.signature[(k + 1) % n] == -1:
            out.append(
                GameViolation(
                    "ConsecutiveOutside",
                    f"reflections {k} and {(k + 1) % n} are both from outside",
                    k,
                )
            )
    for k in range(n):
        if game.signature[k] != -1:
            continue
        prev_b = game.betas[(k - 1) % n]
        next_b = game.betas[(k + 1) % n]
        if not (game.betas[k] > prev_b and game.betas[k] > next_b):
            out.append(
                GameViolation(
                    "OutsideNotNested",
                    f"outside reflection {k} needs its ellipse inside both neighbours",
                    k,
                )
            )
    return out


def normalize_game(game: OrderedGame) -> tuple[OrderedGame, int]:
    """Cyclic rotation putting the outermost ellipse first with
    betas[0] != betas[-1]; returns (rotated game, shift applied)."""
    n = len(game.betas)
    bmin = min(game.betas)
    for shift in range(n):
        if _same(game.betas[shift], bmin) and not _same(
            game.betas[(shift - 1) % n], game.betas[shift]
        ):
            betas = game.betas[shift:] + game.betas[:shift]
            sig = game.signature[shift:] + game.signature[:shift]
            return OrderedGame(game.family, betas, sig), shift
    raise InvalidGame(
        [GameViolation("ConstantGame", "all ellipses equal; no normalization exists")]
    )


@dataclass(frozen=True)
class CompileReport:
    book: BilliardBook
    annulus_ids: dict[int, int]  # annulus index k -> leaf id
    disk_ids: dict[int, list[int]]  # game position (normalized, 0-based) -> disk ids
    leaf_count: int
    s_count: int
    shift: int  # cyclic rotation applied during normalization
    game: OrderedGame  # the normalized game the book realizes
    start_leaf_id: int  # leaf holding admissible starting points


def _runs(betas: tuple[float, ...]) -> list[tuple[int, int]]:
    """Maximal (start, length) blocks of equal consecutive betas.  Assumes
    betas[0] != betas[-1], so no block wraps around."""
    runs: list[tuple[int, int]] = []
    j = 0
    n = len(betas)
    while j < n:
        s = 1
        while j + s < n and _same(betas[j + s], betas[j]):
            s += 1
        runs.append((j, s))
        j += s
    return runs


def compile_game(game: OrderedGame) -> CompileReport:
    """Build the canonical book realizing the game (repeats allowed).

    A run of s equal consecutive ellipses, all hit from inside, contributes
    s-1, s or s+1 identical disk sheets depending on whether the run's
    ellipse encloses both run neighbours, exactly one, or neither; outside
    reflections glue the two adjacent annuli directly.
    """
    n = game.n
    for k in range(n):
        if n > 1 and _same(game.betas[k], game.betas[(k + 1) % n]):
            if game.signature[k] == -1 or game.signature[(k + 1) % n] == -1:
                raise RepeatWithOutside(
                    f"ellipse {game.betas[k]} repeats at positions {k}, {(k + 1) % n} "
                    "with an outside reflection"
                )
    violations = validate_game(game)
    if violations:
        raise InvalidGame(violations)
    if n == 1:
        lf = Leaf(1, game.betas[0])
        book = BilliardBook(game.family, (lf,))
        return CompileReport(book, {}, {}, 1, 0, 0, game, lf.id)

    norm, shift = normalize_game(game)
    betas = norm.betas

    # Annulus before position j, between the ellipses at positions j-1 and j.
    ann_index: dict[int, int] = {}
    leaves: list[Leaf] = []
    next_id = 1
    for j in range(n):
        lo, hi = betas[(j - 1) % n], betas[j]
        if _same(lo, hi):
            continue
        leaves.append(Leaf(next_id, min(lo, hi), max(lo, hi)))
        ann_index[j] = next_id
        next_id += 1

    cycles_by_beta: list[tuple[float, list[int]]] = []
    disk_ids: dict[int, list[int]] = {}
    s_count = 0
    for j0, s in _runs(betas):
        beta = betas[j0]
        prev_b = betas[(j0 - 1) % n]
        next_b = betas[(j0 + s) % n]
        ann_in = ann_index[j0]
        ann_out = ann_index[(j0 + s) % n]
        if beta > prev_b and beta > next_b:
            s_count += 1
        if any(norm.signature[j0 + i] == -1 for i in range(s)):
            # an outside reflection never sits in a longer run (pre-checked),
            # and it glues the two flanking annuli directly
            cycles_by_beta.append((beta, [ann_in, ann_out]))
            continue
        if prev_b > beta and next_b > beta:
            m = s - 1  # both neighbours nest inside the run's ellipse
        elif prev_b < beta and next_b < beta:
            m = s + 1  # the run's ellipse nests inside both neighbours
        else:
            m = s
        ids = []
        for _ in range(m):
            leaves.append(Leaf(next_id, beta))
            ids.append(next_id)
            next_id += 1
        if ids:
            disk_ids[j0] = ids
        cycles_by_beta.append((beta, [ann_in, *ids, ann_out]))

    grouped: list[tuple[float, list[list[int]]]] = []
    for beta, cyc in cycles_by_beta:
        for entry in grouped:
            if _same(entry[0], beta):
                entry[1].append(cyc)
                break
        else:
            grouped.append((beta, [cyc]))
    gluings = tuple(
        GluingPermutation.from_cycles(beta, cycles) for beta, cycles in grouped
    )
    book = BilliardBook(game.family, tuple(leaves), gluings)
    annulus_ids = {j: ann_index[j] for j in ann_index}
    return CompileReport(
        book,
        annulus_ids,
        disk_ids,
        len(leaves),
        s_count,
        shift,
        norm,
        annulus_ids[0],
    )


def compile_simple(game: OrderedGame) -> CompileReport:
    """Repeat-free compilation; rejects games with equal consecutive
    ellipses (use compile_general for those)."""
    n = game.n
    if n > 1:
        for k in range(n):
            if _same(game.betas[k], game.betas[(k + 1) % n]):
                raise ConsecutiveRepeat(
                    f"positions {k} and {(k + 1) % n} use the same ellipse"
                )
    return compile_game(game)


def compile_general(game: OrderedGame) -> CompileReport:
    return compile_game(game)


def leaf_count_bounds(game: OrderedGame) -> tuple[int, int, int]:
    """(lower, upper, s) with lower = 2n - 2s, upper = 2n, where s counts the
    ellipses nested inside both cyclic neighbours.  Repeat-free games only."""
    n = game.n
    for k in range(n):
        if n > 1 and _same(game.betas[k], game.betas[(k + 1) % n]):
            raise ConsecutiveRepeat(f"positions {k} and {(k + 1) % n} coincide")
    s = sum(
        1
        for k in range(n)
        if game.betas[k] > game.betas[(k - 1) % n]
        and game.betas[k] > game.betas[(k + 1) % n]
    )
    return 2 * n - 2 * s, 2 * n, s


def admissible_caustic_range(game: OrderedGame) -> tuple[tuple[float, float], ...]:
    """Open caustic intervals on which the full game is realized: ellipses
    nested inside every game ellipse, and all hyperbolae."""
    fam = game.family
    return ((max(game.betas), fam.b), (fam.b, fam.a))


def admissible_start(report: CompileReport, caustic: float, seed: int) -> PhaseState:
    """Deterministic pseudo-random state inside the starting annulus, moving
    tangentially to the caustic with its first event on the game's first
    ellipse."""
    game = report.game
    fam = game.family
    (e_lo, e_hi), (h_lo, h_hi) = admissible_caustic_range(game)
    if not (e_lo < caustic < e_hi or h_lo < caustic < h_hi):
        raise InadmissibleCaustic(
            f"caustic {caustic} is not an ellipse inside all game ellipses "
            f"({e_lo}, {e_hi}) nor a hyperbola ({h_lo}, {h_hi})"
        )
    leaf = report.book.leaf(report.start_leaf_id)
    first_ellipse = game.betas[0]
    sx = math.sqrt(fam.a - leaf.outer)
    sy = math.sqrt(fam.b - leaf.outer)
    rng = np.random.default_rng(seed)
    for _ in range(500):
        px = rng.uniform(-sx, sx)
        py = rng.uniform(-sy, sy)
        if fam.conic_residual(leaf.outer, px, py) > -1e-6:
            continue
        if leaf.inner is not None and fam.conic_residual(leaf.inner, px, py) < 1e-6:
            continue
        for vx, vy in directions_with_caustic(fam, px, py, caustic):
            state = PhaseState(px, py, vx, vy, leaf.id)
            try:
                _, ev = step(report.book, state)
            except TangentialHit:
                continue
            if ev.is_reflection and _same(ev.ellipse, first_ellipse):
                return state
    raise GameError("no admissible start found; caustic too close to a boundary?")


def expected_trace(game: OrderedGame) -> list[tuple[float, EventSide]]:
    return [
        (beta, EventSide.FROM_INSIDE if sig == 1 else EventSide.FROM_OUTSIDE)
        for beta, sig in zip(game.betas, game.signature)
    ]


def verify_realization(
    report: CompileReport,
    samples: int,
    seed: int = 0,
    cycles: int = 5,
) -> list[tuple[int, int]]:
    """Check that traces from admissible starts repeat the game's reflection
    sequence.  Returns (sample, first divergent reflection index) failures;
    empty list means every sample matched."""
    game = report.game
    fam = game.family
    n = game.n
    want = expected_trace(game)
    (e_lo, e_hi), (h_lo, h_hi) = admissible_caustic_range(game)
    rng = np.random.default_rng(seed)
    failures: list[tuple[int, int]] = []
    need = cycles * n
    for i in range(samples):
        # alternate hyperbolic and elliptic caustics, keeping clear of the
        # critical endpoints
        if i % 2 == 0:
            margin = 0.02 * (h_hi - h_lo)
            caustic = rng.uniform(h_lo + margin, h_hi - margin)
        else:
            margin = 0.02 * (e_hi - e_lo)
            caustic = rng.uniform(e_lo + margin, e_hi - margin)
        state = admissible_start(report, caustic, seed=int(rng.integers(1 << 62)))
        traj = simulate(report.book, state, max_events=need * 4 + 8)
        trace = trace_to_game(traj)
        if len(trace) < need:
            failures.append((i, len(trace)))
            continue
        for j in range(need):
            beta, side = want[j % n]
            if not _same(trace[j][0], beta) or trace[j][1] is not side:
                failures.append((i, j))
                break
    return failures
