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
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .book import (
    PARAM_TOL,
    BilliardBook,
    BookError,
    GluingPermutation,
    Leaf,
    Violation,
    _known_leaf,
    _same,
)
from .conics import ConfocalFamily, directions_with_caustic
from .dynamics import EventSide, PhaseState, TangentialHit, _count, flow, step
from .dynamics import simulate, trace_to_game  # noqa: F401  hooked by perfbench/spans.py

_VERIFY_CYCLES = 5  # game periods each verification sample must repeat
_START_TRIES = 1000  # points drawn for one start before giving up
_START_CLEARANCE = 1e-6  # conic residual that keeps a drawn start off its outer wall and hole


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

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """``validate_game``'s verdict, worked out once: the fields are frozen."""
        return tuple(validate_game(self))


def _repeats(betas: tuple[float, ...]) -> list[tuple[int, int]]:
    """Cyclically consecutive positions (k, k + 1 mod n) with one ellipse."""
    n = len(betas)
    if n == 1:
        return []
    return [(k, (k + 1) % n) for k in range(n) if _same(betas[k], betas[(k + 1) % n])]


def _refuse_repeats(game: OrderedGame) -> None:
    """Raise ConsecutiveRepeat at the first repeat ``_repeats`` finds."""
    for k, j in _repeats(game.betas):
        raise ConsecutiveRepeat(f"positions {k} and {j} use the same ellipse")


def validate_game(game: OrderedGame) -> list[Violation]:
    """All rule violations; empty list means the game is playable."""
    out: list[Violation] = []
    n = len(game.betas)
    if n == 0:
        return [Violation("Empty", "game has no reflections")]
    if len(game.signature) != n:
        msg = f"{n} ellipses but {len(game.signature)} signature entries"
        return [Violation("LengthMismatch", msg)]
    for k, (beta, sig) in enumerate(zip(game.betas, game.signature)):
        if sig not in (-1, 1):
            out.append(Violation("BadSignature", f"signature[{k}] = {sig}"))
        if not (math.isfinite(beta) and beta < game.family.b):
            out.append(
                Violation(
                    "BetaOutOfRange",
                    f"betas[{k}] = {beta} is not an ellipse (needs finite < b = {game.family.b})",
                )
            )
    # ellipses that chain within PARAM_TOL but span more than it are neither
    # one ellipse nor several, so no book can glue them
    finite = sorted(beta for beta in game.betas if math.isfinite(beta))
    lo = 0
    for i in range(1, len(finite) + 1):
        if i == len(finite) or not _same(finite[i - 1], finite[i]):
            if not _same(finite[lo], finite[i - 1]):
                out.append(
                    Violation(
                        "ChainedEllipses",
                        f"ellipses {finite[lo]} to {finite[i - 1]} chain within "
                        f"{PARAM_TOL} but span more",
                    )
                )
            lo = i
    for k in range(n):
        if game.signature[k] == -1 and game.signature[(k + 1) % n] == -1:
            out.append(
                Violation(
                    "ConsecutiveOutside",
                    f"reflections {k} and {(k + 1) % n} are both from outside",
                )
            )
    for k in range(n):
        if game.signature[k] != -1:
            continue
        prev_b = game.betas[(k - 1) % n]
        next_b = game.betas[(k + 1) % n]
        if not (game.betas[k] > prev_b and game.betas[k] > next_b):
            out.append(
                Violation(
                    "OutsideNotNested",
                    f"outside reflection {k} needs its ellipse inside both neighbours",
                )
            )
    return out


def _refuse_invalid(game: OrderedGame) -> None:
    """Raise InvalidGame listing the game's cached ``_violations``, if any."""
    if game._violations:
        raise InvalidGame(list(game._violations))


def normalize_game(game: OrderedGame) -> tuple[OrderedGame, int]:
    """Cyclic rotation putting the outermost ellipse first with
    betas[0] != betas[-1]; returns (rotated game, shift applied).  A
    one-reflection game is its own normal form, and a game already normal
    comes back as itself, so it keeps its verdict.  Raises InvalidGame with
    ``validate_game``'s violations for a game it refuses, and InvalidGame
    (``ConstantGame``) for a valid game whose ellipses are all equal."""
    _refuse_invalid(game)
    n = len(game.betas)
    if n == 1:
        return game, 0
    bmin = min(game.betas)
    for shift in range(n):
        if _same(game.betas[shift], bmin) and not _same(
            game.betas[(shift - 1) % n], game.betas[shift]
        ):
            betas = game.betas[shift:] + game.betas[:shift]
            sig = game.signature[shift:] + game.signature[:shift]
            return (OrderedGame(game.family, betas, sig) if shift else game), shift
    raise InvalidGame(
        [Violation("ConstantGame", "all ellipses equal; no normalization exists")]
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


def compile_game(game: OrderedGame) -> CompileReport:
    """Build the canonical book realizing the game (repeats allowed).

    A run of s equal consecutive ellipses, all hit from inside, contributes
    s-1, s or s+1 identical disk sheets depending on whether the run's
    ellipse encloses both run neighbours, exactly one, or neither; outside
    reflections glue the two adjacent annuli directly.
    """
    n = game.n
    if len(game.signature) != n:
        _refuse_invalid(game)
    for k, j in _repeats(game.betas):
        if game.signature[k] == -1 or game.signature[j] == -1:
            raise RepeatWithOutside(
                f"ellipse {game.betas[k]} repeats at positions {k}, {j} "
                "with an outside reflection"
            )
    norm, shift = normalize_game(game)
    if n == 1:
        lf = Leaf(1, game.betas[0])
        book = BilliardBook(game.family, (lf,))
        return CompileReport(book, {}, {}, 1, 0, shift, norm, lf.id)

    betas, signature = norm.betas, norm.signature
    # A run of equal ellipses starts at each position j whose ellipse differs
    # from the one before it (position 0 does, after normalization); the
    # annulus between those two ellipses enters the run, and the annulus
    # that starts the next run leaves it.
    starts = [j for j in range(n) if not _same(betas[j - 1], betas[j])]
    runs = len(starts)
    starts.append(n)
    annulus_ids: dict[int, int] = {}
    leaves: list[Leaf] = []
    disks: list[Leaf] = []
    disk_ids: dict[int, list[int]] = {}
    cycles: dict[float, list[list[int]]] = {}  # first equal ellipse -> its cycles
    cycles_at: dict[float, list[list[int]]] = {}  # each game ellipse -> its gluing's cycles
    s_count = 0
    next_id = runs + 1  # disk ids follow the annuli's
    for r in range(runs):
        j0, j1 = starts[r], starts[r + 1]
        beta, prev_b, next_b = betas[j0], betas[j0 - 1], betas[j1 % n]
        annulus_ids[j0] = r + 1
        leaves.append(Leaf(r + 1, prev_b, beta) if prev_b < beta else Leaf(r + 1, beta, prev_b))
        if beta > prev_b and beta > next_b:
            s_count += 1
        ids: list[int] = []
        # an outside reflection never sits in a longer run (pre-checked), and
        # it glues the two flanking annuli directly
        if signature[j0] != -1:
            m = j1 - j0
            if prev_b > beta and next_b > beta:
                m -= 1  # both neighbours nest inside the run's ellipse
            elif prev_b < beta and next_b < beta:
                m += 1  # the run's ellipse nests inside both neighbours
            ids = list(range(next_id, next_id + m))
            next_id += m
            disks += [Leaf(i, beta) for i in ids]
            if ids:
                disk_ids[j0] = ids
        at = cycles_at.get(beta)
        if at is None:  # a game ellipse not met before: its gluing is new or _same as one
            key = next((k for k in cycles if _same(k, beta)), beta)
            at = cycles_at[beta] = cycles.setdefault(key, [])
        at.append([r + 1, *ids, r + 2 if r + 1 < runs else 1])
    leaves += disks

    gluings = tuple(GluingPermutation.from_cycles(k, c) for k, c in cycles.items())
    book = BilliardBook(game.family, tuple(leaves), gluings)
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
    ellipses (use compile_game for those)."""
    _refuse_repeats(game)
    return compile_game(game)


def leaf_count_bounds(game: OrderedGame) -> tuple[int, int, int]:
    """(lower, upper, s) with lower = 2n - 2s, upper = 2n, where s counts the
    ellipses nested inside both cyclic neighbours.  Repeat-free valid games
    only: raises ConsecutiveRepeat, then InvalidGame.  A one-reflection game
    compiles to one leaf: (1, 1, 0)."""
    _refuse_repeats(game)
    _refuse_invalid(game)
    n = game.n
    if n == 1:
        return 1, 1, 0
    s = sum(
        1
        for k in range(n)
        if game.betas[k] > game.betas[(k - 1) % n]
        and game.betas[k] > game.betas[(k + 1) % n]
    )
    return 2 * n - 2 * s, 2 * n, s


def admissible_caustic_range(game: OrderedGame) -> tuple[tuple[float, float], ...]:
    """Open caustic intervals on which the full game is realized: ellipses
    nested inside every game ellipse, and all hyperbolae.  Raises InvalidGame
    with ``validate_game``'s violations for a game it refuses."""
    _refuse_invalid(game)
    fam = game.family
    return ((max(game.betas), fam.b), (fam.b, fam.a))


def _refuse_other_family(book: BilliardBook, game: OrderedGame) -> None:
    """Raise ValueError when the game is played in another confocal family
    than the book's."""
    if game.family != book.family:
        raise ValueError(f"the game's family {game.family} is not the book's {book.family}")


def _draws(seed: int):
    """``random.Random(seed).random``; TypeError for a seed that is not an
    int, ValueError for a negative one, which Random would fold onto -seed."""
    return random.Random(_count("seed", seed)).random


def admissible_start(
    book: BilliardBook, leaf_id: int, caustic: float, seed: int, game: OrderedGame | None = None
) -> PhaseState | None:
    """Deterministic pseudo-random state inside the leaf, moving tangentially
    to the caustic; None when none of _START_TRIES drawn points admits one.

    With a game, it must be played in the book's family (ValueError), be
    valid (InvalidGame with ``validate_game``'s violations), the caustic must
    lie in its admissible range (InadmissibleCaustic), and the state's first
    event must be a reflection on the game's first ellipse.  A leaf the book
    does not have, or whose outer parameter is not an ellipse of the family
    (not finite, or >= b), raises BookError, and a seed that ``_draws``
    refuses raises; each refusal comes in that order, before any draw.
    """
    fam = book.family
    if game is not None:
        _refuse_other_family(book, game)
        (e_lo, e_hi), (h_lo, h_hi) = admissible_caustic_range(game)
        if not (e_lo < caustic < e_hi or h_lo < caustic < h_hi):
            raise InadmissibleCaustic(
                f"caustic {caustic} is not an ellipse inside all game ellipses "
                f"({e_lo}, {e_hi}) nor a hyperbola ({h_lo}, {h_hi})"
            )
    leaf = _known_leaf(book, leaf_id)
    if not -math.inf < leaf.outer < fam.b:  # NaN too
        raise BookError(f"leaf {leaf_id} has outer {leaf.outer}, not an ellipse of the family")
    # conic_residual's denominators, once: each residual is the same float
    oa, ob = fam.a - leaf.outer, fam.b - leaf.outer
    inner = leaf.inner
    if inner is not None:
        ia, ib = fam.a - inner, fam.b - inner
    sx = math.sqrt(oa)
    sy = math.sqrt(ob)
    draw = _draws(seed)
    for _ in range(_START_TRIES):
        px = -sx + 2 * sx * draw()
        py = -sy + 2 * sy * draw()
        xx, yy = px * px, py * py
        if xx / oa + yy / ob - 1.0 > -_START_CLEARANCE:
            continue
        if inner is not None and xx / ia + yy / ib - 1.0 < _START_CLEARANCE:
            continue
        for vx, vy in directions_with_caustic(fam, px, py, caustic):
            state = PhaseState(px, py, vx, vy, leaf_id)
            if game is None:
                return state
            try:
                _, ev = step(book, state)
            except TangentialHit:
                continue
            if ev.is_reflection and _same(ev.ellipse, game.betas[0]):
                return state
    return None


def sample_trace(
    book: BilliardBook, state: PhaseState, need: int, budget: int
) -> list[tuple[float, EventSide]]:
    """The first ``need`` reflections (ellipse, side) of the flow from
    ``state``, read from at most ``budget`` events; fewer when the flow ends
    on a singular level or the budget runs out before the last of them.  No
    event after the ``need``-th reflection is computed.  Between two
    reflections the particle runs on one line, which meets each of the
    book's W boundary ellipses at most twice, so need·(2W + 1) events hold
    ``need`` reflections of any flow that does not end.  Both counts pass
    ``_count``; need 0 reads no event, after ``flow`` checks the start."""
    need, budget = _count("need", need), _count("budget", budget)
    trace: list[tuple[float, EventSide]] = []
    append, crossing, left = trace.append, EventSide.PASS_THROUGH, need
    for ev in islice(flow(book, state), budget if need else 0):
        if ev.side is not crossing:  # ev.is_reflection, without the property call
            append((ev.ellipse, ev.side))
            left -= 1
            if left == 0:
                break
    return trace


def verify_book(
    book: BilliardBook, game: OrderedGame, start_leaf: int, samples: int, seed: int = 0
) -> list[tuple[int, int]]:
    """Check that traces from admissible starts on ``start_leaf`` repeat the
    game's reflection sequence _VERIFY_CYCLES times, each read by
    ``sample_trace``; a rotated game is checked as its ``normalize_game``
    rotation.  Returns (sample, first divergent reflection index of that
    rotation) failures, (sample, number of reflections read) for a trace
    that ended short, or (sample, 0) when no start was found; an empty list
    means every sample matched.  Raises ValueError for a negative sample
    count (TypeError for one that is not an integer), BookError for a start
    leaf the book does not have, ValueError for a game of another family
    than the book's, what ``normalize_game`` raises (InvalidGame for a game
    ``validate_game`` refuses, then ``ConstantGame``) and, before any draw,
    what ``_draws`` raises for its seed, each also with no samples; so an
    invalid game on a missing leaf raises BookError.
    Sample i draws its caustic, then its start's seed.  Each reflection's
    ellipse is compared with the game's through ``_same``."""
    samples = _count("samples", samples)
    _known_leaf(book, start_leaf)
    _refuse_other_family(book, game)
    game = normalize_game(game)[0]
    walls = {e for lf in book.leaves for e in lf.boundary_params()}
    want = [
        (beta, EventSide.FROM_INSIDE if sig == 1 else EventSide.FROM_OUTSIDE)
        for beta, sig in zip(game.betas, game.signature)
    ] * _VERIFY_CYCLES
    elliptic, hyperbolic = admissible_caustic_range(game)
    draw = _draws(seed)
    failures: list[tuple[int, int]] = []
    need = len(want)
    budget = need * (2 * len(walls) + 1) + 8
    for i in range(samples):
        # alternate hyperbolic and elliptic caustics, keeping clear of the
        # critical endpoints
        lo, hi = hyperbolic if i % 2 == 0 else elliptic
        margin = 0.02 * (hi - lo)
        lo, hi = lo + margin, hi - margin
        caustic = lo + (hi - lo) * draw()
        state = admissible_start(book, start_leaf, caustic, int(draw() * 2**53), game)
        if state is None:
            failures.append((i, 0))
            continue
        trace = sample_trace(book, state, need, budget)
        if len(trace) < need:
            failures.append((i, len(trace)))
            continue
        if trace == want:  # == implies _same, so such a trace passes
            continue
        for j, ((e, side), (beta, want_side)) in enumerate(zip(trace, want)):
            if side is not want_side or not _same(e, beta):
                failures.append((i, j))
                break
    return failures


def verify_realization(
    report: CompileReport,
    samples: int,
    seed: int = 0,
) -> list[tuple[int, int]]:
    """``verify_book`` on the report's book, game and start leaf."""
    return verify_book(report.book, report.game, report.start_leaf_id, samples, seed)
