"""Command-line front end: compile | simulate | fomenko | verify.

Exit codes: 0 success, 2 invalid game, 3 I/O failure or invalid input (an
invalid book or a bad argument, including any the parser refuses), 4 singular
level hit during simulation, 5 unclassified atom in the graph, 6 trace/game
mismatch.  Diagnostics go to stderr; stdout carries data summaries only.
``main`` returns the code (it exits only after --help); its table ``_ERRORS``
sets the code and the message of each exception type a command raises.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import games as games_mod
from .book import BilliardBook, BookError, SchemaError, load_book, save_book, validate_book
from .conics import ConfocalFamily, directions_with_caustic
from .dynamics import (
    DynamicsError,
    PhaseState,
    STATUS_OK,
    save_trajectory_csv,
    simulate,
    trace_to_game,
)
from .games import (
    ConsecutiveRepeat,
    GameError,
    InvalidGame,
    OrderedGame,
    compile_general,
    compile_simple,
    expected_trace,
    validate_game,
)
from .render import RenderSpec, save_svg, trajectory_svg
from .topology import TopologyError, build_fomenko_graph, to_dot

EXIT_OK = 0
EXIT_INVALID_GAME = 2
EXIT_IO = 3
EXIT_SINGULAR = 4
EXIT_UNKNOWN_ATOM = 5
EXIT_MISMATCH = 6


def _load_valid_book(path: str) -> BilliardBook:
    """The book stored at ``path``; raises BookError listing its violations."""
    book = load_book(path)
    bad = validate_book(book)
    if bad:
        raise BookError("\n".join(f"{v.code}: {v.message}" for v in bad))
    return book


def _leaf_or_smallest(book: BilliardBook, leaf_id: int | None) -> int:
    if leaf_id is None:
        return min(lf.id for lf in book.leaves)
    if all(lf.id != leaf_id for lf in book.leaves):
        raise BookError(f"the book has no leaf {leaf_id}")
    return leaf_id


def _load_valid_game(path: str) -> OrderedGame:
    """The game stored at ``path``; raises InvalidGame listing its violations."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("$: expected an object")
    fam = data.get("family")
    if not isinstance(fam, dict) or not all(isinstance(fam.get(k), (int, float)) for k in "ab"):
        raise SchemaError("$.family: expected {a, b} numbers")
    betas = data.get("betas")
    sig = data.get("signature")
    if not isinstance(betas, list) or not all(isinstance(x, (int, float)) for x in betas):
        raise SchemaError("$.betas: expected an array of numbers")
    if not isinstance(sig, list) or not all(s in (1, -1) for s in sig):
        raise SchemaError("$.signature: expected an array of 1/-1")
    game = OrderedGame(
        ConfocalFamily(float(fam["a"]), float(fam["b"])),
        tuple(float(x) for x in betas),
        tuple(int(s) for s in sig),
    )
    violations = validate_game(game)
    if violations:
        raise InvalidGame(violations)
    return game


def cmd_compile(args: argparse.Namespace) -> int:
    game = _load_valid_game(args.game)
    report = compile_general(game) if args.general else compile_simple(game)
    save_book(report.book, args.out)
    print(
        f"leaves={report.leaf_count} s={report.s_count} shift={report.shift} "
        f"start_leaf={report.start_leaf_id} out={args.out}"
    )
    return EXIT_OK


def _sample_state(book, leaf_id: int, caustic: float, seed: int) -> PhaseState:
    """Deterministic point in the leaf with a caustic-tangent direction."""
    fam = book.family
    leaf = book.leaf(leaf_id)
    sx = math.sqrt(fam.a - leaf.outer)
    sy = math.sqrt(fam.b - leaf.outer)
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        px = rng.uniform(-sx, sx)
        py = rng.uniform(-sy, sy)
        if fam.conic_residual(leaf.outer, px, py) > -1e-6:
            continue
        if leaf.inner is not None and fam.conic_residual(leaf.inner, px, py) < 1e-6:
            continue
        dirs = directions_with_caustic(fam, px, py, caustic)
        if dirs:
            return PhaseState(px, py, dirs[0][0], dirs[0][1], leaf_id)
    raise ValueError(f"no point on leaf {leaf_id} admits caustic {caustic}")


def cmd_simulate(args: argparse.Namespace) -> int:
    book = _load_valid_book(args.book)
    leaf_id = _leaf_or_smallest(book, args.leaf)
    if args.pos is not None and args.vel is not None:
        px, py = args.pos
        vx, vy = args.vel
        n = math.hypot(vx, vy)
        if not 0.0 < n < math.inf:
            raise ValueError("--vel must be a non-zero velocity")
        state = PhaseState(px, py, vx / n, vy / n, leaf_id)
    elif args.caustic is not None:
        state = _sample_state(book, leaf_id, args.caustic, args.seed)
    else:
        raise ValueError("need either --pos/--vel or --caustic")

    traj = simulate(book, state, max_events=args.events)
    if args.csv:
        save_trajectory_csv(traj, args.csv)
    if args.svg:
        spec = RenderSpec(layout=args.layout, show_caustic=args.show_caustic)
        save_svg(trajectory_svg(book, traj, spec), args.svg)
    print(f"caustic={traj.caustic!r} drift={traj.caustic_drift:.3e} events={len(traj.events)}")
    if traj.status != STATUS_OK:
        print(f"status: {traj.status}", file=sys.stderr)
        return EXIT_SINGULAR
    return EXIT_OK


def cmd_fomenko(args: argparse.Namespace) -> int:
    graph = build_fomenko_graph(_load_valid_book(args.book))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph))
    census = graph.census()
    print(" ".join(f"{t}:{census[t]}" for t in ("A", "B", "C2", "Unknown") if census[t]))
    if census["Unknown"]:
        print("warning: unclassified atoms present", file=sys.stderr)
        return EXIT_UNKNOWN_ATOM
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    book = _load_valid_book(args.book)
    game = _load_valid_game(args.game)
    start_leaf = _leaf_or_smallest(book, args.start_leaf)
    if game.family != book.family:
        raise ValueError(f"the game's family {game.family} is not the book's {book.family}")
    if args.samples == 0:
        print("warning: zero samples requested; verification is vacuous", file=sys.stderr)
        print("samples=0 mismatches=0")
        return EXIT_OK

    norm, _ = games_mod.normalize_game(game)
    want = expected_trace(norm)
    n = norm.n
    (e_lo, e_hi), (h_lo, h_hi) = games_mod.admissible_caustic_range(norm)
    rng = np.random.default_rng(args.seed)
    need = 5 * n
    for i in range(args.samples):
        if i % 2 == 0:
            caustic = rng.uniform(h_lo + 0.02 * (h_hi - h_lo), h_hi - 0.02 * (h_hi - h_lo))
        else:
            caustic = rng.uniform(e_lo + 0.02 * (e_hi - e_lo), e_hi - 0.02 * (e_hi - e_lo))
        state = None
        for _ in range(200):
            cand = _sample_state(book, start_leaf, caustic, int(rng.integers(1 << 62)))
            _, ev = _first_event(book, cand)
            if ev is not None and ev.is_reflection and abs(ev.ellipse - norm.betas[0]) < 1e-9:
                state = cand
                break
        if state is None:
            print(f"sample {i}: no admissible start found", file=sys.stderr)
            return EXIT_MISMATCH
        traj = simulate(book, state, max_events=need * 4 + 8)
        trace = trace_to_game(traj)
        for j in range(need):
            if j >= len(trace):
                print(f"sample {i}: trace ended after {len(trace)} reflections", file=sys.stderr)
                return EXIT_MISMATCH
            beta, side = want[j % n]
            if abs(trace[j][0] - beta) > 1e-9 or trace[j][1] is not side:
                print(f"sample {i}: first divergent reflection index {j}", file=sys.stderr)
                return EXIT_MISMATCH
    print(f"samples={args.samples} mismatches=0")
    return EXIT_OK


def _first_event(book, state):
    from .dynamics import TangentialHit, step

    try:
        return step(book, state)
    except TangentialHit:
        return None, None


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'x,y'")
    return _finite(parts[0]), _finite(parts[1])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # for main to report; the parent parser would report an ArgumentError again
        raise argparse.ArgumentTypeError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="billiard-books", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a game description into a book")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--general", action="store_true", help="allow repeated consecutive ellipses")
    p.add_argument("--out", required=True, help="output book JSON")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run one trajectory on a book")
    p.add_argument("book", help="book JSON file")
    p.add_argument("--leaf", type=int, help="starting leaf id (default: smallest)")
    p.add_argument("--pos", type=_parse_pair, help="starting position 'x,y'")
    p.add_argument("--vel", type=_parse_pair, help="starting velocity 'vx,vy'")
    p.add_argument("--caustic", type=_finite, help="sample a start tangent to this caustic")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--events", type=_count, default=1000)
    p.add_argument("--csv", help="write the event table here")
    p.add_argument("--svg", help="write a rendering here")
    p.add_argument("--layout", choices=("side-by-side", "overlay"), default="side-by-side")
    p.add_argument("--show-caustic", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fomenko", help="atom census and graph of a book")
    p.add_argument("book", help="book JSON file")
    p.add_argument("--dot", help="write the graph in DOT format here")
    p.set_defaults(func=cmd_fomenko)

    p = sub.add_parser("verify", help="check that a book realizes a game")
    p.add_argument("book", help="book JSON file")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--start-leaf", type=int, help="leaf holding admissible starts (default: smallest id)")
    p.set_defaults(func=cmd_verify)
    return ap


# Exit code and stderr line per exception type; the first matching row wins, so
# a subclass goes first.  Any other exception is a fault and keeps its traceback.
_ERRORS = (
    (argparse.ArgumentTypeError, EXIT_IO, "{err}"),
    (ConsecutiveRepeat, EXIT_INVALID_GAME, "{name}: {err} (rerun with --general)"),
    (GameError, EXIT_INVALID_GAME, "{name}: {err}"),
    ((OSError, BookError, DynamicsError, TopologyError, ValueError), EXIT_IO, "error: {err}"),
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as err:
        for types, code, fmt in _ERRORS:
            if isinstance(err, types):
                print(fmt.format(err=err, name=type(err).__name__), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
