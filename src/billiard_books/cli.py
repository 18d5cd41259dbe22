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
import functools
import json
import math
import re
import sys

from .book import _NUMBER, BilliardBook, BookError, SchemaError, _family, _is, _object
from .book import _known_leaf, load_book, save_book, validate_book
from .conics import directions_with_caustic  # noqa: F401  hooked by perfbench/spans.py
from .dynamics import (
    DynamicsError,
    PhaseState,
    STATUS_OK,
    save_trajectory_csv,
    simulate,
    trace_to_game,  # noqa: F401  hooked by perfbench/spans.py
)
from .games import (
    ConsecutiveRepeat,
    GameError,
    OrderedGame,
    _refuse_invalid,
    _refuse_other_family,
    admissible_start,
    compile_simple,
    normalize_game,
    verify_book,
)
from .games import compile_game as compile_general  # the name perfbench/spans.py hooks
from .render import RenderSpec, _refuse_oversized, save_svg, trajectory_svg
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
    return _known_leaf(book, leaf_id).id


def _load_valid_game(path: str) -> OrderedGame:
    """The game stored at ``path``; raises InvalidGame listing its violations."""
    with open(path, encoding="utf-8") as fh:
        data = _object(json.load(fh), "$", ("family", "betas", "signature"))
    family = _family(data)
    betas = data.get("betas")
    sig = data.get("signature")
    if not isinstance(betas, list) or not all(_is(x, _NUMBER) for x in betas):
        raise SchemaError("$.betas: expected an array of numbers")
    if not isinstance(sig, list) or not all(_is(s, _NUMBER) and s in (1, -1) for s in sig):
        raise SchemaError("$.signature: expected an array of 1/-1")
    game = OrderedGame(family, tuple(float(x) for x in betas), tuple(int(s) for s in sig))
    _refuse_invalid(game)
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


def cmd_simulate(args: argparse.Namespace) -> int:
    book = _load_valid_book(args.book)
    if args.svg:
        _refuse_oversized(book)  # before any event is run or any file written
    leaf_id = _leaf_or_smallest(book, args.leaf)
    if args.caustic is not None and (args.pos is not None or args.vel is not None):
        raise ValueError("give the start by --pos/--vel or by --caustic, not both")
    if (args.pos is None) != (args.vel is None):
        raise ValueError("--pos and --vel go together: give both")
    if args.pos is not None:
        px, py = args.pos
        vx, vy = args.vel
        n = math.hypot(vx, vy)
        if not 0.0 < n < math.inf:
            raise ValueError("--vel must be a non-zero velocity")
        state = PhaseState(px, py, vx / n, vy / n, leaf_id)
    elif args.caustic is not None:
        state = admissible_start(book, leaf_id, args.caustic, args.seed)
        if state is None:
            raise ValueError(f"no point on leaf {leaf_id} admits caustic {args.caustic}")
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
    _refuse_other_family(book, game)
    game = normalize_game(game)[0]
    if args.samples == 0:
        print("warning: zero samples requested; verification is vacuous", file=sys.stderr)
        print("samples=0 mismatches=0")
        return EXIT_OK

    failures = verify_book(book, game, start_leaf, args.samples, args.seed)
    if failures:
        i, j = failures[0]
        print(f"sample {i}: first divergent reflection index {j}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"samples={args.samples} mismatches=0")
    return EXIT_OK


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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-" then a digit for a value only in a plain decimal
        # such as -2.5; no option here starts so, so -1,0 and -1e-3 are values too
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        # for main to report; the parent parser would report an ArgumentError again
        raise argparse.ArgumentTypeError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    # a lambda looks cmd_* up per call, so one replaced after the build runs
    ap = _Parser(prog="billiard-books", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a game description into a book")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--general", action="store_true", help="allow repeated consecutive ellipses")
    p.add_argument("--out", required=True, help="output book JSON")
    p.set_defaults(func=lambda args: cmd_compile(args))

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
    p.set_defaults(func=lambda args: cmd_simulate(args))

    p = sub.add_parser("fomenko", help="atom census and graph of a book")
    p.add_argument("book", help="book JSON file")
    p.add_argument("--dot", help="write the graph in DOT format here")
    p.set_defaults(func=lambda args: cmd_fomenko(args))

    p = sub.add_parser("verify", help="check that a book realizes a game")
    p.add_argument("book", help="book JSON file")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--start-leaf", type=int, help="leaf holding admissible starts (default: smallest id)")
    p.set_defaults(func=lambda args: cmd_verify(args))
    return ap


# main's parser, built on its first call and kept: parsing leaves nothing in it
_parser = functools.cache(build_parser)


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
        args = _parser().parse_args(argv)
        return args.func(args)
    except Exception as err:
        for types, code, fmt in _ERRORS:
            if isinstance(err, types):
                print(fmt.format(err=err, name=type(err).__name__), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
