import gc
import json
import math

import pytest

from billiard_books import (
    ConfocalFamily,
    OrderedGame,
    annulus,
    compile_simple,
    disk,
    dumps_book,
    make_book,
    simulate,
)
from billiard_books import cli
from billiard_books.cli import main
from billiard_books.dynamics import PhaseState
from billiard_books.render import RenderSpec, trajectory_svg


def write_game(path, betas, sig, a=9.0, b=4.0):
    path.write_text(
        json.dumps({"family": {"a": a, "b": b}, "betas": list(betas), "signature": list(sig)})
    )
    return str(path)


# --- rendering ----------------------------------------------------------------

def test_svg_side_by_side(books):
    book = books["annulus_two_disks"]
    traj = simulate(book, PhaseState(1.0, 1.6, 0.0, -1.0, 1), max_events=25)
    svg = trajectory_svg(book, traj)
    assert svg.startswith("<svg ")
    assert svg.count("leaf ") == 3
    assert svg.count("<line ") == 25
    assert svg.count("<ellipse ") == 4  # an annulus and its hole, two disks
    assert svg == trajectory_svg(book, traj)  # deterministic


def test_svg_overlay_with_caustic(books):
    book = books["annulus_two_disks"]
    traj = simulate(book, PhaseState(2.8, 0.3, 0.0, 1.0, 1), max_events=10)
    svg = trajectory_svg(book, traj, RenderSpec(layout="overlay", show_caustic=True))
    assert "stroke-dasharray" in svg


def test_render_spec_refuses_unknown_layout():
    # an unknown layout was drawn as an overlay without a word
    with pytest.raises(ValueError, match="bogus"):
        RenderSpec(layout="bogus")


def test_svg_refuses_oversized_book(family):
    leaves = [disk(i, 2.0) for i in range(1, 66)]
    book = make_book(family, leaves, [(2.0, [list(range(1, 66))])])
    with pytest.raises(ValueError):
        trajectory_svg(book)


def test_simulate_refuses_an_oversized_svg_before_writing(family, tmp_path, capsys):
    # refused right after loading, so no event is run and neither file is written
    book = make_book(family, [disk(i, 2.0) for i in range(1, 66)], [(2.0, [list(range(1, 66))])])
    path = tmp_path / "large.json"
    path.write_text(dumps_book(book))
    csv, svg = tmp_path / "c.csv", tmp_path / "s.svg"
    argv = ["simulate", str(path), "--pos=0,0", "--vel", "1,0.3", "--events", "500",
            "--csv", str(csv), "--svg", str(svg)]
    assert main(argv) == 3
    assert "too many leaves to render (65 > 64)" in capsys.readouterr().err
    assert not csv.exists() and not svg.exists()


# --- CLI ------------------------------------------------------------------------

def test_cli_compile_and_verify(tmp_path, capsys):
    game = write_game(tmp_path / "game.json", (0.0, 2.0, 3.5), (1, 1, -1))
    book = str(tmp_path / "book.json")
    assert main(["compile", game, "--out", book]) == 0
    out = capsys.readouterr().out
    assert "leaves=4" in out

    assert main(["verify", book, game, "--samples", "6"]) == 0
    assert "mismatches=0" in capsys.readouterr().out

    wrong = write_game(tmp_path / "wrong.json", (0.0, 2.0), (1, 1))
    assert main(["verify", book, wrong, "--samples", "6"]) == 6
    err = capsys.readouterr().err
    assert "divergent" in err or "no admissible" in err


def test_cli_compile_and_verify_one_reflection(tmp_path, capsys):
    # a single ellipse hit from inside: compile builds one disk, and verify
    # must accept the game it was compiled from
    game = write_game(tmp_path / "game.json", (0.0,), (1,))
    book = str(tmp_path / "book.json")
    assert main(["compile", game, "--out", book]) == 0
    assert "leaves=1" in capsys.readouterr().out
    assert main(["verify", book, game, "--samples", "6"]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_cli_verify_zero_samples(tmp_path, capsys):
    game = write_game(tmp_path / "game.json", (0.0, 2.0), (1, 1))
    book = str(tmp_path / "book.json")
    main(["compile", game, "--out", book])
    capsys.readouterr()
    assert main(["verify", book, game, "--samples", "0"]) == 0
    captured = capsys.readouterr()
    assert "vacuous" in captured.err


def test_cli_compile_invalid_game(tmp_path, capsys):
    game = write_game(tmp_path / "game.json", (0.0, 2.0), (-1, -1))
    assert main(["compile", game, "--out", str(tmp_path / "book.json")]) == 2
    assert "ConsecutiveOutside" in capsys.readouterr().err


def test_cli_compile_missing_file(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "nope.json"), "--out", "x.json"]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_compile_repeats_need_general(tmp_path, capsys):
    game = write_game(tmp_path / "game.json", (0.0, 2.0, 2.0, 3.5), (1, 1, 1, 1))
    book = str(tmp_path / "book.json")
    assert main(["compile", game, "--out", book]) == 2
    assert "--general" in capsys.readouterr().err
    assert main(["compile", game, "--general", "--out", book]) == 0


def test_cli_simulate_caustic_mode(tmp_path, capsys, books):
    path = tmp_path / "book.json"
    path.write_text(dumps_book(books["annulus_two_disks"]))
    csv_path = tmp_path / "t.csv"
    svg_path = tmp_path / "t.svg"
    code = main(
        [
            "simulate",
            str(path),
            "--caustic",
            "6.0",
            "--events",
            "100",
            "--csv",
            str(csv_path),
            "--svg",
            str(svg_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    drift = float(out.split("drift=")[1].split()[0])
    assert drift < 1e-9
    assert csv_path.read_text().count("\n") == 101
    assert svg_path.read_text().startswith("<svg")


def test_cli_simulate_zero_events(tmp_path, capsys, books):
    path = tmp_path / "book.json"
    path.write_text(dumps_book(books["annulus_two_disks"]))
    csv_path = tmp_path / "t.csv"
    assert main(["simulate", str(path), "--caustic", "1.0", "--events", "0",
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 1  # header only


def test_cli_simulate_singular_exit(tmp_path, capsys):
    game = write_game(tmp_path / "game.json", (0.0, 2.0), (1, 1))
    book = str(tmp_path / "book.json")
    main(["compile", game, "--out", book])
    capsys.readouterr()
    csv_path = tmp_path / "t.csv"
    code = main(
        [
            "simulate",
            book,
            "--leaf",
            "1",
            f"--pos=-2,{math.sqrt(2)}",
            "--vel",
            "1,0",
            "--events",
            "50",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert "SingularLevelHit" in captured.err
    assert csv_path.exists()  # partial outputs still written


def test_cli_fomenko_censuses(tmp_path, capsys, books):
    expected = {
        "annulus_two_disks": "A:4 C2:1",
        "two_annuli_two_disks": "A:6 B:2 C2:2",
        "chain_six": "A:5 B:3 C2:1",
    }
    for name, want in expected.items():
        path = tmp_path / f"{name}.json"
        path.write_text(dumps_book(books[name]))
        dot = tmp_path / f"{name}.dot"
        assert main(["fomenko", str(path), "--dot", str(dot)]) == 0
        assert capsys.readouterr().out.strip() == want
        assert dot.read_text().startswith("graph fomenko {")


def test_cli_fomenko_unknown_atom(tmp_path, capsys):
    fam = ConfocalFamily(9.0, 4.0)
    book = make_book(
        fam,
        [annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0),
         annulus(4, 0.0, 2.0), annulus(5, 0.0, 2.0)],
        [(0.0, [[1, 4, 5]]), (2.0, [[1, 2, 3, 4, 5]])],
    )
    path = tmp_path / "book.json"
    path.write_text(dumps_book(book))
    dot = tmp_path / "g.dot"
    assert main(["fomenko", str(path), "--dot", str(dot)]) == 5
    captured = capsys.readouterr()
    assert "Unknown:2" in captured.out
    assert dot.exists()


@pytest.mark.parametrize(
    "argv, code, complaint",
    [
        (["simulate", "BOOK", "--leaf", "99", "--caustic", "6.0"], 3, "error: "),
        (["simulate", "BOOK", "--leaf", "1", "--pos=50,50", "--vel", "1,0"], 3, "error: "),
        (["simulate", "BOOK", "--leaf", "1", "--pos=2.8,0.3", "--vel", "0,0"], 3, "error: "),
        (["simulate", "BOOK", "--caustic", "nan"], 3, "error: "),
        (["simulate", "BOOK", "--caustic", "6.0", "--events", "-5"], 3, "error: "),
        (["simulate", "BOOK", "--caustic", "6.0", "--seed", "-1"], 3, "error: "),
        (["verify", "BOOK", "GAME", "--samples", "-3"], 3, "error: "),
        (["verify", "BOOK", "GAME", "--seed", "-1"], 3, "error: "),
        (["verify", "BOOK", "GAME", "--start-leaf", "99"], 3, "error: "),
        (["fomenko", "INVALID"], 3, "BadDomain: "),
        (["verify", "BOOK", "CONSTANT"], 2, "ConstantGame: "),
        (["verify", "BOOK", "CONSTANT", "--samples", "0"], 2, "ConstantGame: "),
        (["verify", "BOOK", "FOREIGN"], 3, "error: "),
        (["verify", "BOOK", "FOREIGN", "--samples", "0"], 3, "error: the game's family"),
        (["verify", "BOOK", "GAME", "--start-leaf", "99", "--samples", "0"], 3,
         "error: the book has no leaf 99"),
        # the game file is refused when it is read, before the leaf is looked up
        (["verify", "BOOK", "CHAINED", "--start-leaf", "99", "--samples", "0"], 2,
         "ChainedEllipses: "),
        (["verify", "BOOK", "FOREIGN_CONSTANT"], 3, "error: the game's family"),
        (["simulate", "LARGE", "--caustic", "6.0", "--svg", "SVG"], 3, "error: "),
        (["simulate", "BOOK", "--caustic", "6.0", "--events", "abc"], 3, "error: argument --events"),
        (["simulate", "BOOK", "--caustic", "6.0", "--events", "99999999999999999999"], 3,
         "error: max_events must be at most "),
        (["fomenko", "NONFINITE"], 3, "NotFinite: "),
        (["fomenko", "NEAR"], 3, "error: critical levels"),
        (["verify", "COMPILED", "COMPILED_GAME", "--start-leaf", "4"], 6, "sample 0: "),
        (["simulate", "COMPILED", "--leaf", "4", "--caustic", "1.0"], 3,
         "error: no point on leaf 4"),
        (["compile", "CHAINED", "--general", "--out", "OUT"], 2, "ChainedEllipses: "),
        (["compile", "BOOL_SIGNATURE", "--out", "OUT"], 3, "error: $.signature: "),
        (["compile", "EXTRA_FIELD", "--out", "OUT"], 3, "error: $: unknown fields ['name']"),
        (["compile", "NOT_OBJECT", "--out", "OUT"], 3, "error: $: expected an object"),
        (["compile", "BAD_FAMILY", "--out", "OUT"], 3, "error: $.family.b: expected a number"),
        (["compile", "BAD_BETAS", "--out", "OUT"], 3, "error: $.betas: "),
        (["compile", "BAD_SIGNATURE", "--out", "OUT"], 3, "error: $.signature: "),
        (["simulate", "BOOK", "--leaf", "1"], 3, "error: need either --pos/--vel or --caustic"),
        (["simulate", "BOOK", "--pos=2.8", "--vel", "1,0"], 3, "argument --pos: expected 'x,y'"),
        (["simulate", "BOOK", "--leaf", "1", "--pos=2.8,0.3"], 3,
         "error: --pos and --vel go together: give both"),
        (["simulate", "BOOK", "--leaf", "1", "--vel", "0,1"], 3,
         "error: --pos and --vel go together: give both"),
        (["simulate", "BOOK", "--leaf", "1", "--pos=2.8,0.3", "--vel", "0,1", "--caustic", "6.0"],
         3, "error: give the start by --pos/--vel or by --caustic, not both"),
        (["simulate", "BOOK", "--leaf", "1", "--pos=2.8,0.3", "--caustic", "6.0"], 3,
         "error: give the start by --pos/--vel or by --caustic, not both"),
    ],
    ids=["no-leaf", "pos-outside", "zero-vel", "nan-caustic", "negative-events", "negative-seed",
         "negative-samples", "verify-negative-seed", "no-start-leaf", "invalid-book",
         "constant-game", "constant-game-zero-samples", "foreign-family",
         "foreign-family-zero-samples", "no-start-leaf-zero-samples",
         "invalid-game-no-start-leaf", "foreign-constant",
         "svg-too-many-leaves",
         "events-not-integer", "events-above-maxsize", "non-finite-book", "near-levels",
         "verify-from-a-disk", "caustic-outside-leaf", "chained-ellipses", "bool-signature",
         "extra-game-field", "game-not-object", "game-family-not-number", "betas-not-numbers",
         "signature-not-sign", "no-start-mode", "pos-one-coordinate", "pos-without-vel",
         "vel-without-pos", "pos-vel-and-caustic", "pos-and-caustic"],
)
def test_cli_refuses_invalid_input(tmp_path, capsys, books, argv, code, complaint):
    """main returns the documented code, with no traceback or SystemExit."""
    fam = ConfocalFamily(9.0, 4.0)
    files = {name: tmp_path / name for name in (
        "BOOK", "GAME", "INVALID", "CONSTANT", "FOREIGN", "FOREIGN_CONSTANT", "LARGE", "SVG",
        "NONFINITE", "NEAR", "COMPILED", "COMPILED_GAME", "CHAINED", "OUT", "BOOL_SIGNATURE",
        "EXTRA_FIELD", "NOT_OBJECT", "BAD_FAMILY", "BAD_BETAS", "BAD_SIGNATURE")}
    files["BOOK"].write_text(dumps_book(books["annulus_two_disks"]))
    write_game(files["GAME"], (0.0, 2.0), (1, 1))
    invalid = make_book(fam, [disk(1, 2.0)], [(2.0, [[1, 99]])])
    files["INVALID"].write_text(dumps_book(invalid))
    write_game(files["CONSTANT"], (2.0, 2.0), (1, 1))
    write_game(files["FOREIGN"], (0.0, 2.0), (1, 1), a=16.0, b=9.0)
    write_game(files["FOREIGN_CONSTANT"], (2.0, 2.0), (1, 1), a=16.0, b=9.0)
    large = make_book(fam, [disk(i, 2.0) for i in range(1, 66)], [(2.0, [list(range(1, 66))])])
    files["LARGE"].write_text(dumps_book(large))
    files["NONFINITE"].write_text(dumps_book(make_book(fam, [disk(1, -math.inf)])))
    near = compile_simple(OrderedGame(fam, (0.0, 2.0, 0.0, 2.0 + 1e-10), (1, 1, 1, 1)))
    files["NEAR"].write_text(dumps_book(near.book))
    # leaf 4 of this book is a disk on C_2, which no game start leaves from
    compiled = compile_simple(OrderedGame(fam, (0.0, 2.0, 3.5), (1, 1, -1)))
    assert compiled.book.leaf(4) == disk(4, 2.0)
    files["COMPILED"].write_text(dumps_book(compiled.book))
    write_game(files["COMPILED_GAME"], (0.0, 2.0, 3.5), (1, 1, -1))
    # each neighbour within 1e-12 of the next, the ends 1.6e-12 apart
    write_game(files["CHAINED"], (0.0, 1.6, 1.6 + 8e-13, 1.6 + 1.6e-12), (1, 1, 1, 1))
    # game files the reader refuses before it looks at the game
    family = {"a": 9.0, "b": 4.0}
    for name, doc in (
        ("BOOL_SIGNATURE", {"family": family, "betas": [0.0, 2.0], "signature": [True, 1]}),
        ("EXTRA_FIELD", {"family": family, "betas": [0.0, 2.0], "signature": [1, 1], "name": 1}),
        ("NOT_OBJECT", [0.0, 2.0]),
        ("BAD_FAMILY", {"family": {"a": 9.0, "b": "4"}, "betas": [0.0], "signature": [1]}),
        ("BAD_BETAS", {"family": family, "betas": [0.0, False], "signature": [1, 1]}),
        ("BAD_SIGNATURE", {"family": family, "betas": [0.0, 2.0], "signature": [1, 2]}),
    ):
        files[name].write_text(json.dumps(doc))
    assert main([str(files.get(arg, arg)) for arg in argv]) == code
    captured = capsys.readouterr()
    assert complaint in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["--pos", "-2.5,0.3", "--vel", "-1,0"], ["--pos=-2.5,0.3", "--vel=-1,0"]),
        (["--caustic", "-1e-3"], ["--caustic=-1e-3"]),
    ],
    ids=["pos-vel", "caustic"],
)
def test_cli_takes_values_that_start_with_a_minus(tmp_path, capsys, spaced, joined):
    # argparse took a value such as -1,0 or -1e-3 for an option and refused
    # it ("expected one argument"), so only the "=" form worked
    book = tmp_path / "book.json"
    book.write_text(dumps_book(make_book(ConfocalFamily(9.0, 4.0), [disk(1, -1.0)])))
    csv = tmp_path / "t.csv"

    def run(options):
        code = main(["simulate", str(book), *options, "--events", "20", "--csv", str(csv)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, csv.read_text()

    got = run(spaced)
    assert got == run(joined)
    assert got[0] == 0
    assert got[3].count("\n") == 21


def test_cli_outputs_deterministic(tmp_path, capsys):
    game = write_game(tmp_path / "game.json", (0.0, 2.0, 3.5), (1, 1, 1))
    b1, b2 = str(tmp_path / "b1.json"), str(tmp_path / "b2.json")
    main(["compile", game, "--out", b1])
    main(["compile", game, "--out", b2])
    capsys.readouterr()
    assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()
    c1, c2 = str(tmp_path / "c1.csv"), str(tmp_path / "c2.csv")
    main(["simulate", b1, "--caustic", "6.5", "--seed", "3", "--events", "60", "--csv", c1])
    main(["simulate", b2, "--caustic", "6.5", "--seed", "3", "--events", "60", "--csv", c2])
    capsys.readouterr()
    assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()


def test_cli_main_can_be_called_again(tmp_path, capsys, books):
    """main keeps nothing from one call to the next: refused commands, a valid
    one, --help and the same commands again give the same code and text."""
    book = tmp_path / "book.json"
    book.write_text(dumps_book(books["annulus_two_disks"]))
    refused = (["simulate", str(book), "--caustic", "6.0", "--events", "-5"], ["bogus"])
    valid = ["simulate", str(book), "--caustic", "6.0", "--seed", "3", "--events", "40"]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [run(argv) for argv in (*refused, valid)]
    assert [code for code, _, _ in first] == [3, 3, 0]
    assert "--events: must not be negative" in first[0][2]
    assert "invalid choice: 'bogus'" in first[1][2]
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: billiard-books")
    assert [run(argv) for argv in (*refused, valid, *refused)] == [*first, *first[:2]]


def test_main_reraises_an_exception_outside_its_table(monkeypatch):
    # a fault of the program is no input error: it keeps its traceback
    def fault(args):
        raise RuntimeError("a fault")

    monkeypatch.setattr(cli, "cmd_fomenko", fault)
    with pytest.raises(RuntimeError, match="^a fault$"):
        main(["fomenko", "book.json"])


@pytest.mark.parametrize("argv", [
    ["compile", "game.json", "--out", "book.json"],
    ["simulate", "book.json"],
    ["fomenko", "book.json"],
    ["verify", "book.json", "game.json"],
], ids=lambda argv: argv[0])
def test_main_runs_the_command_it_finds_at_call_time(monkeypatch, capsys, argv):
    # main keeps its parser, but a cli.cmd_* replaced after the parser is
    # built must still run: the traced benchmark counts cli.*_s through it
    main(["bogus"])
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: ran.append(args.command) or 0)
    assert main(argv) == 0
    assert ran == [argv[0]]


def test_a_call_leaves_no_cyclic_garbage(tmp_path, capsys):
    """Nothing a call makes is left for the collector: main's parser, whose
    actions and groups refer to each other, is built once, not per call."""
    game = write_game(tmp_path / "game.json", (0.0, 2.0, 3.5), (1, 1, -1))
    book = str(tmp_path / "book.json")
    calls = [
        ["verify", book, game, "--samples", "2"],
        ["simulate", book, "--caustic", "6.0", "--events", "40", "--csv", str(tmp_path / "t.csv"),
         "--svg", str(tmp_path / "t.svg")],
        ["fomenko", book, "--dot", str(tmp_path / "g.dot")],
    ]
    # compile is left out: save_book's json.dumps(..., indent=2) runs the
    # stdlib's pure-Python encoder, whose closures are cyclic garbage of its own
    assert main(["compile", game, "--out", book]) == 0
    for argv in calls:  # the warm-up: first calls may fill caches
        assert main(argv) == 0
    capsys.readouterr()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        found = []
        for argv in calls:
            assert main(argv) == 0
            found.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert found == [0, 0, 0]
