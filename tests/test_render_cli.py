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
    assert svg == trajectory_svg(book, traj)  # deterministic


def test_svg_overlay_with_caustic(books):
    book = books["annulus_two_disks"]
    traj = simulate(book, PhaseState(2.8, 0.3, 0.0, 1.0, 1), max_events=10)
    svg = trajectory_svg(book, traj, RenderSpec(layout="overlay", show_caustic=True))
    assert "stroke-dasharray" in svg


def test_svg_refuses_oversized_book(family):
    leaves = [disk(i, 2.0) for i in range(1, 66)]
    book = make_book(family, leaves, [(2.0, [list(range(1, 66))])])
    with pytest.raises(ValueError):
        trajectory_svg(book)


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
        (["verify", "BOOK", "FOREIGN"], 3, "error: "),
        (["simulate", "LARGE", "--caustic", "6.0", "--svg", "SVG"], 3, "error: "),
        (["simulate", "BOOK", "--caustic", "6.0", "--events", "abc"], 3, "error: argument --events"),
        (["fomenko", "NONFINITE"], 3, "NotFinite: "),
        (["fomenko", "NEAR"], 3, "error: critical levels"),
    ],
    ids=["no-leaf", "pos-outside", "zero-vel", "nan-caustic", "negative-events",
         "negative-seed", "negative-samples", "verify-negative-seed", "no-start-leaf",
         "invalid-book", "constant-game", "foreign-family", "svg-too-many-leaves",
         "events-not-integer", "non-finite-book", "near-levels"],
)
def test_cli_refuses_invalid_input(tmp_path, capsys, books, argv, code, complaint):
    """main returns the documented code, with no traceback or SystemExit."""
    fam = ConfocalFamily(9.0, 4.0)
    files = {name: tmp_path / name for name in (
        "BOOK", "GAME", "INVALID", "CONSTANT", "FOREIGN", "LARGE", "SVG", "NONFINITE", "NEAR")}
    files["BOOK"].write_text(dumps_book(books["annulus_two_disks"]))
    write_game(files["GAME"], (0.0, 2.0), (1, 1))
    invalid = make_book(fam, [disk(1, 2.0)], [(2.0, [[1, 99]])])
    files["INVALID"].write_text(dumps_book(invalid))
    write_game(files["CONSTANT"], (2.0, 2.0), (1, 1))
    write_game(files["FOREIGN"], (0.0, 2.0), (1, 1), a=16.0, b=9.0)
    large = make_book(fam, [disk(i, 2.0) for i in range(1, 66)], [(2.0, [list(range(1, 66))])])
    files["LARGE"].write_text(dumps_book(large))
    files["NONFINITE"].write_text(dumps_book(make_book(fam, [disk(1, -math.inf)])))
    near = compile_simple(OrderedGame(fam, (0.0, 2.0, 0.0, 2.0 + 1e-10), (1, 1, 1, 1)))
    files["NEAR"].write_text(dumps_book(near.book))
    assert main([str(files.get(arg, arg)) for arg in argv]) == code
    captured = capsys.readouterr()
    assert complaint in captured.err
    assert captured.out == ""


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
