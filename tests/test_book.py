import copy
import json
import math
import re
from importlib.resources import files

import jsonschema
import pytest

from billiard_books import (
    BilliardBook,
    GluingPermutation,
    Leaf,
    SchemaError,
    annulus,
    boundary_side,
    disk,
    dumps_book,
    invert_gluings,
    loads_book,
    make_book,
    validate_book,
)
from billiard_books.book import (
    BookError,
    EventSide,
    NotABoundary,
    Rule,
    book_from_dict,
    book_to_dict,
    load_book,
    save_book,
    transition,
)
from test_step_kernel import BOOKS as KERNEL_BOOKS


def codes(violations):
    return sorted(v.code for v in violations)


def test_catalog_books_valid(books):
    for name, book in books.items():
        assert validate_book(book) == [], name


def test_missing_domain_leaf(family):
    # the third disk shares the boundary but is absent from the gluing
    book = BilliardBook(
        family,
        (annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)),
        (GluingPermutation.from_cycles(2.0, [[1, 2]]),),
    )
    assert "BadDomain" in codes(validate_book(book))


@pytest.mark.parametrize(
    "off, valid", [(5e-13, False), (4e-13, True)], ids=["1e-12-apart", "8e-13-apart"]
)
def test_gluing_leaves_must_share_the_ellipse(family, off, valid):
    # both boundaries lie within PARAM_TOL of the gluing key; transition
    # needs them within PARAM_TOL of each other as well
    book = BilliardBook(
        family,
        (annulus(1, 0.0, 1.6 - off), disk(2, 1.6 + off)),
        (GluingPermutation(1.6, {1: 2, 2: 1}),),
    )
    if valid:
        assert validate_book(book) == []
        assert transition(book, 1, 1.6 - off)[2] == 2
    else:
        assert codes(validate_book(book)) == ["BadDomain"]
        with pytest.raises(NotABoundary):
            transition(book, 1, 1.6 - off)


def test_bad_leaf_order(family):
    book = BilliardBook(family, (Leaf(1, 2.0, 0.0),))
    assert codes(validate_book(book)) == ["BadLeafOrder"]
    book = BilliardBook(family, (disk(1, 5.0),))
    assert codes(validate_book(book)) == ["BadLeafOrder"]


def test_non_finite_leaf(family):
    book = BilliardBook(family, (disk(1, -math.inf), annulus(2, -math.inf, 2.0)))
    assert codes(validate_book(book)) == ["NotFinite", "NotFinite"]
    # -Infinity is valid JSON to Python's json module
    text = '{"family": {"a": 9.0, "b": 4.0}, "leaves": [{"id": 1, "disk": -Infinity}]}'
    assert codes(validate_book(loads_book(text))) == ["NotFinite"]


def test_duplicate_id_and_nonbijective(family):
    book = BilliardBook(family, (disk(1, 2.0), disk(1, 2.0)))
    assert "DuplicateId" in codes(validate_book(book))
    book = BilliardBook(
        family,
        (disk(1, 2.0), disk(2, 2.0)),
        (GluingPermutation(2.0, {1: 2, 2: 2}),),
    )
    assert "NotBijective" in codes(validate_book(book))


def test_cycles_refuse_non_permutation(family):
    # the walk from 1 meets 2 a second time before it returns to 1
    gluing = GluingPermutation(2.0, {1: 2, 2: 2})
    with pytest.raises(BookError, match="not a permutation"):
        gluing.cycles()
    book = BilliardBook(family, (disk(1, 2.0), disk(2, 2.0)), (gluing,))
    with pytest.raises(BookError, match="not a permutation"):
        dumps_book(book)


def test_boundary_side():
    assert boundary_side(disk(1, 2.0), 2.0) is EventSide.FROM_INSIDE
    lf = annulus(1, 0.0, 2.0)
    assert boundary_side(lf, 2.0) is EventSide.FROM_OUTSIDE
    assert boundary_side(lf, 0.0) is EventSide.FROM_INSIDE
    with pytest.raises(NotABoundary):
        boundary_side(lf, 1.0)


def test_boundary_side_never_within_on_inner(books):
    for book in books.values():
        for lf in book.leaves:
            if lf.inner is not None:
                assert boundary_side(lf, lf.inner) is EventSide.FROM_OUTSIDE


def test_walls_follow_the_gluing_rule(books):
    """Every wall of the table, worked out from the paper's rule alone: the
    leaf's side of the ellipse read from ``Leaf.outer``/``Leaf.inner``, its
    image from the gluing's ``mapping``, every match on the exact floats."""
    corpus = [*books.values(), *(book for name, book in KERNEL_BOOKS.items() if name not in books)]
    assert len(corpus) == 14
    rules_met = set()
    for book in corpus:
        b = book.family.b
        leaf_of = {lf.id: lf for lf in book.leaves}
        walls_of, _ = book._walls
        for lf in book.leaves:
            walls = walls_of[lf.id]
            assert [wall[0] for wall in walls] == list(lf.boundary_params())
            for e, _, _, rule, side, leaf_after, _, ends in walls:
                gluing = [g.mapping for g in book.gluings if g.ellipse == e]
                image = gluing[0].get(lf.id, lf.id) if gluing else lf.id
                inside = e == lf.outer  # the leaf lies within its outer ellipse
                image_inside = e == leaf_of[image].outer
                if image == lf.id:
                    expected = Rule.R1
                else:
                    expected = Rule.R2 if inside == image_inside else Rule.R3
                assert rule is expected
                if expected is Rule.R3:
                    assert side is EventSide.PASS_THROUGH
                else:
                    assert side is (EventSide.FROM_INSIDE if inside else EventSide.FROM_OUTSIDE)
                assert leaf_after == image
                valid_annulus = lf.inner is not None and lf.outer < lf.inner < b
                assert ends == (valid_annulus and e == lf.inner)
                rules_met.add(rule)
    assert rules_met == set(Rule)


def test_round_trip_all_catalog(books):
    for name, book in books.items():
        again = loads_book(dumps_book(book))
        assert again == book, name


def test_round_trip_preserves_cycles(books):
    data = book_to_dict(books["chain_five"])
    assert data["gluings"] == [
        {"ellipse": 2.0, "cycles": [[1, 2, 3]]},
        {"ellipse": 3.5, "cycles": [[3, 4, 5]]},
    ]


def test_round_trip_keeps_fixed_points(family, tmp_path):
    # a gluing that fixes a leaf on its ellipse saves it as a 1-cycle
    book = BilliardBook(
        family,
        (annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)),
        (GluingPermutation(2.0, {1: 2, 2: 1, 3: 3}),),
    )
    assert validate_book(book) == []
    assert book_to_dict(book)["gluings"] == [{"ellipse": 2.0, "cycles": [[1, 2], [3]]}]
    path = str(tmp_path / "book.json")
    save_book(book, path)
    again = load_book(path)
    assert validate_book(again) == []
    assert again == book


def test_schema_rejects_unknown_leaf_kind():
    bad = {
        "family": {"a": 9.0, "b": 4.0},
        "leaves": [{"id": 1, "square": 2.0}],
        "gluings": [],
    }
    with pytest.raises(SchemaError, match=r"\$\.leaves\[0\]"):
        book_from_dict(bad)


def test_schema_rejects_overlapping_cycles():
    bad = {
        "family": {"a": 9.0, "b": 4.0},
        "leaves": [{"id": 1, "disk": 2.0}, {"id": 2, "disk": 2.0}],
        "gluings": [{"ellipse": 2.0, "cycles": [[1, 2], [2, 1]]}],
    }
    with pytest.raises(SchemaError, match="overlap"):
        book_from_dict(bad)


def test_schema_rejects_bad_family():
    with pytest.raises(SchemaError, match=r"\$\.family"):
        book_from_dict({"family": {"a": 1.0, "b": 4.0}, "leaves": [{"id": 1, "disk": 0.5}]})
    with pytest.raises(SchemaError, match=r"\$\.family"):
        loads_book('{"family": {"a": Infinity, "b": 4.0}, "leaves": [{"id": 1, "disk": 0.5}]}')
    with pytest.raises(SchemaError):
        loads_book("not json at all {")


# values put in place of each value of a valid document
_REPLACEMENTS = (True, False, None, 0, -1, 1.5, "x", [], [1], [True], {}, {"x": 1})
_DELETE = object()


def _containers(node, path=()):
    """The path of every object and array in a JSON document."""
    if isinstance(node, (dict, list)):
        yield path
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _containers(child, path + (key,))


def _mutants(doc, replacements=_REPLACEMENTS):
    """Copies of ``doc`` that differ from it at one place: a value replaced
    (by one of ``replacements``) or removed, or a field or array item added."""
    for path in list(_containers(doc)):
        node = doc
        for key in path:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        add = "extra" if isinstance(node, dict) else len(node)
        changes = [(key, value) for key in keys for value in (*replacements, _DELETE)]
        changes += [(add, value) for value in replacements]
        for key, value in changes:
            copied = copy.deepcopy(doc)
            target = copied
            for step in path:
                target = target[step]
            if value is _DELETE:
                del target[key]
            elif key == len(target):
                target.append(copy.deepcopy(value))
            else:
                target[key] = copy.deepcopy(value)
            yield copied


def test_input_refuses_what_the_schema_refuses(family):
    """jsonschema is the oracle: every one-place change of a valid book
    document that the shipped schema refuses must raise SchemaError."""
    schema = json.loads(files("billiard_books").joinpath("book.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    book = make_book(
        family,
        [annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)],
        [(2.0, [[1, 2], [3]])],
    )
    doc = book_to_dict(book)
    assert validator.is_valid(doc)
    refused = [m for m in _mutants(doc) if not validator.is_valid(m)]
    assert len(refused) > 300
    accepted = []
    for mutant in refused:
        try:
            book_from_dict(mutant)
        except SchemaError:
            continue
        accepted.append(mutant)
    assert accepted == []


# what the schema accepts and the reader refuses for a reason JSON Schema
# cannot state: a family with a <= b, and cycles that share a leaf
_BEYOND_SCHEMA = r"\$\.family: require finite a > b > 0|\$\.gluings\[0\]\.cycles: cycles overlap"


def test_input_loads_what_the_schema_accepts(family):
    """The converse of test_input_refuses_what_the_schema_refuses: every
    one-place change of a valid book document that the shipped schema
    accepts loads, integral floats (which JSON Schema counts as integers)
    among them, unless the reader refuses it for a reason in _BEYOND_SCHEMA."""
    schema = json.loads(files("billiard_books").joinpath("book.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    book = make_book(
        family,
        [annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)],
        [(2.0, [[1, 2], [3]])],
    )
    doc = book_to_dict(book)
    accepted = [m for m in _mutants(doc, (*_REPLACEMENTS, 1.0, 2.0, 3.0, -1.0, 1e300))
                if validator.is_valid(m)]
    beyond = 0
    for mutant in accepted:
        try:
            loaded = book_from_dict(mutant)
        except SchemaError as err:
            assert re.fullmatch(_BEYOND_SCHEMA, str(err).split(", got")[0]), (err, mutant)
            beyond += 1
            continue
        for lf in loaded.leaves:
            assert type(lf.id) is int
        for g in loaded.gluings:
            assert all(type(k) is int and type(v) is int for k, v in g.mapping.items())
    assert len(accepted) - beyond > 100


def test_integral_float_ids_load_as_integers(family):
    doc = {
        "family": {"a": 9.0, "b": 4.0},
        "leaves": [{"id": 1.0, "annulus": [0.0, 2.0]}, {"id": 2, "disk": 2.0}],
        "gluings": [{"ellipse": 2.0, "cycles": [[1.0, 2]]}],
    }
    book = book_from_dict(doc)
    assert book == make_book(family, [annulus(1, 0.0, 2.0), disk(2, 2.0)], [(2.0, [[1, 2]])])
    data = book_to_dict(book)
    assert [type(lf["id"]) for lf in data["leaves"]] == [int, int]
    assert [type(x) for x in data["gluings"][0]["cycles"][0]] == [int, int]
    for bad in (1.5, True, float("inf"), float("nan")):
        for where in (("leaves", 0, "id"), ("gluings", 0, "cycles", 0, 0)):
            mutant = copy.deepcopy(doc)
            node = mutant
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] = bad
            with pytest.raises(SchemaError, match="expected an integer"):
                book_from_dict(mutant)


def test_every_valid_book_survives_its_json(books, family):
    """A book validate_book accepts loads back from dumps_book as a valid
    book with the same JSON; the empty book, whose JSON no reader takes,
    is refused."""
    empty = BilliardBook(family, ())
    corpus = [*books.values(), empty, BilliardBook(family, (disk(7, 1.0),))]
    corpus += [invert_gluings(book) for book in books.values()]
    for book in corpus:
        if validate_book(book):
            continue
        again = loads_book(dumps_book(book))
        assert validate_book(again) == []
        assert dumps_book(again) == dumps_book(book)
    assert codes(validate_book(empty)) == ["Empty"]
    with pytest.raises(SchemaError, match="non-empty array"):
        loads_book(dumps_book(empty))


def test_validate_refuses_two_gluings_on_one_ellipse(family):
    book = BilliardBook(
        family,
        (disk(1, 2.0), disk(2, 2.0)),
        (GluingPermutation(2.0, {1: 2, 2: 1}), GluingPermutation(2.0 + 5e-13, {1: 2, 2: 1})),
    )
    [violation] = validate_book(book)
    assert violation.code == "BadDomain"
    assert violation.message.startswith("two gluings keyed by ellipse")


def test_invert_gluings(family):
    book = make_book(
        family,
        [annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0), annulus(4, 0.0, 2.0)],
        [(0.0, [[1, 4]]), (2.0, [[1, 2, 3, 4]])],
    )
    inv = invert_gluings(book)
    assert inv.gluing_for(2.0).cycles() == [[1, 4, 3, 2]]
    assert inv.gluing_for(0.0).cycles() == [[1, 4]]  # involutions are fixed
    assert invert_gluings(inv) == book


def test_three_cycle_inverse(family):
    g = GluingPermutation.from_cycles(2.0, [[1, 2, 3]])
    assert g.inverse().cycles() == [[1, 3, 2]]
